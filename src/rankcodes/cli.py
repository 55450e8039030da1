"""Batch experiment harness: construct codes from a JSON config, run
encode/decode round-trips, Monte Carlo campaigns, and subfield
factorizations, and emit machine-readable JSON Lines records.

Exit codes: 0 success, 2 configuration error, 3 internal invariant
violation.  Seeds are mandatory for simulation so outputs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import random
import sys

from .directsum import DirectSumCode, decode_experiment, rank_event_rate, success_probability
from .field import FieldTower
from .gabidulin import DecodingFailure, GabidulinCode, default_generator
from .qlinalg import count_rank_matrices, random_error, rank_of_vector
from .subfield import SubfieldEmbedding, compute_factorization, verify_uniqueness
from .subspace import SubspaceBasis


class ConfigError(Exception):
    pass


class InternalError(Exception):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def _section(name: str):
    """Report a ValueError of the library, which checks every value it
    takes, as a ConfigError of the named config section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _load_code(args):
    """The config at args.config, its field tower and its Gabidulin code."""
    cfg = _load_config(args.config)
    try:
        field_cfg = cfg["field"]
        q, n = field_cfg["q"], field_cfg["n"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"field section needs integer q and n: {exc}") from exc
    with _section("field"):
        tower = FieldTower(q, n, modulus=field_cfg.get("modulus"))
    code_cfg = cfg.get("code") or {}
    try:
        k = code_cfg["k"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"code section needs integer k: {exc}") from exc
    g, h = code_cfg.get("g"), code_cfg.get("h")
    for name, vec in (("g", g), ("h", h)):
        if vec is not None and not isinstance(vec, list):
            raise ConfigError(f"code.{name} must be a list, got {vec!r}")
    if g is None and h is None:
        g = default_generator(tower)
    with _section("code"):
        return cfg, tower, GabidulinCode(tower, k, g=g, h=h)


def _build_parts(cfg: dict, tower: FieldTower):
    parts = cfg.get("parts")
    if not (parts and isinstance(parts, list) and all(isinstance(p, list) for p in parts)):
        raise ConfigError(f"parts must be a nonempty list of lists, got {parts!r}")
    with _section("parts"):
        return [SubspaceBasis(tower, p) for p in parts]


def _channel(cfg: dict, args) -> dict:
    ch = cfg.get("channel") or {}
    if not isinstance(ch, dict):
        raise ConfigError(f"channel section must be an object, got {ch!r}")
    ch = {"mode": "uniform-matrix", "decode_trials": 0, **ch}
    for key, flag in (("trials", "trials"), ("seed", "seed"), ("t_values", "t")):
        if getattr(args, flag, None) is not None:
            ch[key] = getattr(args, flag)
    if ch.get("seed") is None:
        raise ConfigError("a seed is required (config channel.seed or --seed)")
    if type(ch.get("trials")) is not int or ch["trials"] < 1:
        raise ConfigError("channel.trials must be a positive integer")
    t_values = ch.get("t_values")
    if not isinstance(t_values, list) or not all(type(t) is int and t >= 0 for t in t_values):
        raise ConfigError("channel.t_values must be a list of nonnegative integers")
    if type(ch["decode_trials"]) is not int or ch["decode_trials"] < 0:
        raise ConfigError("channel.decode_trials must be a nonnegative integer")
    if ch["mode"] not in ("uniform-matrix", "exact-rank"):
        raise ConfigError(f"unknown channel mode {ch['mode']!r}")
    return ch


def _emit(records, args):
    text = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    csv_path = getattr(args, "csv", None)
    if csv_path and records:
        keys = sorted({k for r in records for k in _flatten(r)})
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for r in records:
                writer.writerow(_flatten(r))


def _flatten(record, prefix=""):
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


# ---------------------------------------------------------------------------
# subcommands

def _cmd_code_info(args):
    _, tower, code = _load_code(args)
    record = {
        "q": tower.q, "n": tower.n, "modulus": list(tower.modulus),
        "length": code.length, "k": code.k, "d": code.d, "capability": code.capability,
        "g": list(code.g) if code.g is not None else None, "h": list(code.h),
        "generator_rank": rank_of_vector(tower, code.g) if code.g is not None else None,
        "parity_rank": rank_of_vector(tower, code.h),
    }
    _emit([record], args)
    return 0


def _cmd_roundtrip(args):
    _, tower, code = _load_code(args)
    if code.g is None:
        raise ConfigError("roundtrip needs a generator vector")
    if args.seed is None:
        raise ConfigError("roundtrip needs --seed")
    if not 0 <= args.t <= code.capability:
        raise ConfigError(f"--t {args.t} outside 0..capability {code.capability}")
    if args.trials < 0:
        raise ConfigError(f"--trials {args.trials} is negative")
    rng = random.Random(args.seed)
    muls0 = tower.mul_count
    successes = 0
    for _ in range(args.trials):
        message = tuple(tower.random_element(rng) for _ in range(code.k))
        sent = code.encode(message)
        error = random_error(tower, code.length, args.t, rng)
        received = tuple(tower.add(a, b) for a, b in zip(sent, error))
        try:
            got_c, got_e = code.decode(received)
        except DecodingFailure:
            continue
        if got_c == sent and got_e == error:
            successes += 1
    record = {
        "command": "roundtrip",
        "trials": args.trials,
        "t": args.t,
        "seed": args.seed,
        "successes": successes,
        "field_mul_count": tower.mul_count - muls0,
        "code": {"q": tower.q, "n": tower.n, "k": code.k, "d": code.d},
    }
    _emit([record], args)
    if successes != args.trials:
        raise InternalError(
            f"bounded-distance decoding failed {args.trials - successes} "
            f"round-trips at t={args.t} <= capability")
    return 0


def _cmd_simulate(args):
    cfg, tower, code = _load_code(args)
    parts = _build_parts(cfg, tower)
    ch = _channel(cfg, args)
    with _section("parts"):
        dsc = DirectSumCode(code, parts)
    decode_trials = ch["decode_trials"]
    if decode_trials and None in dsc.parents:
        raise ConfigError("decode_trials needs every part dimension >= d")
    records = []
    for t in ch["t_values"]:
        muls0 = tower.mul_count
        with _section("channel"):
            mc = rank_event_rate(tower.q, dsc.dims, dsc.capability, t,
                                 ch["trials"], ch["seed"], channel=ch["mode"])
            exp = (decode_experiment(dsc, t, decode_trials, ch["seed"], channel=ch["mode"])
                   if decode_trials else None)
        exact = success_probability(tower.q, dsc.dims, dsc.capability, t)
        leading = success_probability(tower.q, dsc.dims, dsc.capability, t,
                                      form="leading-order")
        record = {
            "command": "simulate",
            "params": {
                "q": tower.q, "n": tower.n, "modulus": list(tower.modulus),
                "k": code.k, "d": code.d, "capability": dsc.capability, "dims": dsc.dims,
                "parts": [list(p.elements) for p in dsc.parts], "t": t, "mode": ch["mode"],
                "trials": ch["trials"], "decode_trials": decode_trials, "seed": ch["seed"],
            },
            "exact_probability": float(exact),
            "exact_fraction": [exact.numerator, exact.denominator],
            "leading_order": leading,
            "empirical": mc.frequency,
            "half_width": mc.half_width,
            "successes": mc.successes,
            "decode_successes": exp and exp.successes,
            "field_mul_count": tower.mul_count - muls0,
        }
        if exp:
            record["decode_event_successes"] = exp.event_successes
        records.append(record)
    _emit(records, args)
    return 0


def _cmd_subfield(args):
    cfg, tower, code = _load_code(args)
    section = cfg.get("subfield") or {}
    if not isinstance(section, dict):
        raise ConfigError(f"subfield: section must be an object, got {section!r}")
    s = args.s if args.s is not None else section.get("s")
    if s is None:
        raise ConfigError("subfield degree required (config subfield.s or --s)")
    with _section("subfield"):
        emb = SubfieldEmbedding(tower, s)
        factz = compute_factorization(code, s, embedding=emb)
    ok, problem = verify_uniqueness(code, factz)
    if not ok:
        raise InternalError(f"uniqueness verification failed: {problem}")
    record = {
        "command": "subfield", "q": tower.q, "n": tower.n, "k": code.k, "d": code.d,
        "s": factz.s, "subfield_basis": list(factz.subfield_basis),
        "ext_basis": list(factz.ext_basis),
        "A": [list(r) for r in factz.block],
        "S": [list(r) for r in factz.transform],
        "H_qs": [list(r) for r in factz.parity],
        "unique": ok,
    }
    _emit([record], args)
    return 0


def _cmd_count(args):
    with _section("count"):
        value = count_rank_matrices(args.q, args.m, args.t, args.rank)
    _emit([{"command": "count", "q": args.q, "m": args.m, "t": args.t,
            "rank": args.rank, "count": str(value)}], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankcodes",
        description="Rank-metric code constructions and decoding experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, config=True):
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", required=True)
        p.add_argument("--output", help="write JSON Lines here instead of stdout")
        p.add_argument("--csv", help="also write a flat CSV projection")
        p.set_defaults(func=func)
        return p

    command("code-info", _cmd_code_info, "resolve and describe a code")
    p_rt = command("roundtrip", _cmd_roundtrip, "seeded encode/decode round-trips")
    p_rt.add_argument("--trials", type=int, default=100)
    p_rt.add_argument("--t", type=int, default=1, help="error rank per trial")
    p_rt.add_argument("--seed", type=int)
    p_sim = command("simulate", _cmd_simulate, "Monte Carlo success-rate campaign")
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--t", type=int, nargs="+", help="override t values")
    p_sf = command("subfield", _cmd_subfield, "compute the subfield factorization")
    p_sf.add_argument("--s", type=int)
    p_cnt = command("count", _cmd_count, "count q-ary matrices by rank", config=False)
    for name in ("q", "m", "t", "rank"):
        p_cnt.add_argument(name, type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
