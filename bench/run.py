#!/usr/bin/env python3
"""rankcodes benchmark driver.

Runs one workload in this process as a closed loop with a single client:
each trial starts when the previous one ends.  All inputs derive from
--seed; the library only sees the generated inputs.

    python3 bench/run.py --workload paper-q2n12 --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with the library unmodified.
--trace 1 is a separate run that wraps the library's public functions
(bench/tracer.py) and reports the per-layer metrics.  Human-readable lines
come first; the last line on stdout is the JSON result.  bench/README.md
describes the workloads, the metrics and the correctness checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibration
import oracles
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))
CHANNELS = ("uniform-matrix", "exact-rank")

# The host's speed drifts by tens of percent, in bursts of seconds and from
# run to run.  Each round runs one calibration window (calibration.py) and
# then one short window per phase; a window's rate is taken at the speed its
# round measured, and a metric is the median over the rounds.
ROUNDS = 40              # timed windows per phase
MIN_DECODE_TRIALS = 120  # keeps at least ten latency samples beyond p90
SETUP_BUDGET_S = 8.0     # set-up repetitions, spread over the rounds
SETUP_MAX_REPS = 200
MC_COUNT_TRIALS = 200    # per Monte Carlo cell in the deterministic count pass
FIELD_REPS = 7
FIELD_SIZES = {"mul": 2000, "add": 2000, "inv": 200, "frobenius": 500}
# share of --seconds given to each phase
PLAIN_SHARES = {"decode": 0.42, "roundtrip": 0.2, "mc": 0.33, "calibrate": 0.05}
TRACED_SHARES = {"plain": 0.38, "decode": 0.47, "mc": 0.1, "calibrate": 0.05}
TIME_UNITS = ("s", "ms", "us", "ns")


def load_library():
    """Import rankcodes from this checkout's src/, and nowhere else."""
    if not (SRC / "rankcodes" / "__init__.py").is_file():
        sys.exit(f"bench: no rankcodes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankcodes
    import rankcodes.cli
    if Path(rankcodes.__file__).resolve().parent != (SRC / "rankcodes").resolve():
        sys.exit(f"bench: imported rankcodes from {rankcodes.__file__}, not {SRC}")
    return rankcodes


class Tally:
    """Attempted and failed operations; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAILED: {what}", file=sys.stderr)


@dataclass
class Built:
    tower: object
    code: object
    dsc: object
    generator_s: float
    factorization_s: float


class Workload:
    def __init__(self, rc, name: str, seed: int, tally: Tally):
        self.rc = rc
        self.name = name
        self.seed = seed
        self.tally = tally
        self.path = HERE / "workloads" / f"{name}.json"
        self.cfg = json.loads(self.path.read_text())
        bench = self.cfg["bench"]
        self.decode_t = self.cfg["channel"]["t_values"]
        self.mc_t = bench["mc_t"]
        self.mc_batch = bench["mc_batch"]
        self.subfield_s = bench["subfield_s"]
        self.channel = self.cfg["channel"]["mode"]
        self.prefix = self.cfg["channel"]["decode_trials"]

    def build(self) -> Built:
        """Everything a user builds once, through the public constructors."""
        rc, cfg = self.rc, self.cfg
        tower = rc.FieldTower(cfg["field"]["q"], cfg["field"]["n"],
                              modulus=cfg["field"].get("modulus"))
        g = cfg["code"].get("g")
        generator_s = 0.0
        if g is None:
            start = time.perf_counter()
            g = rc.default_generator(tower)
            generator_s = time.perf_counter() - start
        code = rc.GabidulinCode(tower, cfg["code"]["k"], g=tuple(g))
        dsc = rc.DirectSumCode(code, cfg["parts"])
        factorization_s = 0.0
        if self.subfield_s:
            start = time.perf_counter()
            emb = rc.SubfieldEmbedding(tower, self.subfield_s)
            factz = rc.compute_factorization(code, self.subfield_s, embedding=emb)
            factorization_s = time.perf_counter() - start
            unique, problem = rc.verify_uniqueness(code, factz)
            self.tally.record(unique, f"verify_uniqueness: {problem}")
        return Built(tower, code, dsc, generator_s, factorization_s)


class SetUps:
    """Repeated set-ups, spread over the run so that one slow or fast
    spell of the host does not set the median."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.reps = []  # (total, generator, factorization) seconds
        self.spent = 0.0
        self.built = self.once()

    def once(self) -> Built:
        start = time.perf_counter()
        built = self.wl.build()
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        self.reps.append((elapsed, built.generator_s, built.factorization_s))
        return built

    def catch_up(self, fraction: float):
        """Repeat until `fraction` of the set-up budget is spent."""
        while self.spent < fraction * SETUP_BUDGET_S and len(self.reps) < SETUP_MAX_REPS:
            self.once()

    def median(self, column: int) -> float:
        return statistics.median(r[column] for r in self.reps)


def guarded(tally: Tally, what: str, fn, *args, **kwargs):
    """fn(*args); an unexpected exception is a failed operation, not an abort."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        tally.record(False, f"{what}: {traceback.format_exc()}")
        return None


class DecodeLoop:
    """Direct-sum decode trials, round-robin over the workload's t values.

    Each t has its own Random(f"{seed}:decode") stream and the calls follow
    decode_experiment's order, so the first trials of each stream must
    reproduce decode_experiment(M, t, trials, seed).
    """

    def __init__(self, wl: Workload, built: Built):
        self.wl = wl
        self.built = built
        self.rngs = {t: random.Random(f"{wl.seed}:decode") for t in wl.decode_t}
        self.done = 0
        self.prefix = {t: [0, 0] for t in wl.decode_t}  # successes, events
        self.latency_ns = []
        self.tracer = None

    def _trial(self, t, rng):
        rc, M, tower = self.wl.rc, self.built.dsc, self.built.tower
        message = tuple(tower.random_element(rng) for _ in range(M.message_length))
        codeword = M.encode(message)
        error = rc.directsum.sample_channel_error(M, t, rng, channel=self.wl.channel)
        received = tuple(tower.add(a, b) for a, b in zip(codeword, error))
        # oracle: exact recovery happens iff every projected rank is <= C
        event = all(rc.qlinalg.rank_of_vector(tower, part) <= M.capability
                    for part in M.project(error))
        result = M.decode(received)
        exact = result.ok and result.codeword == codeword and result.error == error
        return exact, event

    def cycle(self) -> int:
        ts = self.wl.decode_t
        for t in ts:
            index = self.done // len(ts)
            if self.tracer is not None:
                self.tracer.trial = self.done
            self.done += 1
            start = time.perf_counter_ns()
            outcome = guarded(self.wl.tally, f"decode trial t={t}", self._trial, t, self.rngs[t])
            self.latency_ns.append(time.perf_counter_ns() - start)
            if outcome is None:
                continue
            exact, event = outcome
            self.wl.tally.record(exact == event, f"decode t={t} trial {index}: "
                                 f"exact recovery {exact}, oracle {event}")
            if index < self.wl.prefix:
                self.prefix[t][0] += exact
                self.prefix[t][1] += event
        return len(ts)

    def check_prefix(self, expected):
        for t, want in expected.items():
            self.wl.tally.record(tuple(self.prefix[t]) == want,
                                 f"decode t={t}: first {self.wl.prefix} trials gave "
                                 f"{self.prefix[t]}, decode_experiment {want}")


class RoundTripLoop:
    """Full-length Gabidulin round-trips at t = C, the `roundtrip` path."""

    def __init__(self, wl: Workload, built: Built):
        self.wl = wl
        self.built = built
        self.rng = random.Random(f"{wl.seed}:roundtrip")

    def _trial(self):
        rc, code, tower, rng = self.wl.rc, self.built.code, self.built.tower, self.rng
        message = tuple(tower.random_element(rng) for _ in range(code.k))
        sent = code.encode(message)
        error = rc.qlinalg.random_error(tower, code.length, code.capability, rng)
        received = tuple(tower.add(a, b) for a, b in zip(sent, error))
        try:
            got_c, got_e = code.decode(received)
        except rc.DecodingFailure:
            return False
        return got_c == sent and got_e == error

    def cycle(self) -> int:
        ok = guarded(self.wl.tally, "round-trip", self._trial)
        if ok is not None:
            self.wl.tally.record(ok, "round-trip at t = C did not return the sent word")
        return 1


class MonteCarloLoop:
    """rank_event_rate batches over every (t, channel) cell."""

    def __init__(self, wl: Workload, built: Built):
        self.wl = wl
        self.dsc = built.dsc
        self.cells = [(t, ch) for t in wl.mc_t for ch in CHANNELS]
        self.successes = dict.fromkeys(self.cells, 0)
        self.trials = dict.fromkeys(self.cells, 0)
        self.batches = 0

    def run_cell(self, t, channel, trials, seed):
        M = self.dsc
        return guarded(self.wl.tally, f"rank_event_rate t={t} {channel}",
                       self.wl.rc.directsum.rank_event_rate, M.tower.q, M.dims,
                       M.capability, t, trials, seed, channel=channel)

    def cycle(self) -> int:
        for t, channel in self.cells:
            seed = f"{self.wl.seed}:mc:{self.batches}:{t}:{channel}"
            result = self.run_cell(t, channel, self.wl.mc_batch, seed)
            if result is not None:
                self.successes[t, channel] += result.successes
                self.trials[t, channel] += result.trials
        self.batches += 1
        return self.wl.mc_batch * len(self.cells)

    def check(self):
        M = self.dsc
        for t, channel in self.cells:
            if channel == "uniform-matrix":
                p = self.wl.rc.success_probability(M.tower.q, M.dims, M.capability, t)
            else:
                p = oracles.exact_rank_success_probability(M.tower.q, M.dims, M.capability, t)
            got, n = self.successes[t, channel], self.trials[t, channel]
            lo, hi = oracles.success_window(p, n)
            self.wl.tally.record(n > 0 and lo <= got <= hi,
                                 f"MC t={t} {channel}: {got}/{n} successes, "
                                 f"exact p={float(p):.3g} allows [{lo:.1f}, {hi:.1f}]")


def calibrate_step() -> int:
    calibration.kernel()
    return 1


def timed_window(step, budget_s: float, min_units: int = 0) -> float:
    """Run whole steps until the budget is spent; units per second."""
    units = 0
    start = time.perf_counter()
    while True:
        units += step()
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s and units >= min_units:
            return units / elapsed


def reference_checks(wl: Workload, built: Built):
    """decode_experiment prefixes and one `rankcodes simulate` run on the
    workload's config; returns {t: (successes, event_successes)}."""
    rc, M, tally = wl.rc, built.dsc, wl.tally
    expected = {}
    for t in wl.decode_t:
        exp = guarded(tally, f"decode_experiment t={t}", rc.decode_experiment,
                      M, t, wl.prefix, wl.seed, channel=wl.channel)
        if exp is not None:
            tally.record(exp.successes == exp.event_successes,
                         f"decode_experiment t={t}: {exp.successes} successes, "
                         f"{exp.event_successes} rank events")
            expected[t] = (exp.successes, exp.event_successes)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = guarded(tally, "rankcodes simulate", rc.cli.main,
                         ["simulate", "--config", str(wl.path), "--seed", str(wl.seed)])
    tally.record(status == 0, f"rankcodes simulate exited {status}")
    guarded(tally, "rankcodes simulate records", check_simulate_records,
            wl, built, out.getvalue(), expected)
    return expected


def check_simulate_records(wl: Workload, built: Built, output: str, expected):
    """Each record must match direct library calls with the same seed."""
    rc, M, tally = wl.rc, built.dsc, wl.tally
    records = [json.loads(line) for line in output.splitlines()]
    ch = wl.cfg["channel"]
    tally.record(len(records) == len(ch["t_values"]),
                 f"rankcodes simulate wrote {len(records)} records")
    for rec in records:
        rec.pop("field_mul_count")
        t = rec["params"]["t"]
        mc = rc.rank_event_rate(M.tower.q, M.dims, M.capability, t, ch["trials"],
                                wl.seed, channel=ch["mode"])
        exact = rc.success_probability(M.tower.q, M.dims, M.capability, t)
        got = (rec["successes"], rec["exact_fraction"],
               (rec["decode_successes"], rec["decode_event_successes"]))
        want = (mc.successes, [exact.numerator, exact.denominator], expected.get(t))
        tally.record(got == want, f"rankcodes simulate t={t}: {got} != {want}")
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    print(f"rankcodes simulate: {len(records)} records, digest {digest[:16]} "
          f"(field_mul_count excluded; equal seeds give equal digests)")


def percentile(sorted_values, q: float):
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def host_speed(budget_s: float) -> float:
    """Host speed against the reference, from one calibration window."""
    return timed_window(calibrate_step, budget_s) / calibration.REFERENCE_CALLS_PER_S


def run_plain(wl: Workload, seconds: int, metrics: dict):
    """End-to-end metrics.  Every window, latency and set-up is scaled by the
    host speed measured in the calibration window of its own round."""
    setups = SetUps(wl)
    built = setups.built
    expected = reference_checks(wl, built)
    decode = DecodeLoop(wl, built)
    roundtrip = RoundTripLoop(wl, built)
    mc = MonteCarloLoop(wl, built)
    per = seconds / ROUNDS
    min_decode = math.ceil(MIN_DECODE_TRIALS / ROUNDS)
    rates = {"decode": [], "roundtrip": [], "mc": []}
    raw_rates = {"decode": [], "roundtrip": [], "mc": []}
    speeds, latency_ns, setup_s = [], [], []
    for k in range(ROUNDS):
        setups.catch_up((k + 1) / ROUNDS)
        speed = host_speed(per * PLAIN_SHARES["calibrate"])
        speeds.append(speed)
        setup_s += [r[0] * speed for r in setups.reps[len(setup_s):]]
        first = len(decode.latency_ns)
        raw_rates["decode"].append(
            timed_window(decode.cycle, per * PLAIN_SHARES["decode"], min_decode))
        latency_ns += [ns * speed for ns in decode.latency_ns[first:]]
        raw_rates["roundtrip"].append(
            timed_window(roundtrip.cycle, per * PLAIN_SHARES["roundtrip"]))
        raw_rates["mc"].append(timed_window(mc.cycle, per * PLAIN_SHARES["mc"]))
        for phase, raw in raw_rates.items():
            rates[phase].append(raw[-1] / speed)
    decode.check_prefix(expected)
    mc.check()

    latency_ns.sort()
    raw_latency_ns = sorted(decode.latency_ns)
    p50, _ = percentile(latency_ns, 0.50)
    p90, beyond = percentile(latency_ns, 0.90)
    raw_p50, _ = percentile(raw_latency_ns, 0.50)
    raw_p90, _ = percentile(raw_latency_ns, 0.90)
    note = f"{len(latency_ns)} trials, {beyond} beyond p90"
    raw_setup_s = statistics.median(r[0] for r in setups.reps)

    def unscaled(value):
        return f"; unscaled {value:.6g}"

    metrics["decode_trials_per_s"] = (
        statistics.median(rates["decode"]), "1/s",
        f"median of {ROUNDS} windows, {decode.done} trials"
        + unscaled(statistics.median(raw_rates["decode"])))
    metrics["decode_p50_ms"] = (p50 / 1e6, "ms", note + unscaled(raw_p50 / 1e6))
    metrics["decode_p90_ms"] = (p90 / 1e6, "ms", note + unscaled(raw_p90 / 1e6))
    metrics["roundtrip_per_s"] = (
        statistics.median(rates["roundtrip"]), "1/s",
        f"median of {ROUNDS} windows, t = C = {built.code.capability}"
        + unscaled(statistics.median(raw_rates["roundtrip"])))
    metrics["mc_trials_per_s"] = (
        statistics.median(rates["mc"]), "1/s",
        f"median of {ROUNDS} windows, {len(mc.cells)} cells"
        + unscaled(statistics.median(raw_rates["mc"])))
    metrics["setup_s"] = (statistics.median(setup_s), "s",
                          f"median of {len(setup_s)} set-ups" + unscaled(raw_setup_s))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", "whole process")
    return statistics.median(speeds)


def field_microbench(wl: Workload, tower):
    """Median ns per call of each field operation on fixed seeded operands."""
    rng = random.Random(f"{wl.seed}:field")
    operands = {op: [rng.randrange(1, tower.order) for _ in range(size)]
                for op, size in FIELD_SIZES.items()}
    frob_i = [rng.randrange(1, tower.n) for _ in operands["frobenius"]]
    calls = {
        "mul": (tower.mul, list(zip(operands["mul"], reversed(operands["mul"])))),
        "add": (tower.add, list(zip(operands["add"], reversed(operands["add"])))),
        "frobenius": (tower.frobenius, list(zip(operands["frobenius"], frob_i))),
    }
    out = {}
    for op, (fn, pairs) in calls.items():
        samples = []
        for _ in range(FIELD_REPS):
            start = time.perf_counter_ns()
            for a, b in pairs:
                fn(a, b)
            samples.append((time.perf_counter_ns() - start) / len(pairs))
        out[op] = statistics.median(samples)
    inv, samples = tower.inv, []
    for _ in range(FIELD_REPS):
        start = time.perf_counter_ns()
        for a in operands["inv"]:
            inv(a)
        samples.append((time.perf_counter_ns() - start) / len(operands["inv"]))
    out["inv"] = statistics.median(samples)
    wl.tally.record(all(tower.mul(a, inv(a)) == 1 for a in operands["inv"]),
                    "field: x * inv(x) != 1")
    return out


def count_passes(wl: Workload, built: Built, expected):
    """Fixed trial sets, so every count must repeat exactly between two
    traced passes.  The wrappers call the tower's own operations, so its
    mul_count is the untraced figure."""
    tower, tally = built.tower, wl.tally
    passes = []
    for _ in range(2):
        loop = DecodeLoop(wl, built)
        muls = tower.mul_count
        with Tracer(tower) as tracer:
            loop.tracer = tracer
            for _ in range(wl.prefix):
                loop.cycle()
        loop.check_prefix(expected)
        passes.append((tower.mul_count - muls, tracer))
    mc_passes = []
    for _ in range(2):
        mc = MonteCarloLoop(wl, built)
        with Tracer(tower) as tracer:
            for t, channel in mc.cells:
                mc.run_cell(t, channel, MC_COUNT_TRIALS, f"{wl.seed}:mccount:{t}:{channel}")
        mc_passes.append(tracer)

    def signature(tracer):
        return dict(tracer.calls), tracer.children_of("directsum.sample", "qlinalg.rank")

    muls = [m for m, _ in passes]
    tally.record(len(set(muls)) == 1, f"field.mul_count drifted between passes: {muls}")
    a, b = passes[0][1], passes[1][1]
    tally.record(signature(a) == signature(b),
                 f"traced decode counts drifted: {signature(a)} vs {signature(b)}")
    tally.record(signature(mc_passes[0]) == signature(mc_passes[1]),
                 "traced Monte Carlo counts drifted")
    return muls[0], a, mc_passes[0], wl.prefix * len(wl.decode_t), len(mc.cells) * MC_COUNT_TRIALS


def run_traced(wl: Workload, seconds: int, metrics: dict):
    """Per-layer metrics: exact counts from fixed count passes, then rounds of
    an untraced decode window, a traced decode window and a traced Monte
    Carlo window.  Times are scaled by the run's median host speed."""
    setups = SetUps(wl)
    built = setups.built
    tower = built.tower
    expected = reference_checks(wl, built)
    field_ns = field_microbench(wl, tower)
    mul_count, counted, mc_counted, n_count, n_mc_count = count_passes(wl, built, expected)

    decode = DecodeLoop(wl, built)
    mc = MonteCarloLoop(wl, built)
    dec_tracer, mc_tracer = Tracer(tower), Tracer(tower)
    per = seconds / ROUNDS
    min_decode = math.ceil(MIN_DECODE_TRIALS / ROUNDS / 2)
    plain_rates, traced_rates, speeds = [], [], []
    traced_trials = mc_trials = 0
    for k in range(ROUNDS):
        setups.catch_up((k + 1) / ROUNDS)
        speeds.append(host_speed(per * TRACED_SHARES["calibrate"]))
        plain_rates.append(timed_window(decode.cycle, per * TRACED_SHARES["plain"], min_decode))
        before = decode.done
        decode.tracer = dec_tracer
        with dec_tracer:
            traced_rates.append(timed_window(decode.cycle, per * TRACED_SHARES["decode"], min_decode))
        decode.tracer = None
        traced_trials += decode.done - before
        before = mc.batches
        with mc_tracer:
            timed_window(mc.cycle, per * TRACED_SHARES["mc"])
        mc_trials += (mc.batches - before) * wl.mc_batch * len(mc.cells)
    decode.check_prefix(expected)
    mc.check()

    for op in ("mul", "add", "inv", "frobenius"):
        metrics[f"field.{op}_ns"] = (field_ns[op], "ns", "microbenchmark median")
    metrics["field.mul_count"] = (mul_count / n_count, "count", "tower counter per decode trial")
    calls = counted.calls
    for op in ("mul", "add", "inv", "frobenius"):
        metrics[f"field.{op}_calls"] = (calls[f"field.{op}"] / n_count, "count", "per decode trial")
    totals = dec_tracer.totals()

    def per_trial_ms(name, column):  # column 1: inclusive, 2: self
        return totals[name][column] / traced_trials / 1e6

    for name in ("qlinalg.coord_solve", "qlinalg.ext_solve", "qlinalg.rank",
                 "linpoly.root_space", "subspace.to_parent", "subspace.from_parent"):
        metrics[f"{name}.self_ms"] = (per_trial_ms(name, 2), "ms", "self time per decode trial")
        metrics[f"{name}.calls"] = (calls[name] / n_count, "count", "per decode trial")
    metrics["qlinalg.rank.mc_self_us"] = (
        mc_tracer.totals()["qlinalg.rank"][2] / mc_trials / 1e3, "us", "self time per MC trial")
    metrics["qlinalg.rank.mc_calls"] = (
        mc_counted.calls["qlinalg.rank"] / n_mc_count, "count", "per MC trial")
    metrics["linpoly.evaluate.calls"] = (calls["linpoly.evaluate"] / n_count, "count", "per decode trial")
    metrics["gabidulin.decode.ms"] = (per_trial_ms("gabidulin.decode", 1), "ms", "inclusive, per decode trial")
    metrics["gabidulin.encode.self_ms"] = (per_trial_ms("gabidulin.encode", 2), "ms", "per decode trial")
    metrics["gabidulin.syndromes.calls_per_decode"] = (
        calls["gabidulin.syndromes"] / calls["gabidulin.decode"], "count", "per Gabidulin decode")
    metrics["gabidulin.solves_per_decode"] = (
        calls["qlinalg.ext_solve"] / calls["gabidulin.decode"], "count", "ext_solve calls per Gabidulin decode")
    metrics["gabidulin.default_generator_ms"] = (
        setups.median(1) * 1e3, "ms", "set-up median; 0 when code.g is given")
    for name in ("directsum.encode", "directsum.project", "directsum.sample"):
        metrics[f"{name}.self_ms"] = (per_trial_ms(name, 2), "ms", "self time per decode trial")
    metrics["directsum.decode.ms"] = (per_trial_ms("directsum.decode", 1), "ms", "inclusive, per decode trial")
    metrics["directsum.sample.rank_checks"] = (
        counted.children_of("directsum.sample", "qlinalg.rank") / calls["directsum.sample"],
        "count", "rank calls per sampled error")
    metrics["subfield.factorization_ms"] = (
        setups.median(2) * 1e3, "ms", "set-up median; 0 without a subfield")
    plain, traced = statistics.median(plain_rates), statistics.median(traced_rates)
    metrics["trace.overhead_frac"] = (plain / traced - 1.0, "ratio",
                                      f"untraced {plain:.1f}/s vs traced {traced:.1f}/s")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{wl.name}-seed{wl.seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for label, tracer in (("count", counted), ("decode", dec_tracer), ("mc", mc_tracer)):
            tracer.write(fh, label)
    print(f"spans written to {path.relative_to(HERE.parent)}")

    # per-layer times at the reference speed, scaled by the run's median
    speed = statistics.median(speeds)
    for name, (value, unit, note) in metrics.items():
        if unit in TIME_UNITS:
            metrics[name] = (value * speed, unit, f"{note}; unscaled {value:.6g}")
    return speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    rc = load_library()
    tally = Tally()
    wl = Workload(rc, args.workload, args.seed, tally)
    metrics = {}
    speed = (run_traced if args.trace else run_plain)(wl, args.seconds, metrics)

    print(f"times at the reference host speed (bench/calibration.py), the "
          f"host's own figures as 'unscaled'; this host ran at {speed:.3f} x reference")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} {note}")
    print(f"error_rate {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
