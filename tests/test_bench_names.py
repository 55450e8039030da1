"""The benchmark harness in bench/ reaches into the library by name.

bench/tracer.py wraps the methods and functions listed in its SPANNED_* and
COUNTED_* tables, and bench/run.py reads attributes off the package as
`rc.<name>`.  A name missing from rankcodes would only show when the
benchmark runs (`bench/run.py --trace 1` crashes while installing the
tracer), so both are checked here, and so is that a trial reaches the
calls the traced run divides by.  bench/ is parsed, not imported.
"""

import ast
import importlib
import json
import random
from collections import Counter
from pathlib import Path

from conftest import bounded

import rankcodes
import rankcodes.cli  # noqa: F401  (run.py reads rc.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer_tables():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith(("SPANNED_", "COUNTED_"))}


def _rc_paths():
    """Every attribute chain read off a name or attribute called `rc`."""
    paths = set()
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            if node.attr == "rc":
                break
            chain.append(node.attr)
            node = node.value
        if chain and (isinstance(node, ast.Attribute)
                      or isinstance(node, ast.Name) and node.id == "rc"):
            paths.add(tuple(reversed(chain)))
    return paths


def test_tracer_targets_exist():
    tables = _tracer_tables()
    assert {"SPANNED_METHODS", "COUNTED_METHODS", "SPANNED_FUNCTIONS"} <= set(tables)
    for name, entries in tables.items():
        assert entries, name
        for entry in entries:
            module = importlib.import_module(f"rankcodes.{entry[0]}")
            if len(entry) == 4:  # (module, class, method, span name)
                cls = getattr(module, entry[1], None)
                # the tracer patches cls.__dict__[method], so it must be defined there
                assert cls is not None and entry[2] in vars(cls), (name, entry)
            else:  # (module, function, span name)
                assert callable(getattr(module, entry[1], None)), (name, entry)


def test_run_reads_existing_names():
    paths = _rc_paths()
    assert paths
    for path in sorted(paths):
        obj = rankcodes
        for attr in path:
            assert hasattr(obj, attr), "rc." + ".".join(path)
            obj = getattr(obj, attr)


def test_a_paper_trial_reaches_the_names_the_harness_divides_by(monkeypatch):
    """bench/run.py --trace 1 divides its per-layer figures by the calls of
    `GabidulinCode.decode`, and spans `sample_channel_error` where run.py
    reads it, `rc.directsum`.  One paper-q2n12 trial, as run.py runs it,
    must call the first once per part and the second once."""
    cfg = json.loads((BENCH / "workloads" / "paper-q2n12.json").read_text())
    tower = rankcodes.FieldTower(cfg["field"]["q"], cfg["field"]["n"])
    code = rankcodes.GabidulinCode(tower, cfg["code"]["k"], g=rankcodes.default_generator(tower))
    M = rankcodes.DirectSumCode(code, cfg["parts"])
    calls = Counter()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rankcodes.GabidulinCode, "decode",
                        spy("decode", rankcodes.GabidulinCode.decode))
    monkeypatch.setattr(rankcodes.directsum, "sample_channel_error",
                        spy("sample", rankcodes.directsum.sample_channel_error))
    rng = random.Random(f"{cfg['channel']['seed']}:decode")
    with bounded(10):
        codeword = M.encode(tuple(tower.random_element(rng) for _ in range(M.message_length)))
        error = rankcodes.directsum.sample_channel_error(
            M, M.capability, rng, channel=cfg["channel"]["mode"])
        M.project(error)
        result = M.decode(tuple(tower.add(a, b) for a, b in zip(codeword, error)))
    assert result.ok and result.codeword == codeword
    assert calls == {"decode": len(cfg["parts"]), "sample": 1}
