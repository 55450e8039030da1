"""The benchmark harness in bench/ reaches into the library by name.

bench/tracer.py wraps the methods and functions listed in its SPANNED_* and
COUNTED_* tables, and bench/run.py reads attributes off the package as
`rc.<name>`.  A name missing from rankcodes would only show when the
benchmark runs (`bench/run.py --trace 1` crashes while installing the
tracer), so both are checked here.  bench/ is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

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
