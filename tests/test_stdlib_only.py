"""The package runs on the Python standard library alone: every import in
src/rankcodes is a standard-library module or the package itself.  And the
lane format of packed GF(q) digits, and the tables and raw arithmetic behind
FieldTower's primitives, live in field.py alone; the CLI turns a library
ValueError into a ConfigError in one place; and the GF(q^n) row step runs
in one elimination kernel."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcodes"


def _imported_modules(path):
    """Top-level names of the absolute imports in a module; relative
    imports (`from .field import ...`) stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"rankcodes"}
    outside = {f"{path.name}: {name}" for path in sources
               for name in _imported_modules(path) if name not in allowed}
    assert not outside, sorted(outside)


# what packs, unpacks or reduces lanes of bytes: the byte-level calls and struct
LANE_CALLS = {"translate", "to_bytes", "from_bytes"}


def test_lane_format_lives_in_field():
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        if "struct" in _imported_modules(path):
            outside.add(f"{path.name}: imports struct")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in LANE_CALLS):
                outside.add(f"{path.name}:{node.lineno}: {node.func.attr}")
    assert not outside, sorted(outside)


# FieldTower's tables, map caches and raw arithmetic: the fast paths behind its primitives
TOWER_PRIVATES = {"_exp", "_log", "_zech", "_frob", "_reduce", "_comb", "_mul_raw",
                  "_alpha_multiples", "_frobenius_map", "_frobenius_images",
                  "_power_maps", "_power_map", "_half"}


def test_tower_privates_stay_in_field():
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in TOWER_PRIVATES:
                outside.add(f"{path.name}:{node.lineno}: {node.attr}")
    assert not outside, sorted(outside)


def test_cli_translates_value_errors_in_one_place():
    """The library checks the values it takes; cli.py reports its ValueError
    through `_section` alone, so a new subcommand cannot grow its own copy."""
    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = [(func.name, node.lineno) for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func)
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and "ValueError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}]
    assert [name for name, _ in handlers] == ["_section"], handlers


# the GF(q^n) row step [y + c x], `FieldTower.axpy` and the `_HalfField`'s
# composite one, and `_half_field`, the tower's accessor of the half field
ROW_STEPS = {"axpy", "_half_field"}


def test_row_steps_run_only_in_the_one_elimination_kernel():
    """ROADMAP's one elimination kernel: src/ names a row step or the half
    field nowhere but inside `qlinalg._rref_ext` (a definition is no use)."""
    outside, inside = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kernel = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "_rref_ext"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, (ast.Attribute, ast.Name)) and name in ROW_STEPS:
                (inside if id(node) in kernel else outside).add(f"{path.name}:{node.lineno}")
    assert inside and all(at.startswith("qlinalg.py:") for at in inside), sorted(inside)
    assert not outside, sorted(outside)
