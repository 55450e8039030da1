"""The package runs on the Python standard library alone: every import in
src/rankcodes is a standard-library module or the package itself.  And the
lane format of packed GF(q) digits, and the tables and raw arithmetic behind
FieldTower's primitives, live in field.py alone; the CLI turns a library
ValueError into a ConfigError in one place; the GF(q^n) row step runs
in one elimination kernel; and GF(q)-coordinates over fixed elements come
from one class, `CoordinateSolver`, whose public name for a subspace basis
is `SubspaceBasis`, reached as a public attribute, not through a method that
only forwards to it."""

import ast
import sys
from pathlib import Path

import rankcodes

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


def test_one_coordinate_class():
    """A subspace basis is the `CoordinateSolver` over its elements, not a
    wrapper around it: no class in src/ subclasses it, under either name."""
    assert rankcodes.SubspaceBasis is rankcodes.CoordinateSolver
    names = {"CoordinateSolver", "SubspaceBasis"}
    subclasses = {f"{path.name}:{node.lineno}: {node.name}"
                  for path in sorted(SRC.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.ClassDef)
                  and any((getattr(b, "id", None) or getattr(b, "attr", None)) in names
                          for b in node.bases)}
    assert not subclasses, sorted(subclasses)


def _only_forwards(func):
    """Whether the body past the docstring is one `return self.<attr>.<method>(...)`."""
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Attribute)
            and isinstance(call.func.value.value, ast.Name) and call.func.value.value.id == "self")


def test_no_method_only_forwards_to_another_object():
    """Such a method adds a name and nothing else: callers reach the
    attribute's object directly, as they do `code.h_basis`."""
    forwards = {f"{path.name}:{func.lineno}: {cls.name}.{func.name}"
                for path in sorted(SRC.glob("*.py"))
                for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(cls, ast.ClassDef)
                for func in cls.body
                if isinstance(func, ast.FunctionDef) and _only_forwards(func)}
    assert not forwards, sorted(forwards)
