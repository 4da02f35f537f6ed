"""Every name a library or test module imports is used in that module,
every module-level private function of a library or test module is used
somewhere in the library or in the tests respectively,
every module-level public function is exported or used somewhere in the
library, every module-level constant of a library module is read
somewhere in the library, and every `InternalInconsistency` raised in the
library formats a polygon's `vertex_text()`, every
`VerificationMismatch` is raised with a `where`, and no library call hands
`linear_apply` or `apply` a `Vec2` built from `Fraction`s. Rationals are
put over a common denominator by `geometry._over_common_denominator`
alone: it is the one function of that name and the one caller of `lcm`.
A fresh interpreter that imports `polychow` or `polychow.cli` loads
neither `dataclasses` nor the replication suite.

`__init__.py` is left out of the import check: its imports are the
package's public names. Names in quoted annotations count as uses, and so
do names that a test module imports from another one, as the tests import
`quadrilateral` from `conftest`.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import polychow

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polychow"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    """The syntax tree of the file, parsed once per session."""
    return ast.parse(path.read_text(), filename=path.name)


def _imported_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "VecPoly"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_modules_found():
    assert "counting.py" in MODULES


@lru_cache(maxsize=None)
def _imported_from() -> dict[str, set[str]]:
    """The names that the test modules import from each module, such as
    `quadrilateral` from the test module `conftest`, keyed by the module
    name as written in the import; one walk over the test modules."""
    names: dict[str, set[str]] = {}
    for path in TESTS.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module:
                names.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path",
    [PACKAGE / m for m in MODULES] + [TESTS / m for m in TEST_MODULES],
    ids=MODULES + [f"tests/{m}" for m in TEST_MODULES],
)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree) | _imported_from().get(path.stem, set())
    assert sorted(_imported_names(tree) - used) == []


def _functions_and_uses(
    directory: Path = PACKAGE, modules: list[str] = MODULES
) -> tuple[set[str], set[str]]:
    """Module-level function names of the modules in the directory, by
    default the library's (dunders left out), and the names they use
    outside the body of the function of the same name, so that a function
    that only calls itself counts as unused. `__init__.py`, whose imports
    only re-export, is left out of the library's modules."""
    defined: set[str] = set()
    used: set[str] = set()
    for module in modules:
        for node in _tree(directory / module).body:
            owner = None
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("__"):
                    defined.add(node.name)
                owner = node.name
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    name = inner.id
                elif isinstance(inner, ast.Attribute):
                    name = inner.attr
                elif isinstance(inner, ast.alias):
                    name = inner.name
                else:
                    continue
                if name != owner:
                    used.add(name)
    return defined, used


def test_no_dead_private_functions():
    defined, used = _functions_and_uses()
    private = {name for name in defined if name.startswith("_")}
    assert "_dilation_moments" in private
    assert sorted(private - used) == []


def test_no_dead_private_test_helpers():
    defined, used = _functions_and_uses(TESTS, TEST_MODULES)
    private = {name for name in defined if name.startswith("_")}
    assert {"_vertex_hash", "_outcome"} <= private
    assert sorted(private - used) == []


def test_no_dead_public_functions():
    defined, used = _functions_and_uses()
    public = {name for name in defined if not name.startswith("_")}
    assert {"chop_corners", "main"} <= public
    assert sorted(public - set(polychow.__all__) - used) == []


def _constants_and_reads() -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """The (module, name) pairs assigned at module level in the library
    modules (dunders left out), and the (module, name) pairs that the
    library reads: a bare name read in its own module outside the statement
    that assigns it, a name imported from a module, and `module.name`."""
    assigned: set[tuple[str, str]] = set()
    reads: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in _tree(path).body:
            owned: set[str] = set()
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                owned = {
                    n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and not n.id.startswith("__")
                }
                assigned.update((module, name) for name in owned)
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    if inner.id not in owned:
                        reads.add((module, inner.id))
                elif isinstance(inner, ast.ImportFrom) and inner.module:
                    source = inner.module.rsplit(".", 1)[-1]
                    reads.update((source, alias.name) for alias in inner.names)
                elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name):
                    reads.add((inner.value.id, inner.attr))
    return assigned, reads


def test_no_dead_module_constants():
    assigned, reads = _constants_and_reads()
    assert ("counting", "DEFAULT_MAX_ENUM") in assigned
    assert sorted(assigned - reads) == []


def _raises_without_context() -> tuple[list[str], int]:
    """Every `raise InternalInconsistency(...)` in the library whose message
    formats no `vertex_text()` call, and every `raise VerificationMismatch`
    without a `where`, as `file:line`; and how many such raises there are."""
    missing: list[str] = []
    seen = 0
    for name in MODULES:
        for node in ast.walk(_tree(PACKAGE / name)):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                continue
            call = node.exc
            if call.func.id == "InternalInconsistency":
                named = any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "vertex_text"
                    for n in ast.walk(call)
                )
            elif call.func.id == "VerificationMismatch":
                named = len(call.args) >= 5 or any(kw.arg == "where" for kw in call.keywords)
            else:
                continue
            seen += 1
            if not named:
                missing.append(f"{name}:{node.lineno}")
    return missing, seen


def test_consistency_errors_name_the_polygon():
    # a message alone must reproduce the failure: each InternalInconsistency
    # names the polygon, each VerificationMismatch says where it was enumerated
    missing, seen = _raises_without_context()
    assert seen >= 2
    assert missing == []


def _is_call_to(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _fraction_vectors_applied() -> tuple[list[str], int]:
    """Every call `*.linear_apply(...)` or `*.apply(...)` in the library
    that is passed a `Vec2(...)` with a `Fraction(...)` argument, as
    `file:line`; and how many such calls there are in all."""
    found: list[str] = []
    seen = 0
    for name in MODULES:
        for node in ast.walk(_tree(PACKAGE / name)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("linear_apply", "apply")):
                continue
            seen += 1
            if any(
                _is_call_to(arg, "Vec2") and any(_is_call_to(a, "Fraction") for a in arg.args)
                for arg in node.args
            ):
                found.append(f"{name}:{node.lineno}")
    return found, seen


def test_affine_maps_take_integer_numerators():
    # a caller holding integer numerators over one denominator passes them
    # to `AffineMap._apply_over`, which builds one Fraction per coordinate
    found, seen = _fraction_vectors_applied()
    assert seen >= 1
    assert found == []


def _common_denominator_sites() -> tuple[list[str], list[str], int]:
    """Every call of `lcm` (bare or as an attribute) in the library outside
    the body of `geometry._over_common_denominator`, and every definition
    of a function of that name outside `geometry.py`, as `file:line`; and
    how many definitions `geometry.py` has."""
    calls: list[str] = []
    others: list[str] = []
    home = 0
    for name in MODULES:
        tree = _tree(PACKAGE / name)
        inside: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_over_common_denominator":
                if name == "geometry.py":
                    home += 1
                    inside.update(id(n) for n in ast.walk(node))
                else:
                    others.append(f"{name}:{node.lineno}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "lcm":
                calls.append(f"{name}:{node.lineno}")
    return calls, others, home


def test_one_common_denominator_rule():
    # one name, one signature and one body for putting rationals over
    # their least common denominator; `denominator_lcm` is a different name
    calls, others, home = _common_denominator_sites()
    assert home == 1
    assert calls == []
    assert others == []


@pytest.mark.parametrize("module", ["polychow", "polychow.cli"])
def test_cold_start_loads_neither_dataclasses_nor_replicate(module):
    # -S: no site-packages hook may have loaded a module before polychow
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        f"unwanted = ('dataclasses', 'polychow.replicate'); "
        f"before = [m for m in unwanted if m in sys.modules]; "
        f"import {module}; "
        f"print(before, [m for m in unwanted if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] []"
