"""Every module-level import in the library is used by the module that makes it,
every private module-level function or class is used by the library, and every
public function, class or method has a caller in the library or the
acceptance suite.

No linter ships with the test environment, so this walks each module's syntax
tree instead.  ``__init__.py`` is exempt from the import check: its imports
are the package's public re-exports.  A private name that only a test reads
is dead library code, and so is a public one that neither the library (its
re-export in ``__init__.py`` aside) nor an acceptance gate reads.  The library
also runs without numpy and scipy, which only the tests use.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gripsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import at module level (``__future__`` aside)."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Names the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [a.annotation for a in ast.walk(node.args)
                           if isinstance(a, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree: ast.Module) -> list[ast.stmt]:
    """Module-level functions and classes named ``_x`` (dunders aside)."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read in ``node``, as bare names, attributes or string annotations."""
    return _used_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_private_definition_is_used_by_the_library():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    # the names each module-level statement reads, so a definition's own body
    # (a recursive call, say) does not count as a use of it
    reads = [(name, stmt, _referenced_names(stmt))
             for name, tree in trees.items() for stmt in tree.body]
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() for node in _private_definitions(tree)
              if not any(node.name in used for _, stmt, used in reads if stmt is not node)]
    assert not unused, f"private definitions nothing in the library uses: {unused}"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reading_units(tree: ast.Module) -> list[tuple[set[ast.AST], set[str]]]:
    """(enclosing definitions, names read) for each module-level statement, with
    a class split into its members so that a method's siblings count as callers."""
    units = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            units += [({stmt, member}, _referenced_names(member)) for member in stmt.body]
            head = stmt.decorator_list + stmt.bases + stmt.keywords
            units.append(({stmt}, set().union(*map(_referenced_names, head))))
        else:
            units.append(({stmt}, _referenced_names(stmt)))
    return units


def _public_definitions(tree: ast.Module) -> list[ast.stmt]:
    """Module-level functions and classes, and methods, whose names do not start with ``_``."""
    found = []
    for node in tree.body:
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)) and not node.name.startswith("_"):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [m for m in node.body
                      if isinstance(m, _FUNCTIONS) and not m.name.startswith("_")]
    return found


def test_every_public_definition_has_a_library_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    units = [unit for tree in trees.values() for unit in _reading_units(tree)]
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"
    gates = _referenced_names(ast.parse(acceptance.read_text(encoding="utf-8")))
    uncalled = [f"{name}:{node.lineno} {node.name}"
                for name, tree in trees.items() for node in _public_definitions(tree)
                if node.name not in gates
                and not any(node.name in reads for owners, reads in units if node not in owners)]
    assert not uncalled, f"public definitions with no caller outside tests: {uncalled}"


_RUN_WITHOUT_NUMPY = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import gripsim
from gripsim import assembly
from gripsim.config import default_config
from gripsim.scenario import parse_scenario
default_config()
scn = parse_scenario(Path(sys.argv[2]).read_text(encoding="utf-8"))
gripper = assembly.build_gripper(scn.build_config(), base_translation=scn.base_translation)
report = assembly.run_commands(gripper, scn.build_object(), scn.build_commands())
print(report.success, sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_library_runs_without_numpy_and_scipy(scenario_dir):
    # a fresh interpreter: this test session has loaded numpy already
    out = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, str(SRC.parent),
         str(scenario_dir / "cardboard_thin.scn")],
        capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["True", "[]"]
