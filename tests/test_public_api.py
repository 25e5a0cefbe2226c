"""Every public name of the package has a caller or a test.

Each public top-level function and class of every ``rhtheta`` module, and
each public method, must be used somewhere in ``src/``, ``tests/`` or
``demos/`` outside a line that defines it.  Only code counts: a name that
appears in a comment or a docstring alone is still dead.  Error types are
classes of ``errors.py`` and are covered by the same rule.  Likewise every
name a module imports must occur in that module's code, unless its import
line carries ``# noqa: F401``.  No module of the package imports a private
name from another: ``from .x import _name`` is refused.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rhtheta"
SEARCH = [ROOT / "src", ROOT / "tests", ROOT / "demos"]


def _public_definitions():
    """(module, qualified name, bare name) of every public definition."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        out.append((path.stem, f"{node.name}.{item.name}",
                                    item.name))
    return out


def _code_uses():
    """Name -> number of code occurrences that are not definitions."""
    uses = defaultdict(int)
    for base in SEARCH:
        for path in base.rglob("*.py"):
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            def_lines = defaultdict(set)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    def_lines[node.name].add(node.lineno)
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.NAME:
                    continue
                if tok.start[0] in def_lines.get(tok.string, ()):
                    continue
                uses[tok.string] += 1
    return uses


def test_public_names_are_used():
    uses = _code_uses()
    unused = [f"{module}.{qualname}"
              for module, qualname, name in _public_definitions()
              if uses[name] == 0]
    assert not unused, f"public names without a caller or a test: {unused}"


def test_definitions_are_found():
    names = {(m, q) for m, q, _ in _public_definitions()}
    assert ("theta", "theta") in names
    assert ("errors", "RHThetaError") in names
    assert ("rh_solver", "RHSolution.monodromy") in names


def _unused_imports(path):
    """Names the module at path imports and never uses in its code."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            waived = "# noqa: F401" in lines[alias.lineno - 1]
            if name not in used and not waived:
                out.append(f"{path.stem}.{name}")
    return out


def test_imported_names_are_used():
    unused = [name for path in sorted(PACKAGE.glob("*.py"))
              for name in _unused_imports(path)]
    assert not unused, f"imported names without a use: {unused}"


def _private_imports(path):
    """Private names the module at path imports from another package module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.stem}: from {'.' * node.level}{node.module or ''} "
            f"import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_names_cross_modules():
    private = [name for path in sorted(PACKAGE.glob("*.py"))
               for name in _private_imports(path)]
    assert not private, f"private names imported across modules: {private}"
