"""Every public function and method in src/stokesbl has a caller in the code.

A name counts as referenced when it appears as a name or an attribute
anywhere in src/stokesbl or bench/*.py outside its own definition.  Imports
do not count, and neither do tests (the benchmark's self-tests included):
code that only a test reads belongs in the test.  Names with a leading underscore (dunders included) are private, and
acceptance criteria registered with `@check` are called through the
registry.

The check goes by name, so a method shares its callers with every method of
that name.  VectorPolynomial once had a laplacian and a derive that nothing
called; they passed only because ExactPolynomial has methods of those names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stokesbl"


def _is_check(fn: ast.AST) -> bool:
    return any(isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "check"
               for dec in fn.decorator_list)


def public_definitions(tree: ast.Module):
    """Module-level functions and class methods whose names are public."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, defs) and not fn.name.startswith("_") and not _is_check(fn):
                yield fn


def referenced_names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes used in node, ignoring the subtree skip."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def test_every_public_function_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    # every file but the definition's own contributes all its references
    refs = {path: referenced_names(tree) for path, tree in trees.items()}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        elsewhere = set().union(*(names for p, names in refs.items() if p != path))
        for fn in public_definitions(tree):
            if fn.name not in elsewhere and fn.name not in referenced_names(tree, skip=fn):
                uncalled.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not uncalled, "public code with no caller in src/ or bench/: " + ", ".join(uncalled)
