"""Guard: ``src/`` holds no API that only the tests use.

Every module-level function, class and assigned name of
``src/hybridnet``, and every public method, must be referenced somewhere
in ``src/hybridnet`` outside its own definition. A reference is a name or an attribute of that name,
so a same-named local also counts: the check catches what nothing in
``src/`` could be calling, not every unused definition. Reference
oracles belong in ``tests/oracles.py``.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hybridnet"

EXEMPT = {
    # ROADMAP item 5 writes fig18's closed_form column from it; until then the acceptance suite calls it.
    "lifi_crossing_success_exact",
}


def _definitions(tree: ast.Module):
    """(name, defining node) of each definition the guard covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):  # X = ..., X: T = ... and A, B = ...
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_definition_is_referenced_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = defaultdict(set)  # name -> ids of the Name and Attribute nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                references[node.attr].add(id(node))
    unreferenced = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if name not in EXEMPT and not references[name] - own:
                unreferenced.append(f"{module}:{name}")
    assert not unreferenced, f"nothing in src/ references: {unreferenced}"
