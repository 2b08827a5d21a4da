"""Guard: ``src/`` holds no API that only the tests use.

Every module-level function and class of ``src/hybridnet``, and every
public method, must be referenced somewhere in ``src/hybridnet`` outside
its own definition. A reference is a name or an attribute of that name,
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
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item


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
        for definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if definition.name not in EXEMPT and not references[definition.name] - own:
                unreferenced.append(f"{module}:{definition.name}")
    assert not unreferenced, f"nothing in src/ references: {unreferenced}"
