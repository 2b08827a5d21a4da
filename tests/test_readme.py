"""README.md states each guarantee once and names the tests that hold it; every such citation must stay live."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A backticked test citation: a test module (`test_channel`), a test or class name (`test_x`, `TestX`), or a path
# `tests/<file>.py`, each optionally followed by `::Class::method` parts.
CITATION = re.compile(r"`((?:tests/\w+\.py|test_\w+|Test\w+)(?:::\w+)*)`")


def citations(text: str) -> list[str]:
    """The test citations of markdown ``text``, outside fenced code blocks."""
    return CITATION.findall(re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))


def _qualified_names(path: Path) -> set[str]:
    """Every class and function of ``path`` by its ``::``-joined qualified name, as pytest prints it."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}::")

    walk(ast.parse(path.read_text()), "")
    return names


def dead_citations(readme: Path, tests: Path) -> list[str]:
    """The citations of ``readme`` that name no module, class or function of the ``*.py`` files in ``tests``.

    A path names its file and, after it, a qualified name in that file; a module name names a file; any other
    citation is a qualified name, or the bare name of a class or function, defined in some file.
    """
    defined = {path.name: _qualified_names(path) for path in tests.glob("*.py")}
    qualified = set().union(*defined.values())
    bare = {name.rsplit("::", 1)[-1] for name in qualified}
    dead = []
    for citation in citations(readme.read_text()):
        first, *rest = citation.split("::")
        file = first.removeprefix("tests/")
        if file != first:
            live = file in defined and (not rest or "::".join(rest) in defined[file])
        else:
            live = f"{citation}.py" in defined or citation in bare or citation in qualified
        if not live:
            dead.append(citation)
    return dead


def test_every_cited_test_exists():
    assert len(citations((ROOT / "README.md").read_text())) > 100
    assert dead_citations(ROOT / "README.md", ROOT / "tests") == []


def test_every_guarantee_names_a_test():
    # Each paragraph of "Determinism" and each row of the domain table in "Configuration" cites a test.
    sections = {part.split("\n", 1)[0]: part for part in (ROOT / "README.md").read_text().split("\n## ")}
    paragraphs = [p for p in sections["Determinism"].split("\n\n")[1:] if p.strip()]
    rows = [line for line in sections["Configuration"].splitlines() if line.startswith("| `")]
    assert len(paragraphs) >= 10 and len(rows) >= 10
    assert [p for p in paragraphs + rows if not citations(p)] == []


def test_the_resolver_finds_each_dead_citation(tmp_path):
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text("class TestA:\n    def test_b(self):\n        pass\n\n\ndef test_c():\n    pass\n")
    readme = tmp_path / "README.md"
    readme.write_text(
        "Live: `test_a`, `TestA`, `test_b`, `test_c`, `TestA::test_b`, `tests/test_a.py`,\n"
        "`tests/test_a.py::TestA::test_b` and `tests/test_a.py::test_c`; not a citation: `tests/golden.json`.\n"
        "Dead: `test_gone`, `TestGone`, `tests/test_a.py::TestA::test_gone`, `tests/test_a.py::test_b`,\n"
        "`tests/test_gone.py::TestA::test_b` and `tests/test_gone.py`.\n"
        "```bash\npytest `test_in_a_code_block`\n```\n"
    )
    assert dead_citations(readme, tests) == [
        "test_gone", "TestGone", "tests/test_a.py::TestA::test_gone", "tests/test_a.py::test_b",
        "tests/test_gone.py::TestA::test_b", "tests/test_gone.py",
    ]
