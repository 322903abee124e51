"""Source hygiene: every name a liefam module imports is used in it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "liefam").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, in order of import.

    A name counts as read where it appears as a loaded name (attribute
    access starts from one) or as a string in `__all__`.  An import whose
    line says `# noqa: F401` is kept on purpose and not reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            aliases = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        imported += [n for a, n in aliases if "# noqa: F401" not in lines[a.lineno - 1]]
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os.path\nfrom json import dumps, loads\n__all__ = ['loads']\n"
    assert unused_imports(source + "os.sep\n") == ["dumps"]
    assert unused_imports("import os  # noqa: F401\nimport re\n") == ["re"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
