"""Source hygiene: every name a liefam module or a test module imports is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "liefam").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def read_names(trees) -> set:
    """Names that appear as a loaded name or as a loaded attribute in any tree."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unread_definitions(trees: dict, read: set, private: bool) -> list:
    """(module, name) of each private, or public, top-level def or class not in `read`."""
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and node.name not in read
    ]


def unread_private_definitions(sources: dict) -> list:
    """(module, name) of each private top-level def or class that no source reads.

    `sources` maps module names to source text.  A name counts as read
    where it appears as a loaded name or as a loaded attribute in any of
    the sources; being imported is not a read.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return unread_definitions(trees, read_names(trees.values()), private=True)


def test_the_check_finds_an_unread_private_definition():
    sources = {
        "a": "def _used():\n    pass\n\ndef _left():\n    pass\n\nclass _Shape:\n    pass\n",
        "b": "from a import _used, _Shape\n_used()\nimport a\na._Shape\n",
    }
    assert unread_private_definitions(sources) == [("a", "_left")]


def test_every_private_definition_is_read():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unread_private_definitions(sources) == []


#: The index-form format of the symbolic proofs, which stays inside algebra.py.
INDEX_FORM_NAMES = {
    "INDEX_FORMS",
    "INDEX_VARS",
    "_FORM_KEYS",
    "_form_items",
    "_form_parity",
    "_form_poly",
    "_form_sum",
    "_Boundary",
    "symbolic_pair_rule",
}


def index_form_uses(source: str) -> list:
    """Names of the index-form format the source imports or reads as an attribute."""
    used = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used += [a.name for a in node.names if a.name in INDEX_FORM_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in INDEX_FORM_NAMES:
            used.append(node.attr)
    return used


def test_the_check_finds_an_index_form_use():
    source = "from .algebra import CENTRAL, _form_sum\nfrom . import algebra\nalgebra.INDEX_FORMS\n"
    assert index_form_uses(source) == ["_form_sum", "INDEX_FORMS"]
    assert index_form_uses("from .algebra import _identity, index_family\n") == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "algebra.py"], ids=lambda p: p.name
)
def test_the_index_form_format_stays_in_algebra(path):
    assert index_form_uses(path.read_text()) == []


#: Public definitions that no module reads and `__all__` does not list: the
#: references that tests compare `central.pairing_table` and `central._residue` against.
UNREAD_REFERENCES = {("central", "kn_cocycle"), ("central", "finite_residue_sum")}


def unread_public_definitions(sources: dict) -> list:
    """(module, name) of each public top-level def or class that no source reads,
    as `unread_private_definitions` counts reads, and no `__all__` lists."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = read_names(trees.values())
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= {elt.value for elt in node.value.elts}
    return unread_definitions(trees, read, private=False)


def test_the_check_finds_an_unread_public_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef left():\n    pass\n\nclass Shape:\n    pass\n",
        "b": "from a import used\nused()\n__all__ = ['Shape']\ndef _private():\n    pass\n",
    }
    assert unread_public_definitions(sources) == [("a", "left")]


def test_every_public_definition_is_read_or_exported():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert set(unread_public_definitions(sources)) == UNREAD_REFERENCES
