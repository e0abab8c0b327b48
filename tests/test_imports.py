"""No module of the library imports a name that it never uses, or defines a name that
nothing needs.

A check on each module's syntax tree, since the test environment carries no
linter.  A re-export is declared: the import line carries ``# noqa: F401``,
or the name appears in the module's ``__all__``.  A private name must be read
by the library; a public one by the library, the package's ``__all__``, the
acceptance suite's imports or the installed script.
"""

import ast
from pathlib import Path

import pytest

import baryiter

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "baryiter"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for _, name in sorted(imported) if name not in used]


def test_the_check_finds_an_unused_import_and_honours_a_declared_re_export():
    source = (
        "import os\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from json import dumps  # noqa: F401\n"
        "from json import loads\n"
        "__all__ = ['loads']\n"
        "print(tau)\n"
    )
    assert unused_imports(source) == ["os", "os", "pi"]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text()) == []


def definitions(source: str) -> list:
    """The functions, classes and constants ``source`` defines at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def private_definitions(source: str) -> list:
    """The private functions, classes and constants ``source`` defines at module level."""
    return [name for name in definitions(source)
            if name.startswith("_") and not name.startswith("__")]


def names_read(sources) -> set:
    """Every name the sources read: as a name, as an attribute or in an import."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def dead_private_names(sources: dict) -> list:
    """``module.name`` of each private definition in ``sources`` (module -> source) that
    no source reads."""
    read = names_read(sources.values())
    return [f"{module}.{name}" for module, source in sources.items()
            for name in private_definitions(source) if name not in read]


def dead_public_names(sources: dict, kept) -> list:
    """``module.name`` of each public definition in ``sources`` (module -> source) that
    no source reads and ``kept`` does not name."""
    needed = names_read(sources.values()) | set(kept)
    return [f"{module}.{name}" for module, source in sources.items()
            for name in definitions(source) if not name.startswith("_") and name not in needed]


def test_the_check_finds_a_dead_private_name():
    sources = {
        "a": ("_USED = 1\n"
              "_DEAD, (_ALSO_DEAD, public) = 2, (3, 4)\n"
              "_IMPORTED: int = 5\n"
              "_BY_ATTRIBUTE = 6\n"
              "__version__ = '1'\n"
              "def _helper():\n"
              "    _DEAD = 7  # a local, and a store: neither reads the module's name\n"
              "    return _USED\n"
              "class _Orphan:\n"
              "    pass\n"
              "def entry():\n"
              "    return _helper()\n"),
        "b": "from a import _IMPORTED\nimport a\nprint(a._BY_ATTRIBUTE)\n",
    }
    assert dead_private_names(sources) == ["a._DEAD", "a._ALSO_DEAD", "a._Orphan"]


def test_every_private_name_is_read():
    assert dead_private_names({m.stem: m.read_text() for m in MODULES}) == []


def test_the_check_finds_a_dead_public_name():
    sources = {
        "a": ("USED = 1\n"
              "DEAD, (ALSO_DEAD, _private) = 2, (3, 4)\n"
              "EXPORTED = 5\n"
              "def helper():\n"
              "    DEAD = 6  # a local, and a store: neither reads the module's name\n"
              "    return USED\n"
              "class Orphan:\n"
              "    pass\n"
              "def entry():\n"
              "    return helper()\n"),
        "b": "from a import helper\nimport a\nprint(a.USED)\n",
    }
    assert dead_public_names(sources, ()) == ["a.DEAD", "a.ALSO_DEAD", "a.EXPORTED", "a.Orphan",
                                              "a.entry"]
    assert dead_public_names(sources, ("EXPORTED", "entry")) == ["a.DEAD", "a.ALSO_DEAD",
                                                                 "a.Orphan"]


def acceptance_imports() -> set:
    """The names ``tests/test_acceptance.py`` imports from the library."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("baryiter")
            for alias in node.names}


def test_every_public_name_is_needed():
    # ``cli.entrypoint`` is the ``baryiter`` script that pyproject.toml installs
    kept = set(baryiter.__all__) | acceptance_imports() | {"entrypoint"}
    assert dead_public_names({m.stem: m.read_text() for m in MODULES}, kept) == []
