"""No module of the library imports a name that it never uses.

A check on each module's syntax tree, since the test environment carries no
linter.  A re-export is declared: the import line carries ``# noqa: F401``,
or the name appears in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "baryiter"
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
