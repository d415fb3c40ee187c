"""Every name a module of ``hdts`` imports is a name it uses."""

import ast
from pathlib import Path

import pytest

import hdts

PACKAGE = Path(hdts.__file__).resolve().parent

#: (module, name) pairs imported on purpose and not used: ``benchmarks/test_bench.py``
#: reads ``sync.compose`` back after its tracer has wrapped ``encoding.compose``
ALLOWED = {("sync", "compose")}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_sees_unused_and_used_imports():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc(a)\n"
    assert unused_imports(source) == ["os"]


# the package's __init__ imports only to export: its __all__ is every public name it binds
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.stem)
def test_no_module_imports_a_name_it_does_not_use(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in ALLOWED]
    assert unused == []
