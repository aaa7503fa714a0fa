"""Every name that a module of ``src/`` imports is used in that module.

The check reads each module with the standard ``ast`` module, so a
deletion that leaves an import behind (a ``Callable`` or a ``dataclass``
nobody reads any more) fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rough_transport"

# names a module imports only to re-export them
REEXPORTS = {"__init__.py": {"RoughTransportError"}}


def unused_imports(source, exempt=()):
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - set(exempt))


def test_unused_import_check_flags_a_leftover():
    source = ("from dataclasses import dataclass, replace\nimport numpy as np\n"
              "from typing import Callable\nx = replace(np.zeros(1))\n")
    assert unused_imports(source) == ["Callable", "dataclass"]
    assert unused_imports(source, exempt={"Callable", "dataclass"}) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_src_module_uses_every_import(module):
    source = (SRC / module).read_text()
    assert unused_imports(source, REEXPORTS.get(module, ())) == [], module
