"""Every name that a module of ``src/`` imports is used in that module.

The check reads each module with the standard ``ast`` module, so a
deletion that leaves an import behind (a ``Callable`` or a ``dataclass``
nobody reads any more) fails here. A second check keeps each module's
private names its own: no module imports a ``_``-prefixed name (a dunder
aside) from a sibling module.
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


def private_imports(source):
    """The ``_``-prefixed names, dunders aside, that ``source`` imports from its package."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("rough_transport"))
                  for a in node.names
                  if a.name.startswith("_")
                  and not (a.name.startswith("__") and a.name.endswith("__")))


def test_private_import_check_flags_a_sibling_private_name():
    source = ("from . import __version__\nfrom .flow import _CHUNK_BYTES, SeedGrid\n"
              "from rough_transport.bmo import _CHUNK\nfrom numpy import _NoValue\n")
    assert private_imports(source) == ["_CHUNK", "_CHUNK_BYTES"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_src_module_imports_no_private_name_of_a_sibling(module):
    assert private_imports((SRC / module).read_text()) == [], module
