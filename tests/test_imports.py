"""Every name that a module of ``src/`` imports is used in that module.

The check reads each module with the standard ``ast`` module, so a
deletion that leaves an import behind (a ``Callable`` or a ``dataclass``
nobody reads any more) fails here. A second check keeps each module's
private names its own: no module imports a ``_``-prefixed name (a dunder
aside) from a sibling module. A third keeps dead names out: every top-level
function or class of ``src/`` is read somewhere in ``src/`` or
``perfbench/``, or is named below with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rough_transport"

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


# the rough-transport console script of pyproject.toml, read or not
CONSOLE_SCRIPTS = {"cli.main"}
# top-level names that nothing in src/ or perfbench/ reads, with the reason
# each one stays; a name that gains a reader must leave this table
UNREAD_KEPT = {
    "representation.represent_pushforward": "ROADMAP item 10 wires it into a "
                                            "scenario; only Tier-1 tests read it today",
}


def unread_names(modules, readers):
    """``module.name`` of each top-level function or class never read, sorted.

    ``modules`` maps a module's file name to its source; ``readers`` are the
    sources searched for reads: an ``ast`` Name, an Attribute, or a name
    imported with ``from ... import``.
    """
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{Path(module).stem}.{node.name}"
                  for module, source in modules.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in read)


def test_unread_name_check_flags_a_dead_function():
    module = ("def used():\n    pass\n\ndef dead():\n    return used()\n\n"
              "class Kept:\n    pass\n\nclass Gone:\n    pass\n")
    reader = "from pkg.a import Kept\nimport pkg\npkg.a.used()\n"
    assert unread_names({"a.py": module}, [module, reader]) == ["a.Gone", "a.dead"]


def test_every_top_level_name_of_src_is_read():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for top in ("src", "perfbench")
               for p in sorted((ROOT / top).rglob("*.py"))]
    unread = [n for n in unread_names(modules, readers) if n not in CONSOLE_SCRIPTS]
    assert unread == sorted(UNREAD_KEPT)
