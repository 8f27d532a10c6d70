"""Every public name is used by the package, the CLI or the benchmark, not by tests alone.

The check reads the sources and imports nothing.  A name that ``__init__.py``
imports counts as used when another package module refers to it as an
identifier or an attribute (the strings of ``__all__`` do not count), or when a
``perfbench`` script refers to it as an identifier, an attribute or a string
(the tracer names its targets as strings).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schwarz_lab"


def _references(path: pathlib.Path, strings: bool) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_name_is_referenced_outside_the_tests():
    init = PACKAGE / "__init__.py"
    public = {alias.asname or alias.name for node in ast.parse(init.read_text()).body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path != init:
            used |= _references(path, strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _references(path, strings=True)
    assert sorted(public - used) == []
