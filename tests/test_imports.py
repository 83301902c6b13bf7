"""No module of fhsim imports a name it never uses, or defines a private name nothing reads.

The names are read with `ast`: a module's imports against every name it
loads, attribute roots included. `__init__.py` is left out, as its
imports are the package's exports. The one exemption is the names
perfbench's traced runs wrap on `fhsim.scenario` (`perfbench/layers.py`):
the scenario module imports them so that a wrapper put there is the one
a run calls.

A private name (one leading `_`) is a module's own: a module-level
function, class or constant, or a method, so a simplification that
leaves one behind leaves dead code. Each must be read somewhere in the
package, as a name, an attribute or an imported name; tests do not count.
"""

import ast
import os

import layers
import pytest

import fhsim
import fhsim.scenario

PACKAGE = os.path.dirname(fhsim.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never loads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nfrom __future__ import annotations\nsystem.exit(c)\n"
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PACKAGE, module)) as f:
        unused = unused_imports(f.read())
    if module == "scenario.py":
        wrapped = {attribute for owner, attribute, *_ in layers.targets() if owner is fhsim.scenario}
        unused = [name for name in unused if name not in wrapped]
    assert unused == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` (`module.Class.name` for a method) of each private definition no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(f"{module}.{t.id}", t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                methods = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
                defined += [(f"{module}.{node.name}.{name}", name) for name in methods]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    private = [(where, name) for where, name in defined if name.startswith("_") and not name.startswith("__")]
    return [where for where, name in private if name not in read]


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": "from .b import _helper\n_USED = 1\n_DEAD = 2\n\n"
        "def _orphan():\n    _DEAD = 3\n\n"
        "class _Kept:\n    def _step(self):\n        return _USED\n\n    def _idle(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "def entry():\n    return _Kept()._step(), _helper()\n",
        "b": "def _helper():\n    pass\n\ndef _unused():\n    pass\n\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a._DEAD", "a._orphan", "a._Kept._idle", "b._unused"]


def test_every_private_name_is_read():
    sources = {}
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as f:
                sources[module.removesuffix(".py")] = f.read()
    assert unread_private_names(sources) == []
