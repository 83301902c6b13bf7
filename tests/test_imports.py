"""No module of fhsim imports a name it never uses.

The names are read with `ast`: a module's imports against every name it
loads, attribute roots included. `__init__.py` is left out, as its
imports are the package's exports. The one exemption is the names
perfbench's traced runs wrap on `fhsim.scenario` (`perfbench/layers.py`):
the scenario module imports them so that a wrapper put there is the one
a run calls.
"""

import ast
import os
import sys

import pytest

import fhsim
import fhsim.scenario

PACKAGE = os.path.dirname(fhsim.__file__)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402

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
