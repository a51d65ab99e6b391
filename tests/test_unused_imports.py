"""No package module keeps a module-level import it never uses.

There is no linter in the toolchain, so the check is an ``ast`` walk: a name
bound by a top-level ``import`` or ``from ... import`` must appear as a name
somewhere in the module.  ``__init__.py`` re-exports by design and is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mop_trees"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import binding that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_detector_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\n\nx = np.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
