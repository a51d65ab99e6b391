"""Every backticked ``module.name`` the README names is a live attribute of mop_trees."""

import importlib
import pkgutil
import re
from pathlib import Path

import mop_trees

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(mop_trees.__path__))


def readme_refs() -> set:
    pattern = r"`(?:mop_trees\.)?(%s)\.(\w+(?:\.\w+)*)" % "|".join(MODULES)
    return set(re.findall(pattern, README.read_text()))


def test_readme_names_live_attributes():
    refs = readme_refs()
    assert len(refs) >= 20  # the pattern still finds the references
    dead = []
    for module, path in sorted(refs):
        obj = importlib.import_module(f"mop_trees.{module}")
        for name in path.split("."):
            if not hasattr(obj, name):
                dead.append(f"{module}.{path}")
                break
            obj = getattr(obj, name)
    assert not dead, f"README names attributes that do not exist: {dead}"
