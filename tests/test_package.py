"""The package's top-level names, which resolve lazily on first use."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import servelab


def test_names_are_unique():
    assert len(servelab.__all__) == len(set(servelab.__all__)) == 60


@pytest.mark.parametrize("name", servelab.__all__)
def test_name_is_its_module_attribute(name):
    value = getattr(servelab, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert vars(servelab)[name] is value  # cached after the first lookup


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(servelab.__path__)))
def test_submodule_all_names_are_defined(module):
    mod = importlib.import_module(f"servelab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if name not in vars(mod)] == []


def test_fresh_import_loads_no_module_and_lists_names():
    code = ("import sys, servelab; "
            "print(sorted(m for m in sys.modules if m.startswith('servelab.'))); "
            "print(dir(servelab))")
    env = {**os.environ, "PYTHONPATH": str(Path(servelab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded, listed = map(ast.literal_eval, proc.stdout.splitlines())
    assert loaded == []
    assert set(servelab.__all__) | {"__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_star_import():
    namespace = {}
    exec("from servelab import *", namespace)
    assert all(namespace[name] is getattr(servelab, name) for name in servelab.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        servelab.no_such_name


def test_submodule_imports_through_from():
    from servelab import svg

    assert svg is sys.modules["servelab.svg"]
