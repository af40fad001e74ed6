"""The package's exports: ``import vadminer`` loads no submodule, and each
name in ``__all__`` loads its home submodule on first use."""
import sys

import pytest

import vadminer
from vadminer import cli

from conftest import run_python


def test_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, vadminer; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('vadminer.')))")
    assert run_python(["-c", code]).stdout == "[]\n"


def test_every_export_is_its_home_modules_object():
    assert vadminer.load_corpus is vadminer.corpus.load_corpus
    for name in vadminer.__all__:
        if name == "__version__":
            continue
        value = getattr(vadminer, name)
        assert value.__module__.startswith("vadminer."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_dir_and_star_import_list_every_export():
    # in a fresh interpreter, so that no export is bound before dir() runs
    code = ("import vadminer; listed = set(dir(vadminer)); namespace = {}; "
            "exec('from vadminer import *', namespace); "
            "print(sorted(set(vadminer.__all__) - listed), sorted(set(vadminer.__all__) - set(namespace)))")
    assert run_python(["-c", code]).stdout == "[] []\n"


def test_unknown_attribute_raises_attribute_error_naming_it():
    for module in (vadminer, cli):  # the two modules that bind names on first use
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name
