"""The package namespace: every export and submodule resolves on first read, as the same object."""

import pytest

import symdesign


@pytest.mark.parametrize("name", symdesign.__all__)
def test_export_is_its_submodule_object(name):
    home = symdesign._HOME[name]
    assert getattr(symdesign, name) is getattr(getattr(symdesign, home), name)
    assert vars(symdesign)[name] is getattr(symdesign, name)  # kept, so a second read is a lookup


def test_each_export_is_stated_once():
    assert len(symdesign.__all__) == len(set(symdesign.__all__)) == 54
    assert symdesign.compute_tmax is symdesign.solver.compute_tmax
    assert symdesign.INFINITE is symdesign.infinity.INFINITE


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from symdesign import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(symdesign.__all__)


def test_dir_lists_every_export_and_submodule():
    # each submodule also resolves right after a bare ``import symdesign``: see test_cold_import.py
    assert set(symdesign.__all__) | symdesign._SUBMODULES <= set(dir(symdesign))


def test_lattice_routine_is_shared_by_solver_and_intlinalg():
    assert symdesign.solver.lll_reduce is symdesign.intlinalg.lll_reduce


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        symdesign.no_such_name
    assert not hasattr(symdesign, "lll_reduce")  # defined in a submodule, but not exported
