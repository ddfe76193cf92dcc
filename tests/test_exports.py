"""The package's public surface: each module's ``__all__``, and at the top
level exactly their union."""

import dataclasses

import pytest

import gronwall
from gronwall import bounds, cli, expr, grid, kernels, oracle

MODULES = (bounds, expr, grid, kernels, oracle)

# Read by the tests alone; their references live in tests/conftest.py.
TEST_ONLY = (
    "constant", "running_sup", "kernel_dt", "rhs_operator", "check_admissible",
    "AdmissibilityReport", "ADMISSIBLE_RTOL", "closed_form",
)


@pytest.mark.parametrize("module", [gronwall, cli, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), name


def test_package_exports_exactly_the_modules_exports():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(gronwall.__all__) == sorted(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gronwall, name) is getattr(module, name), name


@pytest.mark.parametrize("name", TEST_ONLY)
def test_test_references_are_not_in_the_package(name):
    for module in (gronwall, cli, *MODULES):
        assert not hasattr(module, name), module.__name__


def test_picard_outcome_has_no_final_delta():
    fields = {f.name for f in dataclasses.fields(oracle.PicardOutcome)}
    assert fields == {"u", "status", "conv_node", "iterations", "diverged_node"}
