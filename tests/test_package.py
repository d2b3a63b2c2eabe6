"""The package's public surface is each module's ``__all__``, stated once."""

import reopt
from reopt import calibration, experiments, indifference, lattice, reference

MODULES = (calibration, indifference, lattice, reference, experiments)


def test_no_name_is_public_in_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_exports_the_union_of_module_names():
    assert reopt.__all__ == sorted(name for module in MODULES for name in module.__all__)


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(reopt, name) is getattr(module, name), (module.__name__, name)
