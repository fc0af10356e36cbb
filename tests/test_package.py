"""The package surface: ``densagg`` re-exports each layer's ``__all__``."""

import pytest

import densagg
from densagg import aggregation, densities, experiments, lowerbound


@pytest.mark.parametrize("module", [densities, aggregation, lowerbound, experiments],
                         ids=lambda m: m.__name__)
def test_every_public_name_is_exported_as_the_same_object(module):
    for name in module.__all__:
        assert getattr(densagg, name) is getattr(module, name), name
        assert name in densagg.__all__


def test_all_has_no_duplicates_and_holds_the_version():
    assert len(densagg.__all__) == len(set(densagg.__all__))
    assert "__version__" in densagg.__all__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from densagg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(densagg.__all__)
