"""Each public name is listed once, in its module.

The package root builds its ``__all__`` from the ``__all__`` of its five
library modules; ``verify`` and ``cli`` stay out of it.
"""

import importlib

import pytest

import qsusy

MODULES = ("qcore", "series", "qspecial", "operators", "serialize")

# the names the package root exported when it listed them itself
EARLIER = (
    "__version__", "Rational", "GaussRational", "Deformation", "q_number", "q_factorial",
    "parse_rational", "format_rational", "PowerSeries", "NonInvertibleSeriesError",
    "make_series", "zero_series", "constant_series", "monomial", "div", "VacuumSpec", "q_exp",
    "q_gauss", "beta_q", "delta_beta_q", "q_hermite", "classical_hermite", "u_transform",
    "QOperator", "FactorizationPair", "SweepRow", "identity_op", "jackson_op",
    "multiplication_op", "poly_multiplication_op", "classical_darboux",
    "darboux_potential_difference", "t_plus_q", "t_minus_q", "second_order_composed",
    "second_order_direct", "classical_hermite_op", "classical_schrodinger_op", "susy_pair_limit",
    "t_generalized", "vacuum_pair", "generalized_pair", "limit_sweep", "convergence_ratios",
    "series_to_dict", "series_from_dict", "series_to_json", "series_from_json", "series_to_csv",
    "series_from_csv",
)


def owners(name):
    """The library modules whose ``__all__`` lists name."""
    return [m for m in MODULES if name in importlib.import_module(f"qsusy.{m}").__all__]


def test_the_earlier_list_has_50_names():
    assert len(EARLIER) == len(set(EARLIER)) == 50


@pytest.mark.parametrize("name", EARLIER)
def test_earlier_name_is_still_exported_from_its_module(name):
    assert name in qsusy.__all__
    if name != "__version__":
        (module,) = owners(name)
        assert getattr(qsusy, name) is getattr(importlib.import_module(f"qsusy.{module}"), name)


def test_each_exported_name_is_listed_once_in_one_module():
    assert len(qsusy.__all__) == len(set(qsusy.__all__))
    assert [name for name in qsusy.__all__ if name != "__version__" and len(owners(name)) != 1] == []


def test_every_module_name_is_exported():
    listed = [name for m in MODULES for name in importlib.import_module(f"qsusy.{m}").__all__]
    assert qsusy.__all__ == ["__version__", *listed]
    assert len(qsusy.__all__) == 67
    assert {"verify", "cli", "run_suite", "RunConfig"}.isdisjoint(qsusy.__all__)

