"""The weighted-inequality and stability corpora at d = 2, as tested contracts.

The paper's estimates hold in any dimension; `tests/test_acceptance.py` runs
both corpora at d = 1.  This module runs them at d = 2 and reads the suites'
own assertions, whose bounds are the acceptance bounds: corpus maxima finite,
within 2x between the grids, monotone decay with slope spreads <= 0.2.  Each
test also pins those bounds, so a bound moved in the suite fails here.

Sizes, fixed before any outcome was seen: the carleman corpus runs 15 runs
on its default grids (15, 31) with the feasibility table on N = 15 only; the
stability corpus and its decay study run at their default sizes.
"""

import pytest

from carlstab.config import parse_config
from carlstab.experiments import run_carleman, run_stability

D2 = ["grid.d=2"]


def by_name(result, name):
    return next(a for a in result.assertions if a.name == name)


def check(result, names: list, bounds: dict):
    for name in names:
        a = by_name(result, name)
        print(f"\n[{'PASS' if a.passed else 'FAIL'}] d = 2 {name}: {a.value:.4g} "
              f"(bound {a.bound:g})")
    for name, bound in bounds.items():
        assert by_name(result, name).bound == bound, name
    failed = [name for name in names if not by_name(result, name).passed]
    assert not failed, failed


@pytest.fixture(scope="module")
def carleman_d2():
    return run_carleman(parse_config(None, D2 + ["carleman.runs=15",
                                                 "carleman.feasibility_grids=15"]))


@pytest.fixture(scope="module")
def stability_d2():
    return run_stability(parse_config(None, D2))


def test_d2_carleman_inequality(carleman_d2):
    """Criterion 5 at d = 2: max corpus ratio finite for p in {0, 1}, within 2x
    between N = 15 and 31."""
    check(carleman_d2, ["p0_max_ratio_finite", "p0_grid_stability",
                        "p1_max_ratio_finite", "p1_grid_stability"],
          {"p0_grid_stability": 2.0, "p1_grid_stability": 2.0})


def test_d2_feasibility_table(carleman_d2):
    """The feasibility table at N = 15 has an admissible cell and finite ratios."""
    check(carleman_d2, ["feasibility_admissible_n15", "feasibility_ratios_finite"], {})
    assert carleman_d2.passed


def test_d2_endpoint_decay(stability_d2):
    """Criterion 6 at d = 2: monotone decay in h, negative log-slopes stable
    within 20 percent."""
    check(stability_d2, ["decay_endpoint_monotone", "decay_error_monotone",
                         "decay_endpoint_slope_negative", "decay_endpoint_slope_spread",
                         "decay_error_slope_negative", "decay_error_slope_spread"],
          {"decay_endpoint_slope_spread": 0.2, "decay_error_slope_spread": 0.2})


def test_d2_stability_quotient(stability_d2):
    """Criterion 7 at d = 2: the quotient and the reduced quotient bounded and
    within 2x under refinement."""
    check(stability_d2, ["quotient_finite", "quotient_grid_stability",
                         "reduced_quotient_finite", "reduced_quotient_grid_stability"],
          {"quotient_grid_stability": 2.0, "reduced_quotient_grid_stability": 2.0})
    assert stability_d2.passed
