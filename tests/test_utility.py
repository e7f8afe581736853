import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbm.errors import DataError, DomainError
from mbm.utility import FAMILIES, UtilitySpec, eval_utility

SPECS = [
    UtilitySpec("linear"),
    UtilitySpec("log"),
    UtilitySpec("power", 2.0),
    UtilitySpec("power", 0.5),
    UtilitySpec("exponential", 1.5),
]


def test_linear_derivatives():
    u = UtilitySpec("linear")
    for c in (-3.0, 0.0, 7.5):
        assert eval_utility(u, c, 0) == c
        assert eval_utility(u, c, 1) == 1.0
        assert eval_utility(u, c, 2) == 0.0


def test_power_gamma_two_at_one():
    u = UtilitySpec("power", 2.0)
    assert eval_utility(u, 1.0, 1) == 1.0
    assert eval_utility(u, 1.0, 2) == -2.0


def test_log_values():
    u = UtilitySpec("log")
    assert eval_utility(u, 2.0, 0) == pytest.approx(np.log(2.0), rel=1e-15)
    assert eval_utility(u, 2.0, 1) == 0.5
    assert eval_utility(u, 2.0, 2) == -0.25


def test_exponential_values():
    u = UtilitySpec("exponential", 2.0)
    assert eval_utility(u, 1.0, 0) == pytest.approx(-np.exp(-2.0) / 2.0, rel=1e-15)
    assert eval_utility(u, 1.0, 1) == pytest.approx(np.exp(-2.0), rel=1e-15)
    assert eval_utility(u, 1.0, 2) == pytest.approx(-2.0 * np.exp(-2.0), rel=1e-15)


@pytest.mark.parametrize("family", ["log", "power"])
def test_domain_errors(family):
    u = UtilitySpec(family, 2.0 if family == "power" else 0.0)
    with pytest.raises(DomainError):
        eval_utility(u, 0.0, 1)
    with pytest.raises(DomainError):
        eval_utility(u, -1.0, 0)


@pytest.mark.parametrize("family", ["log", "power"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_infinite_consumption_is_outside_the_positive_domain(family, order):
    # u'(inf) = 0 would make a sale-date consumption of inf look admissible
    u = UtilitySpec(family, 2.0 if family == "power" else 0.0)
    for c in (math.inf, np.float64(math.inf), np.array([1.0, math.inf])):
        with pytest.raises(DomainError):
            eval_utility(u, c, order)


@pytest.mark.parametrize(
    "family,parameter",
    [("power", 0.0), ("power", -1.0), ("power", 1.0), ("exponential", 0.0), ("exponential", -2.0)],
)
def test_invalid_parameters_rejected(family, parameter):
    with pytest.raises(DataError):
        UtilitySpec(family, parameter)


def test_unknown_family_rejected():
    with pytest.raises(DataError):
        UtilitySpec("quadratic")


def test_families_list_is_complete():
    assert set(FAMILIES) == {"linear", "log", "power", "exponential"}


def _fd_grid():
    return np.geomspace(0.05, 50.0, 12)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.parameter}")
def test_first_derivative_matches_finite_difference(spec):
    for c in _fd_grid():
        h = 1e-5 * max(1.0, abs(c))
        fd = (eval_utility(spec, c + h, 0) - eval_utility(spec, c - h, 0)) / (2 * h)
        exact = eval_utility(spec, c, 1)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.parameter}")
def test_second_derivative_matches_differenced_first(spec):
    for c in _fd_grid():
        h = 1e-5 * max(1.0, abs(c))
        fd = (eval_utility(spec, c + h, 1) - eval_utility(spec, c - h, 1)) / (2 * h)
        exact = eval_utility(spec, c, 2)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.parameter}")
def test_monotone_and_concave_everywhere(spec):
    for c in _fd_grid():
        assert eval_utility(spec, c, 1) > 0.0
        u2 = eval_utility(spec, c, 2)
        assert u2 <= 0.0
        if spec.family != "linear":
            assert u2 < 0.0


def test_vectorized_evaluation():
    u = UtilitySpec("power", 2.0)
    c = np.array([1.0, 2.0, 4.0])
    out = eval_utility(u, c, 1)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, c ** -2.0, rtol=1e-15)


def test_bad_order_rejected():
    with pytest.raises(DataError):
        eval_utility(UtilitySpec("log"), 1.0, 3)


FAMILY_SPECS = st.one_of(
    st.sampled_from([UtilitySpec("linear"), UtilitySpec("log")]),
    st.floats(0.05, 8.0).filter(lambda g: g != 1.0).map(lambda g: UtilitySpec("power", g)),
    st.floats(0.01, 5.0).map(lambda a: UtilitySpec("exponential", a)),
)


def _bits_or_error(spec, c, order):
    try:
        out = eval_utility(spec, c, order)
    except DomainError:
        return "DomainError"
    kind = "array" if isinstance(out, np.ndarray) else type(out).__name__
    return kind, np.asarray(out, dtype=float).reshape(-1).view(np.uint64).tolist()


@settings(max_examples=400, deadline=None)
@given(spec=FAMILY_SPECS, c=st.one_of(st.floats(-50.0, 50.0), st.floats()),
       order=st.sampled_from([0, 1, 2]))
def test_float_numpy_float_and_array_give_the_same_bits(spec, c, order):
    # scalars skip the array round trip, so they must still run the array formulas
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 1/(c*c) of a tiny c divides by 0
        py, np64, arr = (_bits_or_error(spec, x, order) for x in (c, np.float64(c), np.array([c])))
    if py == "DomainError":
        assert np64 == arr == "DomainError"
    else:
        assert py[0] == np64[0] == "float" and arr[0] == "array"
        assert py[1] == np64[1] == arr[1]
