"""numdiff's one derivative rule, the polynomial through the samples,
against the symmetric stencil it replaced and on polynomials it fits
exactly."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qfidisc import numdiff

EPS = np.finfo(float).eps
SYMMETRIC = (0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0)
ONE_SIDED = (0.0, 0.25, 0.5, 1.0)

FAMILIES = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sin^2": lambda x: np.sin(x) ** 2,
    "x^4 - x": lambda x: x**4 - x,
    "log(1 + x^2)": lambda x: np.log1p(x * x),
    "1 / (2 + sin)": lambda x: 1.0 / (2.0 + np.sin(x)),
    "tanh": np.tanh,
    "exp(-x^2)": lambda x: np.exp(-x * x),
}


def richardson_stencil(h, values):
    """The symmetric stencil the rule replaced: central differences at h,
    h/2 and h/4, combined by two Richardson levels of the even error
    series."""
    d1, d2 = [], []
    for scale in (1.0, 0.5, 0.25):
        step = h * scale
        plus, minus, mid = values[scale], values[-scale], values[0.0]
        d1.append((plus - minus) / (2.0 * step))
        d2.append((plus - 2.0 * mid + minus) / step**2)

    def even_richardson(seq):
        r1 = [(4.0 * seq[i + 1] - seq[i]) / 3.0 for i in range(2)]
        return (16.0 * r1[1] - r1[0]) / 15.0

    return even_richardson(d1), even_richardson(d2)


def assert_rounding_apart(h, values, got, want):
    """Speed within 6 eps max|q| / h, acceleration within
    8 eps max|q| / (h/4)^2: ten times the worst seen over nine families."""
    size = max(abs(v) for v in values.values())
    assert abs(got[0] - want[0]) <= 6.0 * EPS * size / h
    assert abs(got[1] - want[1]) <= 8.0 * EPS * size / (h / 4.0) ** 2


@settings(max_examples=80)
@given(name=st.sampled_from(sorted(FAMILIES)), theta_bar=st.floats(-5.0, 5.0))
def test_symmetric_samples_give_the_richardson_stencil_up_to_rounding(name, theta_bar):
    q, h = FAMILIES[name], numdiff.base_step(theta_bar)
    values = {o: float(q(theta_bar + o * h)) for o in SYMMETRIC}
    got = numdiff.speed_and_acceleration(h, values)
    assert_rounding_apart(h, values, got, richardson_stencil(h, values))


def polynomial_values(coeffs, offsets):
    """Samples of q(theta_bar + o h) = sum_k c_k o^k, whose speed is c1 / h
    and acceleration 2 c2 / h^2.  With dyadic c_k (``DYADIC``) and offsets
    every term and sum is exact, so the samples carry no rounding and the
    bounds hold the rule alone."""
    return {o: float(np.polynomial.polynomial.polyval(o, coeffs)) for o in offsets}


DYADIC = st.integers(-1024, 1024).map(lambda k: k / 1024.0)


@settings(max_examples=80)
@given(
    coeffs=st.lists(DYADIC, min_size=7, max_size=7),
    theta_bar=st.floats(-5.0, 5.0),
)
def test_exact_on_degree_six_from_symmetric_samples(coeffs, theta_bar):
    h = numdiff.base_step(theta_bar)
    values = polynomial_values(coeffs, SYMMETRIC)
    want = (coeffs[1] / h, 2.0 * coeffs[2] / h**2)
    assert_rounding_apart(h, values, numdiff.speed_and_acceleration(h, values), want)
    assert_rounding_apart(h, values, richardson_stencil(h, values), want)


@settings(max_examples=80)
@given(
    coeffs=st.lists(DYADIC, min_size=4, max_size=4),
    theta_bar=st.floats(-5.0, 5.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_exact_on_degree_three_from_one_sided_samples(coeffs, theta_bar, sign):
    h = numdiff.base_step(theta_bar)
    values = polynomial_values(coeffs, [sign * o for o in ONE_SIDED])
    want = (coeffs[1] / h, 2.0 * coeffs[2] / h**2)
    assert_rounding_apart(h, values, numdiff.speed_and_acceleration(h, values), want)
