import math

import numpy as np
import pytest

from jspec.polycore import (
    orthopoly_eval,
    orthopoly_values_dd,
    second_kind_at_zero,
    trace_inverse,
    trace_inverse_routes,
    value_at_zero,
)
from jspec.sequences import Geometric, JacobiParams, PowerLaw, entry_arrays, gamma_lower_bound

GEOM = JacobiParams(Geometric(0.25), 0.5)

# independently summed series values (40 exact terms of k^{2j-n}/a_j)
W0_AT_ZERO = 0.08439074413369511
W1_AT_ZERO = -0.002114821600723552


def brute_second_kind_zero(params, n, terms=40):
    a, _, _ = entry_arrays(params, n + terms)
    k = params.k
    s = sum(k ** (2 * j - n) / a[j] for j in reversed(range(n, n + terms)))
    return (-1.0) ** n * s


def test_first_polynomials_by_hand():
    # forced by the boundary recurrence: P1 = (x - beta_0)/alpha_0 = x/6 - 2
    for x in (0.0, 1.0, 7.5, 30.0):
        pe = orthopoly_eval(GEOM, 1, x)
        assert pe.values[1] == pytest.approx(x / 6.0 - 2.0, rel=1e-15)
    # hand-run recurrence with alpha_1 = 120, beta_1 = 243
    for x in (0.0, 2.0, 11.0):
        pe = orthopoly_eval(GEOM, 2, x)
        assert pe.values[2] == pytest.approx(x * x / 720.0 - 17.0 * x / 48.0 + 4.0, rel=1e-13)


def test_explicit_coefficients_degree2():
    pe = orthopoly_eval(GEOM, 2, 0.0, mode="explicit")
    # inner chain sums: c1 = 1/12 + 1/192, c2 = 1/2880, scaled by (-1)^{n+m} k^{-n}
    assert pe.coeffs[2] == pytest.approx(1.0 / 720.0, rel=1e-15)
    assert pe.coeffs[1] == pytest.approx(-17.0 / 48.0, rel=1e-15)
    assert pe.coeffs[0] == pytest.approx(4.0, rel=1e-15)


def test_leading_coefficient_positive():
    for n in (1, 3, 6, 10):
        pe = orthopoly_eval(GEOM, n, 1.0, mode="explicit")
        assert pe.coeffs[n] > 0.0
        _, alpha, _ = entry_arrays(GEOM, n)
        assert pe.coeffs[n] == pytest.approx(1.0 / np.prod(alpha[:n]), rel=1e-13)


def test_mode_agreement_sample():
    for n in (3, 9, 17, 25):
        for x in (0.0, 0.7, 5.0, 23.0):
            pr = orthopoly_eval(GEOM, n, x, mode="recurrence").values[n]
            pe = orthopoly_eval(GEOM, n, x, mode="explicit").values[n]
            assert abs(pr - pe) / max(1.0, abs(pr)) < 1e-11


def test_value_at_zero_formula():
    assert value_at_zero(GEOM, 3) == -8.0
    assert value_at_zero(GEOM, 0) == 1.0
    pe = orthopoly_eval(GEOM, 30, 0.0)
    for n in range(31):
        assert pe.values[n] == pytest.approx(value_at_zero(GEOM, n), rel=1e-12)


def test_second_kind_at_zero_values():
    assert second_kind_at_zero(GEOM, 0) == pytest.approx(W0_AT_ZERO, rel=1e-14)
    assert second_kind_at_zero(GEOM, 1) == pytest.approx(W1_AT_ZERO, rel=1e-13)
    for n in range(8):
        assert second_kind_at_zero(GEOM, n) == pytest.approx(
            brute_second_kind_zero(GEOM, n), rel=1e-13
        )
        # all summands share the sign (-1)^n
        assert math.copysign(1.0, second_kind_at_zero(GEOM, n)) == (-1.0) ** n


def test_trace_inverse_closed_form():
    # terms reduce to q^{2j+2}/(1-q): geometric sum q^2/((1-q)(1-q^2)) = 4/45
    assert trace_inverse(GEOM, tol=1e-15) == pytest.approx(4.0 / 45.0, rel=1e-14)
    direct, alt = trace_inverse_routes(GEOM, tol=1e-14)
    assert abs(direct - alt) <= 1e-14 * direct + 1e-16
    # strictly larger than the mass-weighted sum of reciprocals
    assert direct > second_kind_at_zero(GEOM, 0)


def test_no_sign_change_below_gamma():
    # every root sits in [gamma, inf): the evaluation keeps one sign below
    gamma = gamma_lower_bound(GEOM)
    xs = np.linspace(0.0, gamma * 0.999, 400)
    for n in (1, 2, 4, 8, 12):
        vals = [orthopoly_eval(GEOM, n, float(x)).values[n] for x in xs]
        signs = np.sign(vals)
        assert np.all(signs == signs[0])


def test_root_count_above_gamma():
    from jspec.spectrum import section_eigenvalues, truncate

    gamma = gamma_lower_bound(GEOM)
    for n in (2, 4, 6):
        lam_top = section_eigenvalues(truncate(GEOM, n), n)[-1]
        xs = np.geomspace(gamma * 0.5, lam_top * 1.5, 6000)
        vals = np.array([orthopoly_eval(GEOM, n, float(x)).values[n] for x in xs])
        crossings = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
        assert crossings == n


def test_overflow_reported_not_silent():
    # slowly growing weights keep the entries representable while the
    # polynomial values pass 2^1024; the scaled mantissas must survive
    from jspec.sequences import PowerLaw

    p = JacobiParams(PowerLaw(1.0, 2.0), 0.5)
    pe = orthopoly_eval(p, 4000, 50.0)
    assert pe.overflow
    assert np.all(np.isfinite(pe.mantissas))
    assert pe.exponents[-1] > 0


def test_dd_recurrence_matches_float():
    Ph, Pl = orthopoly_values_dd(GEOM, 12, 5.0)
    pe = orthopoly_eval(GEOM, 12, 5.0)
    assert np.max(np.abs(Ph - pe.values) / np.maximum(1.0, np.abs(Ph))) < 1e-13


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_explicit_degrees_share_one_pass(params):
    # every degree is read off the degree-n prefix table in one 2-D Horner
    # pass; each must equal its own explicit evaluation bit for bit
    n = 25
    for x in (-2.0, 0.0, 0.3, 7.5, 120.0):
        full = orthopoly_eval(params, n, x, "explicit").values
        for d in range(n + 1):
            own = orthopoly_eval(params, d, x, "explicit").values[d]
            assert np.float64(own).tobytes() == np.float64(full[d]).tobytes(), (x, d)
