import math

import numpy as np
import pytest

from jspec.errors import ConvergenceFailure, DivergentArgument
from jspec.qlaguerre import (
    QParams,
    basic_hypergeometric,
    char_closed_forms,
    induced_params,
    jackson_qbessel2,
    laguerre_classical,
    modified_laguerre,
    orthopoly_relation_residuals,
    q_laguerre,
    qbessel2_roots,
    qpochhammer,
    weyl_num_closed_forms,
)

QP = QParams(0.25)


def test_qpochhammer_basics():
    assert qpochhammer(0.3, 0.5, 0) == 1.0
    assert qpochhammer(0.5, 0.5, 2) == pytest.approx(0.375)  # (1/2)(3/4)
    # infinite product converges and extends the finite ones monotonically
    inf_val = qpochhammer(0.5, 0.5, None)
    assert inf_val < qpochhammer(0.5, 0.5, 30)
    assert inf_val == pytest.approx(qpochhammer(0.5, 0.5, 200), rel=1e-15)


def test_qpochhammer_finite_multiplies_every_factor():
    # 200,000 factors; a cap at 100,001 once returned 0.909
    a, q, n = 1e-6, 0.999999, 200000
    expected = math.exp(math.fsum(math.log1p(-a * q**i) for i in range(n)))
    assert qpochhammer(a, q, n) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.834, abs=1e-3)


def test_qpochhammer_infinite_raises_at_cap():
    # |a| q^i reaches 1e-18 only after ~3.5e6 factors; the truncated product
    # (3.4e-28) was far from the true 3.6e-44
    with pytest.raises(ConvergenceFailure):
        qpochhammer(1e-3, 0.99999)


def test_phi01_coefficients_closed_form():
    # coefficient of z^m in 0phi1(;q^2;q,-q^2 z) is
    # (-1)^m q^{m(m+1)} / ((q;q)_m (q^2;q)_m); probe with finite differences
    # on a tiny circle is overkill, a Vandermonde solve does it exactly
    q = 0.3
    deg = 5
    zs = np.linspace(-0.8, 0.8, deg + 1)
    vals = [basic_hypergeometric("0phi1", q, -q * q * z, b=q * q) for z in zs]
    coeffs = np.linalg.solve(np.vander(zs, increasing=True), vals)
    for m in range(4):
        target = (-1.0) ** m * q ** (m * (m + 1)) / (
            qpochhammer(q, q, m) * qpochhammer(q * q, q, m)
        )
        assert coeffs[m] == pytest.approx(target, rel=1e-9)


def test_phi21_reciprocal_pole_sum():
    # sum_j q^{aj}/(1-q^{j+a}) = 2phi1(q^a, q; q^{a+1}; q, q^a)/(1-q^a)
    q, a = 0.5, 2
    lhs = sum(q ** (a * j) / (1.0 - q ** (j + a)) for j in range(400))
    rhs = basic_hypergeometric("2phi1", q, q**a, a=q**a, b=q, c=q ** (a + 1)) / (1 - q**a)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_phi21_divergent_argument():
    with pytest.raises(DivergentArgument):
        basic_hypergeometric("2phi1", 0.5, 1.2, a=0.5, b=0.5, c=0.25)


def test_phi11_terminates_for_inverse_power_parameter():
    # numerator parameter q^-n kills every term beyond degree n, so the
    # generic series equals the finite sum regardless of the cutoff logic
    q, n, z = 0.5, 3, 17.0
    full = basic_hypergeometric("1phi1", q, z, a=q**-n, b=q)
    manual = 0.0
    t = 1.0
    for m in range(n + 1):
        manual += t
        t *= (1 - q ** (m - n)) * (-(q**m) * z) / ((1 - q ** (m + 1)) * (1 - q ** (m + 1)))
    assert full == pytest.approx(manual, rel=1e-13)


def test_q_laguerre_values():
    assert q_laguerre(0, 0, 3.7, QP) == 1.0
    q = QP.q
    # L_1^{(0)}(x;q) = 1 - qx/(1-q)
    for x in (0.0, 1.0, 4.0):
        assert q_laguerre(1, 0, x, QP) == pytest.approx(1.0 - q * x / (1.0 - q), rel=1e-14)


def test_ladder_identity():
    # q^n L_n^{(0)} + L_{n-1}^{(1)} - L_n^{(1)} = 0 pins down the series convention
    qh = QParams(0.5)
    for n in range(1, 11):
        for x in (0.5, 1.0, 2.0):
            r = (
                qh.q**n * q_laguerre(n, 0, x, qh)
                + q_laguerre(n - 1, 1, x, qh)
                - q_laguerre(n, 1, x, qh)
            )
            assert abs(r) <= 1e-12


def test_three_term_recurrence_plain_family():
    qh = QParams(0.5)
    for n in range(1, 11):
        for x in (0.5, 1.0, 2.0):
            L = lambda m: q_laguerre(m, 0, x, qh)
            r = (
                qh.q ** (2 * n + 1) * x * L(n)
                + (1 - qh.q ** (n + 1)) * (L(n + 1) - L(n))
                - qh.q * (1 - qh.q**n) * (L(n) - L(n - 1))
            )
            assert abs(r) <= 1e-12


def test_modified_family():
    for n in range(11):
        assert modified_laguerre(n, 0.0, QP) == pytest.approx(1.0, abs=1e-13)
    # Lt_1(x;q) = 1 - q^2 x/(1-q), which is 1 - x/12 at q = 1/4
    for x in (0.5, 6.0, 12.0):
        assert modified_laguerre(1, x, QP) == pytest.approx(1.0 - x / 12.0, rel=1e-14)


def test_classical_limit_monotone():
    for n in range(1, 6):
        errs = []
        for q in (0.9, 0.99, 0.999):
            qq = QParams(q)
            errs.append(
                max(
                    abs(modified_laguerre(n, (1 - q) * x, qq) - laguerre_classical(n, x))
                    for x in (0.5, 1.0, 2.0)
                )
            )
        assert errs[0] > errs[1] > errs[2]


def test_classical_limit_value():
    # Lt_1((1-q)x; q) = 1 - q^2 x -> 1 - x
    q = 0.99
    x = 1.7
    assert modified_laguerre(1, (1 - q) * x, QParams(q)) == pytest.approx(1 - q * q * x, rel=1e-12)
    assert laguerre_classical(1, x) == 1 - x


def test_qbessel_small_argument():
    # leading order x/(2(1-q))
    q = QP.q
    for x in (1e-4, 1e-3):
        assert jackson_qbessel2(1.0, x, QP) == pytest.approx(x / (2 * (1 - q)), rel=1e-5)
    assert jackson_qbessel2(1.5, 0.0, QP) == 0.0
    with pytest.raises(ValueError):
        jackson_qbessel2(-1.5, 1.0, QP)


def test_qbessel_roots_simple_sign_changes():
    roots = qbessel2_roots(1.0, QP, 5)
    assert np.all(np.diff(roots) > 0.0)
    for r in roots:
        lo = jackson_qbessel2(1.0, r * (1 - 1e-7), QP)
        hi = jackson_qbessel2(1.0, r * (1 + 1e-7), QP)
        assert lo * hi < 0.0  # genuine simple crossing, no double root


def test_root_correspondence_with_spectrum():
    from jspec.spectrum import point_spectrum

    roots = qbessel2_roots(1.0, QP, 5)
    sd = point_spectrum(induced_params(QP), 5, tol=1e-10)
    lam = (roots / 2.0) ** 2
    assert np.max(np.abs(lam - sd.lambdas) / sd.lambdas) <= 1e-6


def test_char_closed_forms_agree():
    for z in (1e-12, 0.5, 5.0, 120.0):
        cb, cph, cs = char_closed_forms(z, QP)
        scale = max(abs(cb), abs(cph), abs(cs))
        assert max(cb, cph, cs) - min(cb, cph, cs) <= 1e-12 * scale
    # limit value 1 at the origin
    assert char_closed_forms(1e-13, QP)[0] == pytest.approx(1.0, abs=1e-10)


def test_char_linear_coefficient():
    # slope at origin equals minus the trace of the inverse, -4/45 at q=1/4
    h = 1e-7
    _, up, _ = char_closed_forms(h, QP)
    _, dn, _ = char_closed_forms(0.0, QP)
    assert (up - dn) / h == pytest.approx(-4.0 / 45.0, abs=1e-6)


def test_weyl_num_closed_forms_agree():
    for q, zs in ((0.5, (0.0, 0.5, 3.0)), (0.25, (0.0, 2.0, 50.0))):
        qp = QParams(q)
        for z in zs:
            wc, ws = weyl_num_closed_forms(z, qp)
            assert abs(wc - ws) <= 1e-12 * max(1.0, abs(ws))
    wc, _ = weyl_num_closed_forms(0.0, QP)
    assert wc == pytest.approx(0.08439074413369511, rel=1e-12)


def test_masses_from_closed_forms():
    # mu_j = -W(lambda_j)/F'(lambda_j) with W from the Bessel-plus-2phi1
    # closed form, against the generic pipeline.  Pointwise evaluation of
    # the numerator at an eigenvalue loses ~10^{(j-1)^2}-ish digits to
    # cancellation (the value collapses from O(1) terms), so only the first
    # three eigenvalues are certifiable in double-double arithmetic; beyond
    # that the generic pipeline's quotient route is the only stable path.
    from jspec.entire import KIND_CHAR, eval_series_deriv, series_coeffs
    from jspec.spectrum import point_spectrum

    params = induced_params(QP)
    sd = point_spectrum(params, 3, tol=1e-10)
    fser = series_coeffs(params, KIND_CHAR, 40, 80)
    tols = (1e-12, 1e-12, 1e-6)
    for j in range(3):
        wc, _ = weyl_num_closed_forms(float(sd.lambdas[j]), QP)
        fp = eval_series_deriv(fser, sd.lambda_dd(j)).value
        mu_closed = -wc / fp
        assert mu_closed == pytest.approx(sd.masses[j], rel=tols[j])


def test_rescaling_identity():
    for n in (0, 1, 5, 12):
        for x in (0.5, 3.0, 11.0):
            rel, rec = orthopoly_relation_residuals(n, x, QP)
            assert rel <= 1e-9 * max(1.0, 2.0**n)
            assert rec <= 1e-12
    # value anchor: P_1(0) = -q^{-1/2} = -2 at q = 1/4
    from jspec.polycore import orthopoly_eval

    assert orthopoly_eval(induced_params(QP), 1, 0.0).values[1] == pytest.approx(-2.0)


def test_interpolated_coefficients_match_polycore():
    # evaluating Lt_n at n+2 points and interpolating reproduces the
    # explicit polynomial coefficients up to the (-1)^n q^{-n/2} rescale
    from jspec.polycore import orthopoly_eval

    q = QP.q
    n = 4
    # node spread matters: the leading coefficient is ~1e-12, so the nodes
    # must reach far enough for its term to register above conditioning
    xs = np.array([0.0, 30.0, 90.0, 200.0, 350.0, 600.0])
    vals = np.array([modified_laguerre(n, float(x), QP) for x in xs])
    coeffs = np.polynomial.polynomial.polyfit(xs, vals, n)
    pc = orthopoly_eval(induced_params(QP), n, 0.0, mode="explicit").coeffs
    scaled = coeffs * (-1.0) ** n * q ** (-n / 2.0)
    assert np.max(np.abs(scaled - pc) / np.abs(pc)) < 1e-8
