import math
import re

import mpmath
import numpy as np
import pytest

import jspec.qlaguerre as Q
from jspec.errors import CancellationFailure, ConvergenceFailure, DivergentArgument, JspecError
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


@pytest.mark.parametrize("kind, q, z, params", [
    pytest.param("2phi1", 0.5, 1.2, dict(a=0.5, b=0.5, c=0.25), id="2phi1-z-1.2"),
    # a lower parameter equal to q^-m: each raised a bare ZeroDivisionError
    pytest.param("0phi1", 0.5, 1.0, dict(b=4.0), id="0phi1-lower-4"),
    pytest.param("1phi1", 0.5, 1.0, dict(a=0.3, b=2.0), id="1phi1-lower-2"),
    pytest.param("2phi1", 0.5, 0.5, dict(a=0.3, b=0.2, c=4.0), id="2phi1-lower-4"),
])
def test_phi21_divergent_argument(kind, q, z, params):
    with pytest.raises(DivergentArgument):
        basic_hypergeometric(kind, q, z, **params)


@pytest.mark.parametrize("kind, q, z, params", [
    pytest.param("2phi1", 0.99999, 0.9999, dict(a=0.1, b=0.1, c=0.5), id="2phi1-q-0.99999"),
    # the 0phi1 loop stopped silently at 400 terms and returned nan here
    pytest.param("0phi1", 0.999, -0.5, dict(b=0.999**2), id="0phi1-q-0.999"),
])
def test_phi21_raises_when_partial_sum_overflows(kind, q, z, params):
    # at q near 1 the denominators 1 - q^{m+1} vanish and the terms overflow;
    # the sum once ran all 100,000 terms and returned nan
    with pytest.raises(ConvergenceFailure):
        basic_hypergeometric(kind, q, z, **params)


def test_phi21_raises_at_term_cap():
    # terms decay like z^m, so at z = 1 - 1e-6 the tail after 100,000 terms
    # is still about 0.9 of the sum
    with pytest.raises(ConvergenceFailure):
        basic_hypergeometric("2phi1", 0.5, 1.0 - 1e-6, a=0.5, b=0.5, c=0.25)


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


def _phi11_mpmath(a, b, q, z):
    # the same term recurrence at 60 digits
    with mpmath.workdps(60):
        a, b, q, z = (mpmath.mpf(v) for v in (a, b, q, z))
        t = s = mpmath.mpf(1)
        for m in range(400):
            t *= (1 - a * q**m) * (-(q**m) * z) / ((1 - b * q**m) * (1 - q ** (m + 1)))
            s += t
        return float(s)


def _basic_mpmath(upper, lower, q, z):
    # the term recurrence of the r_phi_s convention at 80 digits, summed
    # until the remainder is far below double precision; returns
    # (sum, sum of |terms|)
    with mpmath.workdps(80):
        upper, lower = [mpmath.mpf(a) for a in upper], [mpmath.mpf(b) for b in lower]
        q, z = mpmath.mpf(q), mpmath.mpf(z)
        e = 1 + len(lower) - len(upper)
        t = s = ab = qm = mpmath.mpf(1)
        for _ in range(5000):
            ratio = (-qm) ** e * z / (1 - qm * q)
            for a in upper:
                ratio *= 1 - a * qm
            for b in lower:
                ratio /= 1 - b * qm
            t *= ratio
            s += t
            ab += abs(t)
            qm *= q
            if abs(t) < mpmath.mpf(10) ** -40 * ab and abs(ratio) < 0.95:
                return float(s), float(ab)
        raise AssertionError("the oracle sum did not settle")


@pytest.mark.parametrize("kind, shape, bound", [
    pytest.param("0phi1", lambda q: ((), (q * q,)), 1e-14, id="0phi1"),
    pytest.param("1phi1", lambda q: ((0.3,), (0.5,)), 2e-15, id="1phi1"),
    pytest.param("2phi1", lambda q: ((0.5, q), (q * q,)), 2e-15, id="2phi1"),
])
def test_basic_hypergeometric_matches_80_digit_sum(kind, shape, bound):
    # the three former loops reached 1.58e-14 (0phi1), 1.08e-15 (1phi1) and
    # 1.24e-15 (2phi1) on this grid
    radii = np.geomspace(1e-3, 1e3, 13)
    zs = dict.fromkeys(np.minimum(radii, 0.9) if kind == "2phi1" else -radii)
    checked = 0
    for q in (0.2, 0.25, 0.5, 0.8, 0.9):
        upper, lower = shape(q)
        params = dict(zip("b" if kind == "0phi1" else "abc", upper + lower))
        for z in zs:
            want, ab = _basic_mpmath(upper, lower, q, z)
            if ab / abs(want) > 1e3:  # cancellation, not the loop, sets the error
                continue
            got = basic_hypergeometric(kind, q, float(z), **params)
            assert abs(got - want) <= bound * abs(want), (q, z, abs(got - want) / abs(want))
            checked += 1
    assert checked >= 20


def test_phi11_benign_point_matches_high_precision():
    got = basic_hypergeometric("1phi1", 0.5, 2.0, a=0.3, b=0.5)
    want = _phi11_mpmath(0.3, 0.5, 0.5, 2.0)
    assert want == pytest.approx(-0.0217227768603, abs=1e-13)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("q,z", [(0.99, 1.0), (0.9, 3.0)])
def test_phi11_raises_on_cancellation(q, z):
    # the double-double sum returned -8.8e24 (truth -1.9e-20) and -2.561e-8
    # (truth -2.691e-8) here; the abs-sum bound now refuses both
    with pytest.raises(CancellationFailure):
        basic_hypergeometric("1phi1", q, z, a=0.3, b=0.5)


def _outcome(f, *args):
    """f(*args), or the type and text of the JspecError it raises."""
    try:
        return f(*args)
    except JspecError as exc:
        return type(exc), str(exc)


def _terms_used(upper, lower, q, z):
    """The fewest terms whose sum has the bits of the stopped sum at z."""
    want = Q._basic_sum(upper, lower, q, z)[:2]
    return next(t for t in range(1, 1000) if Q._basic_sum(upper, lower, q, z, terms=t)[:2] == want)


@pytest.mark.parametrize("upper, lower, q, points, fail", [
    # the failing argument overflows at term 2 (0phi1 at q = 1/4, 1phi1), at
    # term 135, after every other element has stopped (0phi1 at q = 0.999),
    # or lies outside the 2phi1 disc
    pytest.param((), (0.0625,), 0.25, lambda w: -np.geomspace(1e-3, 1e12, w), -1e300, id="0phi1"),
    pytest.param((), (0.999**2,), 0.999, lambda w: -np.geomspace(1e-9, 1e-5, w), -0.5, id="0phi1-q-0.999"),
    pytest.param((0.3,), (0.5,), 0.5, lambda w: np.geomspace(1e-2, 30.0, w) * (-1.0) ** np.arange(w),
                 1e300, id="1phi1"),
    pytest.param((0.5, 0.5), (0.25,), 0.5, lambda w: np.linspace(-0.5, 0.5, w), 1.2, id="2phi1"),
])
@pytest.mark.parametrize("width", [5, Q._ARRAY_FROM - 1, Q._ARRAY_FROM, 200])
def test_basic_sum_arrays_keep_the_bits_of_one_point_calls(upper, lower, q, points, fail, width):
    # one argument per array fails; it is flagged, and only consuming it raises
    z = points(width)
    z[width // 2] = fail
    hi, lo, bound, failed = Q._basic_sum(upper, lower, q, z)
    assert list(failed) == [width // 2]
    for i, x in enumerate(z.tolist()):
        one = _outcome(Q._basic_sum, upper, lower, q, x)
        if i in failed:
            assert (type(failed[i]), str(failed[i])) == one
            assert all(math.isnan(v[i]) for v in (hi, lo, bound))
        else:
            assert all(_same_bits(v[i], w) for v, w in zip((hi, lo, bound), one)), (i, x)
    exc = failed[width // 2]
    with pytest.raises(type(exc), match=re.escape(str(exc))):
        Q._raise_first(failed)
    # the elements stop at different terms
    rest = np.delete(z, width // 2)
    ends = rest[[np.argmin(abs(rest)), np.argmax(abs(rest))]].tolist()
    assert len({_terms_used(upper, lower, q, x) for x in ends}) == 2


def _scan_roots_reference(nu, qp, count):
    """The roots by a scan of one-point 0phi1 sums, one per grid point and
    bisection midpoint; the reference for qbessel2_roots."""
    from jspec.spectrum import section_eigenvalues, truncate

    q = qp.q
    b = q ** (nu + 1.0)
    T = truncate(induced_params(qp), count + 10)
    x_max = 2.2 * math.sqrt(section_eigenvalues(T, T.size)[-1])
    f = lambda x: basic_hypergeometric("0phi1", q, -b * x * x / 4.0, b=b)
    lo_x = min(0.05, x_max * 1e-6)
    n_pts = max(int(200 * math.log10(x_max / lo_x)), 64)
    grid = np.exp(np.linspace(math.log(lo_x), math.log(x_max), n_pts))
    roots = []
    f_prev = f(grid[0])
    for i in range(1, n_pts):
        f_cur = f(grid[i])
        if f_prev == 0.0:
            roots.append(grid[i - 1])
        elif f_prev * f_cur < 0.0:
            a_, b_ = grid[i - 1], grid[i]
            fa = f_prev
            for _ in range(200):
                mid = 0.5 * (a_ + b_)
                if mid == a_ or mid == b_:
                    break
                fm = f(mid)
                if fa * fm <= 0.0:
                    b_ = mid
                else:
                    a_, fa = mid, fm
            roots.append(0.5 * (a_ + b_))
        if len(roots) >= count:
            break
        f_prev = f_cur
    if len(roots) < count:
        raise DivergentArgument(f"found only {len(roots)} roots below x={x_max:g}")
    return np.array(roots[:count])


def test_qbessel2_roots_match_the_scan_of_one_point_sums():
    # the 20 cases take about 0.5 s together, the reference scans most of it
    for q in (0.1, 0.25, 0.5, 0.9, 0.97):
        for nu in (0.0, 0.5, 1.0, 2.0):
            want = _scan_roots_reference(nu, QParams(q), 5)
            got = qbessel2_roots(nu, QParams(q), 5)
            assert got.tobytes() == want.tobytes(), (q, nu)


def test_qbessel2_roots_raise_only_at_grid_points_the_scan_reaches(monkeypatch):
    # a decade is summed past the last root it needs; flagging its later
    # points changes nothing, flagging a point before that root raises
    roots = qbessel2_roots(1.0, QP, 5)
    inner = Q._basic_sum
    flagged = []

    def flagging(past):
        def summed(upper, lower, q, z, terms=None):
            out = inner(upper, lower, q, z, terms)
            if np.ndim(z) == 0:
                return out
            x = np.sqrt(-4.0 * z / lower[0])
            bad = np.flatnonzero(x > past).tolist()
            flagged.extend(bad)
            return (*out[:3], {**out[3], **{i: ConvergenceFailure("flagged") for i in bad}})
        return summed

    monkeypatch.setattr(Q, "_basic_sum", flagging(1.01 * roots[-1]))
    assert qbessel2_roots(1.0, QP, 5).tobytes() == roots.tobytes()
    assert flagged
    monkeypatch.setattr(Q, "_basic_sum", flagging(1.01 * roots[-2]))
    with pytest.raises(ConvergenceFailure, match="flagged"):
        qbessel2_roots(1.0, QP, 5)


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


def test_qbessel_raises_when_q_pochhammer_underflows():
    # (q; q)_inf is 0.0 in floats at q = 0.999; dividing by it raised a bare
    # ZeroDivisionError
    assert qpochhammer(0.999, 0.999) == 0.0
    with pytest.raises(JspecError):
        char_closed_forms(1.0, QParams(0.999))


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


def _same_bits(got, want):
    return type(want) is float and np.float64(want).tobytes() == np.float64(got).tobytes()


def test_closed_forms_point_arrays_keep_the_bits_of_one_point_calls(monkeypatch):
    # at q = 1/4 the points fall into the series truncation groups (8, 16),
    # (10, 16), (12, 16) and (14, 16); 0 and 1e-9 take the small-z branches
    # of the Bessel form and of the numerator's first piece
    import jspec.entire as E

    points = np.array([0.5, 1e-9, 300.0, 0.0, 8e6, 5.0, 1.5e7, 2e4])
    builds = []
    real = E._series_pair

    def counting(*args, **kwargs):
        builds.append(args[1:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(E, "_series_pair", counting)
    char = char_closed_forms(points, QP)
    assert sorted(builds) == [(8, 16, 0), (10, 16, 0), (12, 16, 0), (14, 16, 0)]
    builds.clear()
    import jspec.qlaguerre as Q

    sums = []
    inner = Q._basic_sum

    def counted(upper, *args, **kwargs):
        sums.append(len(upper))
        return inner(upper, *args, **kwargs)

    monkeypatch.setattr(Q, "_basic_sum", counted)
    num = weyl_num_closed_forms(points, QP)
    assert len(builds) == 4
    # the correction series' 2phi1 coefficients are summed once per call, as
    # far as the point that needs the most of them
    shared = sums.count(2)
    per_point = []
    for z in points.tolist():
        sums.clear()
        weyl_num_closed_forms(z, QP)
        per_point.append(sums.count(2))
    assert shared == max(per_point) < sum(per_point)
    for i, z in enumerate(points.tolist()):
        for routes, one in ((char, char_closed_forms(z, QP)), (num, weyl_num_closed_forms(z, QP))):
            assert len(one) == len(routes)
            assert all(_same_bits(r[i], v) for r, v in zip(routes, one)), (z, one)
    values = jackson_qbessel2(2.0, points, QP)
    assert all(_same_bits(values[i], jackson_qbessel2(2.0, z, QP)) for i, z in enumerate(points.tolist()))
    with pytest.raises(ValueError, match="z >= 0"):
        char_closed_forms(np.array([1.0, -1.0]), QP)
    with pytest.raises(ValueError, match="x >= 0"):
        jackson_qbessel2(1.0, np.array([1.0, -1.0]), QP)


def test_weyl_num_correction_series_raises_at_term_cap():
    # at q = 0.99, z = 10 the correction terms still grow at term 200, and
    # every partial sum stays finite
    with pytest.raises(ConvergenceFailure, match="did not settle in 200 terms"):
        weyl_num_closed_forms(10.0, QParams(0.99))


def test_weyl_num_correction_series_raises_at_first_non_finite_term(monkeypatch):
    # at q = 0.97, z = 200 the terms reach 1e136, zp overflows while
    # q^{(m+3)(m+1)} underflows, and the partial sum is NaN from term 134:
    # the series raises there instead of summing on to the 200-term cap
    import jspec.qlaguerre as Q

    calls = []
    inner = Q._basic_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(Q, "_basic_sum", counted)
    with pytest.raises(ConvergenceFailure, match="is not finite at term 134"):
        weyl_num_closed_forms(200.0, QParams(0.97))
    assert len(calls) < 200


@pytest.mark.parametrize("q, z", [(0.97, 50.0), (0.98, 20.0)])
def test_weyl_num_correction_series_raises_on_cancellation(q, z):
    # the closed form returned -3.84e75 (series route 5.89e60) and 6.88e87
    # (1.34e72) here; the rounding bound of the correction terms is 3.5e4
    # and 4.2e2 times its sum
    with pytest.raises(CancellationFailure, match="correction series of the Weyl numerator"):
        weyl_num_closed_forms(z, QParams(q))


def test_masses_from_closed_forms():
    # mu_j = -W(lambda_j)/F'(lambda_j) with W from the Bessel-plus-2phi1
    # closed form, against the generic pipeline.  Pointwise evaluation of
    # the numerator at an eigenvalue loses ~10^{(j-1)^2}-ish digits to
    # cancellation (the value collapses from O(1) terms), so only the first
    # three eigenvalues are certifiable in double-double arithmetic; beyond
    # that the generic pipeline's quotient route is the only stable path.
    from jspec.entire import eval_series_deriv, series_pair
    from jspec.spectrum import point_spectrum

    params = induced_params(QP)
    sd = point_spectrum(params, 3, tol=1e-10)
    fser = series_pair(params, 40, 80, 0)[0]
    tols = (1e-12, 1e-12, 1e-6)
    for j in range(3):
        wc, _ = weyl_num_closed_forms(float(sd.lambdas[j]), QP)
        fp = eval_series_deriv(fser, sd.lambda_dd(j)).value
        mu_closed = -wc / fp
        assert mu_closed == pytest.approx(sd.masses[j], rel=tols[j])


def test_rescaling_identity():
    for x in (0.5, 3.0, 11.0):
        rel, rec = orthopoly_relation_residuals(12, x, QP)
        for n in (0, 1, 5, 12):
            assert rel[n] <= 1e-9 * max(1.0, 2.0**n)
            assert rec[n] <= 1e-12
    # value anchor: P_1(0) = -q^{-1/2} = -2 at q = 1/4
    from jspec.polycore import orthopoly_eval

    assert orthopoly_eval(induced_params(QP), 1, 0.0).values[1] == pytest.approx(-2.0)


def test_relation_residuals_sum_each_modified_laguerre_once(monkeypatch):
    # criterion 12 reads every degree off one call per point, and that call
    # sums each Lt_n once
    from jspec import qlaguerre
    from jspec.verification import run_criterion

    calls = []
    inner = qlaguerre.modified_laguerre

    def counted(n, x, qp):
        calls.append((n, x, qp.q))
        return inner(n, x, qp)

    monkeypatch.setattr(qlaguerre, "modified_laguerre", counted)
    rel, rec = orthopoly_relation_residuals(12, 3.0, QP)
    assert sorted(calls) == [(n, 3.0, 0.25) for n in range(14)]
    assert rel.shape == rec.shape == (13,)
    calls.clear()
    result = run_criterion(12)
    assert result.passed
    assert len(calls) == len(set(calls)) == 3 * 14 + 3 * 12


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
