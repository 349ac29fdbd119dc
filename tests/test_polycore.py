import math

import mpmath
import numpy as np
import pytest

from jspec import doubledouble as dd
from jspec import polycore
from jspec.errors import ConvergenceFailure, TruncationTooCoarse

from jspec.polycore import (
    _second_kind_zeros,
    orthopoly_eval,
    orthopoly_values_dd,
    second_kind_at_zero,
    trace_inverse,
    trace_inverse_routes,
    value_at_zero,
)
from jspec.sequences import (
    Explicit,
    Geometric,
    JacobiParams,
    PowerLaw,
    entry_arrays,
    gamma_lower_bound,
)

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
    # 10^400 is past the float range: +-inf, once a bare OverflowError
    far = JacobiParams(PowerLaw(1.0, 2.0), 0.1)
    assert value_at_zero(far, 400) == math.inf and value_at_zero(far, 401) == -math.inf


def test_second_kind_at_zero_values():
    assert second_kind_at_zero(GEOM, 0) == pytest.approx(W0_AT_ZERO, rel=1e-14)
    assert second_kind_at_zero(GEOM, 1) == pytest.approx(W1_AT_ZERO, rel=1e-13)
    for n in range(8):
        assert second_kind_at_zero(GEOM, n) == pytest.approx(
            brute_second_kind_zero(GEOM, n), rel=1e-13
        )
        # all summands share the sign (-1)^n
        assert math.copysign(1.0, second_kind_at_zero(GEOM, n)) == (-1.0) ** n


def test_second_kind_at_zero_geometric_matches_mpmath():
    # w_n(0) = (-1)^n sum_{j>=n} k^{2j-n}/a_j with a_j = q^{-2(j+1)}(1 - q^{j+1})
    q, k = 0.6, 0.9
    params = JacobiParams(Geometric(q), k)
    for n in (0, 3, 10):
        with mpmath.workdps(40):
            qm, km = mpmath.mpf(q), mpmath.mpf(k)
            ref = (-1) ** n * mpmath.nsum(
                lambda j: km ** (2 * j - n) * qm ** (2 * (j + 1)) / (1 - qm ** (j + 1)),
                [n, mpmath.inf],
            )
        assert second_kind_at_zero(params, n) == pytest.approx(float(ref), rel=1e-14)


def test_second_kind_at_zero_raises_when_tail_cannot_certify():
    # at k = 0.9999 the 1/j^2 tail times k^{2J} stays above tol through
    # J = 2^14; the sum stopped there once returned 1.6433591832, 5.3e-7
    # relative from the mpmath value 1.6433583054
    params = JacobiParams(PowerLaw(1.0, 2.0), 0.9999)
    with pytest.raises(TruncationTooCoarse):
        second_kind_at_zero(params, 0)
    with pytest.raises(TruncationTooCoarse):
        _second_kind_zeros(params, 3, 1e-14)


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_second_kind_zeros_match_compensated_sums(params):
    # one suffix pass for every n against the per-n compensated sum; each
    # drops a tail below tol, so they may differ by 2 tol plus rounding
    tol = 1e-17
    w = _second_kind_zeros(params, 48, tol)
    for n in range(49):
        ref = second_kind_at_zero(params, n, tol=tol)
        assert math.copysign(1.0, w[n]) == (-1.0) ** n
        assert abs(w[n] - ref) <= 2.0 * tol + 1e-14 * abs(ref), n


def test_trace_inverse_closed_form():
    # terms reduce to q^{2j+2}/(1-q): geometric sum q^2/((1-q)(1-q^2)) = 4/45
    assert trace_inverse(GEOM, tol=1e-15) == pytest.approx(4.0 / 45.0, rel=1e-14)
    direct, alt = trace_inverse_routes(GEOM, tol=1e-14)
    assert abs(direct - alt) <= 1e-14 * direct + 1e-16
    # strictly larger than the mass-weighted sum of reciprocals
    assert direct > second_kind_at_zero(GEOM, 0)


def test_second_trace_route_doubles_its_cutoff(monkeypatch):
    # at q = k = 0.9 the suffix sums from n_stop + 8 drop too much: the
    # cutoff doubles once, and the routes still agree
    params = JacobiParams(Geometric(0.9), 0.9)
    cutoffs = []
    inner = polycore.tail_sum_reciprocal
    monkeypatch.setattr(
        polycore, "tail_sum_reciprocal", lambda seq, n: cutoffs.append(n - 1) or inner(seq, n)
    )
    direct, alt = trace_inverse_routes(params, tol=1e-14)
    assert len(cutoffs) == 2 and cutoffs[1] == 2 * cutoffs[0]
    assert abs(direct - alt) <= 1e-15 * direct


@pytest.mark.parametrize("p", [1.5, 2.0, 2.2])
def test_trace_inverse_power_law_matches_mpmath(p):
    # sum_j (1 - k^{2j+2}) / ((1-k^2) c (j+1)^p) = (zeta(p) - Li_p(k^2)) / (c (1-k^2));
    # the sum once stopped silently at 2^17 terms, 5.5e-6 off at p = 2
    c, k = 1.5, 0.5
    with mpmath.workdps(40):
        ref = (mpmath.zeta(p) - mpmath.polylog(p, k * k)) / (c * (1 - k * k))
    tol = 1e-14
    value = trace_inverse(JacobiParams(PowerLaw(c, p), k), tol=tol)
    assert abs(value - ref) <= tol


def test_trace_inverse_explicit_uses_its_tail_rule():
    spec = Explicit((5.0, 2.0, 11.0), PowerLaw(1.0, 2.0))
    k = 0.6
    with mpmath.workdps(40):
        k2 = mpmath.mpf(k) ** 2
        head = sum((1 - k2 ** (j + 1)) / v for j, v in enumerate(spec.values))
        # sum_{m>=4} (1 - k^{2m}) / m^2 in closed form
        tail = mpmath.zeta(2, 4) - mpmath.polylog(2, k2) + sum(k2**m / m**2 for m in (1, 2, 3))
        ref = (head + tail) / (1 - k2)
    assert abs(trace_inverse(JacobiParams(spec, k), tol=1e-14) - ref) <= 1e-14


def test_trace_inverse_power_law_second_route_raises():
    # P_n(0) = (-k)^-n overflowed near n = 1075 (bare OverflowError); the
    # positive suffix sums cannot, and the power-law tail needs more than
    # the 4096 indices the route allows; the closed sum alone still returns
    params = JacobiParams(PowerLaw(1.0, 2.0), 0.5)
    with pytest.raises(ConvergenceFailure):
        trace_inverse_routes(params)
    assert 0.0 < trace_inverse(params) < math.inf


def test_trace_inverse_raises_when_tail_cannot_certify():
    # a geometric tail is only bounded (its value is taken as 0); at
    # q = 0.9999 that bound stays above tol through 2^17 terms
    params = JacobiParams(Geometric(0.9999), 0.5)
    with pytest.raises(TruncationTooCoarse):
        trace_inverse(params, tol=1e-14)


def test_no_sign_change_below_gamma():
    # every root sits in [gamma, inf): the evaluation keeps one sign below
    gamma = gamma_lower_bound(GEOM)
    xs = np.linspace(0.0, gamma * 0.999, 400)
    values = orthopoly_eval(GEOM, 12, xs).values
    for n in (1, 2, 4, 8, 12):
        signs = np.sign(values[n])
        assert np.all(signs == signs[0])


def test_root_count_above_gamma():
    from jspec.spectrum import section_eigenvalues, truncate

    # every degree's roots lie below the top eigenvalue of its section, so
    # one grid up to the largest of them counts the roots of each
    gamma = gamma_lower_bound(GEOM)
    lam_top = section_eigenvalues(truncate(GEOM, 6), 6)[-1]
    xs = np.geomspace(gamma * 0.5, lam_top * 1.5, 6000)
    values = orthopoly_eval(GEOM, 6, xs).values
    for n in (2, 4, 6):
        crossings = int(np.sum(np.sign(values[n, 1:]) != np.sign(values[n, :-1])))
        assert crossings == n


def test_overflow_reported_not_silent():
    # slowly growing weights keep the entries representable while the
    # polynomial values pass 2^1024: the rescaled recurrence keeps every
    # value up to the last representable degree, +-inf after it, never nan
    p = JacobiParams(PowerLaw(1.0, 2.0), 0.5)
    pe = orthopoly_eval(p, 4000, 50.0)
    inf = np.isinf(pe.values)
    first = int(np.argmax(inf))
    assert pe.overflow and first > 0
    assert np.all(np.isfinite(pe.values[:first])) and abs(pe.values[first - 1]) > 1e307
    assert np.all(inf[first:])
    # here (x - beta_i) P_i overflows before the 2^900 test sees it; that is
    # the flag's to report, not a numpy warning (an error in this suite)
    pe = orthopoly_eval(GEOM, 200, 1e6)
    first = int(np.argmax(np.isinf(pe.values)))
    assert pe.overflow and first > 0 and np.all(np.isfinite(pe.values[:first]))


def test_dd_recurrence_matches_float():
    Ph, Pl = orthopoly_values_dd(GEOM, 12, 5.0)
    pe = orthopoly_eval(GEOM, 12, 5.0)
    assert np.max(np.abs(Ph - pe.values) / np.maximum(1.0, np.abs(Ph))) < 1e-13


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_dd_recurrence_point_arrays_match_single_calls(params):
    # an array of points gives (n+1) x P values whose columns are the
    # one-point calls, bit for bit
    zh = np.array([-2.0, 0.0, 0.3, 7.5, 120.0, 4.1e3])
    zl = np.array([0.0, 0.0, 1e-18, -2e-16, 0.0, 1e-13])
    Ph, Pl = orthopoly_values_dd(params, 20, (zh, zl))
    assert Ph.shape == (21, len(zh))
    for p in range(len(zh)):
        oh, ol = orthopoly_values_dd(params, 20, (float(zh[p]), float(zl[p])))
        assert oh.shape == (21,)
        assert Ph[:, p].tobytes() == oh.tobytes() and Pl[:, p].tobytes() == ol.tobytes()


def _row_vector_values_dd(params, n, zh, zl):
    """The double-double recurrence with one numpy call per row over all
    points: the former form of ``orthopoly_values_dd``, kept as reference."""
    _, alpha, beta = entry_arrays(params, n + 1)
    alpha, beta = alpha.tolist(), beta.tolist()
    Ph = np.empty((n + 1, len(zh)))
    Pl = np.empty_like(Ph)
    Ph[0], Pl[0] = 1.0, 0.0
    th, tl = dd.dd_add_d(zh, zl, -beta[0])
    Ph[1], Pl[1] = dd.dd_mul_d(th, tl, 1.0 / alpha[0])
    for i in range(1, n):
        th, tl = dd.dd_add_d(zh, zl, -beta[i])
        rh, rl = dd.dd_mul(th, tl, Ph[i], Pl[i])
        sh, sl = dd.dd_mul_d(Ph[i - 1], Pl[i - 1], alpha[i - 1])
        rh, rl = dd.dd_sub(rh, rl, sh, sl)
        Ph[i + 1], Pl[i + 1] = dd.dd_div(rh, rl, alpha[i], 0.0)
    return Ph, Pl


def _called_values_dd_at(alpha, beta, n, zh, zl):
    """The recurrence of ``orthopoly_values_dd`` at one point with one
    ``doubledouble`` call per operation: the former ``_values_dd_at``, kept
    as the reference of the written-out loop."""
    Ph, Pl = [1.0], [0.0]
    if n == 0:
        return Ph, Pl
    th, tl = dd.dd_add_d(zh, zl, -beta[0])
    ph, pl = dd.dd_mul_d(th, tl, 1.0 / alpha[0])
    Ph.append(ph)
    Pl.append(pl)
    for i in range(1, n):
        th, tl = dd.dd_add_d(zh, zl, -beta[i])
        rh, rl = dd.dd_mul(th, tl, ph, pl)
        sh, sl = dd.dd_mul_d(Ph[i - 1], Pl[i - 1], alpha[i - 1])
        rh, rl = dd.dd_sub(rh, rl, sh, sl)
        ph, pl = dd.dd_div(rh, rl, alpha[i], 0.0)
        Ph.append(ph)
        Pl.append(pl)
    return Ph, Pl


@pytest.mark.parametrize("params", [
    GEOM,
    JacobiParams(Geometric(0.9), math.sqrt(0.9)),
    JacobiParams(PowerLaw(1.0, 2.0), 0.5),
    JacobiParams(Explicit((1e-3, 10.0, 1e5, 2.0), PowerLaw(1.0, 1.5)), 0.95),
])
@pytest.mark.parametrize("n", [0, 1, 2, 23, 90])
def test_written_out_dd_recurrence_matches_the_called_one(params, n):
    # the flat loop makes the operations of the dd calls in their order:
    # every value, hi and lo, keeps its bits, at eigenvalue-sized points,
    # negative ones and ones whose values leave the float range
    zh = np.array([-7.5, 0.0, 0.3, 11.84, 239.4, 4.1e3, 6.5e7, 3e12])
    zl = zh * np.array([0.0, 0.0, 1e-17, -3e-17, 2e-17, -1e-17, 4e-18, 1e-17])
    Ph, Pl = orthopoly_values_dd(params, n, (zh, zl))
    _, alpha, beta = entry_arrays(params, n + 1)
    for j, (h, l) in enumerate(zip(zh.tolist(), zl.tolist())):
        rh, rl = _called_values_dd_at(alpha.tolist(), beta.tolist(), n, h, l)
        assert Ph[:, j].tobytes() == np.array(rh).tobytes(), (j, h)
        assert Pl[:, j].tobytes() == np.array(rl).tobytes(), (j, h)


@pytest.mark.parametrize("params", [GEOM, JacobiParams(Geometric(0.27), math.sqrt(0.27)),
                                    JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_dd_recurrence_matches_the_row_vector_recurrence(params):
    # the point-by-point scalar loop gives the bits of the row-vector
    # arithmetic at eigenvalue-sized points, as the mass machinery uses it
    zh = np.geomspace(3.0, 4e9, 10)
    zl = zh * np.linspace(-1e-17, 1e-17, 10)
    Ph, Pl = orthopoly_values_dd(params, 21, (zh, zl))
    rh, rl = _row_vector_values_dd(params, 21, zh, zl)
    assert Ph.tobytes() == rh.tobytes() and Pl.tobytes() == rl.tobytes()


def test_explicit_table_stops_where_the_scale_leaves_the_float_range(monkeypatch):
    # k^-n = 2^n is finite up to n = 1023: the prefix table covers degrees
    # up to 1023, every later value is the recurrence's P_n, and the
    # earlier ones are the degree-1023 call's
    p = JacobiParams(PowerLaw(1.0, 2.0), 0.5)
    sizes = []
    inner = polycore.char_chain_prefixes

    def recorded(params, M, J):
        sizes.append((M, J))
        return inner(params, M, J)

    monkeypatch.setattr(polycore, "char_chain_prefixes", recorded)
    xs = np.array([0.5, 50.0])
    pe = orthopoly_eval(p, 1100, xs, mode="explicit")
    last = orthopoly_eval(p, 1023, xs, mode="explicit")
    assert sizes == [(1023, 1022), (1023, 1022)]
    assert pe.overflow and not last.overflow
    assert pe.values[:1024].tobytes() == last.values.tobytes()
    rec = orthopoly_eval(p, 1100, xs).values
    assert pe.values[1024:].tobytes() == rec[1024:].tobytes()
    # the coefficients of P_1100 read the chain sums through index 1022:
    # (-1)^m inf where they are nonzero, nan (inf * 0) where not
    support = np.append(last.coeffs != 0.0, np.zeros(77, dtype=bool))
    with np.errstate(invalid="ignore"):
        expect = np.where(np.arange(1101) % 2, -1.0, 1.0) * math.inf * support
    assert np.array_equal(pe.coeffs, expect, equal_nan=True)


@pytest.mark.parametrize("x", [0.5, 50.0])
def test_explicit_and_recurrence_are_finite_at_the_same_degrees(x):
    # past the table's last degree (1023) the closed form's prefactor 2^n
    # overflows while P_n(x) stays finite a few degrees longer (through 1025
    # at x = 0.5, through 1028, -1.15e308, at x = 50); explicit mode reads
    # those degrees off the recurrence, not as +-inf
    p = JacobiParams(PowerLaw(1.0, 2.0), 0.5)
    ex = orthopoly_eval(p, 1100, x, mode="explicit").values
    rec = orthopoly_eval(p, 1100, x).values
    finite = np.isfinite(rec)
    assert np.array_equal(np.isfinite(ex), finite)
    assert finite[1024:].any()
    rel = np.abs(ex[finite] - rec[finite]) / np.abs(rec[finite])
    assert rel.max() <= 1e-12


def _assert_degrees_share_one_pass(params, mode):
    # column j of the array call equals the one-point call at xs[j], whose
    # degree-d entry equals the degree-d call, bit for bit
    n = 25
    xs = np.array([-2.0, 0.0, 0.3, 7.5, 120.0])
    at_points = orthopoly_eval(params, n, xs, mode)
    assert at_points.values.shape == (n + 1, len(xs))
    for j, x in enumerate(xs.tolist()):
        one = orthopoly_eval(params, n, x, mode)
        assert at_points.values[:, j].tobytes() == one.values.tobytes(), x
        assert np.array_equal(at_points.coeffs, one.coeffs)
        full = one.values
        for d in range(n + 1):
            own = orthopoly_eval(params, d, x, mode).values[d]
            assert np.float64(own).tobytes() == np.float64(full[d]).tobytes(), (x, d)


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_explicit_degrees_share_one_pass(params):
    # every degree is read off the degree-n prefix table in one 2-D Horner
    # pass; each must equal its own explicit evaluation bit for bit
    _assert_degrees_share_one_pass(params, "explicit")


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_recurrence_degrees_share_one_pass(params):
    # the recurrence fills P_0..P_n in one sweep; verification criterion 2
    # reads all 26 degrees off one degree-25 call per point
    _assert_degrees_share_one_pass(params, "recurrence")
