"""Reported bounds against independent high-precision oracles.

Eigenvalue brackets: the oracle is a 200-bit Sturm count on the exact
section L D L^T of a float factor (``oracles.mp_sturm_counts``).
Every eigenvalue bracket [lower_j, upper_j] that ``point_spectrum``
certifies from its N_used-row section holds lambda_j(J), and with it
lambda_j of any larger section, which lies between lambda_j(J) and theta_j:
the 4 N_used-row section stands in for the operator.

Section eigenvalues: the same Sturm count at 40 digits (200 for geometric
weights) on both sides of the split between the two dqds drivers, the
bidiagonal SVD below ``spectrum._COUNT_FROM`` rows and the Python dqds from
there on.  Counts j and j + 1 at theta_j (1 -/+ m), m = ``_margin(N)``, show
that each theta_j lies within a relative m of the exact eigenvalue
lambda_j of the section.

Series evaluation: the oracle is F(z) = lim (-k)^n P_n(z), the three-term
recurrence on the float a_n run at 60 digits to an index n whose a_n is
still finite.  ``eval_series`` of the characteristic series must land
within its ``err_bound`` of it.

Weyl values: the oracle is w(z) = [(J - z)^{-1}]_00 as the resolvent
continued fraction of a section of the float a_n at 60 digits, its size
doubled until two sizes agree to 40 digits.  Wherever the series route of
``weyl`` certifies, its value must lie within ``series_err_bound`` of it.

Basic hypergeometric sums: the oracle is the r_phi_s term recurrence on the
float q, parameters and argument at 80 digits (``oracles.mp_basic_sum``),
compared at 60.  ``_basic_sum``'s hi + lo must lie within its rounding bound
plus twice its stop threshold (the remainder it leaves) of it, from a
one-point call and from an array call wide enough for the numpy pass.

Tail bounds: the oracle is the bound's own expression at 50 digits on the
same float inputs: the order tail min(geometric, elementary-symmetric) of
``_eval_tail_bound`` and the omitted seed terms seed X^m / m! of a family
(``_finalize``).  Each float bound, formed in log space and rounded up once,
must be at least its exact value (below the normal range, less than one unit
of 2^-1074 under it) and within a relative 1e-9 above it.  The weight suffix
X[m] >= sum_{j >= m} 1/((1 - k^2) a_j) that feeds them must dominate the
50-digit sum of its terms on the float a_j and k, with the certified
reciprocal tail beyond the cutoff as the last term.

Reciprocal tails: the oracle is sum_{j >= n0} 1/a_j at 50 digits: a sum
over the float a_j for a geometric rule (past the float range, over the
exact u (u - 1) with u = (1/q)^(j+1) on the float 1/q), zeta(p, n0+1)/c for
a power law c (j+1)^p, and an explicit prefix adds the sum of its terms.
``tail_sum_enclosure``'s (value, err) must enclose it, and
``tail_sum_reciprocal`` must lie at or above it.

Inverse trace: the oracle is sum_j (1 - k^{2j+2}) / ((1 - k^2) a_j) at 50
digits on the float k: a sum over the float a_j for geometric weights, and
for a power law c (j+1)^p the closed form
[zeta(p, j0+1) - k^{2(j0+1)} Phi(k^2, p, j0+1)] / (c (1 - k^2)) for the
indices j >= j0, with Phi the Lerch transcendent; an explicit prefix adds
the sum of its terms.  ``polycore._trace_tail`` must enclose the tail beyond
its cutoff within its error, with no allowance for rounding, and
``trace_inverse`` must lie within its tol plus 4 ulps of the whole sum.

Second-kind values at zero: the oracle is w_n(0) = (-1)^n sum_{j >= n}
k^{2j-n} / a_j at 50 digits on the float a_j and k.  ``second_kind_at_zero``
must lie within its tol plus 4 eps of it, relative.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jspec import spectrum
from jspec.entire import (
    PowerSeriesApprox,
    _eval_tail_bound,
    _finalize,
    _weight_suffix,
    choose_truncation,
    eval_series,
    series_pair,
)
from jspec.polycore import _trace_tail, second_kind_at_zero, trace_inverse
from jspec.qlaguerre import _STOP, _basic_sum
from jspec.sequences import (
    Explicit,
    Geometric,
    JacobiParams,
    PowerLaw,
    _closed_form,
    entry_arrays,
    tail_sum_enclosure,
    tail_sum_reciprocal,
)
from jspec.spectrum import point_spectrum, truncate, weyl
from oracles import mp_basic_sum, mp_sturm_counts


@st.composite
def _spectrum_cases(draw):
    k = draw(st.floats(0.1, 0.9))
    kind = draw(st.sampled_from(["geometric", "powerlaw", "explicit"]))
    if kind == "geometric":
        seq = Geometric(draw(st.floats(0.1, 0.9)))
    elif kind == "powerlaw":
        seq = PowerLaw(1.0, draw(st.floats(1.5, 3.0)))
    else:
        exponents = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
        seq = Explicit(tuple(10.0**e for e in exponents), PowerLaw(1.0, draw(st.floats(1.5, 3.0))))
    return JacobiParams(seq, k), draw(st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(case=_spectrum_cases())
def test_eigenvalue_brackets_hold_against_the_oracle(case):
    params, count = case
    sd = point_spectrum(params, count)
    enc = spectrum._enclosure(params, sd.N_used, count, 1e-10)
    lower, upper = enc.lower[:count], enc.upper[:count]
    assert np.all((lower <= sd.lambdas) & (sd.lambdas <= upper))
    assert np.all(sd.lambda_err <= upper - lower)
    assert np.all(sd.lambda_err <= 1e-10 * sd.lambdas)
    assert sd.lambda_next_lower == enc.lower[count]
    T4 = truncate(params, 4 * sd.N_used)
    below_lower = mp_sturm_counts(T4, list(lower) + [sd.lambda_next_lower])
    below_upper = mp_sturm_counts(T4, list(upper))
    assert all(c <= j for j, c in enumerate(below_lower)), below_lower
    assert all(c >= j + 1 for j, c in enumerate(below_upper)), below_upper


_DECREASING = JacobiParams(Explicit((1e8, 1e4, 1.0, 1e-4, 1e-8), PowerLaw(1.0, 2.0)), 0.99)


@pytest.mark.parametrize("params, dps, N", [
    pytest.param(params, dps, N, id=f"{name}-N{N}")
    for name, params, dps, sizes in (
        ("explicit", _DECREASING, 40, (99, 100, 448)),
        # geometric weights leave the float range before 400 rows
        ("geometric", JacobiParams(Geometric(0.25), 0.5), 200, (99, 100)),
        ("powerlaw", JacobiParams(PowerLaw(1.0, 1.3), 0.95), 40, (99, 100, 448)),
    )
    for N in sizes
])
def test_section_eigenvalues_hold_across_the_driver_split(params, dps, N):
    T = truncate(params, N)
    theta = spectrum.section_eigenvalues(T, 9)
    m = spectrum._margin(N)
    prec = math.ceil(dps * math.log2(10.0))
    below = mp_sturm_counts(T, list(theta * (1.0 - m)) + list(theta * (1.0 + m)), prec=prec)
    assert below == list(range(9)) + list(range(1, 10)), below


def _mp_char_function(params, z, n):
    """(-k)^n P_n(z) and (-k)^(n-8) P_(n-8)(z) at 60 digits, from the recurrence
    alpha_i P_{i+1} = (z - beta_i) P_i - alpha_{i-1} P_{i-1} on the float a_i."""
    a, _, _ = entry_arrays(params, n + 1)
    with mpmath.workdps(60):
        k, z = mpmath.mpf(params.k), mpmath.mpf(z)
        a = [mpmath.mpf(v) for v in a.tolist()]
        p_prev, p = mpmath.mpf(1), (z - a[0]) / (k * a[0])
        scaled = {}
        for i in range(1, n):
            beta = a[i] + k * k * a[i - 1]
            p_prev, p = p, ((z - beta) * p - k * a[i - 1] * p_prev) / (k * a[i])
            if i + 1 in (n - 8, n):
                scaled[i + 1] = (-k) ** (i + 1) * p
        return scaled[n], scaled[n - 8]


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.1, 0.9),
    k=st.floats(0.1, 0.9),
    radius=st.floats(1.0, 60.0),
    u=st.floats(0.0, 1.0),
)
def test_series_evaluation_holds_against_the_recurrence_oracle(q, k, radius, u):
    params = JacobiParams(Geometric(q), k)
    M, J = choose_truncation(params, radius, 1e-12)
    fser = series_pair(params, M, J, 0)[0]
    z = u * radius
    ev = eval_series(fser, z)
    # the last index whose a_n ~ q^(-2(n+1)) stays below 1e300; the chains it
    # drops weigh about x_n ~ 1/a_n, far below any bound
    n = int(300 * math.log(10.0) / (2.0 * math.log(1.0 / q))) - 2
    F, F_earlier = _mp_char_function(params, z, n)
    with mpmath.workdps(60):
        assert abs(F - F_earlier) <= 1e-6 * ev.err_bound  # the limit has settled
        err = abs(mpmath.mpf(ev.value) + mpmath.mpf(ev.value_lo) - F)
        assert err <= ev.err_bound, (float(err), ev.err_bound)


def _mp_resolvent(params, z, N):
    """[(T_N - z)^{-1}]_00 of the N-row section of the float a_n at 60 digits,
    by the continued fraction 1 / (beta_0 - z - alpha_0^2 / (beta_1 - z - ...))."""
    a, _, _ = entry_arrays(params, N)
    with mpmath.workdps(60):
        k, z = mpmath.mpf(params.k), mpmath.mpf(z)
        a = [mpmath.mpf(v) for v in a.tolist()]
        t = a[N - 1] + k * k * a[N - 2] - z
        for n in range(N - 2, -1, -1):
            beta = a[n] + k * k * a[n - 1] if n else a[0]
            t = beta - z - (k * a[n]) ** 2 / t
        return 1 / t


def _mp_weyl(params, z):
    """w(z) of the operator: sections doubled until two sizes agree to 40 digits."""
    N, prev = 32, _mp_resolvent(params, z, 32)
    while N < 4096:
        N *= 2
        cur = _mp_resolvent(params, z, N)
        with mpmath.workdps(60):
            if abs(cur - prev) <= mpmath.mpf(10) ** -40 * abs(cur):
                return cur
        prev = cur
    raise AssertionError("the resolvent oracle did not settle")


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(0.1, 0.9),
    k=st.floats(0.1, 0.9),
    count=st.integers(2, 6),
    below=st.floats(-3.0, 0.95),
    far=st.floats(0.0, 1e3),
    gap=st.integers(0, 4),
    u=st.floats(0.05, 0.95),
)
def test_weyl_values_hold_against_the_resolvent_oracle(q, k, count, below, far, gap, u):
    # three points: below lambda_0 (from -3 lambda_0 up), on the negative
    # axis, and between two neighbouring eigenvalues
    params = JacobiParams(Geometric(q), k)
    sd = point_spectrum(params, count)
    lam = sd.lambdas.tolist()
    j = min(gap, count - 2)
    points = [below * lam[0], -far, lam[j] + u * (lam[j + 1] - lam[j])]
    w = weyl(params, np.array(points), sd)
    for i, z in enumerate(points):
        if w.series_failed[i]:
            continue
        err = abs(mpmath.mpf(w.series[i]) - _mp_weyl(params, z))
        assert err <= w.series_err_bound[i], (z, float(err), w.series_err_bound[i])


def _signed_point(draw, log_max):
    """A point of +-[1e-2, 10^log_max], log-uniform in modulus."""
    return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, log_max))


@st.composite
def _basic_sum_cases(draw, shape):
    # 0phi1 at z in +-[1e-2, 1e2], 1phi1 at z in +-[1e-2, 30], 2phi1 at |z| < 0.95
    q = draw(st.floats(0.1, 0.97))
    lower = (draw(st.floats(-0.9, 0.9)),)
    if shape == "0phi1":
        return (), lower, q, _signed_point(draw, 2.0)
    if shape == "1phi1":
        return (draw(st.floats(-1.0, 1.0)),), lower, q, _signed_point(draw, math.log10(30.0))
    upper = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    return upper, lower, q, draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True))


@pytest.mark.parametrize("shape, draws", [("0phi1", 30), ("1phi1", 30), ("2phi1", 15)])
def test_basic_sum_holds_against_the_60_digit_sum(shape, draws):
    @settings(max_examples=draws, deadline=None)
    @given(case=_basic_sum_cases(shape))
    def check(case):
        upper, lower, q, z = case
        # the draw's argument also sits among smaller ones in an array, which
        # takes the numpy pass
        zs = np.geomspace(1e-3, 1.0, 40) * z
        zs[7] = z
        his, los, bounds, failed = _basic_sum(upper, lower, q, zs)
        assert 7 not in failed
        S, _ = mp_basic_sum(upper, lower, q, z)
        for hi, lo, bound in (_basic_sum(upper, lower, q, z), (his[7], los[7], bounds[7])):
            with mpmath.workdps(60):
                err = abs(mpmath.mpf(hi) + mpmath.mpf(lo) - S)
                assert err <= bound + 2 * _STOP * abs(S), (case, float(err), bound)

    check()


_TINY = np.finfo(float).tiny
_MAX = np.finfo(float).max


def _assert_bounds(bound, exact, excess=1e-9):
    """Each float in ``bound`` is at least its 50-digit value in ``exact``
    and, unless ``excess`` is None, at most that much above it relatively;
    inf only past the float range."""
    with mpmath.workdps(50):
        for b, e in zip(np.ravel(bound).tolist(), exact):
            if e >= _TINY:
                assert b >= e, (b, e)
            else:  # an underflowed exp keeps numpy's rounding, within half a unit
                assert mpmath.mpf(b) + mpmath.mpf(2) ** -1074 >= e, (b, e)
            if excess is None:
                continue
            if b == math.inf:
                assert e >= _MAX * (1 - excess), e
            elif e >= _TINY:
                assert b <= e * (1 + excess), (b, e)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


def _tail_series(M, c, r, S):
    """An order-M series whose order tail reads c_M + omitted_M = 4c/3, the
    ratio bound r and the weight sum S."""
    return PowerSeriesApprox(
        shift=0, order=M, cutoff=M, coeffs=np.full(M + 1, c), coeffs_lo=np.zeros(M + 1),
        tail_const=S, tail_omitted=np.full(M + 1, c / 3), ratio_bounds=np.full(M + 1, r),
    )


def _mp_order_tail(s, z):
    """The order tail bound of ``s`` at |z| = z, min(geometric,
    elementary-symmetric), at 50 digits on the same float inputs."""
    M = s.order
    with mpmath.workdps(50):
        C = mpmath.mpf(s.coeffs[M]) + mpmath.mpf(s.tail_omitted[M])
        z = mpmath.mpf(z)
        rho, ts = s.ratio_bounds[M] * z, s.tail_const * z
        geo = C * z**M * rho / (1 - rho) if rho < 1 else mpmath.inf
        fact = ts ** (M + 1) / mpmath.factorial(M + 1)
        fact *= 1 / (1 - ts / (M + 2)) if ts < M + 2 else mpmath.exp(ts)
        return min(geo, fact)


@settings(max_examples=60, deadline=None)
@given(
    M=st.integers(0, 512),
    c=_log_uniform(-250.0, 50.0),
    r=_log_uniform(-12.0, 1.0),
    S=_log_uniform(-6.0, 3.0),
    az=st.lists(_log_uniform(-4.0, 8.0), min_size=1, max_size=8),
    near=_log_uniform(-15.5, -2.0),
)
# S |z| just below M + 2 steps ts / (M + 2) up to 1: the factor is inf there, not e^ts
@example(M=1, c=1.0, r=1.0, S=1.0, az=[1.0], near=10.0 ** -15.5)
# drawn points 1.2e-10 and 1e-10 below the pole of the geometric, then of the
# factorial candidate: a gap of the stepped-up float left them 9.5e-7 and
# 2.2e-6 above their values
@example(M=0, c=1.0, r=1.0, S=100.0, az=[0.9999999998832233], near=0.01)
@example(M=0, c=1e10, r=1.0, S=2.0, az=[1.0 - 1e-10], near=0.01)
def test_order_tail_bound_dominates_its_50_digit_value(M, c, r, S, az, near):
    # M |log |z|| reaches about 9,000 at M = 512
    s = _tail_series(M, c, r, S)
    az = np.array(az)
    bound = _eval_tail_bound(s, az)
    _assert_bounds(bound, [_mp_order_tail(s, z) for z in az.tolist()])
    assert bound.tobytes() == np.array([_eval_tail_bound(s, z) for z in az.tolist()]).tobytes()
    # rho = r |z| and then ts / (M + 2) = S |z| / (M + 2) just below 1, each
    # with the other candidate out of reach (ts = 1e3, then rho = 2): there
    # 1 - rho and 1 - ts / (M + 2) magnify an error in them by up to 1/near,
    # and the bound is held to its value from below only
    z_geo, z_fact = (1.0 - near) / r, (M + 2) * (1.0 - near) / S
    for s, z in ((_tail_series(M, c, r, 1e3 / z_geo), z_geo), (_tail_series(M, c, 2.0 / z_fact, S), z_fact)):
        _assert_bounds([_eval_tail_bound(s, z)], [_mp_order_tail(s, z)], excess=None)


@settings(max_examples=30, deadline=None)
@given(
    M=st.integers(1, 512),
    n_max=st.integers(0, 2),
    X0=_log_uniform(-6.0, 6.0),
    decay=st.floats(0.05, 1.0),
    seed=_log_uniform(-300.0, 0.0),
)
def test_omitted_seed_terms_dominate_their_50_digit_value(M, n_max, X0, decay, seed):
    # with zero coefficients a family's omitted entries are the seed terms
    # alone: the seed beyond J, then seed X^m / m! with X the weight after shift n
    J = M + n_max + 1
    X = X0 * decay ** np.arange(J + 2)
    chi = np.zeros((M + 1, n_max + 1))
    fam = _finalize("second_kind", M, J, chi, chi.copy(), X, seed)
    assert np.all(fam.tail_omitted[0] == seed)
    exact = np.empty((M, n_max + 1), dtype=object)
    with mpmath.workdps(50):
        for n in range(n_max + 1):
            t = mpmath.mpf(seed)
            for m in range(1, M + 1):
                t = t * mpmath.mpf(X[n + 1]) / m
                exact[m - 1, n] = t
    _assert_bounds(fam.tail_omitted[1:], exact.ravel().tolist())


@pytest.mark.parametrize("seq", [Geometric(0.9), PowerLaw(1.0, 2.0), PowerLaw(3.0, 1.5)], ids=repr)
@pytest.mark.parametrize("J", [16, 64, 256])
@pytest.mark.parametrize("k", [0.5, 0.9, 0.995])
def test_weight_suffix_dominates_its_50_digit_sum(k, J, seq):
    params = JacobiParams(seq, k)
    X = _weight_suffix(params, J)
    a, _, _ = entry_arrays(params, J + 1)
    with mpmath.workdps(50):
        om = 1 - mpmath.mpf(k) ** 2
        exact = [mpmath.mpf(tail_sum_reciprocal(seq, J + 1)) / om]
        for v in reversed(a.tolist()):
            exact.append(exact[-1] + 1 / (om * mpmath.mpf(v)))
        exact.reverse()
        for m, (x, e) in enumerate(zip(X.tolist(), exact)):
            assert e <= x <= e * (1 + 1e-12), (m, x, e)


def _mp_reciprocal_tail(spec, n0):
    """sum_{j >= n0} 1/a_j at 50 digits (module docstring)."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        if isinstance(spec, Explicit):
            L = len(spec.values)
            total = mpmath.fsum(1 / mpmath.mpf(v) for v in spec.values[n0:L])
            spec, n0 = spec.tail, max(n0, L)
        if isinstance(spec, PowerLaw):
            return total + mpmath.zeta(spec.p, n0 + 1) / spec.c
        for j in itertools.count(n0):
            a = float(_closed_form(spec, j))
            if a == math.inf:
                u = mpmath.mpf(1.0 / spec.q) ** (j + 1)
                a = u * (u - 1)
            t = 1 / mpmath.mpf(a)
            total += t
            if t <= total * mpmath.mpf(10) ** -30:
                return total


@st.composite
def _tail_specs(draw):
    rules = [st.floats(0.1, 0.9).map(Geometric), st.builds(PowerLaw, _log_uniform(-2.0, 2.0), st.floats(1.01, 4.0))]
    rule = draw(st.one_of(*rules))
    if draw(st.booleans()):
        exponents = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=20))
        rule = Explicit(tuple(10.0**e for e in exponents), rule)
    return rule


@settings(max_examples=30, deadline=None)
@given(spec=_tail_specs(), n0=st.one_of(st.integers(0, 40), st.sampled_from([447, 10**5])))
# a_{n0} alone, then already q^{-(n0+1)}, past the float range
@example(spec=Geometric(0.0212), n0=100)
@example(spec=Geometric(0.0212), n0=200)
@example(spec=PowerLaw(1.0, 2.0), n0=0)  # zeta(2): value + err fell below it by its rounding
def test_tail_enclosure_holds_against_the_50_digit_tail(spec, n0):
    value, err = tail_sum_enclosure(spec, n0)
    exact = _mp_reciprocal_tail(spec, n0)
    with mpmath.workdps(50):
        assert mpmath.mpf(value) - err <= exact <= mpmath.mpf(value) + err, (value, err, float(exact))
    assert tail_sum_reciprocal(spec, n0) >= exact


def _mp_trace_from(params, j0):
    """sum_{j >= j0} (1 - k^{2j+2}) / ((1 - k^2) a_j) at 50 digits (60 inside,
    for the cancellation of the power-law form)."""
    seq = params.seq
    prefix = seq.values if isinstance(seq, Explicit) else ()
    rule = seq.tail if isinstance(seq, Explicit) else seq
    L = len(prefix)
    with mpmath.workdps(60):
        z = mpmath.mpf(params.k) ** 2

        def term(j, a):
            return (1 - z ** (j + 1)) / ((1 - z) * mpmath.mpf(a))

        total = mpmath.fsum(term(j, prefix[j]) for j in range(j0, L))
        j = max(j0, L)
        if isinstance(rule, PowerLaw):
            # k^{2(j+1)} Phi(k^2, p, j+1) = sum_{i > j} k^{2i} i^-p, as the
            # polylogarithm less its first j terms
            p = mpmath.mpf(rule.p)
            lerch = mpmath.polylog(p, z) - mpmath.fsum(z**i / mpmath.mpf(i) ** p for i in range(1, j + 1))
            total += (mpmath.zeta(p, j + 1) - lerch) / (mpmath.mpf(rule.c) * (1 - z))
        else:
            while True:  # the float a_j grow geometrically, or overflow to inf
                t = term(j, float(_closed_form(rule, j)))
                total += t
                if t <= total * mpmath.mpf(10) ** -55:
                    break
                j += 1
        return +total


@st.composite
def _trace_cases(draw):
    if draw(st.booleans()):
        rule = Geometric(draw(st.floats(0.1, 0.9)))
    else:
        rule = PowerLaw(draw(_log_uniform(-2.0, 2.0)), draw(st.floats(1.5, 3.0)))
    if draw(st.booleans()):
        exponents = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=20))
        rule = Explicit(tuple(10.0**e for e in exponents), rule)
    return JacobiParams(rule, draw(st.floats(0.1, 0.999))), draw(st.sampled_from([0, 15, 55, 447]))


@settings(max_examples=16, deadline=None)
@given(case=_trace_cases())
@example(case=(JacobiParams(PowerLaw(1.0, 2.0), 0.25), 15))  # missed by the tail's rounding
def test_trace_tail_and_trace_inverse_hold_against_the_50_digit_sum(case):
    params, J = case
    eps = np.finfo(float).eps
    value, err = _trace_tail(params, J)
    exact = _mp_trace_from(params, J + 1)
    with mpmath.workdps(50):
        assert mpmath.mpf(value) - err <= exact <= mpmath.mpf(value) + err, (value, err, float(exact))
        trace = trace_inverse(params, tol=1e-14)
        total = _mp_trace_from(params, 0)
        assert abs(trace - total) <= 1e-14 + 4 * eps * trace, (trace, float(total))


def _mp_second_kind_at_zero(params, n):
    """(-1)^n sum_{j >= n} k^{2j-n} / a_j at 50 digits on the float a_j and k."""
    with mpmath.workdps(50):
        k = mpmath.mpf(params.k)
        total = mpmath.mpf(0)
        for j in itertools.count(n):
            t = k ** (2 * j - n) / mpmath.mpf(float(_closed_form(params.seq, j)))
            total += t
            if t <= total * mpmath.mpf(10) ** -55:
                return (-1) ** n * total


@st.composite
def _second_kind_cases(draw):
    if draw(st.booleans()):
        rule = Geometric(draw(st.floats(0.1, 0.9)))
    else:
        rule = PowerLaw(draw(st.floats(0.5, 2.0)), draw(st.floats(1.2, 4.0)))
    return JacobiParams(rule, draw(st.floats(0.05, 0.95))), draw(st.integers(0, 40))


# 60 draws take about 0.14 s
@settings(max_examples=60, deadline=None)
@given(case=_second_kind_cases())
def test_second_kind_at_zero_holds_against_the_50_digit_sum(case):
    # the dropped tail is certified below tol; each kept term k^{2j-n} / a_j
    # is a pow within one ulp and a division within half of one, so within
    # about 2 eps of its exact value, and the terms are all positive, so
    # their sum is within 2 eps of its own; fsum rounds that sum correctly,
    # half an ulp more: 4 eps covers both
    params, n = case
    w = second_kind_at_zero(params, n)
    exact = _mp_second_kind_at_zero(params, n)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        assert abs(w - exact) <= 1e-14 + 4 * eps * abs(exact), (w, float(exact))
