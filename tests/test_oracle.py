"""Reported bounds against independent high-precision oracles.

Eigenvalue brackets: the oracle is a 200-bit Sturm count on the exact
section L D L^T of a float factor (``test_spectrum._mp_sturm_counts``).
Every eigenvalue bracket [lower_j, upper_j] that ``point_spectrum``
certifies from its N_used-row section holds lambda_j(J), and with it
lambda_j of any larger section, which lies between lambda_j(J) and theta_j:
the 4 N_used-row section stands in for the operator.

Series evaluation: the oracle is F(z) = lim (-k)^n P_n(z), the three-term
recurrence on the float a_n run at 60 digits to an index n whose a_n is
still finite.  ``eval_series`` of the characteristic series must land
within its ``err_bound`` of it.

Weyl values: the oracle is w(z) = [(J - z)^{-1}]_00 as the resolvent
continued fraction of a section of the float a_n at 60 digits, its size
doubled until two sizes agree to 40 digits.  Wherever the series route of
``weyl`` certifies, its value must lie within ``series_err_bound`` of it.

Basic hypergeometric sums: the oracle is the r_phi_s term recurrence on the
float q, parameters and argument at 60 digits.  ``_basic_sum``'s hi + lo
must lie within its rounding bound plus twice its stop threshold (the
remainder it leaves) of it.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jspec import spectrum
from jspec.entire import choose_truncation, eval_series, series_pair
from jspec.qlaguerre import _STOP, _basic_sum
from jspec.sequences import Explicit, Geometric, JacobiParams, PowerLaw, entry_arrays
from jspec.spectrum import point_spectrum, truncate, weyl
from test_spectrum import _mp_sturm_counts


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
    below_lower = _mp_sturm_counts(T4, list(lower) + [sd.lambda_next_lower])
    below_upper = _mp_sturm_counts(T4, list(upper))
    assert all(c <= j for j, c in enumerate(below_lower)), below_lower
    assert all(c >= j + 1 for j, c in enumerate(below_upper)), below_upper


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


def _mp_basic_sum(upper, lower, q, z):
    """r_phi_s(upper; lower; q, z) by its term recurrence at 60 digits, to a
    term below 1e-35 of the absolute sum where the ratio is below 0.97."""
    with mpmath.workdps(60):
        upper, lower = [mpmath.mpf(a) for a in upper], [mpmath.mpf(b) for b in lower]
        q, z = mpmath.mpf(q), mpmath.mpf(z)
        e = 1 + len(lower) - len(upper)
        t = s = ab = qm = mpmath.mpf(1)
        for _ in range(20000):
            ratio = (-qm) ** e * z / (1 - qm * q)
            for a in upper:
                ratio *= 1 - a * qm
            for b in lower:
                ratio /= 1 - b * qm
            t *= ratio
            s += t
            ab += abs(t)
            qm *= q
            if abs(t) < mpmath.mpf(10) ** -35 * ab and abs(ratio) < 0.97:
                return s
    raise AssertionError("the oracle sum did not settle")


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
        hi, lo, bound = _basic_sum(upper, lower, q, z)
        S = _mp_basic_sum(upper, lower, q, z)
        with mpmath.workdps(60):
            err = abs(mpmath.mpf(hi) + mpmath.mpf(lo) - S)
            assert err <= bound + 2 * _STOP * abs(S), (case, float(err), bound)

    check()
