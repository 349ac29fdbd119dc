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
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st

from jspec import spectrum
from jspec.entire import choose_truncation, eval_series, series_pair
from jspec.sequences import Explicit, Geometric, JacobiParams, PowerLaw, entry_arrays
from jspec.spectrum import point_spectrum, truncate
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
