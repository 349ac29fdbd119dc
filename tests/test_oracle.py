"""Reported bounds against an independent high-precision oracle.

The oracle is a 200-bit Sturm count on the exact section L D L^T of a float
factor (``test_spectrum._mp_sturm_counts``).  Every eigenvalue bracket
[lower_j, upper_j] that ``point_spectrum`` certifies from its N_used-row
section holds lambda_j(J), and with it lambda_j of any larger section,
which lies between lambda_j(J) and theta_j: the 4 N_used-row section stands
in for the operator.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from jspec import spectrum
from jspec.sequences import Explicit, Geometric, JacobiParams, PowerLaw
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
