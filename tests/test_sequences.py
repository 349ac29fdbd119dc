import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jspec.errors import SequenceError
from jspec.sequences import (
    Explicit,
    Geometric,
    JacobiParams,
    PowerLaw,
    entries,
    entry_arrays,
    gamma_lower_bound,
    seq_values,
    sequence_min,
    tail_sum_reciprocal,
)

GEOM = JacobiParams(Geometric(0.25), 0.5)


def test_geometric_entries_by_hand():
    # a_n = q^{-2(n+1)}(1-q^{n+1}) at q=1/4: 16*(3/4) = 12, 256*(15/16) = 240
    assert entries(GEOM, 0) == (12.0, 6.0, 12.0)
    a, alpha, beta = entries(GEOM, 1)
    assert a == 240.0 and alpha == 120.0
    assert beta == 243.0  # 240 + (1/4)*12


def test_powerlaw_entries():
    p = JacobiParams(PowerLaw(1.0, 2.0), 0.5)
    a, alpha, beta = entries(p, 3)
    assert a == 16.0 and alpha == 8.0
    assert beta == 16.0 + 9.0 / 4.0


def test_offdiag_closed_form_geometric():
    # with the induced coupling k = sqrt(q), alpha_n = q^{-2n-3/2}(1-q^{n+1})
    q = 0.3
    p = JacobiParams(Geometric(q), math.sqrt(q))
    _, alpha, _ = entry_arrays(p, 20)
    n = np.arange(20)
    closed = q ** (-2.0 * n - 1.5) * (1.0 - q ** (n + 1.0))
    assert np.max(np.abs(alpha - closed) / closed) < 1e-14


def test_beta_is_exact_combination():
    a, alpha, beta = entry_arrays(GEOM, 30)
    k2 = GEOM.k * GEOM.k
    # a_n and k^2 a_{n-1} are exactly representable here, so equality is exact
    assert np.all(beta[1:] == a[1:] + k2 * a[:-1])
    assert beta[0] == a[0]


def test_tail_bound_powerlaw_integral():
    assert tail_sum_reciprocal(PowerLaw(1.0, 2.0), 10) == pytest.approx(0.1, abs=1e-15)
    # dominates the true tail
    true_tail = sum(1.0 / (j + 1.0) ** 2 for j in range(10, 4000))
    assert tail_sum_reciprocal(PowerLaw(1.0, 2.0), 10) >= true_tail


def test_tail_bound_geometric_dominates():
    bound = tail_sum_reciprocal(Geometric(0.25), 0)
    partial = float(np.sum(1.0 / seq_values(Geometric(0.25), 12)))
    assert partial == pytest.approx(0.0877644, abs=1e-6)
    assert bound >= partial
    assert bound == pytest.approx(4.0 / 45.0)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.05, 0.9),
    n0=st.integers(0, 40),
)
def test_tail_bound_monotone_and_dominating_geometric(q, n0):
    spec = Geometric(q)
    assert tail_sum_reciprocal(spec, n0 + 1) <= tail_sum_reciprocal(spec, n0)
    vals = seq_values(spec, n0 + 60)
    # fsum keeps the partial correctly rounded, so the outward-rounded
    # bound really does dominate it
    partial = math.fsum(1.0 / vals[n0:])
    assert tail_sum_reciprocal(spec, n0) >= partial


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(0.1, 10.0),
    p=st.floats(1.1, 4.0),
    n0=st.integers(0, 50),
)
def test_tail_bound_powerlaw_properties(c, p, n0):
    spec = PowerLaw(c, p)
    assert tail_sum_reciprocal(spec, n0 + 1) <= tail_sum_reciprocal(spec, n0) * (1 + 1e-12)
    vals = seq_values(spec, n0 + 200)
    partial = math.fsum(1.0 / vals[n0:])
    assert tail_sum_reciprocal(spec, n0) >= partial


def test_tail_bound_geometric_past_float_range():
    # (1/q)**(n0+1) overflows here; the bound must stay finite and still
    # dominate the true tail (about 1e-674, far below the float range)
    q, n0 = 0.0212, 200
    bound = tail_sum_reciprocal(Geometric(q), n0)
    assert math.isfinite(bound)
    with mpmath.workdps(30):
        qm = mpmath.mpf(q)
        true_tail = mpmath.nsum(
            lambda j: 1 / (qm ** (-2 * (j + 1)) * (1 - qm ** (j + 1))), [n0, mpmath.inf]
        )
        assert 0 < true_tail <= mpmath.mpf(bound)


def test_gamma_examples():
    assert gamma_lower_bound(GEOM) == pytest.approx(3.0)
    assert gamma_lower_bound(JacobiParams(PowerLaw(1.0, 2.0), 0.5)) == pytest.approx(0.25)


def test_explicit_sequence_and_minimum():
    spec = Explicit((5.0, 2.0, 11.0), tail=PowerLaw(1.0, 2.0))
    vals = seq_values(spec, 6)
    # tail continues at the global index: a_3 = (3+1)^2
    assert list(vals) == [5.0, 2.0, 11.0, 16.0, 25.0, 36.0]
    assert sequence_min(spec) == 2.0
    bound = tail_sum_reciprocal(spec, 1)
    assert bound >= 1.0 / 2.0 + 1.0 / 11.0 + sum(1.0 / (j + 1) ** 2 for j in range(3, 300))


def test_validation_errors():
    with pytest.raises(SequenceError):
        Geometric(1.0)
    with pytest.raises(SequenceError):
        PowerLaw(-1.0, 2.0)
    with pytest.raises(SequenceError):
        PowerLaw(1.0, 1.0)
    with pytest.raises(SequenceError):
        Explicit((1.0, -2.0), tail=Geometric(0.5))
    with pytest.raises(SequenceError):
        JacobiParams(Geometric(0.5), 1.0)
    with pytest.raises(SequenceError):
        entries(GEOM, -1)
