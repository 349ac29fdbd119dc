import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jspec import sequences
from jspec.errors import SequenceError
from jspec.sequences import (
    Explicit,
    Geometric,
    JacobiParams,
    PowerLaw,
    entry_arrays,
    gamma_lower_bound,
    seq_value,
    seq_values,
    sequence_min_from,
    tail_sum_reciprocal,
)

GEOM = JacobiParams(Geometric(0.25), 0.5)


def test_geometric_entries_by_hand():
    # a_n = q^{-2(n+1)}(1-q^{n+1}) at q=1/4: 16*(3/4) = 12, 256*(15/16) = 240
    a, alpha, beta = entry_arrays(GEOM, 2)
    assert (a[0], alpha[0], beta[0]) == (12.0, 6.0, 12.0)
    assert a[1] == 240.0 and alpha[1] == 120.0
    assert beta[1] == 243.0  # 240 + (1/4)*12


def test_powerlaw_entries():
    p = JacobiParams(PowerLaw(1.0, 2.0), 0.5)
    a, alpha, beta = entry_arrays(p, 4)
    assert a[3] == 16.0 and alpha[3] == 8.0
    assert beta[3] == 16.0 + 9.0 / 4.0


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


def test_tail_bound_powerlaw_zeta():
    # the upper end of the Euler-Maclaurin enclosure of zeta(2, 11) =
    # 0.0951663357...: above it, by at most 1e-14 relative
    bound = tail_sum_reciprocal(PowerLaw(1.0, 2.0), 10)
    with mpmath.workdps(50):
        exact = mpmath.zeta(2, 11)
        assert exact <= bound <= exact * (1 + 1e-14)


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


def test_tail_bound_geometric_when_only_the_weight_overflows():
    # (1/q)**(n0+1) is finite here but a_{n0} = u(u-1) is not; the bound
    # once came out 0.0, below the true tail of about 1e-338
    q, n0 = 0.0212, 100
    bound = tail_sum_reciprocal(Geometric(q), n0)
    assert 0.0 < bound < 1e-300
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
    assert sequence_min_from(spec, 0) == 2.0
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
        seq_value(GEOM.seq, -1)


@pytest.mark.parametrize(
    "spec",
    [
        Geometric(0.3),
        Geometric(0.25),
        PowerLaw(1.0, 2.13),
        PowerLaw(2.5, 1.5),
        Explicit((1e8, 1e4, 1.0, 1e-4, 1e-8), PowerLaw(1.0, 2.0)),
        Explicit((3.0, 0.5), Geometric(0.6)),
    ],
)
def test_seq_value_has_the_bits_of_seq_values(spec):
    # one closed form per family: a single value and a block agree bit for
    # bit at every index, whatever the block length
    count = 250 if isinstance(getattr(spec, "tail", spec), Geometric) else 2000
    block = seq_values(spec, count)
    for n in range(count):
        assert np.float64(seq_value(spec, n)).tobytes() == block[n].tobytes(), n
    for stop in (1, 7, 64):
        assert seq_values(spec, stop).tobytes() == block[:stop].tobytes()


@pytest.mark.parametrize(
    "spec",
    [Geometric(0.2), Geometric(0.25), Geometric(0.3), Geometric(0.9),
     PowerLaw(1.0, 2.5), PowerLaw(3.0, 120.0)],
)
def test_seq_value_scalar_power_matches_the_block_up_to_overflow(spec):
    # a single value takes numpy's power on one index, not Python's ``**``
    # (which rounds 5.0 ** 106.0, in a_105 at q = 0.2, one ulp higher):
    # every index up to the first non-finite value has the block's bits,
    # and that index raises
    with np.errstate(over="ignore"):
        block = sequences._closed_form(spec, np.arange(4000.0))
    stop = int(np.argmax(~np.isfinite(block))) if not np.all(np.isfinite(block)) else len(block)
    assert seq_values(spec, stop).tobytes() == block[:stop].tobytes()
    for n in range(stop):
        assert np.float64(seq_value(spec, n)).tobytes() == block[n].tobytes(), n
    if stop < len(block):
        with pytest.raises(SequenceError):
            seq_value(spec, stop)
