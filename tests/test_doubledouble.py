from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from jspec import doubledouble as dd

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)


@settings(max_examples=200, deadline=None)
@given(a=finite, b=finite)
def test_two_sum_exact(a, b):
    s, e = dd.two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@settings(max_examples=200, deadline=None)
@given(a=finite, b=finite)
def test_two_prod_exact(a, b):
    p, e = dd.two_prod(a, b)
    # error-free only while the product stays clear of under/overflow
    if 1e-280 < abs(p) < 1e280:
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_dd_div_roundtrip():
    ah, al = dd.dd_div(1.0, 0.0, 3.0, 0.0)
    # multiply back: should recover 1 to ~1e-32
    ph, pl = dd.dd_mul_d(ah, al, 3.0)
    assert abs((Fraction(ph) + Fraction(pl)) - 1) < Fraction(1, 10**30)


def test_compensated_sum_beats_naive():
    xs = [1e16, 1.0, -1e16, 1.0] * 50
    assert dd.compensated_sum(xs) == 100.0


def test_array_ops_match_scalar_bits():
    # the chain-sum kernel runs dd_add/dd_mul on arrays, also mixed with
    # scalars; each element must carry the bits of the scalar call
    rng = np.random.default_rng(7)
    n = 400

    def dd_values():
        hi = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150, n)
        return dd.two_sum(hi, hi * rng.uniform(-(2.0**-53), 2.0**-53, n))

    ah, al = dd_values()
    bh, bl = dd_values()
    for op in (dd.dd_add, dd.dd_mul):
        cases = (
            (op(ah, al, bh, bl), lambda i: (ah[i], al[i], bh[i], bl[i])),
            (op(ah[0], al[0], bh, bl), lambda i: (ah[0], al[0], bh[i], bl[i])),
            (op(ah, al, bh[0], bl[0]), lambda i: (ah[i], al[i], bh[0], bl[0])),
        )
        for (rh, rl), args in cases:
            for i in range(n):
                sh, sl = op(*(float(v) for v in args(i)))
                assert (float(rh[i]).hex(), float(rl[i]).hex()) == (sh.hex(), sl.hex())
