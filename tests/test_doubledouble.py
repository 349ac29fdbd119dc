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


def test_split_products_match_dd_mul_bits():
    # a factor split once by ``split`` and handed to ``dd_mul_split`` gives
    # the bits of dd_mul (and two_prod's exact product) on arrays, scalars
    # and mixed inputs, at magnitudes up to the 1e150 of q = 1/4 sections
    rng = np.random.default_rng(11)
    n = 400

    def dd_values():
        hi = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150, n)
        hi[:40] = rng.uniform(0.5, 1.0, 40) * 1e150
        return dd.two_sum(hi, hi * rng.uniform(-(2.0**-53), 2.0**-53, n))

    ah, al = dd_values()
    bh, bl = dd_values()
    bsh, bsl = dd.split(bh)
    assert np.array_equal(bsh + bsl, bh)

    def same(x, y):
        return all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(x, y))

    assert same(dd.dd_mul_split(ah, al, bh, bl, bsh, bsl), dd.dd_mul(ah, al, bh, bl))
    assert same(dd.dd_mul_split(ah, al, bh[0], bl[0], bsh[0], bsl[0]), dd.dd_mul(ah, al, bh[0], bl[0]))
    assert same(dd.dd_mul_split(ah[0], al[0], bh, bl, bsh, bsl), dd.dd_mul(ah[0], al[0], bh, bl))
    for i in range(n):
        a, b = (float(ah[i]), float(al[i])), (float(bh[i]), float(bl[i]))
        split = dd.split(b[0])
        assert (split[0], split[1]) == (float(bsh[i]), float(bsl[i]))
        assert same(dd.dd_mul_split(*a, *b, *split), dd.dd_mul(*a, *b))
        p, e = dd.two_prod(a[0], b[0])
        assert dd.dd_mul_split(a[0], 0.0, b[0], 0.0, *split) == (p, e)


def _called_sum_sq(hs, ls):
    """sum (h + l)^2 with one ``doubledouble`` call per operation: the former
    norm-identity loop of the mass machinery, kept as the reference."""
    s = (0.0, 0.0)
    for h, l in zip(hs, ls):
        s = dd.dd_add(*s, *dd.dd_mul(h, l, h, l))
    return s


@settings(max_examples=200, deadline=None)
@given(hs=st.lists(st.floats(allow_nan=False, min_value=-1e160, max_value=1e160), max_size=30),
       rel=st.floats(-1.1e-16, 1.1e-16))
def test_written_out_sum_of_squares_matches_the_called_one(hs, rel):
    # the eigenvector norm sum keeps its bits, terms from a few ulps to the
    # overflow of the square (inf, and nan where inf meets -inf)
    ls = [h * rel for h in hs]
    got, ref = dd.dd_sum_sq(hs, ls), _called_sum_sq(hs, ls)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_written_out_sum_of_squares_matches_on_eigenvector_columns():
    # columns as the mass machinery sums them: entries falling by orders of
    # magnitude, summed from the smallest up, with lo parts near an ulp
    rng = np.random.default_rng(7)
    for _ in range(50):
        hs = (rng.uniform(0.5, 2.0, 24) * np.logspace(-40, 0, 24) * rng.choice([-1.0, 1.0], 24)).tolist()
        ls = [h * r for h, r in zip(hs, rng.uniform(-1.1e-16, 1.1e-16, 24).tolist())]
        got, ref = dd.dd_sum_sq(hs, ls), _called_sum_sq(hs, ls)
        assert np.array(got).tobytes() == np.array(ref).tobytes()
