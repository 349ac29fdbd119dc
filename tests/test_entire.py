"""Series-coefficient oracle tests and evaluation certificates.

The dynamic program is checked against direct enumeration of every index
chain, ``jspec.verification._chain_bruteforce`` (a plain loop over
combinations, nothing shared with the production path).
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from jspec import doubledouble as dd, entire
from jspec.entire import (
    _dd_inputs,
    _weight_suffix,
    char_chain_prefixes,
    choose_truncation,
    envelope_bound,
    eval_series,
    eval_series_deriv,
    identity_residuals,
    scale_for_shift,
    series_pair,
)
from jspec.errors import CancellationFailure, JspecError
from jspec.sequences import (
    Explicit,
    Geometric,
    JacobiParams,
    PowerLaw,
    entry_arrays,
    sequence_min_from,
    tail_sum_reciprocal,
)
from jspec.verification import _chain_bruteforce

GEOM = JacobiParams(Geometric(0.25), 0.5)


@pytest.mark.parametrize("q,k", [(0.25, 0.5), (0.37, 0.61), (0.6, 0.3)])
def test_dp_matches_enumeration(q, k):
    params = JacobiParams(Geometric(q), k)
    J = 12
    ser, fam = series_pair(params, 3, J, 2)
    for m in range(1, 4):
        brute = _chain_bruteforce(params, m, J)
        assert abs(ser.coefficient(m) - brute) / brute < 1e-14
    for n in (0, 1, 2):
        for m in range(0, 4):
            brute = _chain_bruteforce(params, m, J, shift=n)
            assert abs(fam[n].coefficient(m) - brute) / brute < 1e-14
    # every prefix column, order 1, order = cutoff, and every shift below J;
    # chains that cannot fit must come out exactly 0
    for M, J in ((3, 12), (1, 9), (6, 6)):
        ser, fam = series_pair(params, M, J, J - 1)
        Ahi, Alo = char_chain_prefixes(params, M, J)
        assert np.array_equal(Ahi[:, J], ser.coeffs) and np.array_equal(Alo[:, J], ser.coeffs_lo)
        assert np.all(Ahi[0] == 1.0)
        for m in range(1, M + 1):
            for j in range(J + 1):
                brute = _chain_bruteforce(params, m, j)
                assert abs(Ahi[m, j] - brute) <= 1e-14 * brute
        for n in range(J):
            for m in range(M + 1):
                brute = _chain_bruteforce(params, m, J, shift=n)
                assert abs(fam[n].coefficient(m) - brute) <= 1e-14 * brute


def _two_pass_chain_tables(w, first, L, k2, om):
    """One run of the chain-sum recurrence, storing its V and C tables: the
    kernel of the former two-pass DP, kept as the reference of the one-pass
    kernel."""
    wh, wl = w
    N = len(wh)
    Vh = np.empty((N, L + 1))
    Vl = np.empty((N, L + 1))
    Ch = np.empty((N, L))
    Cl = np.empty((N, L))
    Vh[:, 0], Vl[:, 0] = first
    eh = el = ch = cl = np.zeros(L)
    for r in range(N):
        Ch[r], Cl[r] = ch, cl
        Vh[r, 1:], Vl[r, 1:] = dd.dd_mul(wh[r], wl[r], ch, cl)
        eh, el = dd.dd_mul(eh, el, *k2)
        eh, el = dd.dd_add(eh, el, Vh[r, :L], Vl[r, :L])
        th, tl = dd.dd_mul(eh, el, *om)
        ch, cl = dd.dd_add(ch, cl, th, tl)
    return Vh.T, Vl.T, Ch.T, Cl.T


def _two_pass_tables(params, M, J, n_max):
    """The characteristic prefix table from a forward run and a prefix loop,
    and the second-kind table from a backward run and a suffix loop."""
    a, k2, om, x, (ph, pl) = _dd_inputs(params, J)
    Ah = np.zeros((M + 1, J + 1))
    Al = np.zeros((M + 1, J + 1))
    Ah[0] = 1.0
    if M > 0:
        first = dd.dd_mul(*x, *dd.dd_add_d(-ph[1:], -pl[1:], 1.0))
        Sh, Sl, _, _ = _two_pass_chain_tables(x, first, M - 1, k2, om)
        sh = sl = np.zeros(M)
        for j in range(J + 1):
            sh, sl = dd.dd_add(sh, sl, Sh[:, j], Sl[:, j])
            Ah[1:, j], Al[1:, j] = sh, sl
    w = (x[0][::-1], x[1][::-1])
    _, _, Ch, Cl = _two_pass_chain_tables(w, w, M, k2, om)
    Gh = np.vstack([np.ones(J + 1), Ch[:, ::-1]])
    Gl = np.vstack([np.zeros(J + 1), Cl[:, ::-1]])
    sdh, sdl = dd.dd_div(ph[:-1], pl[:-1], a, 0.0)
    Hh = np.empty((M + 1, n_max + 1))
    Hl = np.empty((M + 1, n_max + 1))
    sh = sl = np.zeros(M + 1)
    for j in range(J, -1, -1):
        th, tl = dd.dd_mul(sdh[j], sdl[j], Gh[:, j], Gl[:, j])
        sh, sl = dd.dd_add(sh, sl, th, tl)
        if j <= n_max:
            Hh[:, j], Hl[:, j] = sh, sl
    return (Ah, Al), (Hh, Hl)


_EXPLICIT = JacobiParams(Explicit((1e8, 1e4, 1.0, 1e-4, 1e-8), PowerLaw(1.0, 2.0)), 0.99)
_PAIR_CASES = (
    [(JacobiParams(Geometric(q), math.sqrt(q)), M, J, n)
     for q in (0.2, 0.25, 0.3) for M, J in ((14, 34), (20, 38)) for n in (0, J - 1)]
    + [(GEOM, M, 12, n) for M in (0, 1) for n in (0, 11)]
    + [(JacobiParams(PowerLaw(1.0, 2.0), 0.5), 48, 192, n) for n in (0, 191)]
    + [(_EXPLICIT, 40, 200, n) for n in (0, 199)]
    # the sizes of q = 1/4 requests at counts 10 and 12
    + [(JacobiParams(Geometric(0.25), 0.5), 18, J, J - 15) for J in (36, 38)]
)


@pytest.mark.parametrize("params,M,J,n_max", _PAIR_CASES)
def test_one_pass_kernel_matches_two_pass_dp(params, M, J, n_max):
    # one kernel pass carries both blocks and both running sums, and gives
    # the bits of the two-pass DP it replaced
    (Ah, Al), (Hh, Hl) = _two_pass_tables(params, M, J, n_max)
    char, fam = series_pair(params, M, J, n_max)
    for ser, hi, lo in ((char, Ah[:, J], Al[:, J]), (fam, Hh, Hl)):
        assert ser.coeffs.tobytes() == hi.tobytes() and ser.coeffs_lo.tobytes() == lo.tobytes()
    Ph, Pl = char_chain_prefixes(params, M, J)
    assert Ph.tobytes() == Ah.tobytes() and Pl.tobytes() == Al.tobytes()


def test_order_zero_series():
    ser, fam = series_pair(GEOM, 0, 10, 3)
    assert ser.coeffs.tolist() == [1.0] and ser.coeffs_lo.tolist() == [0.0]
    Ahi, Alo = char_chain_prefixes(GEOM, 0, 10)
    assert Ahi.shape == (1, 11) and np.all(Ahi == 1.0) and np.all(Alo == 0.0)
    for n in range(4):
        assert fam[n].coefficient(0) == pytest.approx(_chain_bruteforce(GEOM, 0, 10, shift=n), rel=1e-14)


@pytest.mark.parametrize("M,J", [(100, 200), (200, 400)])
def test_second_kind_omitted_bounds_stay_finite(M, J):
    # seed * X^m / m! once overflowed in X^m (and m! beyond order 170);
    # the inf bounds times an underflowed |z|^m made every err_bound NaN
    params = JacobiParams(Geometric(0.97), math.sqrt(0.97))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = series_pair(params, M, J, 2)[1]
    for s in fam:
        assert np.all(np.isfinite(s.tail_omitted))
        assert math.isfinite(eval_series(s, 1e-3).err_bound)


def test_reference_coefficients():
    ser, fam = series_pair(GEOM, 6, 60, 0)
    assert ser.coefficient(0) == 1.0
    assert ser.coefficient(1) == pytest.approx(4.0 / 45.0, rel=1e-15)
    assert ser.coefficient(2) == pytest.approx(16.0 / 42525.0, rel=1e-15)
    assert fam[0].coefficient(0) == pytest.approx(0.08439074413369511, rel=1e-14)


def test_first_coefficient_is_trace():
    from jspec.polycore import trace_inverse

    for params in (GEOM, JacobiParams(Geometric(0.55), 0.8)):
        ser = series_pair(params, 4, 80, 0)[0]
        assert ser.coefficient(1) == pytest.approx(trace_inverse(params, 1e-15), rel=1e-12)


def test_coefficient_factorial_bound():
    char, fam = series_pair(GEOM, 10, 40, 3)
    for ser in (char, fam[0], fam[3]):
        S = ser.tail_const
        for m in range(ser.order + 1):
            assert ser.coefficient(m) <= S**m / math.factorial(m) * (1 + 1e-12)


def test_second_kind_leading_bound_needs_correction():
    # sum_{j>=n} k^{2j}/a_j exceeds k^{2n}/min a_j here, so the certified
    # bound must carry the extra 1/(1-k^2); both directions are asserted
    fam = series_pair(GEOM, 2, 60, 2)[1]
    k = GEOM.k
    for n in (0, 1, 2):
        c0 = fam[n].coefficient(0)
        amin = sequence_min_from(GEOM.seq, n)
        assert c0 <= k ** (2 * n) / ((1 - k * k) * amin)
    assert fam[0].coefficient(0) > 1.0 / 12.0  # the uncorrected constant fails


def test_second_kind_leading_decay():
    fam = series_pair(GEOM, 2, 60, 6)[1]
    k2 = GEOM.k**2
    for n in range(1, 7):
        assert fam[n].coefficient(0) <= k2 * fam[n - 1].coefficient(0)


def test_eval_at_zero_and_negative():
    ser = series_pair(GEOM, 16, 40, 0)[0]
    at0 = eval_series(ser, 0.0)
    assert at0.value == 1.0 and at0.kappa == 1.0
    neg = eval_series(ser, -3.0)
    assert neg.value >= 1.0
    assert neg.kappa == pytest.approx(1.0, rel=1e-12)


def test_eval_certified_root():
    # the compensated-Newton root drives the evaluation below its own
    # certified error bound; a root moved off by 1e-9 relative leaves a
    # genuinely nonzero value far above the bound
    from jspec.spectrum import point_spectrum, section_eigenvalues, truncate

    sd = point_spectrum(GEOM, 1, tol=1e-10)
    ser = series_pair(GEOM, 24, 60, 0)[0]
    out = eval_series(ser, sd.lambda_dd(0))
    assert abs(out.value) <= out.err_bound
    lam_coarse = section_eigenvalues(truncate(GEOM, 40), 1)[0] * (1.0 + 1e-9)
    coarse = eval_series(ser, lam_coarse)
    assert abs(coarse.value) > coarse.err_bound


def test_truncation_consistency():
    z = 4.0
    lo = eval_series(series_pair(GEOM, 12, 60, 0)[0], z)
    hi = eval_series(series_pair(GEOM, 17, 60, 0)[0], z)
    assert abs(lo.value - hi.value) <= lo.err_bound + hi.err_bound


def test_cancellation_failure_raised():
    ser = series_pair(GEOM, 24, 60, 0)[0]
    from jspec.spectrum import section_eigenvalues, truncate

    lam0 = section_eigenvalues(truncate(GEOM, 40), 1)[0]
    with pytest.raises(CancellationFailure):
        eval_series(ser, lam0, tol=1e-14)  # near a root nothing certifies


def test_derivative_at_zero():
    ser = series_pair(GEOM, 12, 60, 0)[0]
    d =  eval_series_deriv(ser, 0.0)
    assert d.value == pytest.approx(-4.0 / 45.0, rel=1e-14)


def _eigenvector_entry(n, z):
    """Phi_n(z): the shift-n series of a family, scaled by (-1)^n k^-n."""
    M, J = choose_truncation(GEOM, max(abs(z), 1.0), 1e-12, min_cutoff=n + 2)
    fam = series_pair(GEOM, M, J, n)[1]
    return scale_for_shift(GEOM.k, n) * eval_series(fam[n], z).value


def test_eigenvector_entry_scaling_and_bound():
    # shift 0 is the plain numerator series, and every entry obeys the
    # corrected envelope bound
    v0 = _eigenvector_entry(0, 2.0)
    fam = series_pair(GEOM, 20, 60, 0)[1]
    assert v0 == pytest.approx(eval_series(fam[0], 2.0).value, rel=1e-13)
    for n in (0, 1, 3, 6):
        v = _eigenvector_entry(n, 2.0)
        assert abs(v) <= envelope_bound(GEOM, n, 2.0)


def test_envelope_bound_is_inf_past_the_float_range():
    # an exponent capped at 700 left the bound at 6.1e291 for every |z| from
    # about 17,000 on, below the true envelope
    params, n, k = JacobiParams(PowerLaw(1.0, 2.0), 0.5), 31, 0.5
    scale = k**n / ((1.0 - k * k) * sequence_min_from(params.seq, n))
    tail = tail_sum_reciprocal(params.seq, n + 1)
    z = 705.0 * (1.0 - k * k) / tail  # an exponent past the old cap, still finite
    assert envelope_bound(params, n, z) == scale * math.exp(z * tail / (1.0 - k * k))
    for z in (2e4, 3e4, 1e5):
        assert envelope_bound(params, n, z) == math.inf


def test_second_kind_entry_value():
    # shift 1 at z=0: -(1/k) sum_{j>=1} k^{2j}/a_j
    from jspec.polycore import second_kind_at_zero

    v = _eigenvector_entry(1, 0.0)
    assert v == pytest.approx(second_kind_at_zero(GEOM, 1), rel=1e-13)
    assert v == pytest.approx(-0.002114821600723552, rel=1e-12)


def test_wronskian_residuals():
    M, J = choose_truncation(GEOM, 12.0, 1e-14, min_cutoff=16)
    fser, fam = series_pair(GEOM, M, J, 11)
    for z in (1.0, 5.0, 10.0):
        fz = eval_series(fser, z).value
        wronskian, _ = identity_residuals(GEOM, z, 10, fser, fam)
        for n in range(0, 11, 2):
            assert wronskian[n] <= 1e-9 * abs(fz)


def _recurrence_residual(n, z):
    M, J = choose_truncation(GEOM, max(abs(z), 1.0), 1e-13, min_cutoff=n + 3)
    return identity_residuals(GEOM, z, n, *series_pair(GEOM, M, J, n + 1))[1][n]


def test_recurrence_residuals():
    # boundary case couples in the characteristic function
    assert _recurrence_residual(0, 0.0) <= 1e-14
    for n in (1, 3, 5):
        for z in (0.0, 2.0):
            _, alpha, beta = entry_arrays(GEOM, n + 2)
            scale = max(alpha[n], abs(beta[n] - z)) * abs(_eigenvector_entry(n, z))
            assert _recurrence_residual(n, z) <= 1e-10 * max(scale, 1e-30)


def test_complex_point_raises():
    # the operator is self-adjoint: every point evaluated is real, and a
    # complex one is refused, not truncated to its real part
    ser = series_pair(GEOM, 12, 40, 0)[0]
    with pytest.raises(TypeError):
        eval_series(ser, 0.3 + 0.5j)
    with pytest.raises(TypeError):
        eval_series_deriv(ser, 0.3 + 0.5j)
    # numpy complex points were cast to their real part with a ComplexWarning
    for z in (np.complex128(0.3 + 0.5j), np.complex64(0.3 + 0.5j),
              np.array([0.3 + 0.5j, 2.0]), (np.array([0.3 + 0.5j]), 0.0)):
        with pytest.raises(TypeError):
            eval_series(ser, z)
        with pytest.raises(TypeError):
            eval_series_deriv(ser, z)


def test_rejects_order_beyond_cutoff():
    with pytest.raises(ValueError):
        series_pair(GEOM, 10, 5, 0)
    with pytest.raises(ValueError):
        series_pair(GEOM, 3, 4, 4)


def test_choose_truncation_certifies():
    M, J = choose_truncation(GEOM, 100.0, 1e-12)
    ser = series_pair(GEOM, M, J, 0)[0]
    out = eval_series(ser, 100.0)
    assert out.err_bound <= 1e-10 * max(1.0, abs(out.value))


def test_powerlaw_series_still_enumerable():
    params = JacobiParams(PowerLaw(2.0, 3.0), 0.4)
    J = 10
    ser = series_pair(params, 3, J, 0)[0]
    for m in range(1, 4):
        brute = _chain_bruteforce(params, m, J)
        assert abs(ser.coefficient(m) - brute) / brute < 1e-13


def _same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


_EVAL_FIELDS = ("value", "value_lo", "err_bound", "kappa", "abs_sum")
_POINTS_HI = np.array([0.0, 0.7, -3.0, 12.5, 40.0, 300.0, 2.0e4])
_POINTS_LO = np.array([0.0, 0.0, 0.0, 0.0, 1e-15, 0.0, -1e-13])


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_eval_family_matches_single_calls(params):
    # one Horner pass over (order x shift x point) gives every element the
    # bits of its own one-series, one-point call, bound included
    fam = series_pair(params, 24, 72, 9)[1]
    ev = eval_series(fam, (_POINTS_HI, _POINTS_LO))
    assert ev.value.shape == (10, len(_POINTS_HI))
    at_one = eval_series(fam, (float(_POINTS_HI[3]), float(_POINTS_LO[3])))
    assert at_one.value.shape == (10,)
    for n in range(10):
        for p, z in enumerate(zip(_POINTS_HI.tolist(), _POINTS_LO.tolist())):
            single = eval_series(fam[n], z)
            for field in _EVAL_FIELDS:
                assert _same_bits(getattr(ev, field)[n, p], getattr(single, field)), (z, n, field)
                if p == 3:
                    assert _same_bits(getattr(at_one, field)[n], getattr(single, field)), (n, field)


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_eval_series_point_arrays_match_single_calls(params):
    # eval_series and eval_series_deriv take arrays of points with the
    # bits of the one-point calls; orders 0 and 1 (no Horner step for the
    # value or the derivative) keep the shape of the points too
    for M, fn in itertools.product((0, 1, 30), (eval_series, eval_series_deriv)):
        ser = series_pair(params, M, 90, 0)[0]
        ev = fn(ser, (_POINTS_HI, _POINTS_LO))
        for p, z in enumerate(zip(_POINTS_HI.tolist(), _POINTS_LO.tolist())):
            single = fn(ser, z)
            for field in _EVAL_FIELDS:
                assert getattr(ev, field).shape == _POINTS_HI.shape, (M, fn, field)
                assert isinstance(getattr(single, field), float), (M, fn, field)
                assert _same_bits(getattr(ev, field)[p], getattr(single, field)), (M, fn, z, field)


def _called_horner_dd(chi, clo, zh, zl):
    """Compensated Horner with the signs and magnitudes formed at every step
    and z broadcast against the coefficients: the former ``_horner_dd``,
    kept as the reference of the table-driven one."""
    n = len(chi)
    sg = 1.0 if n % 2 else -1.0
    rh, rl = sg * chi[n - 1], sg * clo[n - 1]
    az = abs(zh)
    ab = abs(chi[n - 1])
    if n == 1:
        shape = np.broadcast_shapes(np.shape(rh), np.shape(zh))
        return tuple(np.broadcast_to(x, shape).copy() for x in (rh, rl, ab))
    zsh, zsl = dd.split(zh)
    for m in range(n - 2, -1, -1):
        sg = -sg
        rh, rl = dd.dd_mul_split(rh, rl, zh, zl, zsh, zsl)
        rh, rl = dd.dd_add(rh, rl, sg * chi[m], sg * clo[m])
        ab = ab * az + abs(chi[m])
    return rh, rl, ab


def _looped_omitted_bound(s, az):
    """The omitted-index evaluation bound as a loop over the orders: the
    former ``_omitted_eval_bound``, kept as the reference."""
    hit = np.any(s.tail_omitted == math.inf, axis=0)
    p = 1.0
    tot = 0.0
    for row in s.tail_omitted:
        tot = tot + row * p
        p = p * az
    return np.where(hit | (p == math.inf), math.inf, tot)


def _bits_of(x):
    return np.asarray(x, dtype=float).tobytes()


_SHAPE_CASES = [  # (family?, points): the shapes _evaluate hands over
    (False, 12.5),
    (False, _POINTS_HI),
    (True, 12.5),
    (True, _POINTS_HI[:, None]),
]


@pytest.mark.parametrize("family, zh", _SHAPE_CASES)
def test_table_horner_and_bounds_keep_the_bits_of_the_loops(family, zh):
    # signed and absolute tables formed once, z spread to the result's
    # shape, and the omitted bound from cumprod and cumsum: every element
    # keeps the bits of the step-by-step loops, also where a power of |z|
    # overflows, and the series keeps its coefficient magnitudes
    fser, fam = series_pair(GEOM, 30, 90, 9)
    s = fam if family else fser
    coeffs, coeffs_lo = s.coeffs.copy(), s.coeffs_lo.copy()
    for scale in (1.0, 1e9):
        z = np.asarray(zh) * scale
        zl = z * 1e-17
        if np.ndim(z) == 0:
            z, zl = float(z), float(zl)
        got = entire._horner_dd(s._tables, z, zl)
        ref = _called_horner_dd(s.coeffs, s.coeffs_lo, z, zl)
        for g, r in zip(got, ref):
            assert np.shape(g) == np.shape(r) and _bits_of(g) == _bits_of(r)
        with np.errstate(over="ignore", invalid="ignore"):
            got = entire._omitted_eval_bound(s, abs(z))
            ref = _looped_omitted_bound(s, abs(z))
        assert np.shape(got) == np.shape(ref) and _bits_of(got) == _bits_of(ref)
        assert (scale == 1e9) == bool(np.isinf(got).any())
    assert _bits_of(s.coeffs) == _bits_of(coeffs) and _bits_of(s.coeffs_lo) == _bits_of(coeffs_lo)


def _per_shift_bounds(params, M, J, n, chi):
    """Omitted-index bounds and ratio bounds of shift n, one scalar loop per shift.

    The reference form of the family bounds: the seed beyond J times
    X^m / m! in log space, its sum widened by ``_ULPS`` ulps of
    (1 + sum of |terms|), one term at a time, and the ratio after order m from the smallest index a longer
    chain can add.
    """
    X = _weight_suffix(params, J)
    seed_beyond = params.k ** (2 * (J + 1)) * tail_sum_reciprocal(params.seq, J + 1)
    omitted = np.zeros(M + 1)
    omitted[1:] = float(X[J + 1]) * chi[:-1]
    omitted[0] = seed_beyond
    with np.errstate(divide="ignore", over="ignore"):
        log_seed = np.log(seed_beyond)
        log_X = np.log(X[min(n + 1, J + 1)])
        for m in range(1, M + 1):
            terms = (log_seed, m * log_X, -math.lgamma(m + 1))
            x = sum(terms)
            if x > -math.inf:
                x = x + entire._ULPS * entire._EPS * (1.0 + sum(abs(t) for t in terms))
            omitted[m] += np.exp(x)
    ratios = np.array([float(X[min(n + m + 1, J + 1)]) for m in range(M + 1)])
    return omitted, ratios


_FAMILY_CASES = [
    (GEOM, 18, 38, 23),
    (JacobiParams(PowerLaw(1.0, 2.0), 0.5), 24, 72, 9),
    (JacobiParams(Geometric(0.97), math.sqrt(0.97)), 146, 1920, 14),
]


@pytest.mark.parametrize("params,M,J,n_max", _FAMILY_CASES)
def test_family_bounds_match_per_shift_loop(params, M, J, n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = series_pair(params, M, J, n_max)[1]
    assert fam.coeffs.shape == fam.tail_omitted.shape == fam.ratio_bounds.shape == (M + 1, n_max + 1)
    for n in range(n_max + 1):
        omitted, ratios = _per_shift_bounds(params, M, J, n, fam[n].coeffs)
        assert omitted.tobytes() == fam[n].tail_omitted.tobytes(), n
        assert ratios.tobytes() == fam[n].ratio_bounds.tobytes(), n


def test_family_member_does_not_depend_on_n_max():
    small = series_pair(GEOM, 18, 38, 4)[1]
    large = series_pair(GEOM, 18, 38, 23)[1]
    for n in range(5):
        for field in ("coeffs", "coeffs_lo", "tail_omitted", "ratio_bounds"):
            assert getattr(small[n], field).tobytes() == getattr(large[n], field).tobytes(), (n, field)
        assert small[n].shift == large[n].shift == n
        assert small[n].tail_const == large[n].tail_const
    with pytest.raises(IndexError):
        small[5]
    with pytest.raises(TypeError):
        small[0][0]


def test_choose_truncation_past_float_range_raises_package_error():
    # the tail bound at J+1 = 201 once raised a bare OverflowError from
    # (1/q)**(J+2); past the float range only package errors may surface
    # (the entry arrays overflow first and raise SequenceError; numpy's
    # overflow warning on the way is not the point here)
    params = JacobiParams(Geometric(0.0212), 0.1455)
    try:
        with np.errstate(over="ignore"):
            choose_truncation(params, 0.74, 2.6e-8, min_cutoff=200)
    except JspecError:
        pass
