"""Series-coefficient oracle tests and evaluation certificates.

The dynamic program is checked against direct enumeration of every index
chain (the oracle stays a plain double loop over combinations, nothing
shared with the production path).
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from jspec.entire import (
    KIND_CHAR,
    KIND_SECOND,
    _eval_family,
    char_chain_prefixes,
    choose_truncation,
    eigenvector_entry,
    envelope_bound,
    eval_series,
    eval_series_deriv,
    recurrence_residual,
    second_kind_family,
    series_coeffs,
    wronskian_residual,
)
from jspec.errors import CancellationFailure, JspecError
from jspec.sequences import Geometric, JacobiParams, PowerLaw, entry_arrays, sequence_min_from

GEOM = JacobiParams(Geometric(0.25), 0.5)


def enum_char_chain(params, m, J):
    a, _, _ = entry_arrays(params, J + 1)
    k2 = params.k**2
    total = 0.0
    for chain in itertools.combinations(range(J + 1), m):
        num, prev = 1.0, None
        for t, j in enumerate(chain):
            num *= 1.0 - k2 ** (j + 1 if t == 0 else j - prev)
            prev = j
        total += num / ((1.0 - k2) ** m * np.prod(a[list(chain)]))
    return total


def enum_second_chain(params, n, m, J):
    a, _, _ = entry_arrays(params, J + 1)
    k2 = params.k**2
    total = 0.0
    for chain in itertools.combinations(range(n, J + 1), m + 1):
        num, prev = k2 ** chain[0], chain[0]
        for j in chain[1:]:
            num *= 1.0 - k2 ** (j - prev)
            prev = j
        total += num / ((1.0 - k2) ** m * np.prod(a[list(chain)]))
    return total


@pytest.mark.parametrize("q,k", [(0.25, 0.5), (0.37, 0.61), (0.6, 0.3)])
def test_dp_matches_enumeration(q, k):
    params = JacobiParams(Geometric(q), k)
    J = 12
    ser = series_coeffs(params, KIND_CHAR, 3, J)
    for m in range(1, 4):
        brute = enum_char_chain(params, m, J)
        assert abs(ser.coefficient(m) - brute) / brute < 1e-14
    fam = second_kind_family(params, 3, J, 2)
    for n in (0, 1, 2):
        for m in range(0, 4):
            brute = enum_second_chain(params, n, m, J)
            assert abs(fam[n].coefficient(m) - brute) / brute < 1e-14
    # every prefix column, order 1, order = cutoff, and every shift below J;
    # chains that cannot fit must come out exactly 0
    for M, J in ((3, 12), (1, 9), (6, 6)):
        ser = series_coeffs(params, KIND_CHAR, M, J)
        Ahi, Alo = char_chain_prefixes(params, M, J)
        assert np.array_equal(Ahi[:, J], ser.coeffs) and np.array_equal(Alo[:, J], ser.coeffs_lo)
        assert np.all(Ahi[0] == 1.0)
        for m in range(1, M + 1):
            for j in range(J + 1):
                brute = enum_char_chain(params, m, j)
                assert abs(Ahi[m, j] - brute) <= 1e-14 * brute
        fam = second_kind_family(params, M, J, J - 1)
        for n in range(J):
            for m in range(M + 1):
                brute = enum_second_chain(params, n, m, J)
                assert abs(fam[n].coefficient(m) - brute) <= 1e-14 * brute


def test_order_zero_series():
    ser = series_coeffs(GEOM, KIND_CHAR, 0, 10)
    assert ser.coeffs.tolist() == [1.0] and ser.coeffs_lo.tolist() == [0.0]
    Ahi, Alo = char_chain_prefixes(GEOM, 0, 10)
    assert Ahi.shape == (1, 11) and np.all(Ahi == 1.0) and np.all(Alo == 0.0)
    fam = second_kind_family(GEOM, 0, 10, 3)
    for n in range(4):
        assert fam[n].coefficient(0) == pytest.approx(enum_second_chain(GEOM, n, 0, 10), rel=1e-14)


@pytest.mark.parametrize("M,J", [(100, 200), (200, 400)])
def test_second_kind_omitted_bounds_stay_finite(M, J):
    # seed * X^m / m! once overflowed in X^m (and m! beyond order 170);
    # the inf bounds times an underflowed |z|^m made every err_bound NaN
    params = JacobiParams(Geometric(0.97), math.sqrt(0.97))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = second_kind_family(params, M, J, 2)
    for s in fam:
        assert np.all(np.isfinite(s.tail_omitted))
        assert math.isfinite(eval_series(s, 1e-3).err_bound)


def test_reference_coefficients():
    ser = series_coeffs(GEOM, KIND_CHAR, 6, 60)
    assert ser.coefficient(0) == 1.0
    assert ser.coefficient(1) == pytest.approx(4.0 / 45.0, rel=1e-15)
    assert ser.coefficient(2) == pytest.approx(16.0 / 42525.0, rel=1e-15)
    fam = second_kind_family(GEOM, 6, 60, 0)
    assert fam[0].coefficient(0) == pytest.approx(0.08439074413369511, rel=1e-14)


def test_first_coefficient_is_trace():
    from jspec.polycore import trace_inverse

    for params in (GEOM, JacobiParams(Geometric(0.55), 0.8)):
        ser = series_coeffs(params, KIND_CHAR, 4, 80)
        assert ser.coefficient(1) == pytest.approx(trace_inverse(params, 1e-15), rel=1e-12)


def test_coefficient_factorial_bound():
    for kind, shift in ((KIND_CHAR, 0), (KIND_SECOND, 0), (KIND_SECOND, 3)):
        ser = series_coeffs(GEOM, kind, 10, 40, shift=shift)
        S = ser.tail_const
        for m in range(ser.order + 1):
            assert ser.coefficient(m) <= S**m / math.factorial(m) * (1 + 1e-12)


def test_second_kind_leading_bound_needs_correction():
    # sum_{j>=n} k^{2j}/a_j exceeds k^{2n}/min a_j here, so the certified
    # bound must carry the extra 1/(1-k^2); both directions are asserted
    fam = second_kind_family(GEOM, 2, 60, 2)
    k = GEOM.k
    for n in (0, 1, 2):
        c0 = fam[n].coefficient(0)
        amin = sequence_min_from(GEOM.seq, n)
        assert c0 <= k ** (2 * n) / ((1 - k * k) * amin)
    assert fam[0].coefficient(0) > 1.0 / 12.0  # the uncorrected constant fails


def test_second_kind_leading_decay():
    fam = second_kind_family(GEOM, 2, 60, 6)
    k2 = GEOM.k**2
    for n in range(1, 7):
        assert fam[n].coefficient(0) <= k2 * fam[n - 1].coefficient(0)


def test_eval_at_zero_and_negative():
    ser = series_coeffs(GEOM, KIND_CHAR, 16, 40)
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
    ser = series_coeffs(GEOM, KIND_CHAR, 24, 60)
    out = eval_series(ser, sd.lambda_dd(0))
    assert abs(out.value) <= out.err_bound
    lam_coarse = section_eigenvalues(truncate(GEOM, 40), 1)[0] * (1.0 + 1e-9)
    coarse = eval_series(ser, lam_coarse)
    assert abs(coarse.value) > coarse.err_bound


def test_truncation_consistency():
    z = 4.0
    lo = eval_series(series_coeffs(GEOM, KIND_CHAR, 12, 60), z)
    hi = eval_series(series_coeffs(GEOM, KIND_CHAR, 17, 60), z)
    assert abs(lo.value - hi.value) <= lo.err_bound + hi.err_bound


def test_cancellation_failure_raised():
    ser = series_coeffs(GEOM, KIND_CHAR, 24, 60)
    from jspec.spectrum import section_eigenvalues, truncate

    lam0 = section_eigenvalues(truncate(GEOM, 40), 1)[0]
    with pytest.raises(CancellationFailure):
        eval_series(ser, lam0, tol=1e-14)  # near a root nothing certifies


def test_derivative_at_zero():
    ser = series_coeffs(GEOM, KIND_CHAR, 12, 60)
    d =  eval_series_deriv(ser, 0.0)
    assert d.value == pytest.approx(-4.0 / 45.0, rel=1e-14)


def test_eigenvector_entry_scaling_and_bound():
    # shift 0 is the plain numerator series, and every entry obeys the
    # corrected envelope bound
    v0 = eigenvector_entry(GEOM, 0, 2.0)
    fam = second_kind_family(GEOM, 20, 60, 0)
    assert v0 == pytest.approx(eval_series(fam[0], 2.0).value, rel=1e-13)
    for n in (0, 1, 3, 6):
        v = eigenvector_entry(GEOM, n, 2.0)
        assert abs(v) <= envelope_bound(GEOM, n, 2.0)


def test_second_kind_entry_value():
    # shift 1 at z=0: -(1/k) sum_{j>=1} k^{2j}/a_j
    from jspec.polycore import second_kind_at_zero

    v = eigenvector_entry(GEOM, 1, 0.0)
    assert v == pytest.approx(second_kind_at_zero(GEOM, 1), rel=1e-13)
    assert v == pytest.approx(-0.002114821600723552, rel=1e-12)


def test_wronskian_residuals():
    M, J = choose_truncation(GEOM, 12.0, 1e-14, min_cutoff=16)
    fser = series_coeffs(GEOM, KIND_CHAR, M, J)
    for z in (1.0, 5.0, 10.0):
        fz = eval_series(fser, z).value
        for n in range(0, 11, 2):
            assert wronskian_residual(GEOM, n, z, M=M, J=J) <= 1e-9 * abs(fz)


def test_recurrence_residuals():
    # boundary case couples in the characteristic function
    assert recurrence_residual(GEOM, 0, 0.0) <= 1e-14
    for n in (1, 3, 5):
        for z in (0.0, 2.0):
            _, alpha, beta = entry_arrays(GEOM, n + 2)
            scale = max(alpha[n], abs(beta[n] - z)) * abs(
                eigenvector_entry(GEOM, n, z)
            )
            assert recurrence_residual(GEOM, n, z) <= 1e-10 * max(scale, 1e-30)


def test_complex_evaluation():
    ser = series_coeffs(GEOM, KIND_CHAR, 12, 40)
    z = 0.3 + 0.5j
    out = eval_series(ser, z)
    direct = sum(
        (-1.0) ** m * (ser.coeffs[m] + ser.coeffs_lo[m]) * z**m for m in range(ser.order + 1)
    )
    assert abs(out.value - direct) <= 1e-14 * abs(direct)
    # real axis consistency
    assert eval_series(ser, 2.0 + 0.0j).value == pytest.approx(eval_series(ser, 2.0).value)


def test_rejects_order_beyond_cutoff():
    with pytest.raises(ValueError):
        series_coeffs(GEOM, KIND_CHAR, 10, 5)
    with pytest.raises(ValueError):
        series_coeffs(GEOM, KIND_SECOND, 3, 4, shift=4)


def test_choose_truncation_certifies():
    M, J = choose_truncation(GEOM, 100.0, 1e-12)
    ser = series_coeffs(GEOM, KIND_CHAR, M, J)
    out = eval_series(ser, 100.0)
    assert out.err_bound <= 1e-10 * max(1.0, abs(out.value))


def test_powerlaw_series_still_enumerable():
    params = JacobiParams(PowerLaw(2.0, 3.0), 0.4)
    J = 10
    ser = series_coeffs(params, KIND_CHAR, 3, J)
    for m in range(1, 4):
        brute = enum_char_chain(params, m, J)
        assert abs(ser.coefficient(m) - brute) / brute < 1e-13


def _same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5)])
def test_eval_family_matches_single_calls(params):
    # the 2-D Horner gives every column the bits of its own 1-D call
    fam = second_kind_family(params, 24, 72, 9)
    for z in (0.0, 0.7, -3.0, 12.5, (40.0, 1e-15), 300.0):
        for s, ev in zip(fam, _eval_family(fam, z)):
            single = eval_series(s, z)
            for field in ("value", "value_lo", "err_bound", "kappa", "abs_sum"):
                assert _same_bits(getattr(ev, field), getattr(single, field)), (z, s.shift, field)


def test_complex_derivative_bound_covers_real():
    # complex arithmetic is coarser than double-double, so on the real axis
    # its certified bound can only be wider; the derivative's order tail
    # carries the same (order + 2) factor on both paths
    for M, J in ((4, 40), (12, 40), (30, 90)):
        ser = series_coeffs(GEOM, KIND_CHAR, M, J)
        for z in (0.5, 3.0, 10.0, 60.0):
            real = eval_series_deriv(ser, z)
            cplx = eval_series_deriv(ser, complex(z, 0.0))
            assert cplx.err_bound >= real.err_bound, (M, J, z)


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
