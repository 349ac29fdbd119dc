"""Spectral pipeline tests against independent oracles.

The 2x2 section eigenvalues come from the quadratic formula, the masses
from a 120-digit reference run (Christoffel sum, numerator/derivative
quotient and measure completeness all agree on these digits), and the Weyl
function from its three structurally different routes.
"""

import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jspec import entire, spectrum
from jspec.doubledouble import dd_sub
from jspec.entire import (
    eval_series,
    eval_series_deriv,
    series_pair,
)
from jspec.errors import ConvergenceFailure, MassNegative, TailDominates
from jspec.polycore import _trace_tail, second_kind_at_zero, trace_inverse
from jspec.sequences import (
    Explicit,
    Geometric,
    JacobiParams,
    PowerLaw,
    entry_arrays,
    gamma_lower_bound,
    tail_sum_reciprocal,
)
from jspec.spectrum import (
    TruncatedJacobi,
    associated_checks,
    associated_section,
    char_via_second_kind,
    masses_and_vectors,
    orthonormality_check,
    point_spectrum,
    second_kind_routes,
    section_eigenvalues,
    section_inverse_trace,
    sturm_count,
    truncate,
    weyl,
)
from oracles import mp_section, mp_sturm_counts

GEOM = JacobiParams(Geometric(0.25), 0.5)

# 120-digit reference values (independent high-precision run)
REF_MASSES = [
    0.9993047484667936,
    0.0006952492975648114,
    2.2356415848102893e-09,
    3.1193475539668106e-17,
    1.775465827088824e-27,
    4.008321695361601e-40,
    3.552427739481818e-55,
    1.2317137620111174e-72,
]
REF_LAMBDA0 = 11.841809843065835
REF_ASSOC_TRACE = 0.0044451005466138935


@pytest.fixture(scope="module")
def sd8():
    return point_spectrum(GEOM, 8, tol=1e-10)


@pytest.fixture(scope="module")
def sd12():
    return point_spectrum(GEOM, 12, tol=1e-10)


def test_truncate_entries():
    # the factor of [[12, 6], [6, 243]]: pivots a_n, multipliers k
    T = truncate(GEOM, 2)
    assert list(T.d) == [12.0, 240.0]
    assert list(T.l) == [0.5]
    T1 = truncate(GEOM, 1)
    assert T1.size == 1 and T1.d[0] == 12.0 and T1.l.size == 0


def test_sturm_counts():
    T = truncate(GEOM, 40)
    assert sturm_count(T, 3.0) == 0  # below gamma nothing
    assert sturm_count(T, section_eigenvalues(T, 40)[-1] * 1.001) == 40
    lam = section_eigenvalues(T, 2)
    assert sturm_count(T, float(np.sqrt(lam[0] * lam[1]))) == 1


def test_sturm_count_takes_an_array_of_shifts():
    # one count per shift, each equal to the one-shift call, which stays an int
    T = truncate(GEOM, 40)
    lams = section_eigenvalues(T, 40)
    x = np.concatenate(([3.0], np.sqrt(lams[:-1] * lams[1:]), lams[-1:] * 1.001, lams[:3]))
    counts = sturm_count(T, x)
    assert counts.shape == x.shape
    singles = [sturm_count(T, xj) for xj in x.tolist()]
    assert all(type(c) is int for c in singles)
    assert counts.tolist() == singles
    assert counts[:41].tolist() == list(range(41))


def test_point_spectrum_invariants(sd8):
    gamma = gamma_lower_bound(GEOM)
    assert np.all(sd8.lambdas >= gamma)
    assert np.all(np.diff(sd8.lambdas) > 0.0)
    assert np.all(sd8.masses > 0.0)
    assert float(np.sum(sd8.masses)) <= 1.0 + 1e-12
    assert sd8.completeness_defect <= 1e-8
    assert sd8.lambdas[0] == pytest.approx(REF_LAMBDA0, rel=1e-12)


def test_masses_match_reference(sd8):
    for j in range(8):
        assert sd8.masses[j] == pytest.approx(REF_MASSES[j], rel=1e-11)
        assert sd8.masses_quadrature[j] == pytest.approx(REF_MASSES[j], rel=1e-9)


def test_reciprocal_eigenvalue_sum_below_trace(sd8):
    from jspec.polycore import trace_inverse

    partial = float(np.sum(1.0 / sd8.lambdas))
    assert partial <= trace_inverse(GEOM) + 1e-15


def test_mass_vectors_and_residuals(sd8):
    md = masses_and_vectors(GEOM, sd8, n_max=30)
    assert np.all(md.eigen_residuals[:7] <= 1e-8)
    assert np.all(md.norm_residuals[:7] <= 1e-8)
    # vector route flags: series everywhere for this configuration
    assert set(md.mass_route) == {"series"}
    # the numerator at the ground eigenvalue is the measure's first moment
    # of the resolvent at that point; sanity: negative derivative, positive mass
    assert np.all(md.masses > 0.0)


def test_product_representation_converges(sd8):
    # partial products prod(1 - z/lambda_j) approach the series value at
    # z = gamma/2, with the defect controlled by the reciprocal tail
    z = gamma_lower_bound(GEOM) / 2.0
    ser = series_pair(GEOM, 16, 60, 0)[0]
    target = eval_series(ser, z).value
    defects = []
    for J in range(2, 9):
        prod = float(np.prod(1.0 - z / sd8.lambdas[:J]))
        defects.append(abs(prod - target))
    assert defects[-1] < defects[0]
    from jspec.polycore import trace_inverse

    tail = trace_inverse(GEOM) - float(np.sum(1.0 / sd8.lambdas))
    assert defects[-1] <= abs(target) * (math.exp(z * tail) - 1.0) + 1e-13


def test_orthonormality(sd12):
    dev = orthonormality_check(GEOM, sd12, 8, tol=1e-6)
    assert dev <= 1e-6
    with pytest.raises(TailDominates):
        orthonormality_check(GEOM, point_spectrum(GEOM, 3, tol=1e-10), 8, tol=1e-10)


def test_weyl_three_routes(sd8):
    gamma = gamma_lower_bound(GEOM)
    for z in (0.0, -1.0, gamma / 2.0, float(np.sqrt(sd8.lambdas[1] * sd8.lambdas[2]))):
        w = weyl(GEOM, z, sd8)
        assert not w.series_failed
        vals = [w.series, w.poles, w.resolvent]
        assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(w.poles))
    w0 = weyl(GEOM, 0.0, sd8)
    assert w0.series == pytest.approx(second_kind_at_zero(GEOM, 0), rel=1e-12)


def test_weyl_asymptotics(sd8):
    w = weyl(GEOM, -1e6, sd8)
    assert w.poles == pytest.approx(1e-6, rel=0.02)


def test_weyl_rejects_spectrum_points(sd8):
    with pytest.raises(ValueError):
        weyl(GEOM, float(sd8.lambdas[2]), sd8)
    with pytest.raises(ValueError, match="too close"):
        weyl(GEOM, np.array([0.0, float(sd8.lambdas[2])]), sd8)


def test_weyl_point_array_keeps_the_bits_of_one_point_calls(sd8, monkeypatch):
    # the points fall into the truncation groups (14, 40), (16, 40) and
    # (18, 40); the series route certifies at the near points and fails at
    # the far ones, which sit next to them in the array
    gamma = gamma_lower_bound(GEOM)
    mid = float(np.sqrt(sd8.lambdas[1] * sd8.lambdas[2]))
    points = np.array([0.0, -1e10, gamma / 2.0, -1e12, mid, 1e13, -1e6])
    builds = []
    real = entire.series_pair

    def counting(*args, **kwargs):
        builds.append(args[1:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(entire, "series_pair", counting)
    w = weyl(GEOM, points, sd8)
    assert sorted(builds) == [(14, 40, 0), (16, 40, 0), (18, 40, 0)]
    assert w.series_failed.tolist() == [False, True, False, True, False, True, False]
    for i, z in enumerate(points.tolist()):
        one = weyl(GEOM, z, sd8)
        assert type(one.series_failed) is bool
        assert one.series_failed == w.series_failed[i]
        for f in ("series", "poles", "resolvent", "pole_tail_bound", "series_err_bound"):
            assert type(getattr(one, f)) is float
            assert np.float64(getattr(one, f)).tobytes() == w.__dict__[f][i].tobytes(), (f, z)


def test_second_kind_routes():
    primary, alt = second_kind_routes(GEOM, 2, 1.0)
    assert alt is not None
    assert primary == pytest.approx(alt, rel=1e-9)
    # n = 0 at the origin reduces to the zero-point series
    p0, a0 = second_kind_routes(GEOM, 0, 0.0)
    assert p0 == pytest.approx(second_kind_at_zero(GEOM, 0), rel=1e-12)
    assert a0 == pytest.approx(p0, rel=1e-10)
    p1, a1 = second_kind_routes(GEOM, 1, 0.5)
    assert p1 == pytest.approx(a1, rel=1e-6)


def test_second_kind_matches_weyl(sd8):
    z = -2.0
    w = weyl(GEOM, z, sd8)
    assert second_kind_routes(GEOM, 0, z)[0] == pytest.approx(w.poles, rel=1e-9)


def test_char_via_second_kind():
    ser = series_pair(GEOM, 16, 60, 0)[0]
    assert char_via_second_kind(GEOM, 0.0) == 1.0
    for z in (2.0, 5.0):
        direct = eval_series(ser, z).value
        assert char_via_second_kind(GEOM, z) == pytest.approx(direct, rel=1e-9)
    # slope at the origin is minus the trace of the inverse
    h = 1e-6
    slope = (char_via_second_kind(GEOM, h) - char_via_second_kind(GEOM, -h)) / (2.0 * h)
    assert slope == pytest.approx(-4.0 / 45.0, abs=1e-8)


def test_associated_operator():
    rep = associated_checks(GEOM, 60)
    assert rep.trace_rel_diff <= 1e-8
    assert np.max(rep.zero_rel_diffs) <= 1e-6
    assert rep.trace_sane
    assert rep.trace_direct == pytest.approx(REF_ASSOC_TRACE, rel=1e-10)
    # interlacing with the base spectrum: lambda_j < zero_j < lambda_{j+1};
    # for higher indices the zero and the next eigenvalue agree to every
    # float bit, so the comparison runs on the double-double words.  Each
    # root is only certified to its resolution err_bound/|F'|: a gap above
    # the summed resolutions of its two roots must be strictly positive,
    # and the one below them (i = 4: 6.2e-25 against 1.7e-20 + 4.7e-21)
    # must lie within that sum
    sd = point_spectrum(GEOM, 6, tol=1e-10)
    M, J = spectrum._series_context(GEOM, float(rep.associated_eigenvalues[-1]) * 1.3 + 1.0, 4)
    wser = series_pair(GEOM, M, J, 0)[1][0]
    M, J = spectrum._series_context(GEOM, float(sd.lambdas[-1]) * 1.3 + 1.0, sd.count + 10)
    fser = series_pair(GEOM, M, J, 0)[0]
    lam_res = [
        sd.residual_F_bound[j] / abs(eval_series_deriv(fser, sd.lambda_dd(j)).value)
        for j in range(6)
    ]
    for i in range(5):
        zero = (rep.numerator_zeros[i], rep.numerator_zeros_lo[i])
        zero_res = eval_series(wser, zero).err_bound / abs(eval_series_deriv(wser, zero).value)
        lo_gap, _ = dd_sub(*zero, *sd.lambda_dd(i))
        hi_gap, _ = dd_sub(*sd.lambda_dd(i + 1), *zero)
        assert lo_gap > zero_res + lam_res[i]
        if i < 4:
            assert hi_gap > zero_res + lam_res[i + 1]
        else:
            assert abs(hi_gap) <= zero_res + lam_res[i + 1]


def test_section_trace_matches_eigen_sum():
    T = truncate(GEOM, 12)
    lams = section_eigenvalues(T, 12)
    assert section_inverse_trace(T) == pytest.approx(float(np.sum(1.0 / lams)), rel=1e-12)


def test_interlacing_sections():
    prev = None
    for N in range(1, 16):
        lams = section_eigenvalues(truncate(GEOM, N), N)
        if prev is not None:
            for j in range(len(prev)):
                assert lams[j] <= prev[j] * (1.0 + 1e-14)
                assert prev[j] < lams[j + 1]
        prev = lams


def _mp_sturm_count(T, x) -> int:
    return mp_sturm_counts(T, [x])[0]


@pytest.mark.parametrize("params, count", [
    (GEOM, 13),
    (JacobiParams(PowerLaw(1.0, 2.0), 0.5), 8),
])
def test_section_eigenvalues_match_mpmath_sturm(params, count):
    rtol = 1e-13
    T = truncate(params, 112)
    lams = section_eigenvalues(T, count)
    for j, lam in enumerate(lams):
        assert _mp_sturm_count(T, lam * (1.0 - rtol)) == j
        assert _mp_sturm_count(T, lam * (1.0 + rtol)) == j + 1


def test_refine_root_ignores_seed_bits():
    # seeds a few hundred ulps apart must refine to the same double-double
    # zero of the numerator series, not to wherever |F| first fell below
    # its error bound
    T1 = associated_section(GEOM, 59)
    seeds = section_eigenvalues(T1, 5)
    M, J = spectrum._series_context(GEOM, float(seeds[-1]) * 1.3 + 1.0, 4)
    evaluate = entire._value_and_slope(series_pair(GEOM, M, J, 0)[1][0])
    hi, lo, moved = spectrum._refine_roots(evaluate, seeds)
    assert np.all(moved)
    for factor in (1.0 - 1e-13, 1.0 + 1e-13):
        other_hi, other_lo, _ = spectrum._refine_roots(evaluate, seeds * factor)
        diff, _ = dd_sub(other_hi, other_lo, hi, lo)
        assert np.all(np.abs(diff) <= 1e-30 * hi)


def test_newton_passes_run_over_f_and_fprime_alone(monkeypatch):
    # Newton evaluates only the roots that continue, and only F and F':
    # every pass it makes runs over the two-column table, though the
    # evaluator also holds the family's.  Seeds between two eigenvalues
    # step out of the basin and come back as their seed, unmoved
    lams = section_eigenvalues(truncate(GEOM, 64), 6)
    M, J = spectrum._series_context(GEOM, float(lams[-1]) * 1.3 + 1.0, 8)
    evaluate = entire._value_and_slope(*entire.series_pair(GEOM, M, J, 9))
    seeds = np.concatenate((lams, np.sqrt(lams[:-1] * lams[1:])))
    passes = _horner_passes(monkeypatch)
    hi, lo, moved = spectrum._refine_roots(evaluate, seeds)
    assert passes and all(columns == 2 for columns, _ in passes)
    assert moved[:6].all() and not moved[6:].any()
    assert _bits(hi[6:]) == _bits(seeds[6:]) and np.all(lo[6:] == 0.0)


def _constant_evaluator(f, fprime):
    """An F/F' evaluator reading F = f and F' = fprime (low words 0) everywhere."""

    def evaluate(zh, zl):
        n = len(zh)
        fe = SimpleNamespace(value=np.full(n, f), value_lo=np.zeros(n), err_bound=np.zeros(n))
        return fe, np.full(n, fprime), np.zeros(n)

    return evaluate


@pytest.mark.parametrize("f, fprime", [(math.nan, math.nan), (1e-3, 0.0), (0.0, 0.0)])
def test_newton_step_that_is_not_finite_returns_the_seed(f, fprime):
    # a NaN, infinite or 0/0 step fails the basin test like a step out of
    # the basin: the seed comes back exactly, unmoved, and no warning
    seeds = np.array([0.5, 2.0, 7.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hi, lo, moved = spectrum._refine_roots(_constant_evaluator(f, fprime), seeds)
    assert _bits(hi) == _bits(seeds) and np.all(lo == 0.0) and not moved.any()


def test_q4_request_runs_one_kernel_pass_and_no_derivative_pass(monkeypatch):
    # the characteristic series and the second-kind family come from one
    # pass of the chain-sum kernel, and F' at the eigenvalues from the wide
    # Horner pass at the returned roots
    calls = []
    for module, name in ((entire, "_chain_tables"), (entire, "eval_series_deriv")):
        inner = getattr(module, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    sd = point_spectrum(JacobiParams(Geometric(0.27), math.sqrt(0.27)), 10)
    assert sd.refined.all()
    assert calls == ["_chain_tables"]


Q2 = JacobiParams(Geometric(0.2), math.sqrt(0.2))  # the last of 12 roots stays unrefined


def _horner_passes(monkeypatch):
    """(table columns, points) of every ``entire._horner_dd`` pass from now on."""
    passes = []
    inner = entire._horner_dd

    def recorded(tables, zh, zl):
        passes.append((tables[0].shape[1], np.shape(zh)[0]))
        return inner(tables, zh, zl)

    monkeypatch.setattr(entire, "_horner_dd", recorded)
    return passes


def test_one_wide_pass_follows_newton(monkeypatch):
    # each Newton step makes one pass over the two-column table of F and F'
    # at the roots that continue; then one pass over the wide table of F,
    # F' and the family (shifts 0..count + 11) at every returned root.  At
    # q = 0.2 the last root finishes a step early and is not kept; its
    # section value takes one more wide pass, and no pass runs over the
    # family alone
    passes = _horner_passes(monkeypatch)
    sd = point_spectrum(GEOM, 8)
    assert sd.refined.all()
    assert passes == [(2, 8), (2, 8), (2 + 20, 8)]
    passes.clear()
    sd = point_spectrum(Q2, 12)
    assert sd.refined[:11].all() and not sd.refined[11]
    assert passes == [(2, 12), (2, 11), (2 + 24, 12), (2 + 24, 1)]


def test_associated_checks_make_two_narrow_passes(monkeypatch):
    # the numerator zeros take Newton's passes over W and W' alone: the
    # seeds and one step, after which every zero stops unevaluated
    passes = _horner_passes(monkeypatch)
    associated_checks(GEOM, 60)
    assert passes == [(2, 5), (2, 5)]


@pytest.mark.parametrize("params, count, exits", [(GEOM, 8, []), (Q2, 12, []), (GEOM, 8, [2, 5])])
def test_mass_machinery_gets_the_family_at_the_returned_eigenvalues(monkeypatch, params, count, exits):
    # one wide pass at Newton's roots, and one more at the seeds of moved
    # roots that are not kept (the last one at q = 0.2): each column of the
    # family, of F' and of the residual fields has the bits of eval_series
    # (eval_series_deriv) at the returned eigenvalue.  An exit is made by
    # starting Newton between two eigenvalues
    received = []
    mass_inner, refine_inner = spectrum._mass_machinery, spectrum._refine_roots

    def recorded(*args, **kwargs):
        received.append(args[4:6])
        return mass_inner(*args, **kwargs)

    def from_between(evaluate, seeds):
        starts = seeds.copy()
        starts[exits] = np.sqrt(seeds[exits] * seeds[[j + 1 for j in exits]])
        return refine_inner(evaluate, starts)

    monkeypatch.setattr(spectrum, "_mass_machinery", recorded)
    monkeypatch.setattr(spectrum, "_refine_roots", from_between)
    sd = point_spectrum(params, count)
    if exits:
        assert sd.refined.sum() == count - len(exits) and not sd.refined[exits].any()
    M, J = spectrum._series_context(params, float(sd.lambdas[-1]) * 1.3 + 1.0, count + 10)
    fser, fam = entire.series_pair(params, M, J, count + 11)
    at = (sd.lambdas, sd.lambdas_lo)
    ev = eval_series(fam, at)
    ((got, (fp_hi, fp_lo)),) = received
    for field in ("value", "value_lo", "kappa", "err_bound", "abs_sum"):
        assert _bits(getattr(got, field)) == _bits(getattr(ev, field)), field
    fe, fp = eval_series(fser, at), eval_series_deriv(fser, at)
    assert _bits(sd.residual_F) == _bits(np.abs(fe.value))
    assert _bits(sd.residual_F_bound) == _bits(fe.err_bound)
    assert _bits(sd.residual_F_abs_sum) == _bits(fe.abs_sum)
    assert _bits(fp_hi) == _bits(fp.value) and _bits(fp_lo) == _bits(fp.value_lo)


def test_factored_section_makes_no_sturm_sweeps():
    T = truncate(GEOM, 112)
    lams = section_eigenvalues(T, 13)
    assert lams[0] == pytest.approx(REF_LAMBDA0, rel=1e-13)
    assert np.all(np.diff(lams) > 0.0)


def test_factored_small_sections():
    # N = 1 has no bidiagonal to decompose and returns its pivot; N = 2
    # against the quadratic formula for [[12, 6], [6, 243]], the small root
    # taken as det / large
    assert list(section_eigenvalues(truncate(GEOM, 1), 3)) == [12.0]
    lams = section_eigenvalues(truncate(GEOM, 2), 2)
    big = (255.0 + math.sqrt(231.0**2 + 144.0)) / 2.0
    assert lams[1] == pytest.approx(big, rel=1e-15)
    assert lams[0] == pytest.approx((12.0 * 243.0 - 36.0) / big, rel=1e-15)


def test_svd_driver_failure_raises_convergence_failure(monkeypatch):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fails)
    with pytest.raises(ConvergenceFailure, match="SVD"):
        section_eigenvalues(truncate(GEOM, 28), 9)


def test_dqds_driver_raises_at_its_transform_cap(monkeypatch):
    # one transform per value asked for, plus one, finds only some of them:
    # the cap raises rather than returning what has deflated
    T = truncate(JacobiParams(PowerLaw(1.0, 2.0), 0.5), 112)
    assert len(section_eigenvalues(T, 9)) == 9
    monkeypatch.setattr(spectrum, "_SWEEPS", 1)
    with pytest.raises(ConvergenceFailure, match="found [0-8] of 9 eigenvalues in 10 transforms"):
        section_eigenvalues(T, 9)


def test_dqds_driver_raises_when_every_transform_fails(monkeypatch):
    monkeypatch.setattr(spectrum, "_dqds_transform", lambda q, e, tau: (None, 0, -1.0))
    with pytest.raises(ConvergenceFailure, match="found 0 of 9 eigenvalues in 300 transforms"):
        section_eigenvalues(truncate(GEOM, 100), 9)


def test_dqds_finds_a_smaller_value_behind_a_near_split():
    # the last row is all but decoupled (l = 1e-20), so its value 3 deflates
    # first although the block above it holds eigenvalues down to about 1/8
    # (the least pivot lies in the lower half, so the array is not
    # reversed): the check after the deflations finds them and keeps going
    d = np.array([5.0] * 70 + [0.5] * 49 + [3.0])
    l = np.array([0.5] * 118 + [1e-20])
    T = TruncatedJacobi(d=d, l=l)
    L = np.eye(120) + np.diag(l, -1)
    dense = np.linalg.eigvalsh(L @ np.diag(d) @ L.T)
    for count in (1, 3):
        lams = section_eigenvalues(T, count)
        assert np.allclose(lams, dense[:count], rtol=1e-13, atol=0.0), (lams, dense[:count])


def test_dqds_orients_a_falling_prefix_to_the_bottom(monkeypatch):
    # the least pivot sits at row 1 while d[-1] < d[0]: oriented by its ends,
    # dqds would have to carry the small end through 448 rows and met its
    # transform cap; the dense SVD driver is the reference
    T = associated_section(
        JacobiParams(Explicit((11825946.79, 1.3276e-08, 9.645e-05), PowerLaw(1.0, 1.677)), 0.7224), 448
    )
    assert T.d[-1] < T.d[0] and int(np.argmin(T.d)) == 1
    lams = section_eigenvalues(T, 3)
    monkeypatch.setattr(spectrum, "_COUNT_FROM", 10**9)
    assert np.allclose(lams, section_eigenvalues(T, 3), rtol=1e-14, atol=0.0)


def _mp_tridiagonal(diag, off):
    A = mpmath.zeros(len(diag), len(diag))
    for n, b in enumerate(diag):
        A[n, n] = b
    for n, o in enumerate(off):
        A[n, n + 1] = A[n + 1, n] = o
    return A


def _mp_eigsy(diag, off, dps):
    """All eigenvalues, ascending, of the tridiagonal with the given entries."""
    with mpmath.workdps(dps):
        return sorted(mpmath.eigsy(_mp_tridiagonal(diag, off), eigvals_only=True))


def _mp_inverse_trace(diag, off):
    """Trace of the tridiagonal inverse, sum_i theta_i phi_{i+1} / theta_N,
    from the leading minors theta and the trailing minors phi."""
    N = len(diag)
    theta = [mpmath.mpf(1), diag[0]]
    for i in range(1, N):
        theta.append(diag[i] * theta[i] - off[i - 1] ** 2 * theta[i - 1])
    phi = [mpmath.mpf(1), diag[-1]]  # phi[j] is the minor of the last j rows
    for i in range(N - 2, -1, -1):
        phi.append(diag[i] * phi[-1] - off[i] ** 2 * phi[-2])
    return mpmath.fsum(theta[i] * phi[N - 1 - i] for i in range(N)) / theta[N]


def _mp_section_eigenvalues(T, count, dps):
    """Lowest eigenvalues of the exact section L D L^T built from T's float factor."""
    with mpmath.workdps(dps):
        return _mp_eigsy(*mp_section(T), dps)[:count]


@pytest.mark.parametrize("params, N, count, dps, rel", [
    # prefixes falling faster than k^2: forming beta in floats loses the
    # small eigenvalues (bisection on it is 0.63 and 7e-8 off)
    (JacobiParams(Explicit((1e8, 1e4, 1.0, 1e-4, 1e-8), PowerLaw(1.0, 2.0)), 0.99), 40, 3, 40, 1e-13),
    (JacobiParams(Explicit((1e6, 1.0, 1e-3, 5.0), PowerLaw(1.0, 2.0)), 0.9), 40, 4, 40, 1e-13),
    (JacobiParams(Geometric(0.97), math.sqrt(0.97)), 60, 4, 40, 2e-13),
    (JacobiParams(PowerLaw(1.0, 2.0), 0.99), 60, 6, 40, 1e-13),
    (GEOM, 48, 8, 200, 1e-15),
])
def test_factored_section_matches_mpmath_eigsy(params, N, count, dps, rel):
    T = truncate(params, N)
    lams = section_eigenvalues(T, count)
    ref = _mp_section_eigenvalues(T, count, dps)
    for lam, r in zip(lams, ref):
        assert abs(lam - float(r)) <= rel * float(r)


EXPLICIT = JacobiParams(Explicit((1e8, 1e4, 1.0, 1e-4, 1e-8), PowerLaw(1.0, 2.0)), 0.99)


@st.composite
def _sections(draw):
    family = draw(st.sampled_from(["geometric", "powerlaw", "explicit"]))
    k = draw(st.floats(0.05, 0.99))
    if family == "geometric":
        seq = Geometric(draw(st.floats(0.2, 0.95)))
    elif family == "powerlaw":
        seq = PowerLaw(draw(st.floats(0.1, 10.0)), draw(st.floats(1.2, 3.0)))
    else:
        exps = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
        seq = Explicit(tuple(10.0**e for e in exps), PowerLaw(1.0, 2.0))
    build = draw(st.sampled_from([truncate, associated_section]))
    return build(JacobiParams(seq, k), draw(st.integers(2, 60)))


@settings(max_examples=60, deadline=None)
@given(T=_sections())
def test_sturm_count_separates_section_eigenvalues(T):
    # dstqds counts on the factor put exactly j + 1 eigenvalues below the
    # geometric midpoint of the j-th and (j+1)-th
    lams = section_eigenvalues(T, 10)
    assert np.all(lams > 0.0)
    for j in range(len(lams) - 1):
        mid = math.sqrt(lams[j]) * math.sqrt(lams[j + 1])
        assert sturm_count(T, mid) == j + 1
    assert sturm_count(T, lams[0] / 2.0) == 0


def _mp_associated_section(params, N):
    """Diagonal and off-diagonal of the exact N-row associated section built
    from the float a_n and k, at the working precision."""
    a, _, _ = entry_arrays(params, N + 1)
    k = mpmath.mpf(params.k)
    a = [mpmath.mpf(float(x)) for x in a]
    return [a[n + 1] + k * k * a[n] for n in range(N)], [k * a[n + 1] for n in range(N - 1)]


def _mp_associated_eigenvalues(params, N, count, dps):
    """Lowest eigenvalues of the exact associated section built from the float a_n."""
    with mpmath.workdps(dps):
        return _mp_eigsy(*_mp_associated_section(params, N), dps)[:count]


@pytest.mark.parametrize("params, dps, rel", [
    (GEOM, 200, 1e-15),
    (JacobiParams(Geometric(0.9), math.sqrt(0.9)), 60, 2e-14),
    (JacobiParams(PowerLaw(1.0, 2.0), 0.99), 60, 2e-14),
    (EXPLICIT, 60, 2e-14),
])
def test_associated_section_matches_mpmath_eigsy(params, dps, rel):
    # the associated pivots are formed without subtraction, so the factored
    # engine keeps its relative accuracy on the associated operator too
    lams = section_eigenvalues(associated_section(params, 40), 6)
    ref = _mp_associated_eigenvalues(params, 40, 6, dps)
    for lam, r in zip(lams, ref):
        assert abs(lam - float(r)) <= rel * float(r)


def test_associated_trace_routes_on_decreasing_prefix():
    # route (b) solved on the float beta of the 60-row section here and gave
    # trace_rel_diff = 1.6e5; both routes now run on factors
    rep = associated_checks(EXPLICIT, 60)
    assert rep.trace_rel_diff <= 1e-8
    with mpmath.workdps(60):
        ref = float(_mp_inverse_trace(*_mp_associated_section(EXPLICIT, 59)))
    assert abs(rep.trace_direct - ref) <= 1e-12 * ref


def test_section_inverse_trace_on_decreasing_prefix():
    # the float-beta recurrences returned 0.109 relative below sum 1/lambda here
    T = truncate(EXPLICIT, 40)
    with mpmath.workdps(60):
        ref = mpmath.fsum(1 / lam for lam in _mp_section_eigenvalues(T, 40, 60))
    assert section_inverse_trace(T) == pytest.approx(float(ref), rel=1e-13)
    # the float recurrence R_{i+1} = 1 + l_i^2 R_i and the compensated sum
    # against sum_i R_i / d_i in 50 digits on the same float factor
    for T in (T, truncate(GEOM, 40)):
        with mpmath.workdps(50):
            R, terms = mpmath.mpf(1), []
            for i in range(T.size):
                terms.append(R / mpmath.mpf(float(T.d[i])))
                if i < T.size - 1:
                    R = 1 + mpmath.mpf(float(T.l[i])) ** 2 * R
            ref = mpmath.fsum(terms)
        assert section_inverse_trace(T) == pytest.approx(float(ref), rel=4e-16)


def test_indefinite_section_rejected():
    for d, l in (([-1.0, 2.0], [2.0]), ([1.0, 0.0], [2.0]), ([1.0, 1.0], [-2.0]),
                 ([1.0, 1.0], [0.0]), ([1.0, 1.0], [0.5, 0.5])):
        with pytest.raises(ValueError):
            TruncatedJacobi(d=np.array(d), l=np.array(l))


def test_completeness_defect_on_decreasing_prefix():
    # with the factored trace the defect is the section's missing tail,
    # sum_{i >= N} (1 - k^{2i+2}) / ((1 - k^2) a_i), not a cancellation artefact
    sd = point_spectrum(EXPLICIT, 3)
    tail = tail_sum_reciprocal(EXPLICIT.seq, sd.N_used) / (1.0 - EXPLICIT.k**2)
    assert tail / 2.0 <= sd.completeness_defect <= 2.0 * tail


@pytest.mark.parametrize("params", [
    pytest.param(GEOM, id="q-quarter"),
    pytest.param(JacobiParams(PowerLaw(1.0, 2.0), 0.5), id="p2"),
    pytest.param(JacobiParams(PowerLaw(1.0, 1.5), 0.9), id="p1.5-k0.9"),
])
def test_completeness_defect_is_the_trace_beyond_the_section(params):
    # the defect is the upper end of the closed tail of the inverse trace
    # that the N_used-row section leaves out; it does not show that no
    # eigenvalue was missed (0.70 at p = 1.5, k = 0.9 with every eigenvalue
    # right).  The section's own trace plus that tail is the closed trace.
    sd = point_spectrum(params, 8)
    tail, tail_err = _trace_tail(params, sd.N_used - 1)
    assert max(tail, tail_err) <= sd.completeness_defect <= tail + tail_err
    trace = trace_inverse(params, tol=1e-15)
    section = section_inverse_trace(truncate(params, sd.N_used))
    assert abs(section + tail - trace) <= tail_err + 16.0 * np.finfo(float).eps * trace


# masses of an 80-digit mpmath eigsy of the exact 60- and 120-row sections,
# which agree on these digits
EXPLICIT_MASSES = (0.19204806, 0.050474911)


def test_explicit_masses_match_eigsy_oracle():
    # every mass takes the matrix-side route here; the polynomial recurrence
    # on the float beta gave mu_0 = 1.0 and a mass sum of 1.0505
    sd = point_spectrum(EXPLICIT, 3)
    assert set(sd.mass_route) == {"fallback"}
    for mu, ref in zip(sd.masses, EXPLICIT_MASSES):
        assert abs(mu - ref) <= 1e-7
    assert float(np.sum(sd.masses)) <= 1.0 + 1e-12


def _mp_section_masses(T, dps):
    """Squared first components of the normalized eigenvectors of the exact
    section, in increasing order of the eigenvalue."""
    with mpmath.workdps(dps):
        E, Q = mpmath.eigsy(_mp_tridiagonal(*mp_section(T)))
        return [Q[0, j] ** 2 for j in sorted(range(T.size), key=lambda j: E[j])]


@st.composite
def _mass_params(draw):
    family = draw(st.sampled_from(["geometric", "powerlaw", "explicit"]))
    k = draw(st.floats(0.2, 0.9))
    if family == "geometric":
        seq = Geometric(draw(st.floats(0.1, 0.5)))
    elif family == "powerlaw":
        seq = PowerLaw(1.0, draw(st.floats(1.5, 3.0)))
    else:
        exps = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
        seq = Explicit(tuple(10.0**e for e in sorted(exps, reverse=True)), PowerLaw(1.0, 2.0))
    return JacobiParams(seq, k)


@settings(max_examples=20, deadline=None)
@given(params=_mass_params())
def test_twisted_masses_match_mpmath_eigsy(params):
    # z_0^2 / ||z||^2 at the section eigenvalues against a 100-digit
    # eigendecomposition of the same section
    T = truncate(params, 24)
    z, _ = spectrum._twisted_vectors(T, section_eigenvalues(T, 24))
    masses = z[0] * z[0] / np.sum(z * z, axis=0)
    assert float(np.sum(masses)) <= 1.0 + 1e-12
    for mu, ref in zip(masses, _mp_section_masses(T, 100)):
        if ref >= 1e-30:
            assert abs(mu - float(ref)) <= 1e-10 * float(ref)


def test_weyl_resolvent_matches_mpmath_solve():
    # [(T - z)^{-1}]_00 on the 60-row section against a 60-digit solve of
    # the same section; the banded solve on the float beta was off by up to
    # 2.5e-3 relative here
    T = truncate(EXPLICIT, 60)
    lams = section_eigenvalues(T, 3)
    sd = dataclasses.replace(point_spectrum(EXPLICIT, 3), N_used=60)
    with mpmath.workdps(60):
        diag, off = mp_section(T)
        e0 = mpmath.zeros(T.size, 1)
        e0[0] = 1
    for z in (0.0, -1.0, math.sqrt(lams[0] * lams[1]), math.sqrt(lams[1] * lams[2])):
        with mpmath.workdps(60):
            A = _mp_tridiagonal([b - mpmath.mpf(z) for b in diag], off)
            ref = float(mpmath.lu_solve(A, e0)[0])
        assert abs(weyl(EXPLICIT, z, sd).resolvent - ref) <= 1e-14 * abs(ref)


def test_char_via_second_kind_raises_when_unsettled():
    with pytest.raises(ConvergenceFailure):
        char_via_second_kind(JacobiParams(PowerLaw(1.0, 2.0), 0.5), 2.0)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_char_via_second_kind_is_one_at_zero(p):
    # F(0) = 1 for every admissible sequence; next to 0 the power-law terms
    # still decay too slowly to settle in 512 terms
    params = JacobiParams(PowerLaw(1.0, p), 0.5)
    assert char_via_second_kind(params, 0.0) == 1.0
    assert char_via_second_kind(params, -0.0) == 1.0
    with pytest.raises(ConvergenceFailure):
        char_via_second_kind(params, 1e-3)


def test_second_kind_product_sum_raises_when_unsettled():
    # at q = 0.97 the sum has not settled by index n + 64 (it stood at
    # 88.1857 there, against w_0(0) = 88.2173)
    with pytest.raises(ConvergenceFailure):
        spectrum._second_kind_product_sum(JacobiParams(Geometric(0.97), math.sqrt(0.97)), 0, 0.0)


def _horner_calls(monkeypatch, params, count):
    from jspec import entire

    calls = []
    inner = entire._horner_dd

    def counted(*args):
        calls.append(1)
        return inner(*args)

    with monkeypatch.context() as m:
        m.setattr(entire, "_horner_dd", counted)
        point_spectrum(params, count)
    return len(calls)


def test_point_spectrum_evaluates_all_roots_at_once(monkeypatch):
    # every Newton round, F' at the roots and the second-kind family take
    # one Horner pass over all eigenvalues, so the count does not grow with
    # the number of eigenvalues (it was 8 passes per eigenvalue)
    at8 = _horner_calls(monkeypatch, GEOM, 8)
    assert at8 == _horner_calls(monkeypatch, GEOM, 12)
    assert at8 <= 10


def test_no_size_that_certifies_raises(monkeypatch):
    monkeypatch.setattr(spectrum, "_enclosure", lambda *args: None)
    with pytest.raises(ConvergenceFailure, match=re.escape(
        "no section of up to 28672 rows brackets the first 8 eigenvalues to a relative 1e-10"
    )):
        point_spectrum(GEOM, 8)


def test_small_scale_power_law_returns_its_section_values():
    # at c = 1e-8 the weights 1/((1-k^2) a_j) are about 1e8 and the fallback
    # series' coefficients leave the float range from order 45: it is built
    # without a warning and never evaluated, and the brackets certify at 56
    # rows.  The operator is the c = 1 operator scaled by c
    params = JacobiParams(PowerLaw(1e-8, 1.3), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sd = point_spectrum(params, 8)
    assert sd.N_used == 56 and not sd.refined.any()
    assert np.all(sd.lambda_err <= 1e-10 * sd.lambdas)
    assert np.all(np.isnan(sd.residual_F)) and np.all(sd.residual_F_bound == math.inf)
    unit = point_spectrum(JacobiParams(PowerLaw(1.0, 1.3), 0.5), 8)
    assert np.all(np.abs(sd.lambdas - 1e-8 * unit.lambdas) <= 1e-10 * sd.lambdas)


def test_newton_cap_raises(monkeypatch):
    # at q = 1/4 every root needs two Newton steps; a root still moving at
    # the cap raises instead of passing as refined
    monkeypatch.setattr(spectrum, "_NEWTON_CAP", 1)
    with pytest.raises(ConvergenceFailure):
        point_spectrum(GEOM, 8)


@pytest.mark.parametrize("params", [GEOM, JacobiParams(PowerLaw(1.0, 2.0), 0.5), EXPLICIT])
def test_twisted_vectors_match_one_shift_at_a_time(params):
    # one pair of qd sweeps for all section eigenvalues, twisted per
    # column, gives every vector the bits of its own computation
    T = truncate(params, 60)
    lams = section_eigenvalues(T, 8)
    z, gamma_r = spectrum._twisted_vectors(T, lams)
    for j in range(len(lams)):
        zj, gj = spectrum._twisted_vectors(T, lams[j : j + 1])
        assert _bits(z[:, j : j + 1]) == _bits(zj) and _bits(gamma_r[j : j + 1]) == _bits(gj), j


def _bits(x):
    return np.asarray(x).tobytes()


def test_phi_tail_sq_bails_out_on_an_envelope_that_does_not_decay(monkeypatch):
    # envelope 1 + n from n_max + 1 = 11 on: 12^2 plus 12^2 / (1 - k^2)
    monkeypatch.setattr(spectrum, "_envelope_factors", lambda params, n: (1.0 + n, 0.0))
    assert spectrum._phi_tail_sq(GEOM, 10, 1.0, []) == 144.0 + 144.0 / 0.75


def _qd_sweep_by_rows(add, mul, first, x):
    """The qd sweep as one numpy step per row over all shifts: the reference
    the scalar kernel ``spectrum._qd_sweep`` must reproduce bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = first - x
    pivots, ts = [], [t]
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, m in zip(add.tolist(), mul.tolist()):
            pivots.append(a + t)
            ratio = t / pivots[-1]
            ratio[ratio != ratio] = 1.0  # -inf / -inf after a zero pivot
            t = ratio * m - x
            ts.append(t)
    return np.array(pivots).reshape(len(add), x.size), np.array(ts)


def _qd_cases():
    T = truncate(GEOM, 64)
    yield pytest.param("sections", T, section_eigenvalues(T, 13), id="q4-N64")
    T = truncate(JacobiParams(PowerLaw(1.0, 2.0), 0.5), 112)
    yield pytest.param("sections", T, section_eigenvalues(T, 8), id="powerlaw-N112")
    T = truncate(EXPLICIT, 60)
    yield pytest.param("sections", T, section_eigenvalues(T, 8), id="explicit")
    for tag, params in (("q4", GEOM), ("explicit", EXPLICIT)):
        T = truncate(params, 40)
        # x = d_0 makes the first stationary pivot exactly zero
        yield pytest.param("zero-pivot", T, T.d[:1], id=f"zero-pivot-{tag}")
        yield pytest.param("above-spectrum", T, 2.0 * section_eigenvalues(T, 40)[-1:],
                           id=f"above-spectrum-{tag}")


@pytest.mark.parametrize("name, T, x", list(_qd_cases()))
def test_qd_sweep_matches_the_row_by_row_reference(name, T, x):
    ld = T.d[:-1] * T.l
    for sweep in ((T.d[:-1], ld * T.l, 0.0), ((ld * T.l)[::-1], T.d[-2::-1], T.d[-1])):
        for got, ref in zip(spectrum._qd_sweep(*sweep, x), _qd_sweep_by_rows(*sweep, x)):
            # the bits also tell a zero pivot's sign
            assert np.array_equal(got, ref, equal_nan=True) and _bits(got) == _bits(ref)
    if name == "zero-pivot":
        assert spectrum._stationary(T, x)[0][0, 0] == 0.0
        assert sturm_count(T, float(x[0])) == _mp_sturm_count(T, float(x[0]))
    if name == "above-spectrum":
        assert sturm_count(T, float(x[0])) == T.size


@pytest.mark.parametrize("params, count", [
    (GEOM, 12),
    (JacobiParams(PowerLaw(1.0, 2.0), 0.5), 8),
    (EXPLICIT, 3),
])
def test_batched_stages_match_one_root_at_a_time(params, count):
    # Newton and the mass machinery over all roots give every root the
    # bits of the same stage run on that root alone (EXPLICIT takes the
    # fallback route, whose rows come from the section's twisted vectors)
    sd = point_spectrum(params, count)
    M, J = spectrum._series_context(params, float(sd.lambdas[-1]) * 1.3 + 1.0, count + 10)
    fser, fam = series_pair(params, M, J, count + 11)
    T = truncate(params, sd.N_used)
    seeds = section_eigenvalues(T, count)
    evaluate = entire._value_and_slope(fser, fam)
    every = spectrum._refine_roots(evaluate, seeds)
    fp = eval_series_deriv(fser, (sd.lambdas, sd.lambdas_lo))
    fprime = (fp.value, fp.value_lo)
    fam_ev = eval_series(fam, (sd.lambdas, sd.lambdas_lo))
    md = spectrum._mass_machinery(params, sd.lambdas, sd.lambdas_lo, count + 10, fam_ev, fprime, T, seeds)
    for j in range(count):
        one = spectrum._refine_roots(evaluate, seeds[j : j + 1])
        assert all(_bits(a[..., j : j + 1]) == _bits(b) for a, b in zip(every, one)), j
        fpj = eval_series_deriv(fser, (sd.lambdas[j : j + 1], sd.lambdas_lo[j : j + 1]))
        assert _bits(fpj.value) == _bits(fp.value[j : j + 1]), j
        evj = eval_series(fam, (sd.lambdas[j : j + 1], sd.lambdas_lo[j : j + 1]))
        mj = spectrum._mass_machinery(
            params, sd.lambdas[j : j + 1], sd.lambdas_lo[j : j + 1], count + 10, evj,
            (fpj.value, fpj.value_lo), T, seeds[j : j + 1]
        )
        assert md.mass_route[j] == mj.mass_route[0]
        for field in ("masses", "masses_quadrature", "vectors", "vectors_lo", "weyl_numerators",
                      "fprime", "norm_residuals", "eigen_residuals", "certified_from"):
            assert _bits(getattr(md, field)[j : j + 1]) == _bits(getattr(mj, field)), (j, field)


@pytest.mark.parametrize("q, count", [(0.25, 8), (0.27, 10), (0.9, 6)])
def test_point_spectrum_skips_the_norm_identity(monkeypatch, q, count):
    # point_spectrum reports no norm residual, so it forms neither the tail
    # bound nor F'W; its masses and matrix residuals keep the bits of the
    # mass machinery run in full by masses_and_vectors
    params = JacobiParams(Geometric(q), math.sqrt(q))
    tails = []
    inner = spectrum._phi_tail_sq

    def counted(*args):
        tails.append(1)
        return inner(*args)

    monkeypatch.setattr(spectrum, "_phi_tail_sq", counted)
    sd = point_spectrum(params, count)
    assert not tails
    md = masses_and_vectors(params, sd, count + 10)
    assert tails and np.isfinite(md.norm_residuals).any()
    assert _bits(sd.masses) == _bits(md.masses)
    assert _bits(sd.residual_matrix) == _bits(md.eigen_residuals)


POWERLAW = JacobiParams(PowerLaw(1.0, 2.0), 0.5)


def _series_calls(monkeypatch, params, count):
    calls = []
    for name in ("series_pair", "_refine_roots"):
        inner = getattr(spectrum, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(spectrum, name, counted)
    return point_spectrum(params, count), calls


def test_hopeless_series_is_never_built(monkeypatch):
    # at p = 2 the weight beyond the cutoff (J = 192) bounds every series
    # value too loosely to refine a root or certify a mass, so no series
    # is built and the section values come back with their Gauss weights
    sd, calls = _series_calls(monkeypatch, POWERLAW, 8)
    assert calls == []
    assert not sd.refined.any() and sd.mass_route == ["fallback"] * 8
    assert np.all(np.isnan(sd.residual_F)) and np.all(np.isnan(sd.residual_F_abs_sum))
    assert np.all(sd.residual_F_bound == math.inf)
    assert _bits(sd.masses) == _bits(sd.masses_quadrature)
    assert np.all(sd.residual_matrix <= 1e-12)


def test_screen_keeps_series_where_a_root_refines(monkeypatch):
    # a decreasing prefix puts lambda_0 near 2e-9, where the omitted-index
    # term is small enough for Newton to certify it
    sd, calls = _series_calls(monkeypatch, EXPLICIT, 3)
    assert {"series_pair", "_refine_roots"} <= set(calls)
    assert sd.refined[0]
    assert np.all(np.isfinite(sd.residual_F))


def test_explicit_refined_root_lies_in_its_bracket():
    # Newton moves lambda_0 = 2.08106657e-9 about 2.09e-13 relative above
    # theta_0 (its certificate is an absolute 1e-10, 5% of lambda_0); the
    # returned value must lie inside its bracket, and the 4 N_used-row
    # section's lambda_0 within lambda_err of it
    sd = point_spectrum(EXPLICIT, 3)
    enc = spectrum._enclosure(EXPLICIT, sd.N_used, 3, 1e-10)
    lam, err = float(sd.lambdas[0]), float(sd.lambda_err[0])
    assert enc.lower[0] <= lam <= enc.upper[0]
    below = mp_sturm_counts(truncate(EXPLICIT, 4 * sd.N_used), [lam - err, lam + err])
    assert below[0] == 0 and below[1] >= 1


def test_refined_root_outside_its_bracket_keeps_the_section_value(monkeypatch):
    # roots nudged out of their brackets, where their certificates still
    # pass by 17 orders: every eigenvalue falls back to its section value
    # and the bracket width
    inner = spectrum._refine_roots

    def nudged(*args):
        hi, lo, moved = inner(*args)
        return hi * (1.0 + 1e-9), lo, moved

    monkeypatch.setattr(spectrum, "_refine_roots", nudged)
    sd = point_spectrum(GEOM, 8)
    enc = spectrum._enclosure(GEOM, sd.N_used, 8, 1e-10)
    assert not sd.refined.any()
    assert _bits(sd.lambdas) == _bits(enc.theta[:8])
    assert _bits(sd.lambda_err) == _bits(enc.upper[:8] - enc.lower[:8])


def test_k_near_one_with_slowly_growing_weights_is_bracketed(monkeypatch):
    # the tail pays for the split at the rate (1-k)/(1+k): at k = 0.99 the
    # bracket certifies at 3584 rows, half of what stabilization needed;
    # from 100 rows on T_low is counted, never solved
    params = JacobiParams(PowerLaw(1.0, 1.2), 0.99)
    sizes = []
    inner = spectrum.section_eigenvalues

    def recorded(T, count):
        sizes.append(T.size)
        return inner(T, count)

    monkeypatch.setattr(spectrum, "section_eigenvalues", recorded)
    sd = point_spectrum(params, 8)
    assert sd.N_used <= 3584 and sizes.count(sd.N_used) == 1
    assert np.all(sd.lambda_err <= 1e-10 * sd.lambdas)
    lower = spectrum._enclosure(params, sd.N_used, 8, 1e-10).lower
    below = mp_sturm_counts(truncate(params, 2 * sd.N_used), list(lower))
    assert all(c <= j for j, c in enumerate(below)), below


def test_a_size_whose_bracket_is_too_wide_is_passed_over():
    # at 48 rows the tail barely clears theta_4: T_low's lowest eigenvalue
    # lies far below theta_0, so the bracket is too wide and a larger size
    # certifies
    params = JacobiParams(PowerLaw(1.0, 2.0), 0.9)
    enc = spectrum._enclosure(params, 48, 4, 1e-10)
    assert enc.upper[0] - enc.lower[0] > 1e-10 * enc.theta[0]
    assert point_spectrum(params, 4).N_used == 192


@pytest.mark.parametrize(
    "params, tol", [(POWERLAW, 1e-14), (JacobiParams(PowerLaw(1.0, 1.5), 0.9), 1e-13)]
)
def test_tolerance_below_the_modelled_margin_checks_the_ends(params, tol):
    # 4 N eps exceeds tol/4: the ends lie 0.4 tol from the section values,
    # each checked by a double-double Sturm count
    sd = point_spectrum(params, 4, tol=tol)
    assert 4 * sd.N_used * np.finfo(float).eps > tol / 4
    assert np.all(sd.lambda_err <= tol * sd.lambdas)
    enc = spectrum._enclosure(params, sd.N_used, 4, tol)
    assert _bits(sd.lambda_err) == _bits(enc.upper[:4] - enc.lower[:4])
    below_upper = mp_sturm_counts(truncate(params, sd.N_used), list(enc.upper[:4]))
    below_lower = mp_sturm_counts(truncate(params, 4 * sd.N_used), list(enc.lower))
    assert all(c >= j + 1 for j, c in enumerate(below_upper)), below_upper
    assert all(c <= j for j, c in enumerate(below_lower)), below_lower


def test_solved_lower_end_above_its_section_value_refuses_the_size(monkeypatch):
    # a T_low solve 1e-9 above T, which rounding within the margin cannot
    # give, means no bracket at this size
    assert spectrum._enclosure(GEOM, 32, 8, 1e-10) is not None
    inner = spectrum.section_eigenvalues

    def t_low_high(T, count):
        low = not np.array_equal(T.d, truncate(GEOM, T.size).d)
        return inner(T, count) * (1.0 + 1e-9 if low else 1.0)

    monkeypatch.setattr(spectrum, "section_eigenvalues", t_low_high)
    assert spectrum._enclosure(GEOM, 32, 8, 1e-10) is None


def test_checked_upper_end_that_fails_its_count_raises(monkeypatch):
    # every section value 1e-12 low: the checked upper ends theta (1 + s),
    # s = 4e-15, fall below the eigenvalues, and their double-double counts
    # say so
    inner = spectrum.section_eigenvalues
    monkeypatch.setattr(spectrum, "section_eigenvalues", lambda T, count: inner(T, count) * (1.0 - 1e-12))
    with pytest.raises(ConvergenceFailure, match="not within a relative 4e-15"):
        point_spectrum(POWERLAW, 4, tol=1e-14)


@pytest.mark.parametrize("params", [GEOM, POWERLAW])
def test_double_double_counts_take_a_zero_pivot_from_above(params):
    # at x = d_0 the first pivot is exactly 0: it is not counted, and the
    # next one is -inf, as in the float count and the 200-bit oracle
    T = truncate(params, 32)
    x = float(T.d[0])
    assert spectrum._sturm_counts_dd(T, [x]) == [1] == [sturm_count(T, x)] == mp_sturm_counts(T, [x])


@pytest.mark.parametrize("rows", [1, 32])
def test_double_double_counts_refuse_a_nan(rows):
    # a NaN pivot inside the recurrence, or at the last row, gives None
    assert spectrum._sturm_counts_dd(truncate(GEOM, rows), [math.nan]) is None


def test_mass_from_a_negated_slope_raises():
    # mu = -W/F': a sign-flipped F' makes every series mass negative
    sd = point_spectrum(GEOM, 8)
    M, J = spectrum._series_context(GEOM, float(sd.lambdas[-1]) * 1.3 + 1.0, 18)
    fser, fam = series_pair(GEOM, M, J, 19)
    at = (sd.lambdas, sd.lambdas_lo)
    fp = eval_series_deriv(fser, at)
    T = truncate(GEOM, sd.N_used)
    with pytest.raises(MassNegative):
        spectrum._mass_machinery(
            GEOM, *at, 18, eval_series(fam, at), (-fp.value, -fp.value_lo), T, section_eigenvalues(T, 8)
        )


def test_tolerance_below_the_floor_needs_the_series_certificate():
    # 1e-15 is below the narrowest bracket the size loop aims for (16 eps):
    # refined geometric roots meet it through their certificates, the
    # power-law section values do not
    sd = point_spectrum(GEOM, 8, tol=1e-15)
    assert sd.refined.all() and np.all(sd.lambda_err <= 1e-15 * sd.lambdas)
    with pytest.raises(ConvergenceFailure, match="series does not certify"):
        point_spectrum(POWERLAW, 8, tol=1e-15)


_SCREEN_FIELDS = ("lambdas", "masses", "masses_quadrature", "residual_matrix")


@st.composite
def _screen_cases(draw):
    k = draw(st.floats(0.1, 0.95))
    kind = draw(st.sampled_from(["powerlaw", "geometric", "explicit"]))
    if kind == "powerlaw":
        seq = PowerLaw(1.0, draw(st.floats(1.3, 3.0)))
    elif kind == "geometric":
        seq = Geometric(draw(st.floats(0.1, 0.9)))
    else:
        exponents = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=10))
        seq = Explicit(tuple(10.0**e for e in exponents), PowerLaw(1.0, draw(st.floats(1.3, 3.0))))
    return JacobiParams(seq, k), draw(st.integers(1, 8))


@settings(max_examples=40, deadline=None)
@given(case=_screen_cases())
def test_series_screen_is_sound(case):
    # every root the screen calls hopeless is, on the full path, neither
    # refined nor weighed by a series entry; when all are, skipping the
    # series changes no field but the residual_F ones
    params, count = case
    inner = spectrum._series_hopeless
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectrum, "_series_hopeless", lambda *args: seen.append(inner(*args)) or seen[-1])
        screened = point_spectrum(params, count)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectrum, "_series_hopeless", lambda *args: np.zeros(count, dtype=bool))
        full = point_spectrum(params, count)
    hopeless = seen[0]
    assert not full.refined[hopeless].any()
    assert all(full.mass_route[j] == "fallback" for j in np.flatnonzero(hopeless))
    fields = _SCREEN_FIELDS + (() if hopeless.all() else ("residual_F", "residual_F_bound", "refined"))
    for field in fields:
        assert _bits(getattr(screened, field)) == _bits(getattr(full, field)), field
    assert screened.mass_route == full.mass_route
    assert (screened.N_used, screened.completeness_defect, screened.lambda_next_lower) == (
        full.N_used, full.completeness_defect, full.lambda_next_lower
    )
