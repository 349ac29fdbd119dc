"""Spectral pipeline tests against independent oracles.

The 2x2 section eigenvalues come from the quadratic formula, the masses
from a 120-digit reference run (Christoffel sum, numerator/derivative
quotient and measure completeness all agree on these digits), and the Weyl
function from its three structurally different routes.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jspec import spectrum
from jspec.doubledouble import dd_sub
from jspec.entire import KIND_CHAR, eval_series, second_kind_family, series_coeffs
from jspec.errors import ConvergenceFailure, TailDominates
from jspec.polycore import second_kind_at_zero
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
    second_kind,
    second_kind_routes,
    section_eigenvalues,
    section_inverse_trace,
    sturm_count,
    truncate,
    weyl,
)

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
    T = truncate(GEOM, 2)
    assert list(T.diag) == [12.0, 243.0]
    assert list(T.offdiag) == [6.0]
    T1 = truncate(GEOM, 1)
    assert T1.size == 1 and T1.diag[0] == 12.0


def test_sturm_counts():
    T = truncate(GEOM, 40)
    assert sturm_count(T, 3.0) == 0  # below gamma nothing
    lo, hi = T.gershgorin()
    assert sturm_count(T, hi * 1.001) == 40
    lam = section_eigenvalues(T, 2)
    assert sturm_count(T, float(np.sqrt(lam[0] * lam[1]))) == 1


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
    ser = series_coeffs(GEOM, KIND_CHAR, 16, 60)
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


def test_second_kind_routes():
    primary, alt = second_kind_routes(GEOM, 2, 1.0)
    assert alt is not None
    assert primary == pytest.approx(alt, rel=1e-9)
    # n = 0 at the origin reduces to the zero-point series
    p0, a0 = second_kind_routes(GEOM, 0, 0.0)
    assert p0 == pytest.approx(second_kind_at_zero(GEOM, 0), rel=1e-12)
    assert a0 == pytest.approx(p0, rel=1e-10)
    # consistency checked inside second_kind as well
    assert second_kind(GEOM, 1, 0.5) == pytest.approx(second_kind_routes(GEOM, 1, 0.5)[0])


def test_second_kind_matches_weyl(sd8):
    z = -2.0
    w = weyl(GEOM, z, sd8)
    assert second_kind(GEOM, 0, z) == pytest.approx(w.poles, rel=1e-9)


def test_char_via_second_kind():
    ser = series_coeffs(GEOM, KIND_CHAR, 16, 60)
    assert char_via_second_kind(GEOM, 0.0) == 1.0
    for z in (2.0, 5.0):
        direct = eval_series(ser, z).value
        assert char_via_second_kind(GEOM, z) == pytest.approx(direct, rel=1e-9)
    # slope at the origin is minus the trace of the inverse
    h = 1e-6
    slope = (char_via_second_kind(GEOM, h) - char_via_second_kind(GEOM, -h)) / (2.0 * h)
    assert slope == pytest.approx(-4.0 / 45.0, abs=1e-8)


def test_associated_operator():
    rep = associated_checks(GEOM, 60, n_zeros=5)
    assert rep.trace_rel_diff <= 1e-8
    assert np.max(rep.zero_rel_diffs) <= 1e-6
    assert rep.trace_sane
    assert rep.trace_direct == pytest.approx(REF_ASSOC_TRACE, rel=1e-10)
    # interlacing with the base spectrum: lambda_j < zero_j < lambda_{j+1};
    # for higher indices the zero and the next eigenvalue agree to every
    # float bit, so the strict comparison runs on the double-double words
    from jspec.doubledouble import dd_sub

    sd = point_spectrum(GEOM, 6, tol=1e-10)
    for i in range(5):
        lo_gap, _ = dd_sub(rep.numerator_zeros[i], rep.numerator_zeros_lo[i],
                           sd.lambdas[i], sd.lambdas_lo[i])
        hi_gap, _ = dd_sub(sd.lambdas[i + 1], sd.lambdas_lo[i + 1],
                           rep.numerator_zeros[i], rep.numerator_zeros_lo[i])
        assert lo_gap > 0.0
        assert hi_gap > 0.0


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
    """Eigenvalues of T strictly below x, counted in 200-bit arithmetic."""
    with mpmath.workprec(200):
        x = mpmath.mpf(x)
        d = mpmath.mpf(T.diag[0]) - x
        count = int(d < 0)
        for b, o in zip(T.diag[1:], T.offdiag):
            if d == 0:
                d = -mpmath.eps * max(abs(x), 1)
            d = (mpmath.mpf(b) - x) - mpmath.mpf(o) ** 2 / d
            count += d < 0
    return count


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
    wser = second_kind_family(GEOM, M, J, 0)[0]
    for seed in seeds:
        zh, zl, _, _, moved = spectrum._refine_root(wser, float(seed))
        assert moved
        for factor in (1.0 - 1e-13, 1.0 + 1e-13):
            rh, rl, _, _, _ = spectrum._refine_root(wser, float(seed) * factor)
            diff, _ = dd_sub(rh, rl, zh, zl)
            assert abs(diff) <= 1e-30 * zh


def test_factored_section_makes_no_sturm_sweeps():
    T = truncate(GEOM, 112)
    lams = section_eigenvalues(T, 13)
    assert lams[0] == pytest.approx(REF_LAMBDA0, rel=1e-13)
    assert np.all(np.diff(lams) > 0.0)


def test_factored_small_sections():
    # N = 1 has no off-diagonal for LAPACK; N = 2 against the quadratic
    # formula for [[12, 6], [6, 243]], the small root taken as det / large
    assert list(section_eigenvalues(truncate(GEOM, 1), 3)) == [12.0]
    lams = section_eigenvalues(truncate(GEOM, 2), 2)
    big = (255.0 + math.sqrt(231.0**2 + 144.0)) / 2.0
    assert lams[1] == pytest.approx(big, rel=1e-15)
    assert lams[0] == pytest.approx((12.0 * 243.0 - 36.0) / big, rel=1e-15)


def _mp_eigsy(diag, off, dps):
    """All eigenvalues, ascending, of the tridiagonal with the given entries."""
    with mpmath.workdps(dps):
        A = mpmath.zeros(len(diag), len(diag))
        for n, b in enumerate(diag):
            A[n, n] = b
        for n, o in enumerate(off):
            A[n, n + 1] = A[n + 1, n] = o
        return sorted(mpmath.eigsy(A, eigvals_only=True))


def _mp_section_eigenvalues(T, count, dps):
    """Lowest eigenvalues of the exact section L D L^T built from T's float factor."""
    with mpmath.workdps(dps):
        d = [mpmath.mpf(float(x)) for x in T.d]
        l = [mpmath.mpf(float(x)) for x in T.l]
        diag = [d[n] + (l[n - 1] ** 2 * d[n - 1] if n else 0) for n in range(T.size)]
        return _mp_eigsy(diag, [l[n] * d[n] for n in range(T.size - 1)], dps)[:count]


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


def _mp_associated_eigenvalues(params, N, count, dps):
    """Lowest eigenvalues of the exact associated section built from the float a_n."""
    a, _, _ = entry_arrays(params, N + 1)
    with mpmath.workdps(dps):
        k = mpmath.mpf(params.k)
        a = [mpmath.mpf(float(x)) for x in a]
        diag = [a[n + 1] + k * k * a[n] for n in range(N)]
        return _mp_eigsy(diag, [k * a[n + 1] for n in range(N - 1)], dps)[:count]


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


def test_section_inverse_trace_on_decreasing_prefix():
    # the float-beta recurrences returned 0.109 relative below sum 1/lambda here
    T = truncate(EXPLICIT, 40)
    with mpmath.workdps(60):
        ref = mpmath.fsum(1 / lam for lam in _mp_section_eigenvalues(T, 40, 60))
    assert section_inverse_trace(T) == pytest.approx(float(ref), rel=1e-13)


def test_indefinite_section_rejected():
    with pytest.raises(ValueError):
        TruncatedJacobi(diag=np.array([-1.0, 2.0]), offdiag=np.array([2.0]))
    with pytest.raises(ValueError):
        TruncatedJacobi(diag=np.array([1.0, 1.0]), offdiag=np.array([2.0]))


def test_completeness_defect_on_decreasing_prefix():
    # with the factored trace the defect is the section's missing tail,
    # sum_{i >= N} (1 - k^{2i+2}) / ((1 - k^2) a_i), not a cancellation artefact
    sd = point_spectrum(EXPLICIT, 3)
    tail = tail_sum_reciprocal(EXPLICIT.seq, sd.N_used) / (1.0 - EXPLICIT.k**2)
    assert tail / 2.0 <= sd.completeness_defect <= 2.0 * tail


def test_char_via_second_kind_raises_when_unsettled():
    with pytest.raises(ConvergenceFailure):
        char_via_second_kind(JacobiParams(PowerLaw(1.0, 2.0), 0.5), 2.0)


def test_second_kind_product_sum_raises_when_unsettled():
    # at q = 0.97 the sum has not settled by index n + 64 (it stood at
    # 88.1857 there, against w_0(0) = 88.2173)
    with pytest.raises(ConvergenceFailure):
        spectrum._second_kind_product_sum(JacobiParams(Geometric(0.97), math.sqrt(0.97)), 0, 0.0)
