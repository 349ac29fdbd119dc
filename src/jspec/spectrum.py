"""Point spectrum, eigenvectors, masses, Weyl function, associated operator.

Section eigenvalues come from the factored form of the section.  The
entries alpha_n = k a_n and beta_n = a_n + k^2 a_{n-1} make every section
T_N = B B^T with B lower bidiagonal (diagonal sqrt(a_n), subdiagonal
k sqrt(a_{n-1})), so one LAPACK ``dpteqr`` call on B^T B, whose entries
are all products of positive pivots, returns every eigenvalue to high
relative accuracy.  Forming beta in floats instead would lose the small
eigenvalues of any prefix that falls faster than k^2, and absolute-accuracy
routines (``stebz``) lose those of graded sections.  Sections without
pivots (associated and hand-built ones) use geometric-midpoint Sturm
bisection, whose ratio-form counts are cancellation-free at any scale.
Roots of the characteristic series then refine the section values by
compensated Newton steps wherever the series evaluation certifies itself.
Masses and eigenvector samples combine three mutually checking routes:

* second-kind series entries where the evaluation is certified,
* the quotient identity  W(lam) = Phi_n(lam) / P_n(lam)  at a certified
  index n (the polynomial recurrence is stable in the dominant direction),
  which recovers the numerator of the Weyl function without cancellation
  even where the direct series at lam loses every digit,
* Gauss-quadrature weights of the finite section as the independent
  matrix-side fallback.

Everything downstream of the raw section eigenvalues carries the refined
eigenvalues as double-double pairs: at the ninth eigenvalue the bare float
spacing is already wider than the residual tolerances asked of the
eigenvector rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpteqr

from . import doubledouble as dd
from .doubledouble import EPS_DD
from .entire import (
    KIND_CHAR,
    PowerSeriesApprox,
    _eval_family,
    choose_truncation,
    envelope_bound,
    eval_series,
    eval_series_deriv,
    scale_for_shift,
    second_kind_family,
    series_coeffs,
)
from .errors import (
    CancellationFailure,
    ConvergenceFailure,
    MassNegative,
    SequenceError,
    TailDominates,
)
from .polycore import (
    orthopoly_values_dd,
    second_kind_at_zero,
    trace_inverse,
)
from .sequences import JacobiParams, entry_arrays, gamma_lower_bound

__all__ = [
    "TruncatedJacobi",
    "SpectralData",
    "MassData",
    "WeylValues",
    "AssociatedReport",
    "truncate",
    "associated_section",
    "sturm_count",
    "eigen_bisect",
    "section_eigenvalues",
    "section_inverse_trace",
    "point_spectrum",
    "masses_and_vectors",
    "orthonormality_check",
    "weyl",
    "second_kind",
    "second_kind_routes",
    "char_via_second_kind",
    "associated_checks",
]

_CERT_REL = 1e-12  # a series value is trusted when its bound clears this


@dataclass(frozen=True)
class TruncatedJacobi:
    """Finite symmetric tridiagonal section.

    Sections cut from the operator also keep its pivots: the weights
    a_0..a_{N-1} and the coupling k with T = B B^T, where B is lower
    bidiagonal with diagonal sqrt(a_n) and subdiagonal k sqrt(a_{n-1}).
    Hand-built and associated sections carry none.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    a: Optional[np.ndarray] = None
    k: Optional[float] = None

    def __post_init__(self):
        if len(self.diag) < 1 or len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("need N diagonal and N-1 off-diagonal entries")
        if len(self.offdiag) and not np.all(self.offdiag > 0.0):
            raise ValueError("off-diagonal entries must be strictly positive")

    @property
    def size(self) -> int:
        return len(self.diag)

    def gershgorin(self) -> tuple[float, float]:
        r = np.zeros(self.size)
        if self.size > 1:
            r[:-1] += self.offdiag
            r[1:] += self.offdiag
        return float(np.min(self.diag - r)), float(np.max(self.diag + r))


def truncate(params: JacobiParams, N: int) -> TruncatedJacobi:
    """N-by-N section of the operator."""
    if N < 1:
        raise SequenceError(f"section size must be at least 1, got {N}")
    a, alpha, beta = entry_arrays(params, N)
    return TruncatedJacobi(diag=beta, offdiag=alpha[: N - 1], a=a, k=params.k)


def associated_section(params: JacobiParams, N: int) -> TruncatedJacobi:
    """Section of the associated operator (first row and column deleted)."""
    if N < 1:
        raise SequenceError(f"section size must be at least 1, got {N}")
    _, alpha, beta = entry_arrays(params, N + 1)
    return TruncatedJacobi(diag=beta[1:], offdiag=alpha[1:N])


def sturm_count(T: TruncatedJacobi, x: float) -> int:
    """Number of eigenvalues of T strictly below x.

    Ratio form of the Sturm sequence; the off-diagonal square is evaluated
    as (o/d)*o so entries near 1e250 cannot overflow, and an exact zero
    pivot is nudged to a tiny negative number (the ulp-scale convention).
    """
    count = 0
    d = T.diag[0] - x
    if d == 0.0:
        d = -_pivot_nudge(T.diag[0], x)
    if d < 0.0:
        count += 1
    for i in range(1, T.size):
        o = T.offdiag[i - 1]
        d = (T.diag[i] - x) - (o / d) * o
        if d == 0.0:
            d = -_pivot_nudge(T.diag[i], x)
        if d < 0.0:
            count += 1
    return count


def _pivot_nudge(b: float, x: float) -> float:
    return np.finfo(float).eps * max(abs(b), abs(x), 1.0)


def _sturm_count_batch(T: TruncatedJacobi, xs: np.ndarray) -> np.ndarray:
    """Vectorized Sturm counts for a batch of shift points."""
    # zero-pivot nudges for every (row, shift) pair, formed once per sweep
    nudge = -np.finfo(float).eps * np.maximum(np.abs(xs), np.maximum(np.abs(T.diag), 1.0)[:, None])
    d = T.diag[0] - xs
    d = np.where(d == 0.0, nudge[0], d)
    counts = (d < 0.0).astype(np.int64)
    for b, o, nu in zip(T.diag[1:].tolist(), T.offdiag.tolist(), nudge[1:]):
        d = (b - xs) - (o / d) * o
        d = np.where(d == 0.0, nu, d)
        counts += d < 0.0
    return counts


def _bisect(T: TruncatedJacobi, targets: np.ndarray, rtol: float, atol: float = 0.0) -> np.ndarray:
    """Batched Sturm bisection for the eigenvalues with 1-based ``targets``.

    Brackets with a positive lower end are split at the geometric midpoint
    sqrt(lo)*sqrt(hi): the sections are strongly graded (Gershgorin upper
    ends near 1e135 at q = 1/4), and halving in log space reaches an O(1)
    eigenvalue in a few dozen sweeps where linear halving needs hundreds.
    The product of square roots cannot overflow where sqrt(lo*hi) would.
    A bracket is done once its width is below ``rtol*|mid|`` or ``atol``,
    or once no float lies strictly inside it.
    """
    lo_g, hi_g = T.gershgorin()
    lo = np.full(len(targets), lo_g)
    hi = np.full(len(targets), hi_g)
    for _ in range(4096):
        pos = lo > 0.0
        geo = np.sqrt(np.where(pos, lo, 1.0)) * np.sqrt(np.where(pos, hi, 1.0))
        mid = np.where(pos, geo, 0.5 * (lo + hi))
        # the rounded product can land an ulp outside a bracket only a few
        # ulps wide; clamping keeps every bracket nested
        mid = np.minimum(np.maximum(mid, lo), hi)
        width = hi - lo
        scale = np.maximum(np.abs(mid), 1e-300)
        if np.all((width <= np.maximum(rtol * scale, atol)) | (mid <= lo) | (mid >= hi)):
            return 0.5 * (lo + hi)
        go_down = _sturm_count_batch(T, mid) >= targets
        hi = np.where(go_down, mid, hi)
        lo = np.where(go_down, lo, mid)
    raise ConvergenceFailure("Sturm bisection did not close its brackets in 4096 sweeps")


def eigen_bisect(T: TruncatedJacobi, j: int, tol: float = 1e-12) -> float:
    """j-th section eigenvalue by bisection, interval width below tol.

    The width target is honored down to a few ulps of the midpoint; below
    that, bisection cannot shrink the bracket further.
    """
    if not (0 <= j < T.size):
        raise ValueError(f"eigenvalue index {j} outside section of size {T.size}")
    return float(_bisect(T, np.array([j + 1]), rtol=0.0, atol=tol)[0])


def section_eigenvalues(T: TruncatedJacobi, count: int, rtol: float = 1e-14) -> np.ndarray:
    """First ``count`` section eigenvalues, in increasing order.

    A section with pivots goes to LAPACK ``dpteqr`` on B^T B, which has the
    eigenvalues of T = B B^T; every entry of B^T B is a product of positive
    pivots and the routine returns them to high relative accuracy, so
    ``rtol`` is not needed there.  Sections without pivots fall back to
    batched geometric-midpoint bisection to ``rtol``.
    """
    count = min(count, T.size)
    if T.a is None:
        return _bisect(T, np.arange(1, count + 1), rtol)
    return _factored_eigenvalues(T.a, T.k)[:count]


def _factored_eigenvalues(a: np.ndarray, k: float) -> np.ndarray:
    """All eigenvalues of B B^T, ascending, from one ``dpteqr`` call on B^T B.

    B^T B has diagonal (1+k^2) a_n (a_{N-1} in the last row) and
    off-diagonal k sqrt(a_n) sqrt(a_{n+1}).  Its Cholesky pivots are
    r_n a_n with r_n = 1 + k^2 - k^2/r_{n-1} in (1, 1+k^2], so no weight
    sequence can make them cancel, while re-factoring the float beta
    loses the small eigenvalues of a decreasing prefix.
    """
    if len(a) == 1:
        return a.copy()
    root = np.sqrt(a)
    d = (1.0 + k * k) * a
    d[-1] = a[-1]
    # compute_z=0: eigenvalues only, the z slot is a placeholder
    lam, _, _, info = dpteqr(d, k * root[:-1] * root[1:], np.zeros((1, 1)), compute_z=0)
    if info != 0:
        raise ConvergenceFailure(f"dpteqr on the factored section returned info={info}")
    return lam[::-1].copy()


def section_inverse_trace(T: TruncatedJacobi) -> float:
    """Trace of the section inverse via the two-sided pivot recurrences.

    (T^{-1})_{ii} = 1 / (d_i + e_i - b_i) with d the forward and e the
    backward Cholesky-style ratios; O(N), no eigenvalues needed, and safe
    for positive-definite sections of any entry scale.
    """
    N = T.size
    b, o = T.diag, T.offdiag
    dfwd = np.empty(N)
    dfwd[0] = b[0]
    for i in range(1, N):
        dfwd[i] = b[i] - (o[i - 1] / dfwd[i - 1]) * o[i - 1]
    ebwd = np.empty(N)
    ebwd[N - 1] = b[N - 1]
    for i in range(N - 2, -1, -1):
        ebwd[i] = b[i] - (o[i] / ebwd[i + 1]) * o[i]
    if np.any(dfwd <= 0.0) or np.any(ebwd <= 0.0):
        raise ConvergenceFailure("section is not positive definite; trace route invalid")
    return float(dd.compensated_sum(1.0 / (dfwd + ebwd - b)))


@dataclass
class SpectralData:
    """Computed point-spectrum data for the first ``count`` eigenvalues."""

    count: int
    lambdas: np.ndarray
    lambdas_lo: np.ndarray
    masses: np.ndarray
    masses_quadrature: np.ndarray
    mass_route: list[str]
    residual_F: np.ndarray
    residual_F_bound: np.ndarray
    residual_matrix: np.ndarray
    refined: np.ndarray
    N_used: int
    completeness_defect: float
    lambda_next_lower: float
    gamma: float

    def lambda_dd(self, j: int) -> tuple[float, float]:
        return float(self.lambdas[j]), float(self.lambdas_lo[j])


@dataclass
class MassData:
    """Masses, eigenvector samples, and the identities certifying them."""

    masses: np.ndarray
    masses_quadrature: np.ndarray
    mass_route: list[str]
    vectors: np.ndarray          # shape (count, n_max + 1): Phi_0..Phi_{n_max}
    vectors_lo: np.ndarray
    weyl_numerators: np.ndarray  # W(lambda_j)
    fprime: np.ndarray           # F'(lambda_j)
    norm_residuals: np.ndarray   # |sum Phi^2 + tail - (-F' W)| / sum Phi^2
    eigen_residuals: np.ndarray  # ||(T - lam) Phi|| / ||Phi||, last row excluded
    certified_from: np.ndarray   # first series-certified entry index per j


def _series_context(params: JacobiParams, radius: float, n_max: int):
    """Series truncation sized so certified evaluation survives kappa ~ 1e13.

    The cutoff also clears n_max by a margin: the omitted-seed bound of the
    shift-n series is n-independent, so it must be pushed below the smallest
    retained coefficient scale k^{2 n_max}/a_{n_max} times the certification
    headroom.
    """
    M = J = None
    for target in (1e-26, 1e-22, 1e-18, 1e-14, 1e-12, 1e-10, 1e-8):
        try:
            M, J = choose_truncation(
                params, radius, target, min_cutoff=n_max + 16, max_cutoff=1 << 14
            )
            break
        except ConvergenceFailure:
            continue
    if M is None:
        # polynomially decaying reciprocal tails cannot reach any of the
        # targets; a modest cutoff suffices because certification fails
        # either way and masses route to the matrix fallback
        J = max(n_max + 16, 192)
        M = 48
    J = max(J, n_max + 16)
    M = min(M, J)
    return M, J

def _refine_root(fser: PowerSeriesApprox, seed: float, rel_cap: float = 0.25):
    """Compensated Newton from a section seed; returns (hi, lo, |F|, bound, moved).

    Iteration stops once the applied correction is no larger than the
    certified root resolution err_bound/|F'|, so the result does not depend
    on the last bits of the seed (a stop on small |F| alone would keep
    whichever point first fell inside the noise band).
    """
    zh, zl = float(seed), 0.0
    fe = eval_series(fser, (zh, zl))
    for _ in range(40):
        fp = eval_series_deriv(fser, (zh, zl))
        if fp.value == 0.0:
            break
        sh, sl = dd.dd_div(fe.value, fe.value_lo, fp.value, fp.value_lo)
        if abs(sh) > rel_cap * abs(zh):
            # seed outside the basin; keep the section value
            return float(seed), 0.0, fe.err_bound, fe.err_bound, False
        resolution = fe.err_bound / abs(fp.value)
        zh, zl = dd.dd_sub(zh, zl, sh, sl)
        fe = eval_series(fser, (zh, zl))
        if abs(sh) <= resolution or abs(sh) <= 1e-30 * abs(zh):
            break
    return zh, zl, abs(fe.value), fe.err_bound, True


def point_spectrum(params: JacobiParams, count: int, tol: float = 1e-10) -> SpectralData:
    """First ``count`` eigenvalues with masses and residual diagnostics.

    Sections grow (starting at count + 20, doubling) until the requested
    eigenvalues stabilize to tol/10 in relative terms; compensated Newton on
    the characteristic series then refines each root where the evaluation
    certifies itself.  The completeness defect compares
    ``sum 1/lambda_j (+ section tail) `` against the closed trace formula,
    certifying that no eigenvalue below the count-th was missed.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    gamma = gamma_lower_bound(params)
    N = count + 20
    prev: Optional[np.ndarray] = None
    lams_sec: Optional[np.ndarray] = None
    T: Optional[TruncatedJacobi] = None
    for _ in range(11):
        T = truncate(params, N)
        lams_sec = section_eigenvalues(T, count + 1)
        if prev is not None:
            move = float(np.max(np.abs(lams_sec[:count] - prev) / np.abs(prev)))
            if move < tol / 10.0:
                break
        prev = lams_sec[:count].copy()
        N *= 2
    else:
        raise ConvergenceFailure(
            f"section eigenvalues did not stabilize to {tol:g} after 10 doublings"
        )

    radius = float(lams_sec[count - 1]) * 1.3 + 1.0
    n_aux = count + 10
    M, J = _series_context(params, radius, n_aux)
    fser = series_coeffs(params, KIND_CHAR, M, J)

    lam_hi = np.empty(count)
    lam_lo = np.empty(count)
    res_F = np.empty(count)
    res_F_bound = np.empty(count)
    refined = np.zeros(count, dtype=bool)
    for j in range(count):
        zh, zl, fres, fbound, moved = _refine_root(fser, lams_sec[j])
        fp = eval_series_deriv(fser, (zh, zl))
        cert_err = fbound / max(abs(fp.value), 1e-300)
        ok = moved and cert_err <= tol * max(abs(zh), 1.0)
        if ok:
            lam_hi[j], lam_lo[j] = zh, zl
        else:
            lam_hi[j], lam_lo[j] = float(lams_sec[j]), 0.0
        refined[j] = ok
        res_F[j] = fres
        res_F_bound[j] = fbound

    md = _mass_machinery(params, lam_hi, lam_lo, n_aux, M, J, fser, T, lams_sec[:count])

    # completeness: refined heads + section tail vs the closed trace formula
    trace_section = section_inverse_trace(T)
    head_refined = dd.compensated_sum((1.0 / lam_hi)[::-1])
    head_section = dd.compensated_sum((1.0 / lams_sec[:count])[::-1])
    tail_section = trace_section - head_section
    tr = trace_inverse(params, tol=1e-15)
    defect = abs(head_refined + tail_section - tr)

    return SpectralData(
        count=count,
        lambdas=lam_hi,
        lambdas_lo=lam_lo,
        masses=md.masses,
        masses_quadrature=md.masses_quadrature,
        mass_route=md.mass_route,
        residual_F=res_F,
        residual_F_bound=res_F_bound,
        residual_matrix=md.eigen_residuals,
        refined=refined,
        N_used=T.size,
        completeness_defect=defect,
        lambda_next_lower=float(lams_sec[count]) if count < T.size else math.inf,
        gamma=gamma,
    )


def _orthopoly_dd_with_envelope(params, n, zh, zl):
    """dd polynomial values plus a float envelope of accumulated magnitude."""
    Ph, Pl = orthopoly_values_dd(params, n, (zh, zl))
    _, alpha, beta = entry_arrays(params, n + 1)
    env = np.empty(n + 1)
    env[0] = 1.0
    if n >= 1:
        env[1] = (abs(zh) + beta[0]) / alpha[0]
        for i in range(1, n):
            env[i + 1] = ((abs(zh) + beta[i]) * env[i] + alpha[i - 1] * env[i - 1]) / alpha[i]
    return Ph, Pl, env


def _quadrature_weight(params: JacobiParams, lam: float, N: int) -> float:
    """Gauss weight of the section: 1 / sum_n P_n(lam)^2, noise-guarded.

    The forward recurrence tracks the decaying eigenvector until rounding
    re-excites the growing solution; summation stops at the detected
    turnaround so the weight never absorbs the noise tail.
    """
    _, alpha, beta = entry_arrays(params, N)
    t = np.empty(N)
    t[0] = 1.0
    p_prev = 1.0
    p_cur = (lam - beta[0]) / alpha[0]
    t[1] = p_cur * p_cur
    for i in range(1, N - 1):
        p_next = ((lam - beta[i]) * p_cur - alpha[i - 1] * p_prev) / alpha[i]
        p_prev, p_cur = p_cur, p_next
        t[i + 1] = p_cur * p_cur
    # the re-excited growing solution shows up as a monotone-increasing
    # suffix; walk it back from the end and drop it
    cut = N - 1
    while cut > 1 and t[cut - 1] < t[cut]:
        cut -= 1
    return 1.0 / float(dd.compensated_sum(t[:cut][::-1]))


def _mass_machinery(
    params: JacobiParams,
    lam_hi: np.ndarray,
    lam_lo: np.ndarray,
    n_max: int,
    M: int,
    J: int,
    fser: PowerSeriesApprox,
    T: TruncatedJacobi,
    lams_section: np.ndarray,
) -> MassData:
    count = len(lam_hi)
    k = params.k
    fam = second_kind_family(params, M, J, n_max + 1)
    a, alpha, beta = entry_arrays(params, n_max + 2)
    scales = np.array([scale_for_shift(k, n) for n in range(n_max + 2)])

    masses = np.empty(count)
    masses_q = np.empty(count)
    route = []
    vectors = np.zeros((count, n_max + 1))
    vectors_lo = np.zeros((count, n_max + 1))
    wnum = np.empty(count)
    fprime = np.empty(count)
    norm_res = np.empty(count)
    eig_res = np.empty(count)
    cert_from = np.empty(count, dtype=np.int64)

    for j in range(count):
        zh, zl = float(lam_hi[j]), float(lam_lo[j])
        fp = eval_series_deriv(fser, (zh, zl))
        fprime[j] = fp.value
        Ph, Pl, env = _orthopoly_dd_with_envelope(params, n_max + 1, zh, zl)

        evs = _eval_family(fam, (zh, zl))
        value = np.array([ev.value for ev in evs])
        err = np.array([ev.err_bound for ev in evs])
        phi_h, phi_l = dd.dd_mul_d(value, np.array([ev.value_lo for ev in evs]), scales)
        cert = (value != 0.0) & (err <= _CERT_REL * np.abs(value))

        # Weyl numerator from the best certified quotient Phi_n / P_n
        best = None
        for n in range(n_max + 2):
            if not cert[n] or Ph[n] == 0.0:
                continue
            p_rel = EPS_DD * env[n] / abs(Ph[n])  # recurrence noise at near-roots
            q_rel = err[n] / abs(value[n]) + p_rel
            if best is None or q_rel < best[1]:
                best = (n, q_rel)
        if best is None:
            # no certified series entry: pure matrix fallback for this root
            masses_q[j] = _quadrature_weight(params, float(lams_section[j]), T.size)
            masses[j] = masses_q[j]
            route.append("fallback")
            wnum[j] = -masses[j] * fp.value
            cert_from[j] = n_max + 2
            vectors[j, 0] = math.nan
            norm_res[j] = math.nan
            eig_res[j] = math.nan
            continue
        nstar, _ = best
        wh, wl = dd.dd_div(phi_h[nstar], phi_l[nstar], Ph[nstar], Pl[nstar])
        wnum[j] = wh
        mh, _ = dd.dd_div(wh, wl, fp.value, fp.value_lo)
        mu = -mh
        if not (mu > 0.0):
            raise MassNegative(
                f"mass at eigenvalue index {j} came out {mu:.3e}; root or evaluation is broken"
            )
        masses[j] = mu
        route.append("series")
        first_cert = int(np.argmax(cert))
        cert_from[j] = first_cert

        # eigenvector samples: series from the first certified index up
        # (beyond it the entries only shrink and stay certified), the
        # W * P_n identity below it (the polynomial recurrence is the
        # stable route exactly where the series cancels catastrophically)
        from_series = np.arange(n_max + 2) >= first_cert
        wph, wpl = dd.dd_mul(wh, wl, Ph, Pl)
        vh = np.where(from_series, phi_h, wph)
        vl = np.where(from_series, phi_l, wpl)
        vectors[j], vectors_lo[j] = vh[:-1], vl[:-1]

        # norm identity: sum Phi^2 + tail == -F'(lam) W(lam)
        sh = sl = 0.0
        for n in range(n_max, -1, -1):
            th, tl = dd.dd_mul(vectors[j, n], vectors_lo[j, n], vectors[j, n], vectors_lo[j, n])
            sh, sl = dd.dd_add(sh, sl, th, tl)
        tail = _phi_tail_sq(params, n_max, abs(zh))
        rh, rl = dd.dd_mul(fp.value, fp.value_lo, wh, wl)
        dh, _ = dd.dd_add(sh, sl, rh, rl)  # sum - (-F'W) = sum + F'W
        norm_res[j] = abs(dh + tail) / sh

        # matrix residual over rows 0..n_max-1 (last row excluded)
        th, tl = dd.dd_add_d(-zh, -zl, beta[:n_max])
        rh, rl = dd.dd_mul(th, tl, vh[:n_max], vl[:n_max])
        uh, ul = dd.dd_mul_d(vh[:n_max - 1], vl[:n_max - 1], alpha[:n_max - 1])
        rh[1:], rl[1:] = dd.dd_add(rh[1:], rl[1:], uh, ul)
        uh, ul = dd.dd_mul_d(vh[1:n_max + 1], vl[1:n_max + 1], alpha[:n_max])
        rh, _ = dd.dd_add(rh, rl, uh, ul)
        acc = 0.0
        for r in rh:
            acc += r * r
        eig_res[j] = math.sqrt(acc) / math.sqrt(sh)

        masses_q[j] = _quadrature_weight(params, float(lams_section[j]), T.size)

    return MassData(
        masses=masses,
        masses_quadrature=masses_q,
        mass_route=route,
        vectors=vectors,
        vectors_lo=vectors_lo,
        weyl_numerators=wnum,
        fprime=fprime,
        norm_residuals=norm_res,
        eigen_residuals=eig_res,
        certified_from=cert_from,
    )


def _phi_tail_sq(params: JacobiParams, n_max: int, abs_z: float) -> float:
    """Certified bound on sum_{n > n_max} Phi_n(z)^2 via the envelope bound."""
    k2 = params.k * params.k
    total = 0.0
    b = envelope_bound(params, n_max + 1, abs_z)
    n = n_max + 1
    while n < n_max + 400:
        t = b * b
        total += t
        if t < 1e-300:
            break
        n += 1
        b_next = envelope_bound(params, n, abs_z)
        if b_next >= b:  # envelope must decay; bail conservatively
            return total + b * b / max(1e-12, 1.0 - k2)
        b = b_next
    # remaining terms decay at least like k^2 per step
    return total + b * b * k2 / (1.0 - k2)


def masses_and_vectors(params: JacobiParams, sd: SpectralData, n_max: int) -> MassData:
    """Masses plus eigenvector samples Phi_0..Phi_{n_max} for each eigenvalue.

    Recomputes the series context sized for ``n_max`` and reuses the refined
    eigenvalues stored in ``sd``.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    radius = float(sd.lambdas[-1]) * 1.3 + 1.0
    M, J = _series_context(params, radius, n_max)
    fser = series_coeffs(params, KIND_CHAR, M, J)
    T = truncate(params, sd.N_used)
    lams_section = section_eigenvalues(T, sd.count)
    return _mass_machinery(
        params, sd.lambdas, sd.lambdas_lo, n_max, M, J, fser, T, lams_section
    )


def orthonormality_check(
    params: JacobiParams, sd: SpectralData, smax: int, tol: float = 1e-6
) -> float:
    """max_{s,t <= smax} | sum_j mu_j P_s(lam_j) P_t(lam_j) - delta_st |.

    The omitted spectral tail is estimated from the decay of the last
    computed terms (mass decay beats polynomial growth); TailDominates is
    raised when that estimate is not safely below the tolerance.
    """
    if smax < 0:
        raise ValueError("smax must be non-negative")
    count = sd.count
    P = np.empty((count, smax + 1))
    for j in range(count):
        Ph, Pl = orthopoly_values_dd(params, smax, sd.lambda_dd(j))
        P[j] = Ph
    mu = sd.masses
    # tail estimate: geometric extrapolation of the heaviest diagonal term
    terms = np.abs(mu * P[:, smax] * P[:, smax])
    if count >= 3 and terms[-2] > 0.0:
        ratio = terms[-1] / terms[-2]
        tail_est = terms[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    else:
        tail_est = math.inf if count < 3 else 0.0
    if not (tail_est <= 0.2 * tol):
        raise TailDominates(
            f"estimated spectral tail {tail_est:.3e} not below tolerance {tol:.3e}; "
            f"increase the eigenvalue count"
        )
    dev = 0.0
    for s in range(smax + 1):
        for t in range(s, smax + 1):
            acc = dd.compensated_sum([(mu[j] * P[j, s]) * P[j, t] for j in range(count)])
            target = 1.0 if s == t else 0.0
            dev = max(dev, abs(acc - target))
    return dev


@dataclass
class WeylValues:
    """Weyl function at one point by three independent routes."""

    series: float
    poles: float
    resolvent: float
    pole_tail_bound: float
    series_err_bound: float
    series_failed: bool


def weyl(
    params: JacobiParams,
    z: float,
    sd: SpectralData,
    M: Optional[int] = None,
    J: Optional[int] = None,
) -> WeylValues:
    """w(z) by series quotient, spectral pole sum, and section resolvent.

    * series: numerator series over characteristic series, compensated;
    * poles: sum_j mu_j / (lambda_j - z) over the computed spectrum plus a
      certified bound on the omitted poles;
    * resolvent: top-left entry of the section resolvent via a pivoted
      banded solve.
    """
    gap = np.min(np.abs(sd.lambdas - z))
    if gap <= 1e-9 * max(1.0, abs(z)):
        raise ValueError(f"point z={z!r} is too close to the computed spectrum")
    if M is None or J is None:
        M, J = _series_context(params, max(abs(z), float(sd.lambdas[-1])) * 1.3 + 1.0, 4)
    series_failed = False
    series_val = math.nan
    series_err = math.inf
    try:
        fser = series_coeffs(params, KIND_CHAR, M, J)
        wser = second_kind_family(params, M, J, 0)[0]
        fe = eval_series(fser, z, tol=1e-9)
        we = eval_series(wser, z, tol=1e-9)
        qh, _ = dd.dd_div(we.value, we.value_lo, fe.value, fe.value_lo)
        series_val = qh
        series_err = abs(series_val) * (
            we.err_bound / max(abs(we.value), 1e-300)
            + fe.err_bound / max(abs(fe.value), 1e-300)
        )
    except CancellationFailure:
        series_failed = True

    mu_sum = float(np.sum(sd.masses))
    pole_terms = [
        (sd.masses[j], sd.lambdas[j]) for j in range(sd.count)
    ]
    poles = dd.compensated_sum([m / (lam - z) for m, lam in pole_terms][::-1])
    lam_next = sd.lambda_next_lower
    if z < lam_next:
        pole_tail = max(0.0, 1.0 - mu_sum) / (lam_next - z)
    else:
        pole_tail = math.inf

    T = truncate(params, sd.N_used)
    ab = np.zeros((3, T.size))
    ab[0, 1:] = T.offdiag
    ab[1, :] = T.diag - z
    ab[2, :-1] = T.offdiag
    e0 = np.zeros(T.size)
    e0[0] = 1.0
    x = solve_banded((1, 1), ab, e0)
    resolvent = float(x[0])

    return WeylValues(
        series=series_val,
        poles=float(poles),
        resolvent=resolvent,
        pole_tail_bound=pole_tail,
        series_err_bound=series_err,
        series_failed=series_failed,
    )


def second_kind_routes(
    params: JacobiParams,
    n: int,
    z: float,
    M: Optional[int] = None,
    J: Optional[int] = None,
) -> tuple[float, Optional[float]]:
    """n-th function of the second kind: series quotient and, below the
    spectral floor, the independent polynomial-product sum.

    Route one is Phi_n(z) / F(z).  For real z below gamma the alternative
    ``- (sum_{j>=n} 1/(alpha_j P_j(z) P_{j+1}(z))) P_n(z)`` converges and is
    returned as the second element (None otherwise).
    """
    if M is None or J is None:
        M, J = _series_context(params, max(abs(z), 1.0), n + 4)
    fser = series_coeffs(params, KIND_CHAR, M, J)
    fam = second_kind_family(params, M, J, n)
    fe = eval_series(fser, z, tol=1e-9)
    pe = eval_series(fam[n], z)
    sc = scale_for_shift(params.k, n)
    num_h, num_l = dd.dd_mul_d(pe.value, pe.value_lo, sc)
    qh, _ = dd.dd_div(num_h, num_l, fe.value, fe.value_lo)
    primary = float(qh)

    alt = None
    gamma = gamma_lower_bound(params)
    if z < gamma:
        alt = _second_kind_product_sum(params, n, z)
    return primary, alt


def _second_kind_product_sum(params: JacobiParams, n: int, z: float) -> float:
    depth = n + 64
    _, alpha, _ = entry_arrays(params, depth + 2)
    Ph, Pl = orthopoly_values_dd(params, depth + 1, z)
    P = Ph + Pl
    acc = 0.0
    small = 0
    for j in range(n, depth + 1):
        term = 1.0 / (alpha[j] * P[j] * P[j + 1])
        acc += term
        if abs(term) < 1e-17 * max(abs(acc), 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    return -acc * P[n]


def second_kind(params: JacobiParams, n: int, z: float, tol: float = 1e-6) -> float:
    """Phi_n(z)/F(z); cross-checked against the product sum below gamma."""
    primary, alt = second_kind_routes(params, n, z)
    if alt is not None:
        scale = max(abs(primary), abs(alt), 1e-300)
        if abs(primary - alt) > tol * scale:
            raise CancellationFailure(
                f"second-kind routes disagree at z={z!r}: {primary!r} vs {alt!r}"
            )
    return primary


def char_via_second_kind(
    params: JacobiParams,
    z: float,
    terms: Optional[int] = None,
    tol: float = 1e-12,
) -> float:
    """Characteristic function as 1 - z sum_n w_n(0) P_n(z).

    Terms decay like 1/a_n; the sum stops adaptively once three consecutive
    terms fall below tol relative to the accumulated value (or after exactly
    ``terms`` terms when given).
    """
    if terms is not None and terms < 1:
        raise ValueError("term count must be positive")
    cap = terms if terms is not None else 512
    depth = cap if terms is not None else 48
    while True:
        Ph, Pl = orthopoly_values_dd(params, depth, z)
        P = Ph + Pl
        acc = 0.0
        small = 0
        used = 0
        for n_idx in range(depth + 1):
            if terms is not None and n_idx >= terms:
                break
            w0 = second_kind_at_zero(params, n_idx, tol=tol * 1e-3)
            t = w0 * P[n_idx]
            acc += t
            used = n_idx + 1
            if terms is None:
                if abs(t) <= tol * max(abs(acc), 1.0) * 1e-2:
                    small += 1
                    if small >= 3:
                        break
                else:
                    small = 0
        if terms is not None or small >= 3 or depth >= cap:
            break
        depth = min(depth * 2, cap)
    return 1.0 - z * acc


@dataclass
class AssociatedReport:
    """Cross-checks tying the numerator series to the associated operator."""

    trace_direct: float
    trace_formula: float
    trace_rel_diff: float
    numerator_zeros: np.ndarray
    numerator_zeros_lo: np.ndarray  # double-double tails; the zeros crowd
    associated_eigenvalues: np.ndarray  # the next base eigenvalue beyond float spacing
    zero_rel_diffs: np.ndarray
    trace_sane: bool


def associated_checks(params: JacobiParams, N: int, n_zeros: int = 5) -> AssociatedReport:
    """Two independent routes to the associated operator's inverse trace,
    plus zeros of the numerator series against associated section eigenvalues.

    Route (a): delete the first row and column of the section and apply the
    two-sided pivot trace formula directly.  Route (b): the rank-two update
    formula expressing the same trace through the original section's inverse
    and squared-inverse corner entries.
    """
    if N < 8:
        raise ValueError("need a section of at least 8 for the trace comparison")
    T = truncate(params, N)
    T1 = associated_section(params, N - 1)
    trace_direct = section_inverse_trace(T1)

    ab = np.zeros((3, N))
    ab[0, 1:] = T.offdiag
    ab[1, :] = T.diag
    ab[2, :-1] = T.offdiag
    rhs = np.zeros((N, 2))
    rhs[0, 0] = 1.0
    rhs[1, 1] = 1.0
    x = solve_banded((1, 1), ab, rhs)
    x0, x1 = x[:, 0], x[:, 1]
    beta0 = float(T.diag[0])
    alpha0 = float(T.offdiag[0])
    inv00 = float(x0[0])
    inv11 = float(x1[1])
    coeff = {
        (0, 0): alpha0 * alpha0 * inv11 / (beta0 * inv00),
        (0, 1): alpha0,
        (1, 0): alpha0,
        (1, 1): alpha0 * alpha0 / beta0,
    }
    inv2 = {
        (0, 0): float(x0 @ x0),
        (0, 1): float(x0 @ x1),
        (1, 0): float(x0 @ x1),
        (1, 1): float(x1 @ x1),
    }
    trace_formula = section_inverse_trace(T) - 1.0 / beta0
    for st, c in coeff.items():
        trace_formula += c * inv2[st]
    rel = abs(trace_direct - trace_formula) / abs(trace_direct)

    assoc_eigs = section_eigenvalues(T1, n_zeros, rtol=1e-13)
    radius = float(assoc_eigs[-1]) * 1.3 + 1.0
    M, J = _series_context(params, radius, 4)
    wser = second_kind_family(params, M, J, 0)[0]
    zeros = np.empty(n_zeros)
    zeros_lo = np.zeros(n_zeros)
    for i in range(n_zeros):
        zh, zl, _, _, moved = _refine_root(wser, float(assoc_eigs[i]))
        if moved:
            zeros[i], zeros_lo[i] = zh, zl
        else:
            zeros[i] = float(assoc_eigs[i])
    zero_rel = np.abs(zeros - assoc_eigs) / np.abs(assoc_eigs)

    trace_j = section_inverse_trace(T)
    return AssociatedReport(
        trace_direct=trace_direct,
        trace_formula=trace_formula,
        trace_rel_diff=rel,
        numerator_zeros=zeros,
        numerator_zeros_lo=zeros_lo,
        associated_eigenvalues=assoc_eigs,
        zero_rel_diffs=zero_rel,
        trace_sane=trace_direct < 2.0 * trace_j,
    )
