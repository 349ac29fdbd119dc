"""Point spectrum, eigenvectors, masses, Weyl function, associated operator.

Every section is handled through its factor T = L D L^T.  The entries
alpha_n = k a_n and beta_n = a_n + k^2 a_{n-1} give sections of the operator
the pivots D = diag(a) and the unit subdiagonal l_n = k; sections of the
associated operator get theirs from a recurrence of sums and products of
positive numbers.  From the factor alone come the eigenvalues (one LAPACK
``dpteqr`` call on B^T B with B = L D^{1/2}, to high relative accuracy), the
Sturm counts (differential stationary qd) and the inverse trace (a positive
recurrence).  Forming beta in floats instead would lose the small
eigenvalues of any prefix that falls faster than k^2, and absolute-accuracy
routines (``stebz``) lose those of graded sections.  Roots of the
characteristic series then refine the section values by compensated Newton
steps wherever the series evaluation certifies itself.  Masses and
eigenvector samples combine three mutually checking routes:

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
    """Finite symmetric tridiagonal section with its factor T = L D L^T.

    ``d`` holds the positive pivots and ``l`` the subdiagonal of the unit
    lower bidiagonal L.  Sections of the operator and of the associated
    operator receive the factor in cancellation-free form; a hand-built
    section is factored here and must be positive definite.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    d: Optional[np.ndarray] = None
    l: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.diag) < 1 or len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("need N diagonal and N-1 off-diagonal entries")
        if len(self.offdiag) and not np.all(self.offdiag > 0.0):
            raise ValueError("off-diagonal entries must be strictly positive")
        if self.d is None:
            d = np.array(self.diag, dtype=float)
            for i, o in enumerate(self.offdiag.tolist()):
                # a pivot <= 0 poisons every later one instead of dividing
                d[i + 1] -= o / d[i] * o if d[i] > 0.0 else math.inf
            if not np.all(d > 0.0):
                raise ValueError("section is not positive definite")
            object.__setattr__(self, "d", d)
            object.__setattr__(self, "l", self.offdiag / d[:-1])

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
    """N-by-N section of the operator; its factor is D = diag(a), l_n = k."""
    if N < 1:
        raise SequenceError(f"section size must be at least 1, got {N}")
    a, alpha, beta = entry_arrays(params, N)
    return TruncatedJacobi(diag=beta, offdiag=alpha[: N - 1], d=a, l=np.full(N - 1, params.k))


def associated_section(params: JacobiParams, N: int) -> TruncatedJacobi:
    """Section of the associated operator (first row and column deleted).

    Its pivots are p_n = a_{n+1} + s_n with s_0 = k^2 a_0 and
    s_{n+1} = k^2 a_{n+1} s_n / p_n, and its multipliers l_n = k a_{n+1} / p_n:
    sums and products of positive numbers, where the LDL^T recurrence on
    beta would subtract.
    """
    if N < 1:
        raise SequenceError(f"section size must be at least 1, got {N}")
    a, alpha, beta = entry_arrays(params, N + 1)
    k2 = params.k * params.k
    p = np.empty(N)
    s = k2 * a[0]
    for n in range(N):
        p[n] = a[n + 1] + s
        s = k2 * a[n + 1] * (s / p[n])
    return TruncatedJacobi(diag=beta[1:], offdiag=alpha[1:N], d=p, l=alpha[1:N] / p[:-1])


def sturm_count(T: TruncatedJacobi, x: float) -> int:
    """Number of eigenvalues of T strictly below x.

    Differential stationary qd on the factor (dstqds; Dhillon & Parlett
    2004): L D L^T - x I = L+ D+ L+^T, and by Sylvester's inertia law the
    count is the number of negative pivots D+_i.  The auxiliary
    s_i = D+_i - d_i obeys s_{i+1} = (s_i / D+_i) d_i l_i^2 - x, so no
    entry of the tridiagonal is formed.  A zero pivot is taken as its limit
    from above, as LAPACK ``dlaneg`` does: the next pivot is -inf and the
    ratio after it is 1.
    """
    x = float(x)
    count = 0
    s = -x
    for d, lld in zip(T.d[:-1].tolist(), (T.d[:-1] * T.l * T.l).tolist()):
        dplus = d + s
        count += dplus < 0.0
        ratio = s / dplus if dplus != 0.0 else -math.inf
        if ratio != ratio:  # -inf / -inf
            ratio = 1.0
        s = ratio * lld - x
    return count + (float(T.d[-1]) + s < 0.0)


def section_eigenvalues(T: TruncatedJacobi, count: int) -> np.ndarray:
    """First ``count`` section eigenvalues, in increasing order.

    One LAPACK ``dpteqr`` call on B^T B with B = L D^{1/2}, which has the
    eigenvalues of T = B B^T.  B^T B has diagonal (1 + l_n^2) d_n (d_{N-1}
    in the last row) and off-diagonal l_n sqrt(d_n) sqrt(d_{n+1}); for a
    section of the operator its Cholesky pivots are r_n d_n with
    r_n = 1 + k^2 - k^2/r_{n-1} in (1, 1+k^2], so no weight sequence can
    make them cancel, and the routine returns every eigenvalue to high
    relative accuracy.
    """
    count = min(count, T.size)
    d, l = T.d, T.l
    if T.size == 1:
        return d.copy()
    root = np.sqrt(d)
    diag = d.copy()
    diag[:-1] *= 1.0 + l * l
    # compute_z=0: eigenvalues only, the z slot is a placeholder
    lam, _, _, info = dpteqr(diag, l * root[:-1] * root[1:], np.zeros((1, 1)), compute_z=0)
    if info != 0:
        raise ConvergenceFailure(f"dpteqr on the factored section returned info={info}")
    return lam[::-1][:count].copy()


def section_inverse_trace(T: TruncatedJacobi) -> float:
    """Trace of the section inverse from the factor: sum_i R_i / d_i.

    T^{-1} = L^{-T} D^{-1} L^{-1} and L^{-1} has entries
    prod_{m=j}^{i-1} (-l_m), so R_i = sum_j (L^{-1})_{ij}^2 obeys R_0 = 1,
    R_i = 1 + l_{i-1}^2 R_{i-1}.  Every term is positive; for a section of
    the operator this is the first N terms of the trace series.
    """
    R = np.ones(T.size)
    for i, li in enumerate(T.l.tolist()):
        R[i + 1] += li * li * R[i]
    return float(dd.compensated_sum(R / T.d))


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
                return -acc * P[n]
        else:
            small = 0
    raise ConvergenceFailure(
        f"polynomial-product sum for the second kind at z={z!r} did not settle by index {depth}"
    )


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
    ``terms`` terms when given), and raises ConvergenceFailure when 512
    terms have not settled it.
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
        for n_idx in range(depth + 1):
            if terms is not None and n_idx >= terms:
                break
            w0 = second_kind_at_zero(params, n_idx, tol=tol * 1e-3)
            t = w0 * P[n_idx]
            acc += t
            if terms is None:
                if abs(t) <= tol * max(abs(acc), 1.0) * 1e-2:
                    small += 1
                    if small >= 3:
                        break
                else:
                    small = 0
        if terms is not None or small >= 3:
            return 1.0 - z * acc
        if depth >= cap:
            raise ConvergenceFailure(
                f"second-kind sum for the characteristic function at z={z!r} "
                f"did not settle in {cap} terms"
            )
        depth = min(depth * 2, cap)


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

    Route (a): the factored trace of the associated section (first row and
    column deleted).  Route (b): the rank-two update
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
    trace_j = section_inverse_trace(T)
    trace_formula = trace_j - 1.0 / beta0
    for st, c in coeff.items():
        trace_formula += c * inv2[st]
    rel = abs(trace_direct - trace_formula) / abs(trace_direct)

    assoc_eigs = section_eigenvalues(T1, n_zeros)
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
