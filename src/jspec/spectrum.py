"""Point spectrum, eigenvectors, masses, Weyl function, associated operator.

Every section is held as its factor T = L D L^T and nothing else.  The
entries alpha_n = k a_n and beta_n = a_n + k^2 a_{n-1} give sections of the
operator the pivots D = diag(a) and the unit subdiagonal l_n = k; sections
of the associated operator get theirs from a recurrence of sums and products
of positive numbers.  From the factor alone come the eigenvalues (dqds on
the qd array of the bidiagonal (L D^{1/2})^T, to high relative accuracy:
through numpy's bidiagonal SVD below ``_COUNT_FROM`` rows, in Python floats
from there on), the inverse trace (a positive recurrence) and one pair of
qd transforms of
T - x I over an array of shifts x, which give the Sturm counts, the section
eigenvectors (twisted factorization), the Weyl resolvent and the first
column of the section inverse.  Forming beta in floats instead would lose
the small eigenvalues of any prefix that falls faster than k^2, and
absolute-accuracy routines (``stebz``) lose those of graded sections.
The section size comes from a two-sided bound.  The operator is
J = sum_n a_n v_n v_n^T with v_n = e_n + k e_{n+1}; splitting the term
n = N - 1 gives J >= T_low (+) R, with T_low the N-row section's factor
with its last pivot scaled down and R bounded below by the sequence tail.
So one more solve on T_low (Sturm counts on it from ``_COUNT_FROM`` rows
on) brackets every requested eigenvalue of J between lambda_j(T_low) and
the section value theta_j, for the operator of the float a_n, up to a
stated rounding margin, or, for tolerances finer than that margin, ends
checked by double-double Sturm counts (``_enclosure``).
``point_spectrum`` takes the first doubling of N whose bracket is within
tol, and reports its width as ``lambda_err``.  The completeness defect, a
diagnostic, is the upper end of the closed tail of the inverse trace that the
section leaves out, sum_{i >= N} (1 - k^{2i+2}) / ((1 - k^2) a_i).
Roots of the characteristic series then refine the section values by
compensated Newton steps wherever the series evaluation certifies itself
and the root stays inside its bracket; where the series bound proves
beforehand that nothing can certify, no series is built.
Masses and eigenvector samples combine three mutually checking routes:

* second-kind series entries where the evaluation is certified,
* the quotient identity  W(lam) = Phi_n(lam) / P_n(lam)  at a certified
  index n (the polynomial recurrence is stable in the dominant direction),
  which recovers the numerator of the Weyl function without cancellation
  even where the direct series at lam loses every digit,
* the section eigenvectors as the independent matrix-side fallback (their
  squared first components are the section's Gauss weights).

Everything downstream of the raw section eigenvalues carries the refined
eigenvalues as double-double pairs: at the ninth eigenvalue the bare float
spacing is already wider than the residual tolerances asked of the
eigenvector rows.

Only ``masses_and_vectors`` checks the norm identity
sum Phi_n^2 + tail = -F'(lam) W(lam) (the envelope tail bound
``_phi_tail_sq`` and the product F'W); ``point_spectrum`` reports no norm
residual and leaves both out.  Both keep the sum of Phi_n^2, which the
matrix residuals divide by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import doubledouble as dd
from .doubledouble import EPS_DD
from .entire import (
    SeriesEval,
    _envelope,
    _envelope_factors,
    _evals_by_truncation,
    _one_minus_k2,
    _point_array,
    _scalar,
    _uncertified,
    _value_and_slope,
    _weight_beyond,
    choose_truncation,
    eval_series,
    scale_for_shift,
    series_pair,
)
from .errors import (
    ConvergenceFailure,
    MassNegative,
    SequenceError,
    TailDominates,
)
from .polycore import _second_kind_zeros, _trace_tail, orthopoly_values_dd
from .sequences import (
    JacobiParams,
    entry_arrays,
    gamma_lower_bound,
    seq_values,
    sequence_min_from,
)

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
    "second_kind_routes",
    "char_via_second_kind",
    "associated_checks",
]

_CERT_REL = 1e-12  # a series value is trusted when its bound clears this


@dataclass(frozen=True)
class TruncatedJacobi:
    """Finite symmetric tridiagonal section, held as its factor T = L D L^T.

    ``d`` holds the positive pivots and ``l`` the positive subdiagonal of the
    unit lower bidiagonal L, so T has diagonal d_n + l_{n-1}^2 d_{n-1} and
    off-diagonal l_n d_n.  The entries themselves are never formed.
    """

    d: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        if len(self.d) < 1 or len(self.l) != len(self.d) - 1:
            raise ValueError("need N pivots and N-1 multipliers")
        if not (np.all(self.d > 0.0) and np.all(self.l > 0.0)):
            raise ValueError("pivots and multipliers must be strictly positive")

    @property
    def size(self) -> int:
        return len(self.d)


def truncate(params: JacobiParams, N: int) -> TruncatedJacobi:
    """N-by-N section of the operator; its factor is D = diag(a), l_n = k."""
    if N < 1:
        raise SequenceError(f"section size must be at least 1, got {N}")
    return TruncatedJacobi(d=seq_values(params.seq, N), l=np.full(N - 1, params.k))


def associated_section(params: JacobiParams, N: int) -> TruncatedJacobi:
    """Section of the associated operator (first row and column deleted).

    Its pivots are p_n = a_{n+1} + s_n with s_0 = k^2 a_0 and
    s_{n+1} = k^2 a_{n+1} s_n / p_n, and its multipliers l_n = k a_{n+1} / p_n:
    sums and products of positive numbers, where the LDL^T recurrence on
    beta would subtract.
    """
    if N < 1:
        raise SequenceError(f"section size must be at least 1, got {N}")
    a = seq_values(params.seq, N + 1)
    k2 = params.k * params.k
    p = np.empty(N)
    s = k2 * a[0]
    for n in range(N):
        p[n] = a[n + 1] + s
        s = k2 * a[n + 1] * (s / p[n])
    return TruncatedJacobi(d=p, l=params.k * a[1:N] / p[:-1])


def _qd_sweep(add, mul, first, x):
    """Pivots add_i + t_i of one differential qd sweep, and the t_i, for every
    shift in x: t_0 = first - x and t_{i+1} = (t_i / pivot_i) mul_i - x.

    A zero pivot is taken as its limit from above, as LAPACK ``dlaneg``
    does: the next pivot is -inf and the ratio after it is 1.  Since every
    add_i >= 0, a zero pivot means t_i <= 0, and the ratio is -inf (1 when
    t_i = 0).

    The recurrence is sequential in i, so the kernel runs it one shift at a
    time on Python floats and fills one column per shift.  A row of numpy
    calls over all shifts costs about 4-5 us whatever their number, a
    scalar step about 0.2 us per (row, shift): the scalar loop is faster
    below some 20 shifts, and callers pass one shift per eigenvalue asked
    for (8 to 13 in the CLI and ``verify``).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ts = np.empty((len(add) + 1, x.size))
    rows = list(zip(add.tolist(), mul.tolist()))
    first = float(first)
    for j, xj in enumerate(x.tolist()):
        t = first - xj
        col = [t]
        push = col.append
        for a, m in rows:
            try:
                ratio = t / (a + t)
            except ZeroDivisionError:
                ratio = -math.inf if t < 0.0 else 1.0
            if ratio != ratio:  # -inf / -inf after a zero pivot
                ratio = 1.0
            t = ratio * m - xj
            push(t)
        ts[:, j] = col
    # the same additions as in the loop, so the same bits
    return add[:, None] + ts[:-1], ts


def _stationary(T: TruncatedJacobi, x):
    """Stationary transform from the top, L D L^T - x I = L+ D+ L+^T (dstqds;
    Dhillon & Parlett 2004).  Returns D+, L+ and s_i = D+_i - d_i."""
    ld = T.d[:-1] * T.l
    piv, s = _qd_sweep(T.d[:-1], ld * T.l, 0.0, x)
    with np.errstate(divide="ignore"):
        return np.vstack((piv, T.d[-1] + s[-1])), ld[:, None] / piv, s


def _progressive(T: TruncatedJacobi, x):
    """Progressive transform from the bottom, L D L^T - x I = U- R U-^T (dqds):
    p_{N-1} = d_{N-1} - x, R_{i+1} = d_i l_i^2 + p_{i+1}.  Returns p and U-."""
    ld = T.d[:-1] * T.l
    piv, p = _qd_sweep((ld * T.l)[::-1], T.d[-2::-1], T.d[-1], x)
    with np.errstate(divide="ignore"):
        return p[::-1], ld[:, None] / piv[::-1]


def _twisted_vectors(T: TruncatedJacobi, lam):
    """Section eigenvectors at the shifts lam by twisted factorization.

    gamma_i = s_i + p_i + lam is 1 / [(T - lam)^{-1}]_ii, and the twist r
    takes the least |gamma_r| (Dhillon & Parlett 2004; LAPACK ``dlar1v``).
    The vector has z_r = 1, z_i = -L+_i z_{i+1} above the twist and
    z_{i+1} = -U-_i z_i below it, so ||(T - lam) z|| = |gamma_r|.  Returns z
    (one column per shift) and gamma_r.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    _, lplus, s = _stationary(T, lam)
    p, uminus = _progressive(T, lam)
    gamma = s + p + lam
    r = np.argmin(np.abs(gamma), axis=0)
    rows = np.arange(T.size)[:, None]
    z = np.ones((T.size, lam.size))
    z[:-1] = np.cumprod(np.where(rows[:-1] < r, -lplus, 1.0)[::-1], axis=0)[::-1]
    z[1:] *= np.cumprod(np.where(rows[1:] > r, -uminus, 1.0), axis=0)
    return z, gamma[r, np.arange(lam.size)]


def sturm_count(T: TruncatedJacobi, x):
    """Number of eigenvalues of T strictly below x: an int at a float x, one
    count per shift at an array of shifts.

    By Sylvester's inertia law, the number of negative pivots D+_i of the
    stationary transform L D L^T - x I = L+ D+ L+^T (``_stationary``).
    """
    counts = np.count_nonzero(_stationary(T, x)[0] < 0.0, axis=0)
    return int(counts[0]) if np.ndim(x) == 0 else counts


def _sturm_counts_dd(T: TruncatedJacobi, x) -> Optional[list[int]]:
    """``sturm_count`` at each shift in x, with the stationary recurrence run
    in double-double, or None when a value leaves the float range.

    The recurrence is mixed relatively stable (Dhillon & Parlett 2004), so
    each count is exact for a factor whose entries are perturbed by a
    relative few EPS_DD, which moves every eigenvalue by a relative
    4 N few EPS_DD at most: less than one float ulp for any section of up
    to 2^40 rows.  A zero pivot is taken as its limit from above, as in
    ``_qd_sweep``.
    """
    d = T.d.tolist()
    rows = [dd.dd_mul_d(*dd.two_prod(di, li), li) for di, li in zip(d, T.l.tolist())]
    counts = []
    for xj in np.atleast_1d(x).tolist():
        th, tl, neg = -xj, 0.0, 0
        for di, (mh, ml) in zip(d, rows):
            if th == -math.inf:  # after a zero pivot: pivot -inf, ratio 1
                neg += 1
                th, tl = dd.dd_add_d(mh, ml, -xj)
                continue
            ph, pl = dd.dd_add_d(th, tl, di)
            if ph != ph:
                return None
            neg += ph < 0.0
            if ph == 0.0:
                th, tl = -math.inf, 0.0
                continue
            th, tl = dd.dd_add_d(*dd.dd_mul(*dd.dd_div(th, tl, ph, pl), mh, ml), -xj)
        ph = -math.inf if th == -math.inf else dd.dd_add_d(th, tl, d[-1])[0]
        if ph != ph:
            return None
        counts.append(neg + (ph < 0.0))
    return counts


def section_eigenvalues(T: TruncatedJacobi, count: int) -> np.ndarray:
    """First ``count`` section eigenvalues, in increasing order.

    T = B^T B with B = (L D^{1/2})^T upper bidiagonal: diagonal sqrt(d_n),
    superdiagonal l_n sqrt(d_n).  Its eigenvalues are the squared singular
    values of B, which dqds (the differential qd algorithm with shifts)
    computes on the qd array of B, q_n = d_n and e_n = l_n^2 d_n, to high
    relative accuracy (Fernando & Parlett 1994; Parlett & Marques 2000).
    Below ``_COUNT_FROM`` rows numpy's SVD of the dense B runs LAPACK's:
    the bidiagonalization of a bidiagonal input applies only identity
    reflectors, so B reaches ``dlasq1`` (dqds on all N values) unchanged.
    From ``_COUNT_FROM`` rows on, where the dense SVD costs O(N^3) time and
    O(N^2) memory, ``_dqds_smallest`` runs dqds on Python floats and stops
    once the ``count`` smallest values are found.  Neither forms T or
    B^T B.  ConvergenceFailure when either driver does not converge.
    """
    count = min(count, T.size)
    if T.size == 1:
        return T.d.copy()
    if T.size >= _COUNT_FROM:
        return _dqds_smallest(T, count)
    N = T.size
    root = np.sqrt(T.d)
    B = np.zeros((N, N))
    B.flat[:: N + 1] = root
    B.flat[1 :: N + 1] = T.l * root[:-1]
    try:
        sv = np.linalg.svd(B, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"the SVD of the {N}-row section's bidiagonal factor failed: {exc}") from exc
    return np.square(sv[: -count - 1 : -1])


_EPS = float(np.finfo(float).eps)
# dqds transforms allowed per eigenvalue asked of _dqds_smallest, plus one
# eigenvalue's worth for the start: in 870 random sections of 100 to 2000
# rows the first value took up to 18 transforms, later ones about 5
_SWEEPS = 30


def _dqds_transform(q: list, e: list, tau: float):
    """One dqds transform of the qd array (q, e) of an upper bidiagonal B
    with shift tau: the array of the B' with B'^T B' = B B^T - tau I, and the
    least of its d_i, as (q', e', d_min).  When tau is not below the
    smallest eigenvalue a d_i comes out negative: (None, i, d_i), with i the
    first such row (a zero division counts as a failure too).
    """
    d = q[0] - tau
    if d < 0.0:
        return None, 0, d
    d_min = d
    q_new, e_new = [], []
    push_q, push_e = q_new.append, e_new.append
    try:
        for e_i, q_next in zip(e, q[1:]):
            q_hat = d + e_i
            t = q_next / q_hat
            push_q(q_hat)
            push_e(e_i * t)
            d = d * t - tau
            if d < d_min:
                if d < 0.0:
                    return None, len(q_new), d
                d_min = d
    except ZeroDivisionError:
        return None, len(q_new), -math.inf
    push_q(d)
    return q_new, e_new, d_min


def _dqds_smallest(T: TruncatedJacobi, count: int) -> np.ndarray:
    """The ``count`` smallest eigenvalues of T = L D L^T by dqds on Python
    floats, in increasing order: O(N) memory, O(N) work per transform.

    The qd array q = d, e = l^2 d is reversed when the least pivot lies in
    its upper half (d grows, or a prefix falls), so that the small end of
    the spectrum converges at the bottom.  Each transform
    shifts by tau below the smallest eigenvalue of the current array (one
    that is not fails, and a smaller tau is tried): where the last
    transform's least d_i was its last one, tau is the Kato-Temple lower
    bound at the bottom twisted vector z (z_{N-1} = 1, z_i^2 = prod of
    e_j / q_j for j >= i, so T z = q_{N-1} e_{N-1}), with the gap to the
    next eigenvalue guessed as half the distance to q_{N-2}, or the
    Rayleigh quotient minus the residual where that is larger (LAPACK
    ``dlasq4``, case 4); elsewhere a growing fraction of d_min.  A failure
    at the last row retries at tau + d_{N-1}, below the eigenvalue, others
    at tau / 4, then 0.  The shifts add up to sigma (compensated), and the
    bottom value sigma + q_{N-1} deflates once e_{N-2} <= eps^2 (sigma +
    q_{N-1}): dropping that coupling moves no eigenvalue by more than
    sqrt(q_{N-1} e_{N-2}) + e_{N-2}, about one ulp of it.

    dqds finds the bottom value nearest below the shifts, so values
    deflate in increasing order unless a near-split hides a smaller one
    above the bottom.  So after ``count`` deflations one more transform,
    shifted to the largest of them, must leave the remaining array
    positive definite; where it does not, one more value is deflated and
    the check repeated.  ConvergenceFailure after ``_SWEEPS`` (count + 1)
    transforms.
    """
    q = T.d.tolist()
    e = (T.l * T.l * T.d[:-1]).tolist()
    if 2 * int(np.argmin(T.d)) < T.size:
        q.reverse()
        e.reverse()
    sigma, sigma_lo = 0.0, 0.0
    found = []
    want, sweeps, cap = count, 0, _SWEEPS * (count + 1)
    d_min, at_bottom, g = min(q), True, 0.25
    while True:
        while len(found) < want and q:
            if len(q) == 1 or e[-1] <= _EPS * _EPS * (sigma + q[-1]):
                found.append(sigma + (sigma_lo + q.pop()))
                if e:
                    e.pop()
                at_bottom = True
                continue
            a2, z2 = 0.0, 1.0  # |z|^2 - 1 and the current z_i^2, from the bottom up
            for i in range(len(q) - 2, -1, -1):
                z2 *= e[i] / q[i]
                a2 += z2
                if z2 < _EPS * a2 or a2 > 0.563:
                    break
            if at_bottom and a2 < 0.563:
                rho = q[-1] / (1.0 + a2)  # the Rayleigh quotient at z
                drop = math.sqrt(a2)  # residual / rho
                gap = 0.5 * (q[-2] - rho)
                if gap > 0.0:
                    drop = min(drop, rho * a2 / gap)
                tau = rho * (1.0 - drop)
                g = 0.25
            else:
                tau = g * d_min
                g += (1.0 - g) / 3.0
            tries = 0
            while True:
                sweeps += 1
                if sweeps > cap:
                    raise ConvergenceFailure(
                        f"dqds on the {T.size}-row section found {min(len(found), count)} of "
                        f"{count} eigenvalues in {cap} transforms"
                    )
                out = _dqds_transform(q, e, tau)
                if out[0] is not None:
                    break
                tries += 1
                row, d_fail = out[1], out[2]
                if tries == 1 and row == len(q) - 1:
                    tau = max(tau + d_fail, 0.0) * (1.0 - 2.0 * _EPS)
                else:
                    tau = 0.25 * tau if tries < 4 else 0.0
            q, e, d_min = out
            at_bottom = d_min == q[-1]
            sigma, lo = dd.two_sum(sigma, tau)
            sigma_lo += lo
        found.sort()
        top = found[count - 1]
        if not q or top <= sigma:
            return np.array(found[:count])
        sweeps += 1
        if _dqds_transform(q, e, top - sigma)[0] is not None:
            return np.array(found[:count])
        want = len(found) + 1


def section_inverse_trace(T: TruncatedJacobi) -> float:
    """Trace of the section inverse from the factor: sum_i R_i / d_i.

    T^{-1} = L^{-T} D^{-1} L^{-1} and L^{-1} has entries
    prod_{m=j}^{i-1} (-l_m), so R_i = sum_j (L^{-1})_{ij}^2 obeys R_0 = 1,
    R_i = 1 + l_{i-1}^2 R_{i-1}.  Every term is positive; for a section of
    the operator this is the first N terms of the trace series.
    """
    R = [1.0]
    for li in T.l.tolist():
        R.append(1.0 + li * li * R[-1])
    return math.fsum(np.divide(R, T.d))


@dataclass
class SpectralData:
    """Computed point-spectrum data for the first ``count`` eigenvalues."""

    count: int
    lambdas: np.ndarray
    lambdas_lo: np.ndarray
    masses: np.ndarray
    masses_quadrature: np.ndarray
    mass_route: list[str]
    # |F|, its bound and its abs-sum sum |c_m| |z|^m from one evaluation at
    # each returned eigenvalue (the wide pass at Newton's root, or at the
    # section value where a moved root is not kept); NaN (bound: inf) when
    # point_spectrum built no series
    residual_F: np.ndarray
    residual_F_bound: np.ndarray
    residual_F_abs_sum: np.ndarray
    residual_matrix: np.ndarray
    refined: np.ndarray
    # bound on |lambda_j(J) - lambda_j| from the bracket of the N_used-row
    # section (point_spectrum); the series certificate where smaller
    lambda_err: np.ndarray
    N_used: int
    # Delta_N diagnostic: upper end of sum_{i >= N_used} (1 - k^{2i+2}) / ((1-k^2) a_i)
    completeness_defect: float
    lambda_next_lower: float  # lower bound on lambda_count(J)
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
    norm_residuals: np.ndarray   # |sum Phi^2 + tail - (-F' W)| / sum Phi^2 (fallback: NaN)
    eigen_residuals: np.ndarray  # ||(T - lam) Phi|| / ||Phi||, last row excluded (fallback: section's)
    certified_from: np.ndarray   # first series-certified entry index per j


_CONTEXT_TARGETS = (1e-26, 1e-22, 1e-18, 1e-14, 1e-12, 1e-10, 1e-8)
_CONTEXT_MAX_CUTOFF = 1 << 14


def _series_context(params: JacobiParams, radius: float, n_max: int):
    """Series truncation (M, J) sized so certified evaluation survives
    kappa ~ 1e13, for ``series_pair`` to build.

    The cutoff also clears n_max by a margin: the omitted-seed bound of the
    shift-n series is n-independent, so it must be pushed below the smallest
    retained coefficient scale k^{2 n_max}/a_{n_max} times the certification
    headroom.  ``choose_truncation`` doubles its cutoff from the same
    n_max + 16, so it certifies a target by J_cap, the first doubling from
    2^14 on, exactly when its cutoff test passes there (the tail bound only
    falls as the cutoff grows); that test picks the target and one call
    follows.
    """
    J_cap = n_max + 16
    while J_cap < _CONTEXT_MAX_CUTOFF:
        J_cap *= 2
    floor = _weight_beyond(params, J_cap) * max(radius, 1.0)
    for target in _CONTEXT_TARGETS:
        if floor < target / 10.0:
            return choose_truncation(params, radius, target, min_cutoff=n_max + 16)
    # polynomially decaying reciprocal tails cannot reach any of the
    # targets; point_spectrum's screen (_series_hopeless) then usually
    # proves from this truncation's own bound that nothing can certify
    return 48, max(n_max + 16, 192)


_NEWTON_CAP = 40  # Newton steps per root; a root still moving after them raises
_BASIN = 0.25  # a Newton iterate stays within this relative distance of its seed


def _refine_roots(evaluate: Callable, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compensated Newton from section seeds, all roots at once.

    ``evaluate`` is an evaluator of F and F' from ``entire._value_and_slope``.
    Returns the roots (hi, lo) and whether each moved.  Each step makes one
    pass over the two-column table of F and F', at the roots that continue.
    Each root stops on its own rules and walks the iterates a one-root
    Newton would: once the applied correction is no larger than the
    certified root resolution err_bound/|F'| (so the result does not depend
    on the last bits of the seed; a stop on small |F| alone would keep
    whichever point first fell inside the noise band), or at a 1e-30
    relative step.  The stop test reads the step, the previous evaluation's
    bound and the stepped point only, so a root is not evaluated where it
    stops: the caller evaluates what it needs at the returned points.  One
    exit rule covers every other step: a step that is not finite (F' = 0,
    or a NaN F or F') or that leaves the basin (lands farther than
    ``_BASIN`` from the seed, relative to it) returns the seed exactly,
    unmoved with a zero low word; so a moved root lies within ``_BASIN`` of
    its seed.  ConvergenceFailure when some root is still moving after
    ``_NEWTON_CAP`` steps.
    """
    seeds = np.asarray(seeds, dtype=float)
    zh = seeds.copy()
    zl = np.zeros_like(zh)
    fe, fph, fpl = evaluate(zh, zl)
    fval, flo, ferr = fe.value, fe.value_lo, fe.err_bound
    moved = np.ones(zh.shape, dtype=bool)
    active = np.flatnonzero(moved)
    # F' = 0 or a NaN makes a step that is not finite, which exits below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_CAP):
            if not active.size:
                break
            fpv = fph[active]
            sh, sl = dd.dd_div(fval[active], flo[active], fpv, fpl[active])
            # a step that is not finite or leaves the basin keeps the section value
            out = ~(np.abs(zh[active] - seeds[active] - sh) <= _BASIN * np.abs(seeds[active]))
            exits = active[out]
            zh[exits], zl[exits], moved[exits] = seeds[exits], 0.0, False
            active, sh, sl, fpv = active[~out], sh[~out], sl[~out], fpv[~out]
            resolution = ferr[active] / np.abs(fpv)
            zh[active], zl[active] = dd.dd_sub(zh[active], zl[active], sh, sl)
            done = (np.abs(sh) <= resolution) | (np.abs(sh) <= 1e-30 * np.abs(zh[active]))
            active = active[~done]
            if active.size:
                fe, fph[active], fpl[active] = evaluate(zh[active], zl[active])
                fval[active], flo[active], ferr[active] = fe.value, fe.value_lo, fe.err_bound
    if active.size:
        raise ConvergenceFailure(
            f"Newton on the series did not settle {active.size} of {zh.size} roots "
            f"in {_NEWTON_CAP} steps"
        )
    return zh, zl, moved


_SCREEN_MARGIN = 2.0  # covers the rounding of every quantity the screen compares


def _series_hopeless(
    params: JacobiParams, M: int, J: int, seeds: np.ndarray, tol: float
) -> np.ndarray:
    """Per root: True when the order-M series with cutoff J provably can
    neither refine it to ``tol`` nor certify a second-kind entry at it.

    Every bound of ``_certified`` holds the omitted-index term
    t z sum_{m<M} c_m z^m, with t = X[J+1] of ``entire._weight_suffix``, the
    weight beyond the cutoff widened for rounding, and the coefficients obey
    c_{m+1} <= S c_m for any S >= sum_j x_j.  The screen reads two certified
    tail bounds: t_b = ``_weight_beyond(params, J)`` <= t, and
    S = ``_weight_beyond(params, -1)``, the total weight R(0)/(1-k^2).  Hence

    * |F'(z)| <= M S sum_{m<M} c_m z^m, so the root certificate
      err/|F'| is at least t_b z / (M S); a moved root lies within
      ``_BASIN`` of its seed, and against tol max(z, 1) the bound is
      weakest at z = min((1 - _BASIN) seed, 1);
    * a root that is not refined stays at its seed z, where every
      second-kind entry has |value| <= (1 + S z) sum_{m<M} h_m z^m, so
      err/|value| is at least t_b z / (1 + S z), against ``_CERT_REL``.

    Reading t_b for t only lowers these lower bounds, so the screen stays
    sound; ``_SCREEN_MARGIN`` covers the rounding of its comparisons.
    """
    t_b, S = _weight_beyond(params, J), _weight_beyond(params, -1)
    with np.errstate(over="ignore"):  # an overflow only fails the test
        z_lo = np.minimum((1.0 - _BASIN) * seeds, 1.0)
        # the certificate divides by max(|F'|, 1e-300)
        root = t_b * z_lo > _SCREEN_MARGIN * tol * max(M * S, 1e-300)
        mass = t_b * seeds > _SCREEN_MARGIN * _CERT_REL * (1.0 + S * seeds)
    return root & mass


_MARGIN_C = 4  # c of the rounding margin m = c N eps of a bracket (see _enclosure)
# the narrowest bracket the size loop aims for: a tighter tol is met only by
# the series certificates of refined roots
_TOL_FLOOR = 16.0 * np.finfo(float).eps
_DOWN = 1.0 - 2.0**-40  # takes a product of up to a thousand roundings below its exact value
# from this size on T_low is counted, not solved, and T is solved by the
# Python dqds, not the dense SVD: count + 1 Sturm counts cost O(N) each, the
# dqds solve O(N) per transform and the SVD O(N^3) time and O(N^2) memory
# (timeit, p = 2, k = 0.5, count 8: counts 0.13, dqds 0.59, SVD 0.31 ms at
# 112 rows; 1.9, 8.2 and 1030 ms at 1792)
_COUNT_FROM = 100


class _Enclosure(NamedTuple):
    """Section eigenvalues and the bracket lower_j <= lambda_j(J) <= upper_j,
    j = 0..count, from ``_enclosure``."""

    T: TruncatedJacobi
    theta: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _margin(N: int) -> float:
    return _MARGIN_C * N * np.finfo(float).eps


def _enclosure(params: JacobiParams, N: int, count: int, tol: float) -> Optional[_Enclosure]:
    """Two-sided bounds on the first count + 1 eigenvalues of the operator J
    from its N-row section T, or None when the size cannot bracket them
    within ``tol``: the tail does not clear them, T_low's Sturm counts put
    a lower end too low, or a lower end comes out above its section value,
    which rounding within the margin cannot do.

    J = sum_n a_n v_n v_n^T with v_n = e_n + k e_{n+1}.  T holds the terms
    n < N - 1 and a_{N-1} e_{N-1} e_{N-1}^T, so min-max gives
    lambda_j(J) <= theta_j = lambda_j(T).  For t > 0,
    (x + k y)^2 >= t/(1+t) x^2 - t k^2 y^2 splits the term n = N - 1, and
    J >= T_low (+) R, where T_low is T's factor with d_{N-1} scaled by
    t/(1+t) and R = Q - sigma e_N e_N^T, sigma = t k^2 a_{N-1}, with Q the
    terms n >= N.  With A = min_{n >= N} a_n and y = B x the vector of
    x_n + k x_{n+1}, n >= N: Q >= A |y|^2, |y| >= (1-k) |x| and, since
    x_N = sum_i (-k)^i y_{N+i}, x_N^2 <= |y|^2 / (1-k^2).  So
    R >= (A - sigma/(1-k^2)) |y|^2 >= (1-k)^2 A - sigma (1-k)/(1+k): the
    tail pays for the split at the rate (1-k)/(1+k), not 1, which matters
    when k is near 1.  t is taken as large as keeps that bound at
    2 theta_count: sigma = slack (1+k)/(1-k) with
    slack = (1-k)^2 A - 2 theta_count.  Then R lies above every theta_j,
    j <= count, and lambda_j(J) >= lambda_j(T_low).  Without slack (the
    tail too close to theta_count) nothing is bounded.  Each of R's bound,
    t and the scaled pivot is rounded down (``_DOWN``), so the split holds
    for the float a_n and k.

    Below ``_COUNT_FROM`` rows T_low is solved like T (``section_eigenvalues``),
    and each end is widened by the relative margin m = c N eps with
    c = ``_MARGIN_C`` = 4: lower_j = lambda_j(T_low)(1 - m),
    upper_j = theta_j (1 + m).  From ``_COUNT_FROM`` rows on, float Sturm
    counts (``_stationary``) show instead that T_low has at most j
    eigenvalues below x_j = theta_j (1 - tol + 3m), the lowest point whose
    bracket still meets tol, and lower_j = x_j (1 - m); or the size does
    not certify.  Such a bracket is about tol wide even where
    lambda_j(T_low) lies closer.  Index count need not meet tol: where its
    count fails, lambda_count(T_low) >= theta_{count-1} (T_low is T with
    one pivot lowered, so their eigenvalues interlace) gives its lower end.

    Why c = 4: both drivers of ``section_eigenvalues`` run dqds on the qd
    array of the bidiagonal (each entry within a few ulps of its exact
    value).  dqds is mixed relatively stable (Parlett & Marques 2000): each
    transform is the exact transform, at its exact shift, of its input with
    every entry changed by a few ulps, and its output changes by a few more.
    Both drivers sum the shifts with compensation and deflate a value only
    once its coupling is negligible against it (about one ulp in
    ``_dqds_smallest``).  Relative perturbations of at most eta in the 2N - 1
    entries of a bidiagonal move every singular value by a relative
    (2N - 1) eta at most, every eigenvalue by (4N - 2) eta (Demmel & Kahan
    1990); c = 4 is that factor at eta = eps.  The count's stationary qd
    transform is mixed relatively stable too (a few ulps per entry of the
    factor; Dhillon & Parlett 2004), so the same margin covers it.  This is
    a rounding model, not a proof: the perturbations of successive
    transforms add up, and the pivot recurrence passes a relative error on
    with a factor up to k^2, so eta can exceed eps when k is near 1.
    Measured against 200-bit Sturm counts on the factor, the errors stay
    far inside m at every size: on the decreasing Explicit prefix at
    k = 0.99 (N = 23 to 2944) at most 3.5 eps at N = 23 (m = 92 eps) and
    156 eps at N = 736 (m = 2944 eps); 7.5 eps at p = 1.3, k = 0.95 (N = 28
    to 3584; m >= 112 eps) and 1.5 eps for geometric weights (N = 28 to 99;
    m >= 112 eps).  tests/test_oracle.py checks the brackets, and the
    section values on both sides of ``_COUNT_FROM``, against that oracle.

    Where m exceeds tol/4, the two margins would take over half of tol.
    Then the ends are lower_j = theta_j (1 - s) and upper_j = theta_j (1 + s),
    s = 0.4 tol, whatever N, each checked by a double-double Sturm count
    (``_sturm_counts_dd``) on T_low and on T, and moved one ulp outward;
    upper_count is inf.  A lower end that fails its count means the size
    does not certify; an upper end that fails means a section value lies
    further than s from the eigenvalue it stands for, and raises
    ConvergenceFailure.
    """
    T = truncate(params, N)
    theta = section_eigenvalues(T, count + 1)
    k = params.k
    r_low = (1.0 - k) ** 2 * sequence_min_from(params.seq, N) * _DOWN
    slack = r_low - 2.0 * float(theta[count])
    if not slack > 0.0:
        return None
    t = slack * (1.0 + k) / ((1.0 - k) * k * k * float(T.d[-1])) * _DOWN
    d = T.d.copy()
    d[-1] = d[-1] * (t / (1.0 + t)) * _DOWN
    m = _margin(N)
    T_low = TruncatedJacobi(d=d, l=T.l)
    # checked: the modelled margins of the two ends would take over a half
    # of tol, so double-double Sturm counts check each end instead
    checked = m > tol / 4.0
    if N < _COUNT_FROM and not checked:
        lower = section_eigenvalues(T_low, count + 1) * (1.0 - m)
        if not np.all(lower <= theta):  # rounding beyond the margin: no bracket
            return None
        return _Enclosure(T, theta, lower, theta * (1.0 + m))
    s = 0.4 * tol if checked else tol - 3.0 * m
    lower = theta * (1.0 - s)
    if checked:
        below = _sturm_counts_dd(T_low, lower)
    else:
        below = sturm_count(T_low, lower).tolist()
    if below is None or any(b > j for j, b in enumerate(below[:count])):
        return None
    if below[count] > count:  # T_low, T differ in one pivot, so they interlace
        lower[count] = theta[count - 1] * (1.0 - s)
        if checked:
            below = _sturm_counts_dd(T_low, lower[count:])
            if below is None or below[0] > count:
                return None
    if not checked:
        return _Enclosure(T, theta, lower * (1.0 - m), theta * (1.0 + m))
    upper = theta * (1.0 + s)
    upper[count] = math.inf  # index count needs no upper end
    above = _sturm_counts_dd(T, upper[:count])
    if above is None or any(a < j + 1 for j, a in enumerate(above)):
        raise ConvergenceFailure(
            f"the {N}-row section's eigenvalues are not within a relative {s:g} "
            f"of the values they stand for (double-double Sturm count)"
        )
    # one ulp outward covers the count's own rounding
    return _Enclosure(T, theta, np.nextafter(lower, 0.0), np.nextafter(upper, math.inf))


def point_spectrum(params: JacobiParams, count: int, tol: float = 1e-10) -> SpectralData:
    """First ``count`` eigenvalues with masses, error bounds and residual
    diagnostics.

    N_used is the first section size, doubling from count + 20 over at
    most 11 sizes, whose bracket (``_enclosure``) certifies the index and
    has width upper_j - lower_j <= max(tol, 16 eps) theta_j for every
    j < count.  Those bounds hold for the operator of the float a_n.  Each
    end is widened for rounding by the modelled margin m = 4 N eps, or,
    where m exceeds a quarter of tol, set 0.4 tol from the section value
    and checked by a double-double Sturm count.  From 100 rows on the lower
    ends come from Sturm counts, not a second solve, and the bracket is
    about tol wide.  ConvergenceFailure when no size certifies, or when a
    double-double count shows a section value further than 0.4 tol from
    the eigenvalue it stands for.

    Compensated Newton on the characteristic series then refines each root
    where the evaluation certifies itself (certificate err/|F'| <=
    tol max(|z|, 1)) and the root lies inside its bracket; otherwise the
    section value theta_j is returned.  ``lambda_err`` bounds
    |lambda_j(J) - lambda_j|: the bracket width, or for a refined root the
    certificate where that is smaller and no neighbouring bracket comes
    within the certificate of the root.  A tol below 16 eps is met only
    through such certificates; a returned lambda_err above tol theta_j
    raises ConvergenceFailure instead.  ``lambda_next_lower`` is the
    bracket's lower end for index ``count``, a lower bound on
    lambda_count(J).  Newton evaluates only the roots that continue; one
    wide pass over F, F' and the second-kind family at every root it
    returns gives the certificate, ``residual_F`` and the F' and family the
    masses use.  A moved root that is not kept takes one more wide pass at
    its section value, so all of them describe the returned eigenvalue.

    The completeness defect is a diagnostic, not the certificate: the upper
    end (value + bound) of the closed tail of the inverse trace beyond the
    section, ``sum_{i >= N_used} (1 - k^{2i+2}) / ((1-k^2) a_i)``
    (``polycore._trace_tail(params, N_used - 1)``), its own rounding
    included.

    When the series bound itself shows that no root can refine and no mass
    can certify (``_series_hopeless``; polynomially decaying reciprocal
    tails), no series is built; when a coefficient of the built series or
    family is not finite (weights 1/((1-k^2) a_j) so large that the chain
    sums leave the float range), it is not evaluated.  Either way the
    section values and their Gauss weights are returned as the full path
    would return them, ``residual_F`` and ``residual_F_abs_sum`` are NaN
    and ``residual_F_bound`` is inf.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    gamma = gamma_lower_bound(params)
    target = max(tol, _TOL_FLOOR)
    enc = None
    for i in range(11):  # count + 20 rows, doubling
        N = (count + 20) << i
        found = _enclosure(params, N, count, target)
        if found is not None and np.all(
            found.upper[:count] - found.lower[:count] <= target * found.theta[:count]
        ):
            enc = found
            break
    if enc is None:
        raise ConvergenceFailure(
            f"no section of up to {N} rows brackets the first {count} eigenvalues "
            f"to a relative {target:g}"
        )
    T, lower, upper = enc.T, enc.lower[:count], enc.upper[:count]
    width = upper - lower

    radius = float(enc.theta[count - 1]) * 1.3 + 1.0
    n_aux = count + 10
    M, J = _series_context(params, radius, n_aux)
    seeds = enc.theta[:count]

    series = None
    if not np.all(_series_hopeless(params, M, J, seeds, tol)):
        series = series_pair(params, M, J, n_aux + 1)
        # coefficients past the float range: nothing to evaluate
        if not all(np.isfinite(c).all() for s in series for c in (s.coeffs, s.coeffs_lo)):
            series = None
    if series is None:
        lam_hi, lam_lo = seeds.copy(), np.zeros(count)
        refined = np.zeros(count, dtype=bool)
        lam_err = width
        res_F, res_F_abs_sum = np.full(count, math.nan), np.full(count, math.nan)
        res_F_bound = np.full(count, math.inf)
        _, masses_q, eig_res = _section_weights(T, seeds)
        masses, route = masses_q.copy(), ["fallback"] * count
    else:
        evaluate = _value_and_slope(*series)
        hi, lo, moved = _refine_roots(evaluate, seeds)
        # F, F' and the family at every returned root, in one wide pass
        fe, fp_hi, fp_lo, fam_ev = evaluate(hi, lo, True)
        cert_err = fe.err_bound / np.maximum(np.abs(fp_hi), 1e-300)
        refined = (
            moved
            & (cert_err <= tol * np.maximum(np.abs(hi), 1.0))
            & (lower <= hi)
            & (hi <= upper)
        )
        lam_hi = np.where(refined, hi, seeds)
        lam_lo = np.where(refined, lo, 0.0)
        # the root of F within cert_err of lambda_j is lambda_j(J) where no
        # neighbouring bracket reaches that far
        isolated = (hi - cert_err > np.concatenate(([-math.inf], upper[:-1]))) & (
            hi + cert_err < enc.lower[1:]
        )
        lam_err = np.where(refined & isolated, np.minimum(width, cert_err), width)
        # a moved root that is not kept returns to its section value: one
        # more wide pass there (a basin exit is its seed already)
        redo = np.flatnonzero((lam_hi != hi) | (lam_lo != lo))
        if redo.size:
            fe_r, fp_hi[redo], fp_lo[redo], ev_r = evaluate(lam_hi[redo], lam_lo[redo], True)
            for whole, part in ((fe, fe_r), (fam_ev, ev_r)):
                for field, value in vars(part).items():
                    getattr(whole, field)[..., redo] = value
        res_F, res_F_bound, res_F_abs_sum = np.abs(fe.value), fe.err_bound, fe.abs_sum
        md = _mass_machinery(
            params, lam_hi, lam_lo, n_aux, fam_ev, (fp_hi, fp_lo), T, seeds, norm_identity=False
        )
        masses, masses_q, route = md.masses, md.masses_quadrature, md.mass_route
        eig_res = md.eigen_residuals

    if np.any(lam_err > tol * seeds):
        raise ConvergenceFailure(
            f"the {T.size}-row section brackets the first {count} eigenvalues to a "
            f"relative {target:g} only, and the series does not certify {tol:g} for all"
        )
    return SpectralData(
        count=count,
        lambdas=lam_hi,
        lambdas_lo=lam_lo,
        masses=masses,
        masses_quadrature=masses_q,
        mass_route=route,
        residual_F=res_F,
        residual_F_bound=res_F_bound,
        residual_F_abs_sum=res_F_abs_sum,
        residual_matrix=eig_res,
        refined=refined,
        lambda_err=lam_err,
        N_used=T.size,
        completeness_defect=sum(_trace_tail(params, T.size - 1)),
        lambda_next_lower=float(enc.lower[count]),
        gamma=gamma,
    )


def _section_weights(T: TruncatedJacobi, lams_section: np.ndarray):
    """Matrix side at the section eigenvalues: the twisted eigenvectors z
    (one column each), their Gauss weights z_0^2 / ||z||^2 and their
    residuals ||(T - lam) z|| / ||z|| = |gamma_r| / ||z||."""
    z, gamma_r = _twisted_vectors(T, lams_section)
    norm_sq = np.cumsum(z * z, axis=0)[-1]  # ordered sum: the bits of one column
    return z, z[0] * z[0] / norm_sq, np.abs(gamma_r) / np.sqrt(norm_sq)


def _orthopoly_dd_with_envelope(params, n, zh, zl):
    """dd polynomial values at points (zh, zl), (n+1) x P, plus a float
    envelope of accumulated magnitude."""
    Ph, Pl = orthopoly_values_dd(params, n, (zh, zl))
    _, alpha, beta = entry_arrays(params, n + 1)
    alpha, beta = alpha.tolist(), beta.tolist()
    env = np.empty_like(Ph)
    for j, az in enumerate(np.abs(zh).tolist()):  # one point at a time, on Python floats
        col = [1.0]
        if n >= 1:
            col.append((az + beta[0]) / alpha[0])
            for i in range(1, n):
                col.append(((az + beta[i]) * col[i] + alpha[i - 1] * col[i - 1]) / alpha[i])
        env[:, j] = col
    return Ph, Pl, env


def _mass_machinery(
    params: JacobiParams,
    lam_hi: np.ndarray,
    lam_lo: np.ndarray,
    n_max: int,
    fam_ev: SeriesEval,
    fprime: tuple[np.ndarray, np.ndarray],
    T: TruncatedJacobi,
    lams_section: np.ndarray,
    norm_identity: bool = True,
) -> MassData:
    """Masses, eigenvector samples and their identities at every eigenvalue.

    ``fam_ev`` is the evaluation of the second-kind family of shifts
    0..n_max+1 at the eigenvalues (shift x eigenvalue, the fields of
    ``eval_series(fam, (lam_hi, lam_lo))``), and ``fprime`` F' there as a
    double-double pair, both from one wide pass at the eigenvalues
    (``entire._value_and_slope``; ``point_spectrum`` makes it at the roots
    Newton returns).  Arrays run (index n x eigenvalue j) and
    every step is elementwise or reduces along n in order, so each column has
    the bits of a one-root computation.  Rows without a certified series
    entry take the section eigenvector at ``lams_section`` (``fallback``).  The norm identity
    (its tail bound ``_phi_tail_sq`` and the product F'W) runs only with
    ``norm_identity``; without it ``norm_residuals`` stays NaN.
    ``point_spectrum``, which reports no norm residual, leaves it out;
    ``masses_and_vectors`` runs it.
    """
    count = len(lam_hi)
    k = params.k
    a, alpha, beta = entry_arrays(params, n_max + 2)
    scales = np.array([scale_for_shift(k, n) for n in range(n_max + 2)])

    fp_hi, fp_lo = fprime
    Ph, Pl, env = _orthopoly_dd_with_envelope(params, n_max + 1, lam_hi, lam_lo)
    value, err = fam_ev.value, fam_ev.err_bound
    phi_h, phi_l = dd.dd_mul_d(value, fam_ev.value_lo, scales[:, None])
    cert = (value != 0.0) & (err <= _CERT_REL * np.abs(value))

    # Weyl numerator from the best certified quotient Phi_n / P_n: the
    # first n of least relative error
    usable = cert & (Ph != 0.0)
    # an inf or nan here is an entry that does not certify
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_rel = EPS_DD * env / np.abs(Ph)  # recurrence noise at near-roots
        q_rel = err / np.abs(value) + p_rel
    nstar = []
    for use, q in zip(usable.T.tolist(), q_rel.T.tolist()):  # short columns: Python floats
        n_best, best = -1, math.inf
        for n, (u, qn) in enumerate(zip(use, q)):
            if u and (n_best < 0 or qn < best):
                n_best, best = n, qn
        nstar.append(n_best)
    nstar = np.array(nstar, dtype=np.int64)
    series = nstar >= 0
    cols = np.flatnonzero(series)

    # matrix side (_section_weights): the section's Gauss weights, and on
    # fallback rows the samples W z_n / z_0 and the section residual; rows
    # past the section stay NaN
    z, masses_q, eig_res = _section_weights(T, lams_section)
    masses = masses_q.copy()
    route = ["series" if s else "fallback" for s in series]
    wnum = -masses * fp_hi
    cert_from = np.full(count, n_max + 2, dtype=np.int64)
    vectors = np.full((count, n_max + 1), math.nan)
    vectors[:, : T.size] = (wnum * (z[: n_max + 1] / z[0])).T
    vectors_lo = np.zeros((count, n_max + 1))
    norm_res = np.full(count, math.nan)

    n_ = nstar[cols]
    wh, wl = dd.dd_div(phi_h[n_, cols], phi_l[n_, cols], Ph[n_, cols], Pl[n_, cols])
    fph, fpl = fp_hi[cols], fp_lo[cols]
    mh, _ = dd.dd_div(wh, wl, fph, fpl)
    mu = -mh
    negative = np.flatnonzero(~(mu > 0.0))
    if negative.size:
        j = int(cols[negative[0]])
        raise MassNegative(
            f"mass at eigenvalue index {j} came out {mu[negative[0]]:.3e}; root or evaluation is broken"
        )
    masses[cols] = mu
    wnum[cols] = wh
    first_cert = np.argmax(cert[:, cols], axis=0)
    cert_from[cols] = first_cert

    # eigenvector samples: series from the first certified index up
    # (beyond it the entries only shrink and stay certified), the
    # W * P_n identity below it (the polynomial recurrence is the
    # stable route exactly where the series cancels catastrophically)
    from_series = np.arange(n_max + 2)[:, None] >= first_cert
    wph, wpl = dd.dd_mul(wh, wl, Ph[:, cols], Pl[:, cols])
    vh = np.where(from_series, phi_h[:, cols], wph)
    vl = np.where(from_series, phi_l[:, cols], wpl)
    vectors[cols], vectors_lo[cols] = vh[:-1].T, vl[:-1].T

    # sum Phi^2 from the top down, one eigenvalue at a time on Python floats
    sums = [dd.dd_sum_sq(h, l) for h, l in zip(vh[n_max::-1].T.tolist(), vl[n_max::-1].T.tolist())]
    sh, sl = np.array(sums).reshape(-1, 2).T
    if norm_identity:  # sum Phi^2 + tail == -F'(lam) W(lam)
        envelope: list = []  # shared by the tail bounds of every eigenvalue
        tail = np.array([_phi_tail_sq(params, n_max, abs(z), envelope) for z in lam_hi[cols].tolist()])
        rh, rl = dd.dd_mul(fph, fpl, wh, wl)
        dh, _ = dd.dd_add(sh, sl, rh, rl)  # sum - (-F'W) = sum + F'W
        norm_res[cols] = np.abs(dh + tail) / sh

    # matrix residual over rows 0..n_max-1 (last row excluded)
    zh, zl = lam_hi[cols], lam_lo[cols]
    th, tl = dd.dd_add_d(-zh, -zl, beta[:n_max, None])
    rh, rl = dd.dd_mul(th, tl, vh[:n_max], vl[:n_max])
    uh, ul = dd.dd_mul_d(vh[:n_max - 1], vl[:n_max - 1], alpha[:n_max - 1, None])
    rh[1:], rl[1:] = dd.dd_add(rh[1:], rl[1:], uh, ul)
    uh, ul = dd.dd_mul_d(vh[1:n_max + 1], vl[1:n_max + 1], alpha[:n_max, None])
    rh, _ = dd.dd_add(rh, rl, uh, ul)
    acc = 0.0
    for r in rh:
        acc = acc + r * r
    eig_res[cols] = np.sqrt(acc) / np.sqrt(sh)

    return MassData(
        masses=masses,
        masses_quadrature=masses_q,
        mass_route=route,
        vectors=vectors,
        vectors_lo=vectors_lo,
        weyl_numerators=wnum,
        fprime=fp_hi,
        norm_residuals=norm_res,
        eigen_residuals=eig_res,
        certified_from=cert_from,
    )


def _phi_tail_sq(params: JacobiParams, n_max: int, abs_z: float, factors: list) -> float:
    """Certified bound on sum_{n > n_max} Phi_n(z)^2 via the envelope bound.

    ``factors`` holds the |z|-free envelope factors for n = n_max+1, ...;
    it is filled on demand and shared by the calls at every eigenvalue, so
    each n costs its two sequence values once.
    """
    om = _one_minus_k2(params.k)

    def bound(n):
        if n - n_max - 1 == len(factors):
            factors.append(_envelope_factors(params, n))
        return _envelope(om, factors[n - n_max - 1], abs_z)

    total = 0.0
    b = bound(n_max + 1)
    n = n_max + 1
    while n < n_max + 400:
        t = b * b
        total += t
        # past 2^-60 of the total neither a later term nor the k^2 remainder
        # below can change the float sum any more
        if t < 1e-300 or t < total * om * 2.0**-60:
            break
        n += 1
        b_next = bound(n)
        if b_next >= b:  # envelope must decay; bail conservatively
            return total + b * b / max(1e-12, om)
        b = b_next
    # remaining terms decay at least like k^2 per step
    return total + b * b * (params.k * params.k) / om


def masses_and_vectors(params: JacobiParams, sd: SpectralData, n_max: int) -> MassData:
    """Masses plus eigenvector samples Phi_0..Phi_{n_max} for each eigenvalue.

    Recomputes the series context sized for ``n_max`` and reuses the refined
    eigenvalues stored in ``sd``; F' and the second-kind family there come
    from one Horner pass over their wide table (``_value_and_slope``).
    Fallback samples come from the ``sd.N_used``-row section, so their
    entries n >= N_used are NaN.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    radius = float(sd.lambdas[-1]) * 1.3 + 1.0
    M, J = _series_context(params, radius, n_max)
    fser, fam = series_pair(params, M, J, n_max + 1)
    _, fp_hi, fp_lo, fam_ev = _value_and_slope(fser, fam)(sd.lambdas, sd.lambdas_lo, True)
    T = truncate(params, sd.N_used)
    lams_section = section_eigenvalues(T, sd.count)
    return _mass_machinery(
        params, sd.lambdas, sd.lambdas_lo, n_max, fam_ev, (fp_hi, fp_lo), T, lams_section
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
    P = orthopoly_values_dd(params, smax, (sd.lambdas, sd.lambdas_lo))[0].T
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
            acc = math.fsum((mu[j] * P[j, s]) * P[j, t] for j in range(count))
            target = 1.0 if s == t else 0.0
            dev = max(dev, abs(acc - target))
    return dev


@dataclass
class WeylValues:
    """Weyl function by three independent routes, at one point or an array.

    Every field is a float (``series_failed`` a bool) for one point, and an
    array over the points for an array of them.  ``series_err_bound`` bounds
    |series - w(z)| for the operator of the float a_n where the series route
    certified; where it did not, ``series`` is NaN and the bound inf.
    """

    series: float
    poles: float
    resolvent: float
    pole_tail_bound: float
    series_err_bound: float
    series_failed: bool


# |series - w(z)| beyond the propagated series bounds, relative to |series|:
# the rounding of the double-double quotient (a few EPS_DD) and of its hi
# word to float (2^-53), doubled to 2^-52 so that |series| may stand in for
# the modulus of the quotient (they differ by a relative 2^-53, and the
# propagated part is at most 2e-9 where the route certifies).
_QUOTIENT_ROUNDING = 2.0**-52 + 8.0 * EPS_DD


def weyl(params: JacobiParams, z, sd: SpectralData) -> WeylValues:
    """w(z) by series quotient, spectral pole sum, and section resolvent.

    * series: numerator series over characteristic series, compensated;
    * poles: sum_j mu_j / (lambda_j - z) over the computed spectrum plus a
      certified bound on the omitted poles;
    * resolvent: top-left entry of the section resolvent,
      [(T - z)^{-1}]_00 = 1 / p_0 from the progressive transform.

    ``z`` is a float or a 1-d array of points.  The points are grouped by the
    series truncation each would get on its own, and each group's pair is
    built once and evaluated at all its points; one progressive transform
    serves every point.  Every element has the bits of its one-point call.
    The series route fails at a point (``series_failed``) where the
    numerator or the characteristic series misses a certified relative
    accuracy of 1e-9 there.  ValueError when some point lies within 1e-9
    (relative, or absolute below 1) of a computed eigenvalue.
    """
    zs, shape = _point_array(z)
    gap = np.min(np.abs(sd.lambdas[:, None] - zs), axis=0)
    near = gap <= 1e-9 * np.maximum(1.0, np.abs(zs))
    if np.any(near):
        raise ValueError(f"point z={zs[near][0].item()!r} is too close to the computed spectrum")
    top = float(sd.lambdas[-1])
    fe, we = _evals_by_truncation(
        params,
        zs,
        lambda x: _series_context(params, max(abs(x), top) * 1.3 + 1.0, 4),
        lambda pair: (pair[0], pair[1][0]),
    )
    failed = (_uncertified(fe.value, fe.err_bound, fe.kappa, 1e-9)
              | _uncertified(we.value, we.err_bound, we.kappa, 1e-9))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotient, _ = dd.dd_div(we.value, we.value_lo, fe.value, fe.value_lo)
        # the dd quotient of the dd values is within (rw + rf) / (1 - rf) of w
        rw = we.err_bound / np.maximum(abs(we.value), 1e-300)
        rf = fe.err_bound / np.maximum(abs(fe.value), 1e-300)
        err = abs(quotient) * ((rw + rf) / (1.0 - rf) + _QUOTIENT_ROUNDING)
    series = np.where(failed, math.nan, quotient)
    series_err = np.where(failed, math.inf, err)

    mu_sum = float(np.sum(sd.masses))
    lam_next = sd.lambda_next_lower
    poles = np.empty(len(zs))
    pole_tail = np.full(len(zs), math.inf)
    for i, x in enumerate(zs.tolist()):
        poles[i] = math.fsum(sd.masses / (sd.lambdas - x))
        if x < lam_next:
            pole_tail[i] = max(0.0, 1.0 - mu_sum) / (lam_next - x)

    p, _ = _progressive(truncate(params, sd.N_used), zs)
    resolvent = 1.0 / p[0]

    return WeylValues(*(
        _scalar(x.reshape(shape))
        for x in (series, poles, resolvent, pole_tail, series_err, failed)
    ))


def second_kind_routes(params: JacobiParams, n: int, z: float) -> tuple[float, Optional[float]]:
    """n-th function of the second kind: series quotient and, below the
    spectral floor, the independent polynomial-product sum.

    Route one is Phi_n(z) / F(z).  For real z below gamma the alternative
    ``- (sum_{j>=n} 1/(alpha_j P_j(z) P_{j+1}(z))) P_n(z)`` converges and is
    returned as the second element (None otherwise).
    """
    M, J = _series_context(params, max(abs(z), 1.0), n + 4)
    fser, fam = series_pair(params, M, J, n)
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


def char_via_second_kind(params: JacobiParams, z: float, tol: float = 1e-12) -> float:
    """Characteristic function as 1 - z sum_n w_n(0) P_n(z).

    Every w_n(0) of a depth comes from one suffix pass
    (``polycore._second_kind_zeros``).  Terms t decay like 1/a_n; the sum
    stops after three consecutive |t| <= 1e-2 tol max(|acc|, 1), acc the
    partial sum, and raises ConvergenceFailure when 512 terms have not
    settled it.  A power-law weight's terms decay only like n^-p, so at the
    default tol every p up to about 5.5 raises.  A certified bound on the
    term magnitudes would not let such a sum stop either: the tail it
    leaves beyond depth D is of order R(D+1) ~ D^(1-p)/(p-1), R the
    reciprocal tail sum_{j > D} 1/a_j, about 2e-3 at p = 2 and D = 512.

    At z = 0 the value is exactly 1 for every admissible sequence, since
    sum_n w_n(0) P_n(0) <= sum_j 1/((1-k^2) a_j) is finite; it is returned
    without a sum.
    """
    if z == 0.0:
        return 1.0
    cap = 512
    depth = 48
    while True:
        Ph, Pl = orthopoly_values_dd(params, depth, z)
        P = Ph + Pl
        w0 = _second_kind_zeros(params, depth, tol * 1e-3)
        acc = 0.0
        small = 0
        for n_idx in range(depth + 1):
            t = w0[n_idx] * P[n_idx]
            acc += t
            if abs(t) <= tol * max(abs(acc), 1.0) * 1e-2:
                small += 1
                if small >= 3:
                    return 1.0 - z * acc
            else:
                small = 0
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
    zero_rel_diffs: np.ndarray  # inf where Newton found no zero near the eigenvalue
    trace_sane: bool


def associated_checks(params: JacobiParams, N: int) -> AssociatedReport:
    """Two independent routes to the associated operator's inverse trace,
    plus the first five zeros of the numerator series against the five least
    associated section eigenvalues.  Where Newton from an eigenvalue finds
    no zero (the root does not move), its relative difference reads inf.

    Route (a): the factored trace of the associated section (first row and
    column deleted), from its own pivots.  Route (b): the rank-one Schur
    form tr(T_1^{-1}) = tr(T^{-1}) - ||T^{-1} e_0||^2 / (T^{-1})_00 on the
    original section, with T^{-1} e_0 from the progressive transform at 0.
    """
    if N < 8:
        raise ValueError("need a section of at least 8 for the trace comparison")
    T = truncate(params, N)
    T1 = associated_section(params, N - 1)
    trace_direct = section_inverse_trace(T1)

    # T^{-1} e_0 = z / p_0: the twisted vector with twist 0 (gamma_0 = p_0
    # at shift 0), z_0 = 1 and z_{i+1} = -U-_i z_i
    p, uminus = _progressive(T, 0.0)
    z = np.concatenate(([1.0], np.cumprod(-uminus[:, 0])))
    trace_j = section_inverse_trace(T)
    trace_formula = trace_j - float(z @ z) / float(p[0, 0])
    rel = abs(trace_direct - trace_formula) / abs(trace_direct)

    assoc_eigs = section_eigenvalues(T1, 5)
    radius = float(assoc_eigs[-1]) * 1.3 + 1.0
    M, J = _series_context(params, radius, 4)
    wser = series_pair(params, M, J, 0)[1][0]
    # an unmoved root is its seed with a zero low word: no zero was found
    # there to compare, so its difference reads inf
    zeros, zeros_lo, moved = _refine_roots(_value_and_slope(wser), assoc_eigs)
    zero_rel = np.where(moved, np.abs(zeros - assoc_eigs) / np.abs(assoc_eigs), math.inf)

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
