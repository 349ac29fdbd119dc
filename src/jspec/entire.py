"""Truncated power-series representations of the entire spectral functions.

Two families of entire functions are computed as alternating power series
``sum_m (-1)^m c_m z^m`` with non-negative coefficient magnitudes ``c_m``:

* the characteristic function (kind ``"char"``), whose coefficient c_m is a
  sum over ascending index chains ``0 <= j_1 < ... < j_m``,

      c_m = sum  (1 - k^{2(j_1+1)}) (1 - k^{2(j_2-j_1)}) ... (1 - k^{2(j_m-j_{m-1})})
                 / ( (1-k^2)^m a_{j_1} ... a_{j_m} ),

  with c_0 = 1; its zero set is exactly the point spectrum;

* the shifted second-kind numerators (kind ``"second_kind"``, shift n),
  whose z^m coefficient is the analogous sum over ``n <= j_0 < ... < j_m``
  seeded by ``k^{2 j_0} / a_{j_0}``.  Shift 0 is the numerator of the Weyl
  function; ``(-1)^n k^{-n}`` times the shift-n series evaluates the n-th
  eigenvector component.

Chain sums are never enumerated.  One kernel, ``_chain_tables``, computes
all coefficients in O(J*M): the link factor splits as
``1 - k^{2(j-i)} = 1 - k^{2j} k^{-2i}``, and carrying the scaled accumulator
``E(j) = sum_{i<=j} V(i) k^{2(j-i)}`` turns the recursion into additions of
non-negative terms only (no cancellation, no k^{-2i} overflow):

    E(j) = k^2 E(j-1) + V_m(j),   C(j+1) = C(j) + (1-k^2) E(j),
    V_{m+1}(j) = x_j C(j)

with ``x_j = 1/((1-k^2) a_j)``.  The kernel walks the index axis once and
updates every chain length m as one double-double vector per index (a
wavefront: length m+1 at j needs length m below j only).  The forward run
gives the characteristic prefix table, whose last column is the "char"
series; the same run on the reversed axis gives the backward sums
``G_m(i)`` over chains starting after i, and suffix sums of
``k^{2j}/a_j G_m(j)`` give every second-kind shift n at once.  All
accumulation runs in double-double arithmetic; brute-force chain
enumeration is kept in the test suite as the oracle.

Evaluation is compensated (one double-double Horner loop, ``_horner_dd``,
which also takes a 2-D table and then evaluates a whole family at once) and
certified by one bound, ``_certified``: the order-truncation tail, the
index-cutoff tail, and a cancellation term ``kappa * eps``, where kappa is
the ratio of the sum of absolute terms to the absolute value of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import doubledouble as dd
from .doubledouble import EPS_DD
from .errors import CancellationFailure, ConvergenceFailure
from .sequences import (
    JacobiParams,
    entry_arrays,
    sequence_min_from,
    tail_sum_reciprocal,
)

__all__ = [
    "PowerSeriesApprox",
    "SeriesEval",
    "series_coeffs",
    "second_kind_family",
    "eval_series",
    "eval_series_deriv",
    "eigenvector_entry",
    "wronskian_residual",
    "recurrence_residual",
    "choose_truncation",
    "envelope_bound",
]

KIND_CHAR = "char"
KIND_SECOND = "second_kind"


@dataclass(frozen=True)
class PowerSeriesApprox:
    """Alternating-series approximation of one entire function.

    ``coeffs``/``coeffs_lo`` hold the double-double coefficient magnitudes;
    the represented function is ``sum_m (-1)^m coeffs[m] z^m``.

    ``tail_const`` is a certified upper bound S on ``sum_j x_j`` including
    the part beyond the index cutoff, so every coefficient obeys
    ``c_m <= S^m / m!``.  ``ratio_bounds[m]`` bounds ``sum_{j>=m} x_j`` and
    yields the sharper one-step coefficient ratio ``c_{m+1} <= c_m * X``
    used for evaluation tails.  ``tail_omitted[m]`` bounds the contribution
    of chains using any index beyond the cutoff to the true c_m.
    """

    kind: str
    shift: int
    k: float
    order: int
    cutoff: int
    coeffs: np.ndarray
    coeffs_lo: np.ndarray
    tail_const: float
    tail_omitted: np.ndarray
    ratio_bounds: np.ndarray

    def __post_init__(self):
        if np.any(self.coeffs < 0.0):
            raise ValueError("series coefficient magnitudes must be non-negative")

    def coefficient(self, m: int) -> float:
        return float(self.coeffs[m])

    def ratio_bound_after(self, m: int) -> float:
        """Certified bound on c_{m+1}/c_m (smallest admissible next index)."""
        if self.kind == KIND_CHAR:
            idx = m  # chain of length m has largest index >= m-1
        else:
            idx = self.shift + m + 1
        idx = min(idx, len(self.ratio_bounds) - 1)
        return float(self.ratio_bounds[idx])


@dataclass(frozen=True)
class SeriesEval:
    """One certified series evaluation."""

    value: float
    value_lo: float
    kappa: float
    err_bound: float
    abs_sum: float

    def dd(self) -> tuple[float, float]:
        return self.value, self.value_lo


def _dd_inputs(params: JacobiParams, J: int):
    """Double-double inputs of the chain sums for indices j = 0..J.

    Returns (a, k2, om, x, p): the entries a_j, k^2, 1-k^2, the weights
    x_j = 1/((1-k^2) a_j) and the powers p_j = k^{2j} for j = 0..J+1.
    """
    a, _, _ = entry_arrays(params, J + 1)
    k2h, k2l = dd.two_prod(params.k, params.k)
    om = dd.dd_add_d(-k2h, -k2l, 1.0)
    x = dd.dd_div(1.0, 0.0, *dd.dd_mul_d(om[0], om[1], a))
    ph = np.empty(J + 2)
    pl = np.empty(J + 2)
    ph[:2] = 1.0, k2h
    pl[:2] = 0.0, k2l
    for j in range(1, J + 1):
        ph[j + 1], pl[j + 1] = dd.dd_mul(ph[j], pl[j], k2h, k2l)
    return a, (k2h, k2l), om, x, (ph, pl)


def _chain_tables(w, first, L, k2, om):
    """One pass of the chain-sum recurrence along an index axis r = 0..N-1.

    ``w`` and ``first`` are double-double (hi, lo) arrays over the axis,
    ``k2`` and ``om`` the pairs k^2 and 1-k^2.  Fills, for levels l = 0..L,

        V[0] = first,   V[l+1] = w * C[l],
        C[l](r) = sum_{i<r} (1 - k^{2(r-i)}) V[l](i),

    through E[l](r) = sum_{i<=r} k^{2(r-i)} V[l](i) as in the module notes.
    Level l+1 at r needs level l below r only, so each step updates every
    level as one vector, and each cell gets the operations of a scalar loop
    per level, in the same order.  Returns (Vh, Vl, Ch, Cl) of shapes
    (L+1, N) and (L, N).
    """
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


def _char_prefix_table(params: JacobiParams, M: int, J: int):
    """The table of ``char_chain_prefixes``.

    ``series_coeffs`` reads its last column through this helper, not the
    public function, so every public function stays one layer of the
    per-layer trace (perfbench/tracer.py) and no DP is counted twice.
    """
    Ah = np.zeros((M + 1, J + 1))
    Al = np.zeros((M + 1, J + 1))
    Ah[0] = 1.0
    if M == 0:
        return Ah, Al
    _, k2, om, x, (ph, pl) = _dd_inputs(params, J)
    # chains of one index: x_j (1 - k^{2(j+1)})
    first = dd.dd_mul(*x, *dd.dd_add_d(-ph[1:], -pl[1:], 1.0))
    Sh, Sl, _, _ = _chain_tables(x, first, M - 1, k2, om)
    sh = sl = np.zeros(M)
    for j in range(J + 1):
        sh, sl = dd.dd_add(sh, sl, Sh[:, j], Sl[:, j])
        Ah[1:, j], Al[1:, j] = sh, sl
    return Ah, Al


def char_chain_prefixes(params: JacobiParams, M: int, J: int):
    """Prefix sums A[m][j] = sum of chains of length m with all indices <= j.

    A[m][n-1] is exactly the x^m coefficient magnitude of the degree-n
    orthonormal polynomial in its closed form (scaled by (-1)^{n+m} k^{-n}),
    so one DP run serves every polynomial degree up to J+1.
    Returned as (A_hi, A_lo); row 0 is identically 1.
    """
    return _char_prefix_table(params, M, J)


def _weight_suffix(params: JacobiParams, J: int) -> np.ndarray:
    """X[m] >= sum_{j >= m} x_j for m = 0..J+1, tail beyond J included.

    X[J+1] is the certified tail bound beyond the cutoff alone.
    """
    k = params.k
    a, _, _ = entry_arrays(params, J + 1)
    x = 1.0 / ((1.0 - k * k) * a)
    t_beyond = tail_sum_reciprocal(params.seq, J + 1) / (1.0 - k * k)
    return np.cumsum(np.concatenate(([t_beyond], x[::-1])))[::-1]


def series_coeffs(
    params: JacobiParams,
    kind: str,
    M: int,
    J: int,
    shift: int = 0,
) -> PowerSeriesApprox:
    """Coefficients of one entire-function series up to order M, index cutoff J.

    Parameters
    ----------
    kind : "char" or "second_kind"
    M : truncation order (coefficients c_0..c_M are produced)
    J : largest chain index kept; chains of length m need m distinct
        indices, so M <= J is required (and J > shift for "second_kind")
    shift : starting index n of the second-kind family (ignored for "char")
    """
    if M < 0:
        raise ValueError(f"order M must be non-negative, got {M}")
    if M > J:
        raise ValueError(f"order M={M} exceeds index cutoff J={J}")
    if kind == KIND_CHAR:
        Ah, Al = _char_prefix_table(params, M, J)
        return _finalize(params, kind, 0, M, J, Ah[:, J].copy(), Al[:, J].copy(),
                         _weight_suffix(params, J))
    if kind == KIND_SECOND:
        if shift < 0:
            raise ValueError(f"second-kind shift must be non-negative, got {shift}")
        if J <= shift:
            raise ValueError(f"cutoff J={J} must exceed the shift n={shift}")
        fam = second_kind_family(params, M, J, shift)
        return fam[shift]
    raise ValueError(f"unknown series kind {kind!r}")


def second_kind_family(
    params: JacobiParams, M: int, J: int, n_max: int
) -> list[PowerSeriesApprox]:
    """All second-kind series for shifts 0..n_max from a single backward DP."""
    if M > J:
        raise ValueError(f"order M={M} exceeds index cutoff J={J}")
    if n_max >= J:
        raise ValueError(f"largest shift {n_max} must stay below the cutoff J={J}")
    a, k2, om, (xh, xl), (ph, pl) = _dd_inputs(params, J)
    # G[m][i]: chains i < j_1 < ... < j_m weighted by prod (1-k^{2 d}) x_{j}.
    # On the reversed axis r = J - i the kernel's V[m](r) is x_{J-r} G[m](J-r),
    # so V[0] is x itself, and G[m+1] is its C[m] read backwards.
    w = (xh[::-1], xl[::-1])
    _, _, Ch, Cl = _chain_tables(w, w, M, k2, om)
    Gh = np.vstack([np.ones(J + 1), Ch[:, ::-1]])
    Gl = np.vstack([np.zeros(J + 1), Cl[:, ::-1]])
    # suffix sums of seed(j) * G_m(j), seed = k^{2j}/a_j
    sdh, sdl = dd.dd_div(ph[:-1], pl[:-1], a, 0.0)
    Hh = np.empty((M + 1, n_max + 1))
    Hl = np.empty((M + 1, n_max + 1))
    sh = sl = np.zeros(M + 1)
    for j in range(J, -1, -1):
        th, tl = dd.dd_mul(sdh[j], sdl[j], Gh[:, j], Gl[:, j])
        sh, sl = dd.dd_add(sh, sl, th, tl)
        if j <= n_max:
            Hh[:, j], Hl[:, j] = sh, sl
    X = _weight_suffix(params, J)
    return [
        _finalize(params, KIND_SECOND, n, M, J, Hh[:, n].copy(), Hl[:, n].copy(), X)
        for n in range(n_max + 1)
    ]


def _finalize(params, kind, shift, M, J, chi, clo, X) -> PowerSeriesApprox:
    k = params.k
    t_beyond = float(X[J + 1])
    # omitted-index bounds: a chain touching an index beyond J contributes at
    # most (that index's weight) times a full chain one link shorter.
    omitted = np.zeros(M + 1)
    omitted[1:] = t_beyond * chi[:-1]
    if kind == KIND_SECOND:
        # plus the seed beyond J times every chain after it, seed * X^m / m!,
        # in log space: X^m and m! leave the float range long before the
        # bound is useless
        seed_beyond = k ** (2 * (J + 1)) * tail_sum_reciprocal(params.seq, J + 1)
        omitted[0] = seed_beyond
        log_seed = _log_or_ninf(seed_beyond)
        log_X = math.log(X[min(shift + 1, J + 1)])
        for m in range(1, M + 1):
            omitted[m] += _exp_or_inf(log_seed + m * log_X - math.lgamma(m + 1))
    return PowerSeriesApprox(
        kind=kind,
        shift=shift,
        k=k,
        order=M,
        cutoff=J,
        coeffs=chi,
        coeffs_lo=clo,
        tail_const=float(X[0]),
        tail_omitted=omitted,
        ratio_bounds=X,
    )


def _as_dd_point(z) -> tuple[float, float]:
    if isinstance(z, tuple):
        return float(z[0]), float(z[1])
    return float(z), 0.0


def _horner_dd(chi, clo, zh, zl):
    """Compensated Horner (Graillat, Langlois & Louvet 2005) for sum (-1)^m c_m z^m.

    Also returns the abs-sum at |z|.  ``chi``/``clo`` are 1-D for one series
    or 2-D (order x series) for a family; dd arithmetic is elementwise, so
    each column gets the bits of its own 1-D call.
    """
    n = len(chi)
    sg = 1.0 if n % 2 else -1.0  # (-1)^(n-1)
    rh, rl = sg * chi[n - 1], sg * clo[n - 1]
    az = abs(zh)
    ab = abs(chi[n - 1])
    for m in range(n - 2, -1, -1):
        sg = -sg
        rh, rl = dd.dd_mul(rh, rl, zh, zl)
        rh, rl = dd.dd_add(rh, rl, sg * chi[m], sg * clo[m])
        ab = ab * az + abs(chi[m])
    return rh, rl, ab


def _eval_tail_bound(s: PowerSeriesApprox, az: float) -> float:
    """Certified bound on the omitted orders m > order at |z| = az.

    Both candidates are formed in log space: at large |z| and order the
    factors az**M and S**(M+1) exceed the float range long before the
    bound itself is useless, and an overflowing bound is reported as inf.
    """
    if az == 0.0:
        return 0.0
    M = s.order
    last = float(s.coeffs[M]) + float(s.tail_omitted[M])
    rho = s.ratio_bound_after(M) * az
    if rho < 1.0:
        geo = _exp_or_inf(_log_or_ninf(last) + M * math.log(az) + _log_or_ninf(rho / (1.0 - rho)))
    else:
        geo = math.inf
    # elementary-symmetric fallback S^{m}/m!, useful at small |z|
    t = s.tail_const * az
    log_fact = (M + 1) * _log_or_ninf(t) - math.lgamma(M + 2)
    if t < M + 2:
        log_fact -= math.log1p(-t / (M + 2))
    else:
        log_fact += min(t, 700.0)
    return min(geo, _exp_or_inf(log_fact))


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _log_or_ninf(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < _LOG_FLOAT_MAX else math.inf


def _omitted_eval_bound(s: PowerSeriesApprox, az: float) -> float:
    omitted = s.tail_omitted[: s.order + 1].tolist()
    if math.inf in omitted:  # else it may meet an underflowed az^m: inf * 0
        return math.inf
    p = 1.0
    tot = 0.0
    for t in omitted:
        tot += t * p
        p *= az
        if p == math.inf:
            return math.inf
    return tot


def _dd_rounding(s: PowerSeriesApprox) -> float:
    """Rounding-unit count of a dd evaluation of ``s`` or of its derivative."""
    return 4.0 * s.order + 2.0 * s.cutoff + 16.0


def _certified(s, value, value_lo, abs_sum, az, tol, unit, rounding, tail_factor=1.0):
    """SeriesEval with the one certified bound of an evaluation of ``s`` at |z| = az.

    Order tail (times ``tail_factor``) + omitted-index tail + rounding term;
    raises CancellationFailure when ``tol`` is given and not certified.
    """
    err = (
        _eval_tail_bound(s, az) * tail_factor
        + _omitted_eval_bound(s, az)
        + rounding * unit * abs_sum
    )
    kappa = abs_sum / abs(value) if value != 0.0 else math.inf
    if tol is not None and (not (err <= tol * max(abs(value), 1e-300)) or kappa * unit > tol):
        raise CancellationFailure(
            f"series evaluation at |z|={az!r} certifies only |err|<={err:.3e} "
            f"(kappa={kappa:.3e}), beyond the requested tolerance {tol:.3e}"
        )
    return SeriesEval(value=value, value_lo=value_lo, kappa=kappa, err_bound=err, abs_sum=abs_sum)


def eval_series(s: PowerSeriesApprox, z, tol: Optional[float] = None) -> SeriesEval:
    """Evaluate ``sum_m (-1)^m c_m z^m`` with a certified error bound.

    ``z`` may be a float or an (hi, lo) double-double pair.  Complex points
    are evaluated in ordinary complex arithmetic (no compensation) and the
    bound widens accordingly.

    Raises CancellationFailure when ``tol`` is given and the certified
    relative error exceeds it; the caller should switch to a matrix route.
    """
    if isinstance(z, complex):
        return _eval_complex(s, z, tol)
    zh, zl = _as_dd_point(z)
    rh, rl, ab = _horner_dd(s.coeffs, s.coeffs_lo, zh, zl)
    return _certified(s, rh, rl, ab, abs(zh), tol, EPS_DD, _dd_rounding(s))


def _eval_family(fam: list[PowerSeriesApprox], z) -> list[SeriesEval]:
    """``eval_series(s, z)`` for every series of ``fam`` from one 2-D Horner.

    The series must share their order (a ``second_kind_family`` does); each
    result carries the bits of the single call.
    """
    zh, zl = _as_dd_point(z)
    chi = np.stack([s.coeffs for s in fam], axis=1)
    clo = np.stack([s.coeffs_lo for s in fam], axis=1)
    rh, rl, ab = _horner_dd(chi, clo, zh, zl)
    return [
        _certified(s, rh[i], rl[i], ab[i], abs(zh), None, EPS_DD, _dd_rounding(s))
        for i, s in enumerate(fam)
    ]


def eval_series_deriv(s: PowerSeriesApprox, z, tol: Optional[float] = None) -> SeriesEval:
    """Evaluate the analytic derivative, by differentiating coefficients.

    The derivative of ``sum (-1)^m c_m z^m`` is ``-sum_j (-1)^j d_j z^j``
    with ``d_j = (j+1) c_{j+1}``; no finite differences anywhere.
    """
    if s.order < 1:
        return SeriesEval(0.0, 0.0, 1.0, 0.0, 0.0)
    dser = _deriv_view(s)
    tail_factor = dser.order + 2.0
    if isinstance(z, complex):
        out = _eval_complex(dser, z, tol, tail_factor)
    else:
        zh, zl = _as_dd_point(z)
        rh, rl, ab = _horner_dd(dser.coeffs, dser.coeffs_lo, zh, zl)
        out = _certified(dser, rh, rl, ab, abs(zh), tol, EPS_DD, _dd_rounding(s), tail_factor)
    return SeriesEval(-out.value, -out.value_lo, out.kappa, out.err_bound, out.abs_sum)


def _deriv_view(s: PowerSeriesApprox) -> PowerSeriesApprox:
    j = np.arange(1, s.order + 1, dtype=float)
    chi, clo = dd.dd_mul_d(s.coeffs[1:], s.coeffs_lo[1:], j)
    return PowerSeriesApprox(
        kind=s.kind,
        shift=s.shift,
        k=s.k,
        order=s.order - 1,
        cutoff=s.cutoff,
        coeffs=chi,
        coeffs_lo=clo,
        tail_const=s.tail_const,
        tail_omitted=s.tail_omitted[1:] * j,
        ratio_bounds=s.ratio_bounds,
    )


def _eval_complex(s: PowerSeriesApprox, z: complex, tol, tail_factor=1.0) -> SeriesEval:
    """Plain complex Horner (dd arithmetic has no complex form), bound at eps."""
    az = abs(z)
    r = 0.0 + 0.0j
    ab = 0.0
    for m in range(s.order, -1, -1):
        c = s.coeffs[m] + s.coeffs_lo[m]
        r = r * z + (-c if m % 2 else c)
        ab = ab * az + s.coeffs[m]
    eps64 = np.finfo(float).eps
    return _certified(s, r, 0.0, ab, az, tol, eps64, 4.0 * s.order + 16.0, tail_factor)


def scale_for_shift(k: float, n: int) -> float:
    """(-1)^n k^-n, the prefactor turning a shift-n series into Phi_n."""
    return (-1.0) ** n * k ** (-n)


def eigenvector_entry(
    params: JacobiParams,
    n: int,
    z,
    M: Optional[int] = None,
    J: Optional[int] = None,
    tol: Optional[float] = None,
) -> float:
    """Phi_n(z) = (-1)^n k^-n times the shift-n second-kind series at z.

    At an eigenvalue these are the components of the corresponding
    eigenvector.  One-shot convenience wrapper; batch consumers should build
    the family once via second_kind_family.
    """
    zh, _ = _as_dd_point(z)
    if M is None or J is None:
        M_, J_ = choose_truncation(params, max(abs(zh), 1.0), tol or 1e-12, min_cutoff=n + 2)
        M = M if M is not None else M_
        J = J if J is not None else max(J_, n + 2)
    s = series_coeffs(params, KIND_SECOND, M, J, shift=n)
    out = eval_series(s, z, tol=tol)
    return scale_for_shift(params.k, n) * out.value


def envelope_bound(params: JacobiParams, n: int, abs_z: float) -> float:
    """Certified bound on |Phi_n(z)| for |z| <= abs_z.

    k^n / ((1-k^2) min_{j>=n} a_j) * exp(|z| R(n+1) / (1-k^2)) with R the
    certified reciprocal-tail bound.  (The 1/(1-k^2) factor is needed: the
    shift-n series at 0 already sums k^{2j}/a_j over j >= n, which a bare
    1/min a_j does not dominate.)
    """
    k = params.k
    amin = sequence_min_from(params.seq, n)
    expo = abs_z * tail_sum_reciprocal(params.seq, n + 1) / (1.0 - k * k)
    return k**n / ((1.0 - k * k) * amin) * math.exp(min(expo, 700.0))


def choose_truncation(
    params: JacobiParams,
    radius: float,
    tol: float,
    min_cutoff: int = 0,
    max_order: int = 512,
    max_cutoff: int = 1 << 15,
) -> tuple[int, int]:
    """Pick (order M, cutoff J) certifying tol/10 tails at the given radius.

    J is enlarged until the omitted-index contribution at the radius is
    below tol/10 in relative terms; M until the order-truncation tail is.
    The order rule uses the one-step coefficient-ratio bound (the blunt
    S^{M+1} R^{M+1} / (M+1)! criterion stalls at large radii because the
    true coefficients decay much faster than S^m/m!).
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    radius = max(radius, 1.0)
    k = params.k
    J = max(16, min_cutoff)
    while True:
        t_beyond = tail_sum_reciprocal(params.seq, J + 1) / (1.0 - k * k)
        if t_beyond * radius < tol / 10.0 or J >= max_cutoff:
            break
        J *= 2
    if t_beyond * radius >= tol / 10.0:
        raise ConvergenceFailure(
            f"no index cutoff below {max_cutoff} certifies radius {radius:g} at tol {tol:g}"
        )
    suffix = _weight_suffix(params, J)
    M = 4
    while M < max_order:
        rho = suffix[min(M + 1, J + 1)] * radius
        if rho < 0.5:
            break
        M += 4
    # enough extra orders that the geometric remainder clears tol/10
    extra = 0
    while extra < max_order:
        rho = suffix[min(M + extra + 1, J + 1)] * radius
        if rho < 0.5 and 2.0 * rho ** max(extra, 1) < tol / 10.0:
            break
        extra += 2
    M = min(M + extra + 2, max_order)
    if M > J:
        J = M
    return M, J


def _phi_values(params, ns, z, M, J):
    """Phi_n(z) as dd pairs for each n in ``ns``, from one family evaluation."""
    fam = second_kind_family(params, M, J, max(ns))
    evs = _eval_family([fam[n] for n in ns], z)
    return {
        n: dd.dd_mul_d(ev.value, ev.value_lo, scale_for_shift(params.k, n))
        for n, ev in zip(ns, evs)
    }


def wronskian_residual(
    params: JacobiParams,
    n: int,
    z,
    M: Optional[int] = None,
    J: Optional[int] = None,
) -> float:
    """|alpha_n (P_n Phi_{n+1} - P_{n+1} Phi_n) - F(z)|.

    The bracket is the Wronskian of the polynomial and second-kind solution
    families, constant in n and equal to the characteristic function.
    """
    from .polycore import orthopoly_values_dd  # local import, avoids a cycle

    zh, zl = _as_dd_point(z)
    if M is None or J is None:
        M_, J_ = choose_truncation(params, max(abs(zh), 1.0), 1e-13, min_cutoff=n + 3)
        M = M or M_
        J = J or max(J_, n + 3)
    phis = _phi_values(params, (n, n + 1), (zh, zl), M, J)
    Ph, Pl = orthopoly_values_dd(params, n + 1, (zh, zl))
    _, alpha, _ = entry_arrays(params, n + 1)
    t1 = dd.dd_mul(Ph[n], Pl[n], phis[n + 1][0], phis[n + 1][1])
    t2 = dd.dd_mul(Ph[n + 1], Pl[n + 1], phis[n][0], phis[n][1])
    wh, wl = dd.dd_sub(*t1, *t2)
    wh, wl = dd.dd_mul_d(wh, wl, float(alpha[n]))
    fs = series_coeffs(params, KIND_CHAR, M, J)
    fe = eval_series(fs, (zh, zl))
    rh, _ = dd.dd_sub(wh, wl, fe.value, fe.value_lo)
    return abs(rh)


def recurrence_residual(
    params: JacobiParams,
    n: int,
    z,
    M: Optional[int] = None,
    J: Optional[int] = None,
) -> float:
    """Three-term recurrence residual of the second-kind entries.

    For n >= 1: |alpha_n Phi_{n+1} + (beta_n - z) Phi_n + alpha_{n-1} Phi_{n-1}|.
    At n = 0 the boundary form applies and the characteristic function enters:
    |alpha_0 Phi_1 + (beta_0 - z) Phi_0 - F(z)|.
    """
    zh, zl = _as_dd_point(z)
    if M is None or J is None:
        M_, J_ = choose_truncation(params, max(abs(zh), 1.0), 1e-13, min_cutoff=n + 3)
        M = M or M_
        J = J or max(J_, n + 3)
    ns = (n, n + 1) if n == 0 else (n - 1, n, n + 1)
    phis = _phi_values(params, ns, (zh, zl), M, J)
    _, alpha, beta = entry_arrays(params, n + 2)
    bh, bl = dd.dd_add_d(-zh, -zl, float(beta[n]))
    rh, rl = dd.dd_mul(bh, bl, phis[n][0], phis[n][1])
    th, tl = dd.dd_mul_d(phis[n + 1][0], phis[n + 1][1], float(alpha[n]))
    rh, rl = dd.dd_add(rh, rl, th, tl)
    if n == 0:
        fs = series_coeffs(params, KIND_CHAR, M, J)
        fe = eval_series(fs, (zh, zl))
        rh, rl = dd.dd_sub(rh, rl, fe.value, fe.value_lo)
    else:
        th, tl = dd.dd_mul_d(phis[n - 1][0], phis[n - 1][1], float(alpha[n - 1]))
        rh, rl = dd.dd_add(rh, rl, th, tl)
    return abs(rh)
