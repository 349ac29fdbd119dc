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

Chain sums are never enumerated.  A prefix-accumulator dynamic program
computes all coefficients in O(J*M): the link factor splits as
``1 - k^{2(j-i)} = 1 - k^{2j} k^{-2i}``, and carrying the scaled accumulator
``E(j) = sum_{i<=j} S(i) k^{2(j-i)}`` turns the recursion into additions of
non-negative terms only (no cancellation, no k^{-2i} overflow):

    forward :  C(j+1) = C(j) + (1-k^2) E(j),   S_{m+1}(j) = x_j C(j)
    backward:  G_{m+1}(i) = G_{m+1}(i+1) + (1-k^2) E_m(i)

with ``x_j = 1/((1-k^2) a_j)``.  The backward pass produces every shift n at
once through suffix sums.  All accumulation runs in double-double arithmetic;
brute-force chain enumeration is kept in the test suite as the oracle.

Evaluation is compensated (double-double Horner) and certified: the returned
error bound combines the order-truncation tail, the index-cutoff tail, and a
cancellation term ``kappa * eps``, where kappa is the ratio of the sum of
absolute terms to the absolute value of the result.
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


def _x_weights_dd(params: JacobiParams, J: int):
    """x_j = 1/((1-k^2) a_j) as double-double, j = 0..J."""
    a, _, _ = entry_arrays(params, J + 1)
    k = params.k
    k2h, k2l = dd.two_prod(k, k)
    omh, oml = dd.dd_add_d(-k2h, -k2l, 1.0)
    xh = np.empty(J + 1)
    xl = np.empty(J + 1)
    for j in range(J + 1):
        den_h, den_l = dd.dd_mul_d(omh, oml, float(a[j]))
        xh[j], xl[j] = dd.dd_div(1.0, 0.0, den_h, den_l)
    return a, (k2h, k2l), (omh, oml), xh, xl


def _forward_tables(params: JacobiParams, M: int, J: int):
    """Double-double forward DP.

    Returns (a, Shi, Slo) where S[m][j] is the sum over characteristic
    chains of length m ending exactly at j (m >= 1).
    """
    a, (k2h, k2l), (omh, oml), xh, xl = _x_weights_dd(params, J)
    Shi = np.zeros((M + 1, J + 1))
    Slo = np.zeros((M + 1, J + 1))
    # seed: S_1(j) = x_j (1 - k^{2(j+1)})
    ph, pl = k2h, k2l
    for j in range(J + 1):
        th, tl = dd.dd_add_d(-ph, -pl, 1.0)
        Shi[1, j], Slo[1, j] = dd.dd_mul(xh[j], xl[j], th, tl)
        ph, pl = dd.dd_mul(ph, pl, k2h, k2l)
    for m in range(1, M):
        Eh = El = 0.0  # sum_{i<=j} S_m(i) k^{2(j-i)}
        Ch = Cl = 0.0  # sum_{i<j} S_m(i) (1 - k^{2(j-i)})
        for j in range(J + 1):
            Shi[m + 1, j], Slo[m + 1, j] = dd.dd_mul(xh[j], xl[j], Ch, Cl)
            Eh, El = dd.dd_mul(Eh, El, k2h, k2l)
            Eh, El = dd.dd_add(Eh, El, Shi[m, j], Slo[m, j])
            th, tl = dd.dd_mul(Eh, El, omh, oml)
            Ch, Cl = dd.dd_add(Ch, Cl, th, tl)
    return a, Shi, Slo


def char_chain_prefixes(params: JacobiParams, M: int, J: int):
    """Prefix sums A[m][j] = sum of chains of length m with all indices <= j.

    A[m][n-1] is exactly the x^m coefficient magnitude of the degree-n
    orthonormal polynomial in its closed form (scaled by (-1)^{n+m} k^{-n}),
    so one DP run serves every polynomial degree up to J+1.
    Returned as (A_hi, A_lo); row 0 is identically 1.
    """
    _, Shi, Slo = _forward_tables(params, M, J)
    Ahi = np.zeros((M + 1, J + 1))
    Alo = np.zeros((M + 1, J + 1))
    Ahi[0] = 1.0
    for m in range(1, M + 1):
        sh = sl = 0.0
        for j in range(J + 1):
            sh, sl = dd.dd_add(sh, sl, Shi[m, j], Slo[m, j])
            Ahi[m, j], Alo[m, j] = sh, sl
    return Ahi, Alo


def _ratio_bounds(params: JacobiParams, J: int, xh: np.ndarray, xl: np.ndarray) -> np.ndarray:
    """X[m] >= sum_{j >= m} x_j for m = 0..J+1, tail beyond J included."""
    k = params.k
    t_beyond = tail_sum_reciprocal(params.seq, J + 1) / (1.0 - k * k)
    X = np.empty(J + 2)
    X[J + 1] = t_beyond
    acc = t_beyond
    for j in range(J, -1, -1):
        acc += xh[j] + xl[j]
        X[j] = acc
    return X


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
        a, Shi, Slo = _forward_tables(params, M, J)
        chi = np.zeros(M + 1)
        clo = np.zeros(M + 1)
        chi[0] = 1.0
        for m in range(1, M + 1):
            sh = sl = 0.0
            for j in range(J + 1):
                sh, sl = dd.dd_add(sh, sl, Shi[m, j], Slo[m, j])
            chi[m], clo[m] = sh, sl
        return _finalize(params, kind, 0, M, J, chi, clo)
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
    a, (k2h, k2l), (omh, oml), xh, xl = _x_weights_dd(params, J)
    # G[m][i]: chains i < j_1 < ... < j_m weighted by prod (1-k^{2 d}) x_{j}
    Ghi = np.zeros((M + 1, J + 1))
    Glo = np.zeros((M + 1, J + 1))
    Ghi[0] = 1.0
    for m in range(M):
        Eh = El = 0.0
        for i in range(J - 1, -1, -1):
            th, tl = dd.dd_mul(xh[i + 1], xl[i + 1], Ghi[m, i + 1], Glo[m, i + 1])
            Eh, El = dd.dd_mul(Eh, El, k2h, k2l)
            Eh, El = dd.dd_add(Eh, El, th, tl)
            ph, pl = dd.dd_mul(Eh, El, omh, oml)
            Ghi[m + 1, i], Glo[m + 1, i] = dd.dd_add(
                Ghi[m + 1, i + 1], Glo[m + 1, i + 1], ph, pl
            )
    # suffix sums of seed(j) * G_m(j), seed = k^{2j}/a_j
    seed_h = np.empty(J + 1)
    seed_l = np.empty(J + 1)
    ph, pl = 1.0, 0.0
    for j in range(J + 1):
        seed_h[j], seed_l[j] = dd.dd_div(ph, pl, float(a[j]), 0.0)
        ph, pl = dd.dd_mul(ph, pl, k2h, k2l)
    out: list[Optional[PowerSeriesApprox]] = [None] * (n_max + 1)
    Hhi = np.zeros((M + 1, n_max + 1))
    Hlo = np.zeros((M + 1, n_max + 1))
    for m in range(M + 1):
        sh = sl = 0.0
        for j in range(J, -1, -1):
            th, tl = dd.dd_mul(seed_h[j], seed_l[j], Ghi[m, j], Glo[m, j])
            sh, sl = dd.dd_add(sh, sl, th, tl)
            if j <= n_max:
                Hhi[m, j], Hlo[m, j] = sh, sl
    for n in range(n_max + 1):
        out[n] = _finalize(params, KIND_SECOND, n, M, J, Hhi[:, n].copy(), Hlo[:, n].copy())
    return out  # type: ignore[return-value]


def _finalize(params, kind, shift, M, J, chi, clo) -> PowerSeriesApprox:
    k = params.k
    # bound bookkeeping only needs the float view of the weights
    a, _, _ = entry_arrays(params, J + 1)
    x = 1.0 / ((1.0 - k * k) * a)
    t_beyond = tail_sum_reciprocal(params.seq, J + 1) / (1.0 - k * k)
    X = np.empty(J + 2)
    X[J + 1] = t_beyond
    acc = t_beyond
    for j in range(J, -1, -1):
        acc += x[j]
        X[j] = acc
    S = float(X[0])
    # omitted-index bounds: a chain touching an index beyond J contributes at
    # most (that index's weight) times a full chain one link shorter.
    omitted = np.zeros(M + 1)
    if kind == KIND_CHAR:
        for m in range(1, M + 1):
            omitted[m] = t_beyond * chi[m - 1]
    else:
        seed_beyond = k ** (2 * (J + 1)) * tail_sum_reciprocal(params.seq, J + 1)
        omitted[0] = seed_beyond
        for m in range(1, M + 1):
            omitted[m] = t_beyond * chi[m - 1] + seed_beyond * X[min(shift + 1, J + 1)] ** m / math.factorial(m)
    return PowerSeriesApprox(
        kind=kind,
        shift=shift,
        k=k,
        order=M,
        cutoff=J,
        coeffs=chi,
        coeffs_lo=clo,
        tail_const=S,
        tail_omitted=omitted,
        ratio_bounds=X,
    )


def _as_dd_point(z) -> tuple[float, float]:
    if isinstance(z, tuple):
        return float(z[0]), float(z[1])
    return float(z), 0.0


def _horner_dd(chi, clo, signs, zh, zl) -> tuple[float, float, float]:
    """Compensated Horner for sum signs[m]*c[m]*z^m; also |.|-sum at |z|."""
    n = len(chi)
    rh = signs[n - 1] * chi[n - 1]
    rl = signs[n - 1] * clo[n - 1]
    for m in range(n - 2, -1, -1):
        rh, rl = dd.dd_mul(rh, rl, zh, zl)
        rh, rl = dd.dd_add(rh, rl, signs[m] * chi[m], signs[m] * clo[m])
    az = abs(zh)
    ab = 0.0
    for m in range(n - 1, -1, -1):
        ab = ab * az + abs(chi[m])
    return rh, rl, ab


def _eval_tail_bound(s: PowerSeriesApprox, az: float, coeffs: np.ndarray) -> float:
    """Certified bound on the omitted orders m > order at |z| = az.

    Both candidates are formed in log space: at large |z| and order the
    factors az**M and S**(M+1) exceed the float range long before the
    bound itself is useless, and an overflowing bound is reported as inf.
    """
    if az == 0.0:
        return 0.0
    M = s.order
    last = float(coeffs[M]) + float(s.tail_omitted[M])
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
    p = 1.0
    tot = 0.0
    for m in range(s.order + 1):
        tot += s.tail_omitted[m] * p
        p *= az
        if p == math.inf:
            return math.inf
    return tot


_ALT_SIGNS_CACHE: dict[int, np.ndarray] = {}


def _alt_signs(n: int) -> np.ndarray:
    sg = _ALT_SIGNS_CACHE.get(n)
    if sg is None:
        sg = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        _ALT_SIGNS_CACHE[n] = sg
    return sg


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
    signs = _alt_signs(s.order + 1)
    rh, rl, ab = _horner_dd(s.coeffs, s.coeffs_lo, signs, zh, zl)
    az = abs(zh)
    err = (
        _eval_tail_bound(s, az, s.coeffs)
        + _omitted_eval_bound(s, az)
        + (4.0 * s.order + 2.0 * s.cutoff + 16.0) * EPS_DD * ab
    )
    kappa = ab / abs(rh) if rh != 0.0 else math.inf
    if tol is not None:
        if not (err <= tol * max(abs(rh), 1e-300)) or kappa * EPS_DD > tol:
            raise CancellationFailure(
                f"series evaluation at z={zh!r} certifies only |err|<={err:.3e} "
                f"(kappa={kappa:.3e}), beyond the requested tolerance {tol:.3e}"
            )
    return SeriesEval(value=rh, value_lo=rl, kappa=kappa, err_bound=err, abs_sum=ab)


def eval_series_deriv(s: PowerSeriesApprox, z, tol: Optional[float] = None) -> SeriesEval:
    """Evaluate the analytic derivative, by differentiating coefficients.

    The derivative of ``sum (-1)^m c_m z^m`` is ``-sum_j (-1)^j d_j z^j``
    with ``d_j = (j+1) c_{j+1}``; no finite differences anywhere.
    """
    if s.order < 1:
        return SeriesEval(0.0, 0.0, 1.0, 0.0, 0.0)
    if isinstance(z, complex):
        dser = _deriv_view(s)
        out = _eval_complex(dser, z, tol)
        return SeriesEval(-out.value, -out.value_lo, out.kappa, out.err_bound, out.abs_sum)
    zh, zl = _as_dd_point(z)
    dser = _deriv_view(s)
    signs = _alt_signs(dser.order + 1)
    rh, rl, ab = _horner_dd(dser.coeffs, dser.coeffs_lo, signs, zh, zl)
    az = abs(zh)
    err = (
        _eval_tail_bound(dser, az, dser.coeffs) * (dser.order + 2.0)
        + _omitted_eval_bound(dser, az)
        + (4.0 * s.order + 2.0 * s.cutoff + 16.0) * EPS_DD * ab
    )
    kappa = ab / abs(rh) if rh != 0.0 else math.inf
    if tol is not None and (err > tol * max(abs(rh), 1e-300) or kappa * EPS_DD > tol):
        raise CancellationFailure(
            f"derivative evaluation at z={zh!r} certifies only |err|<={err:.3e}"
        )
    return SeriesEval(value=-rh, value_lo=-rl, kappa=kappa, err_bound=err, abs_sum=ab)


def _deriv_view(s: PowerSeriesApprox) -> PowerSeriesApprox:
    M = s.order - 1
    j = np.arange(1, s.order + 1, dtype=float)
    chi = np.empty(M + 1)
    clo = np.empty(M + 1)
    for m in range(M + 1):
        chi[m], clo[m] = dd.dd_mul_d(s.coeffs[m + 1], s.coeffs_lo[m + 1], float(m + 1))
    return PowerSeriesApprox(
        kind=s.kind,
        shift=s.shift,
        k=s.k,
        order=M,
        cutoff=s.cutoff,
        coeffs=chi,
        coeffs_lo=clo,
        tail_const=s.tail_const,
        tail_omitted=s.tail_omitted[1:] * j,
        ratio_bounds=s.ratio_bounds,
    )


def _eval_complex(s: PowerSeriesApprox, z: complex, tol: Optional[float]) -> SeriesEval:
    signs = _alt_signs(s.order + 1)
    r = 0.0 + 0.0j
    for m in range(s.order, -1, -1):
        r = r * z + signs[m] * (s.coeffs[m] + s.coeffs_lo[m])
    az = abs(z)
    ab = 0.0
    for m in range(s.order, -1, -1):
        ab = ab * az + s.coeffs[m]
    eps64 = np.finfo(float).eps
    err = (
        _eval_tail_bound(s, az, s.coeffs)
        + _omitted_eval_bound(s, az)
        + (4.0 * s.order + 16.0) * eps64 * ab
    )
    kappa = ab / abs(r) if r != 0 else math.inf
    if tol is not None and (err > tol * max(abs(r), 1e-300) or kappa * eps64 > tol):
        raise CancellationFailure(f"complex series evaluation at z={z!r} not certifiable")
    return SeriesEval(value=r, value_lo=0.0, kappa=kappa, err_bound=err, abs_sum=ab)  # type: ignore[arg-type]


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
    a, _, _ = entry_arrays(params, J + 2)
    x = 1.0 / ((1.0 - k * k) * a)
    suffix = np.concatenate([np.cumsum(x[::-1])[::-1], [0.0]]) + t_beyond
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


def _phi_values(params, ns, z, M, J, tol):
    fam = second_kind_family(params, M, J, max(ns))
    out = {}
    for n in ns:
        ev = eval_series(fam[n], z, tol=tol)
        sc = scale_for_shift(params.k, n)
        vh, vl = dd.dd_mul_d(ev.value, ev.value_lo, sc)
        out[n] = (vh, vl, abs(sc) * ev.err_bound)
    return out


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
    phis = _phi_values(params, (n, n + 1), (zh, zl), M, J, tol=None)
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
    phis = _phi_values(params, ns, (zh, zl), M, J, tol=None)
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
