"""Orthonormal polynomial evaluation and the zero-point identities.

The polynomials satisfy

    alpha_0 P_1(x) + (beta_0 - x) P_0(x) = 0,     P_0 = 1,
    alpha_n P_{n+1}(x) + (beta_n - x) P_n(x) + alpha_{n-1} P_{n-1}(x) = 0,

and admit a closed form whose x^m coefficient is (-1)^{n+m} k^{-n} times the
same chain sum that builds the characteristic series, restricted to indices
<= n-1.  Both evaluation modes are provided; the explicit mode doubles as
the accuracy reference because its coefficients are sums of positive terms
with a single sign alternation per power.

Special values at the origin come as formulas, not recurrences:

    P_n(0)  = (-1)^n k^-n
    w_n(0)  = (-1)^n sum_{j>=n} k^{2j-n} / a_j        (second kind at 0)
    tr(inverse) = sum_j (1 - k^{2j+2}) / ((1-k^2) a_j)
                = sum_n w_n(0) P_n(0)                  (cross-check route)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import doubledouble as dd
from .entire import (
    _alternating_signs,
    _as_dd_point,
    _horner_dd,
    _one_minus_k2,
    _weight_beyond,
    char_chain_prefixes,
    scale_for_shift,
)
from .errors import ConvergenceFailure, SequenceError, TruncationTooCoarse
from .sequences import JacobiParams, entry_arrays, tail_sum_enclosure, tail_sum_reciprocal

__all__ = [
    "PolyEval",
    "orthopoly_eval",
    "orthopoly_values_dd",
    "value_at_zero",
    "second_kind_at_zero",
    "trace_inverse",
    "trace_inverse_routes",
]

# rescale recurrence values once they pass 2^900 in magnitude
_RESCALE_LIMIT = math.ldexp(1.0, 900)
_RESCALE_SHIFT = 1024
_ALT_CAP = 4096  # index cap of the second trace route


@dataclass
class PolyEval:
    """Values P_0(x)..P_n(x) plus, in explicit mode, monomial coefficients.

    ``values`` has shape (n+1) at a float x and (n+1) x P at P points.  A
    value past the float range is +-inf, and ``overflow`` says that some
    value is; overflow is a flag, never an exception.
    """

    values: np.ndarray
    overflow: bool
    coeffs: Optional[np.ndarray] = None  # monomial coefficients of P_n


def orthopoly_eval(params: JacobiParams, n: int, x, mode: str = "recurrence") -> PolyEval:
    """Evaluate P_0..P_n at x by recurrence or by the explicit closed form.

    ``x`` is a float or an array of P points (real: a complex point raises
    TypeError); column j of the (n+1) x P values has the bits of the
    one-point call at x[j].  Each mode makes one pass over the points, and
    values past the float range are +-inf under the ``overflow`` flag.

    Explicit mode computes the chain-sum coefficients of every degree in one
    dynamic-program pass (the prefix property of the chain sums) and returns
    the monomial coefficients of P_n; coefficients whose magnitude falls
    below the subnormal range flush to zero, which cannot disturb the values
    at any representable x.  The closed form stops at the last degree d
    whose prefactor k^-d is finite; degrees past d take the recurrence's
    values, so the two modes are finite at the same degrees.
    """
    if n < 0:
        raise SequenceError(f"degree must be non-negative, got {n}")
    x, _ = _as_dd_point(np.asarray(x))  # a tuple is points here, not an (hi, lo) pair
    # values past the float range become +-inf (and inf - inf nan), as in
    # scalar float arithmetic; ``overflow`` reports them
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "recurrence":
            values, coeffs = _eval_recurrence(params, n, x), None
        elif mode == "explicit":
            values, coeffs = _eval_explicit(params, n, x)
        else:
            raise ValueError(f"unknown evaluation mode {mode!r}")
    return PolyEval(values, bool(np.isinf(values).any()), coeffs)


def _eval_recurrence(params: JacobiParams, n: int, x) -> np.ndarray:
    """The three-term recurrence at every point at once, rescaled past 2^900.

    A point's last two values shift down by 2^1024 into its exponent; the
    values are mantissa * 2^exponent at the end.
    """
    _, alpha, beta = entry_arrays(params, n + 1)
    alpha, beta = alpha.tolist(), beta.tolist()
    mant = np.empty((n + 1,) + np.shape(x))
    exps = np.zeros(mant.shape, dtype=np.int64)
    mant[0] = 1.0
    if n >= 1:
        p_prev, p_cur, e = 1.0, (x - beta[0]) / alpha[0], 0
        mant[1] = p_cur
        for i in range(1, n):
            p_prev, p_cur = p_cur, ((x - beta[i]) * p_cur - alpha[i - 1] * p_prev) / alpha[i]
            big = (abs(p_prev) > _RESCALE_LIMIT) | (abs(p_cur) > _RESCALE_LIMIT)
            if big is not False and np.any(big):  # one point: a bool, no np.any call
                p_prev = np.where(big, np.ldexp(p_prev, -_RESCALE_SHIFT), p_prev)
                p_cur = np.where(big, np.ldexp(p_cur, -_RESCALE_SHIFT), p_cur)
                e = e + np.where(big, _RESCALE_SHIFT, 0)
            mant[i + 1], exps[i + 1] = p_cur, e
    return np.ldexp(mant, exps)


def _eval_explicit(params: JacobiParams, n: int, x) -> tuple[np.ndarray, np.ndarray]:
    values = np.ones((n + 1,) + np.shape(x))
    if n == 0:
        return values, np.ones(1)
    scales = np.array([scale_for_shift(params.k, deg) for deg in range(n + 1)])
    # the table stops at the last degree d whose k^-d is finite: past it the
    # closed form's prefactor leaves the float range, so those degrees take
    # the recurrence's values (finite where P_deg(x) is, as where the sum
    # cancels most of k^-deg), and the coefficients of P_n read the chain
    # sums through index d-1
    d = n if math.isfinite(scales[n]) else int(np.argmax(np.isinf(scales))) - 1
    A = np.zeros(n + 1)
    if d >= 1:
        # column deg-1 of the prefix table holds the coefficients of degree
        # deg; its rows m > deg are exactly 0, so one 2-D Horner serves every
        # degree (points x degree, moved to degree x points)
        Ahi, Alo = char_chain_prefixes(params, d, d - 1)
        A[:d + 1] = Ahi[:, d - 1] + Alo[:, d - 1]
        # the tables of _horner_tables, signed in place: the prefix table
        # is (d+1) x d, and two signed copies of it would set the peak memory
        ach = abs(Ahi)
        sign = _alternating_signs(Ahi)
        Ahi *= sign
        Alo *= sign
        rh, _, _ = _horner_dd((Ahi, Alo, ach), np.asarray(x)[..., None], 0.0)
        values[1:d + 1] = scales[1:d + 1].reshape((d,) + (1,) * np.ndim(x)) * np.moveaxis(rh, -1, 0)
    if d < n:
        values[d + 1:] = _eval_recurrence(params, n, x)[d + 1:]
    signs = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    return values, signs * scales[n] * A


def orthopoly_values_dd(params: JacobiParams, n: int, z) -> tuple[np.ndarray, np.ndarray]:
    """P_0..P_n at a double-double point, recurrence in double-double.

    Used by the spectral machinery, where eigenvalues are carried to
    beyond-float precision and the forward recurrence (stable in the
    dominant direction) must not re-introduce rounding at the 1e-16 level.
    ``z`` is a float, an (hi, lo) pair, or a pair of arrays of P points; a
    scalar point gives (n+1)-vectors, P points (n+1) x P arrays.  The
    recurrence runs one point at a time on Python floats (no caller passes
    more than a few points), so each column has the bits of its one-point
    call.
    """
    zh, zl = _as_dd_point(z)
    _, alpha, beta = entry_arrays(params, max(n + 1, 1))
    alpha, beta = alpha.tolist(), beta.tolist()
    asplit = [dd.split(a) for a in alpha]  # the same halves at every point
    points = zip(np.ravel(zh).tolist(), np.ravel(zl).tolist())
    cols = np.array([_values_dd_at(alpha, asplit, beta, n, h, l) for h, l in points])
    cols = cols.reshape(-1, 2, n + 1)
    shape = (n + 1,) + np.shape(zh)
    return cols[:, 0].T.reshape(shape), cols[:, 1].T.reshape(shape)


def _values_dd_at(alpha: list, asplit: list, beta: list, n: int, zh: float, zl: float):
    """The double-double recurrence of ``orthopoly_values_dd`` at one point.

    A step is (z - beta_i) P_i - alpha_{i-1} P_{i-1}, divided by alpha_i, as
    ``dd_add_d``, ``dd_mul``, ``dd_mul_d``, ``dd_sub`` and ``dd_div`` form
    it, written out on Python floats: the same operations in the same order,
    so the same bits, without a call per operation.  Dekker's split of a
    value is formed once and reused (the halves of alpha_i come in
    ``asplit``; those of P_i serve the next step too), since a split has the
    same bits wherever it is formed.
    """
    S = dd._SPLITTER
    Ph, Pl = [1.0], [0.0]
    if n == 0:
        return Ph, Pl
    # P_1 = (z - beta_0) * (1 / alpha_0), as dd_add_d and dd_mul_d
    b = -beta[0]
    s = zh + b
    bb = s - zh
    e = (zh - (s - bb)) + (b - bb)
    e += zl
    th = s + e
    tl = e - (th - s)
    b = 1.0 / alpha[0]
    p = th * b
    c = S * th
    hi = c - (c - th)
    lo = th - hi
    c = S * b
    bhi = c - (c - b)
    blo = b - bhi
    e = ((hi * bhi - p) + hi * blo + lo * bhi) + lo * blo
    e += tl * b
    ph = p + e
    pl = e - (ph - p)
    Ph.append(ph)
    Pl.append(pl)
    # the splits of P_0 = 1, which is (1, 0), and of P_1, carried from step to step
    qhi, qlo = 1.0, 0.0
    c = S * ph
    phi = c - (c - ph)
    plo = ph - phi
    qh, ql = 1.0, 0.0
    for i in range(1, n):
        # t = z - beta_i (dd_add_d)
        b = -beta[i]
        s = zh + b
        bb = s - zh
        e = (zh - (s - bb)) + (b - bb)
        e += zl
        th = s + e
        tl = e - (th - s)
        # r = t * P_i (dd_mul)
        p = th * ph
        c = S * th
        hi = c - (c - th)
        lo = th - hi
        e = ((hi * phi - p) + hi * plo + lo * phi) + lo * plo
        e += th * pl + tl * ph
        rh = p + e
        rl = e - (rh - p)
        # u = P_{i-1} * alpha_{i-1} (dd_mul_d)
        a = alpha[i - 1]
        ahi, alo = asplit[i - 1]
        p = qh * a
        e = ((qhi * ahi - p) + qhi * alo + qlo * ahi) + qlo * alo
        e += ql * a
        uh = p + e
        ul = -(e - (uh - p))
        uh = -uh
        # r - u (dd_sub: dd_add of the negated pair)
        s = rh + uh
        bb = s - rh
        e = (rh - (s - bb)) + (uh - bb)
        t = rl + ul
        bb = t - rl
        f = (rl - (t - bb)) + (ul - bb)
        e += t
        s2 = s + e
        e = e - (s2 - s)
        e += f
        rh = s2 + e
        rl = e - (rh - s2)
        # P_{i+1} = r / alpha_i (dd_div by the pair (alpha_i, 0)): two
        # quotient digits, each taken off r by dd_mul_d(alpha_i, 0, q) and
        # dd_add of the negated product, then a third
        a = alpha[i]
        ahi, alo = asplit[i]
        q1 = q2 = 0.0
        for _ in range(2):
            q1, q2 = q2, rh / a
            p = a * q2
            c = S * q2
            hi = c - (c - q2)
            lo = q2 - hi
            e = ((ahi * hi - p) + ahi * lo + alo * hi) + alo * lo
            e += 0.0 * q2
            mh = p + e
            ml = -(e - (mh - p))
            mh = -mh
            s = rh + mh
            bb = s - rh
            e = (rh - (s - bb)) + (mh - bb)
            t = rl + ml
            bb = t - rl
            f = (rl - (t - bb)) + (ml - bb)
            e += t
            s2 = s + e
            e = e - (s2 - s)
            e += f
            rh = s2 + e
            rl = e - (rh - s2)
        q3 = rh / a
        s = q1 + q2
        bb = s - q1
        e = (q1 - (s - bb)) + (q2 - bb)
        e += q3
        qh, ql, qhi, qlo = ph, pl, phi, plo
        ph = s + e
        pl = e - (ph - s)
        c = S * ph
        phi = c - (c - ph)
        plo = ph - phi
        Ph.append(ph)
        Pl.append(pl)
    return Ph, Pl


def value_at_zero(params: JacobiParams, n: int) -> float:
    """P_n(0) = (-1)^n k^-n, as a formula; +-inf past the float range."""
    if n < 0:
        raise SequenceError(f"degree must be non-negative, got {n}")
    return scale_for_shift(params.k, n)


def second_kind_at_zero(params: JacobiParams, n: int, tol: float = 1e-14) -> float:
    """w_n(0) = (-1)^n sum_{j>=n} k^{2j-n}/a_j, truncated with certified tail < tol.

    Raises ``TruncationTooCoarse`` when no J up to n + 2^14 brings the tail
    bound below ``tol`` (k near 1 with a slowly growing sequence).
    """
    if n < 0:
        raise SequenceError(f"index must be non-negative, got {n}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    k = params.k
    J = _second_kind_cutoff(params, n, tol)
    a, _, _ = entry_arrays(params, J + 1)
    j = np.arange(n, J + 1)
    terms = k ** (2 * j - n) / a[n:]
    return (-1.0) ** n * math.fsum(terms)


def _trace_tail(params: JacobiParams, J: int) -> tuple[float, float]:
    """Value and truncation bound of sum_{j>J} (1 - k^{2j+2}) / ((1-k^2) a_j).

    The value is the reciprocal tail of the sequence over 1-k^2; the
    geometric part k^{2j+2} <= g = k^{2J+4} of it is bounded, not summed:
    with the reciprocal tail in [v - e, v + e], the true tail lies in
    [max(0, (v - e)(1 - g)), v + e], within e + g max(0, v - e) of v.
    """
    value, err = tail_sum_enclosure(params.seq, J + 1)
    err += (params.k * params.k) ** (J + 2) * max(0.0, value - err)
    om = _one_minus_k2(params.k)
    return value / om, err / om


def trace_inverse(params: JacobiParams, tol: float = 1e-14) -> float:
    """sum_j (1 - k^{2j+2}) / ((1-k^2) a_j), truncation error certified below tol.

    The closed sum adds the sequence's reciprocal tail past J, so power
    laws certify at small J; ``TruncationTooCoarse`` is raised when no J up
    to 2^17 brings the truncation bound below ``tol``.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    J = 16
    while True:
        tail, err = _trace_tail(params, J)
        if err < tol:
            break
        if J > (1 << 16):
            raise TruncationTooCoarse(
                f"trace truncation bound {err:.3e} at J={J} does not reach {tol:.3e}"
            )
        J *= 2
    a, _, _ = entry_arrays(params, J + 1)
    # -expm1 keeps 1 - k^{2j+2} to a few ulps; 1 - k2 ** (j+1) loses up to 15 at k = 0.999
    terms = -np.expm1(np.arange(1, J + 2) * (2.0 * math.log(params.k))) / (_one_minus_k2(params.k) * a)
    return math.fsum([tail, *terms])


def trace_inverse_routes(params: JacobiParams, tol: float = 1e-14) -> tuple[float, float]:
    """Trace of the inverse by the closed sum and by sum_n w_n(0) P_n(0).

    The two routes are analytically identical; returning both lets callers
    cross-check the sequence machinery against the second-kind machinery.
    The closed sum is ``trace_inverse``.  The second route raises
    ``ConvergenceFailure`` when its terms need more than 4096 indices
    (every power law at tol near 1e-14).
    """
    direct = trace_inverse(params, tol)
    k2 = params.k * params.k
    # w_n(0) P_n(0) = sum_{j>=n} k^{2(j-n)} / a_j: a positive suffix sum,
    # formed without the factor P_n(0) = (-k)^-n that leaves the float range
    scale = max(direct, 1e-300)
    n_stop = 0
    while _weight_beyond(params, n_stop) >= 0.05 * tol * scale:
        n_stop += 1
        if n_stop > _ALT_CAP:
            raise ConvergenceFailure(
                f"second trace route needs more than {_ALT_CAP} terms for tol {tol:.3e}"
            )
    # the suffix sums run down from J, past which the dropped part of every
    # term n <= n_stop is at most k^{2(J+1-n_stop)} tail(J+1)/(1-k^2)
    J = n_stop + 8
    cut = 1e-3 * tol * scale * (1.0 - k2)
    while k2 ** (J + 1 - n_stop) * tail_sum_reciprocal(params.seq, J + 1) >= cut:
        J *= 2
    alt = math.fsum(_reciprocal_suffix(params, J)[: n_stop + 1])
    return direct, alt


def _reciprocal_suffix(params: JacobiParams, J: int) -> np.ndarray:
    """S_n = sum_{n<=j<=J} k^{2(j-n)} / a_j for n = 0..J, in one backward pass.

    w_n(0) P_n(0) = S_n up to the dropped tail, and w_n(0) = (-1)^n k^n S_n.
    """
    a, _, _ = entry_arrays(params, J + 1)
    k2 = params.k * params.k
    suffix = np.empty(J + 1)
    acc = 0.0
    for i in range(J, -1, -1):
        acc = 1.0 / a[i] + k2 * acc
        suffix[i] = acc
    return suffix


def _second_kind_cutoff(params: JacobiParams, n: int, tol: float) -> int:
    """J with the tail k^{2(J+1)-n} tail(J+1) dropped from w_n(0) below tol.

    The bound grows with n, so the J of the largest n serves every smaller
    one.  Raises ``TruncationTooCoarse`` past J = n + 2^14.
    """
    J = n + 8
    while True:
        tail = params.k ** (2 * (J + 1) - n) * tail_sum_reciprocal(params.seq, J + 1)
        if tail < tol:
            return J
        if J > n + (1 << 14):
            raise TruncationTooCoarse(
                f"second-kind tail bound {tail:.3e} at J={J} does not reach {tol:.3e}"
            )
        J *= 2


def _second_kind_zeros(params: JacobiParams, n_max: int, tol: float) -> np.ndarray:
    """w_n(0) for n = 0..n_max from one suffix pass, each truncated below tol."""
    S = _reciprocal_suffix(params, _second_kind_cutoff(params, n_max, tol))
    n = np.arange(n_max + 1)
    return np.where(n % 2, -1.0, 1.0) * params.k**n * S[: n_max + 1]
