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
from .entire import _horner_dd, char_chain_prefixes
from .errors import SequenceError
from .sequences import JacobiParams, entry_arrays, tail_sum_reciprocal

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


@dataclass
class PolyEval:
    """Values P_0(x)..P_n(x) plus, in explicit mode, monomial coefficients.

    Values are stored scaled: the true value is mantissas[i] * 2^exponents[i].
    ``values`` collapses that to plain floats (inf once past the float range,
    with ``overflow`` set) so ordinary consumers never silently saturate.
    """

    degree: int
    x: float
    mode: str
    values: np.ndarray
    mantissas: np.ndarray
    exponents: np.ndarray
    overflow: bool
    coeffs: Optional[np.ndarray] = None  # monomial coefficients of P_n


def _collapse(mant: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, bool]:
    vals = np.empty_like(mant)
    overflow = False
    for i, (m, e) in enumerate(zip(mant, exps)):
        if e == 0:
            vals[i] = m
            continue
        try:
            vals[i] = math.ldexp(m, int(e))
        except OverflowError:
            vals[i] = math.inf if m > 0 else -math.inf
            overflow = True
    if np.any(np.isinf(vals)):
        overflow = True
    return vals, overflow


def orthopoly_eval(params: JacobiParams, n: int, x: float, mode: str = "recurrence") -> PolyEval:
    """Evaluate P_0..P_n at x by recurrence or by the explicit closed form.

    Explicit mode computes the chain-sum coefficients of every degree in one
    dynamic-program pass (the prefix property of the chain sums) and returns
    the monomial coefficients of P_n; coefficients whose magnitude falls
    below the subnormal range flush to zero, which cannot disturb the values
    at any representable x.
    """
    if n < 0:
        raise SequenceError(f"degree must be non-negative, got {n}")
    if mode == "recurrence":
        return _eval_recurrence(params, n, x)
    if mode == "explicit":
        return _eval_explicit(params, n, x)
    raise ValueError(f"unknown evaluation mode {mode!r}")


def _eval_recurrence(params: JacobiParams, n: int, x: float) -> PolyEval:
    _, alpha, beta = entry_arrays(params, n + 1)
    mant = np.empty(n + 1)
    exps = np.zeros(n + 1, dtype=np.int64)
    p_prev, p_cur = 1.0, None
    e = 0
    mant[0] = 1.0
    if n >= 1:
        p_cur = (x - beta[0]) / alpha[0]
        mant[1] = p_cur
        exps[1] = 0
        for i in range(1, n):
            p_next = ((x - beta[i]) * p_cur - alpha[i - 1] * p_prev) / alpha[i]
            p_prev, p_cur = p_cur, p_next
            if max(abs(p_prev), abs(p_cur)) > _RESCALE_LIMIT:
                p_prev = math.ldexp(p_prev, -_RESCALE_SHIFT)
                p_cur = math.ldexp(p_cur, -_RESCALE_SHIFT)
                e += _RESCALE_SHIFT
            mant[i + 1] = p_cur
            exps[i + 1] = e
    vals, overflow = _collapse(mant, exps)
    return PolyEval(
        degree=n, x=x, mode="recurrence",
        values=vals, mantissas=mant, exponents=exps, overflow=overflow,
    )


def _eval_explicit(params: JacobiParams, n: int, x: float) -> PolyEval:
    k = params.k
    if n == 0:
        one = np.ones(1)
        return PolyEval(0, x, "explicit", one.copy(), one.copy(),
                        np.zeros(1, dtype=np.int64), False, coeffs=one.copy())
    # column deg-1 of the prefix table holds the coefficients of degree deg;
    # its rows m > deg are exactly 0, so one 2-D Horner serves every degree
    Ahi, Alo = char_chain_prefixes(params, n, n - 1)
    rh, _, _ = _horner_dd(Ahi, Alo, float(x), 0.0)
    vals = np.empty(n + 1)
    vals[0] = 1.0
    kinv_ok = True
    for deg in range(1, n + 1):
        try:
            scale = (-1.0) ** deg * k ** (-deg)
        except OverflowError:
            kinv_ok = False
            scale = math.inf
        vals[deg] = scale * rh[deg - 1]
    signs = np.where((n + np.arange(n + 1)) % 2, -1.0, 1.0)
    coeffs = signs * k ** (-n) * (Ahi[:, n - 1] + Alo[:, n - 1])
    overflow = (not kinv_ok) or bool(np.any(np.isinf(vals)))
    return PolyEval(
        degree=n, x=x, mode="explicit",
        values=vals, mantissas=vals.copy(), exponents=np.zeros(n + 1, dtype=np.int64),
        overflow=overflow, coeffs=coeffs,
    )


def orthopoly_values_dd(params: JacobiParams, n: int, z) -> tuple[np.ndarray, np.ndarray]:
    """P_0..P_n at a double-double point, recurrence in double-double.

    Used by the spectral machinery, where eigenvalues are carried to
    beyond-float precision and the forward recurrence (stable in the
    dominant direction) must not re-introduce rounding at the 1e-16 level.
    """
    zh, zl = (float(z[0]), float(z[1])) if isinstance(z, tuple) else (float(z), 0.0)
    _, alpha, beta = entry_arrays(params, max(n + 1, 1))
    Ph = np.empty(n + 1)
    Pl = np.empty(n + 1)
    Ph[0], Pl[0] = 1.0, 0.0
    if n == 0:
        return Ph, Pl
    th, tl = dd.dd_add_d(zh, zl, -float(beta[0]))
    Ph[1], Pl[1] = dd.dd_mul_d(th, tl, 1.0 / float(alpha[0]))
    for i in range(1, n):
        th, tl = dd.dd_add_d(zh, zl, -float(beta[i]))
        rh, rl = dd.dd_mul(th, tl, Ph[i], Pl[i])
        sh, sl = dd.dd_mul_d(Ph[i - 1], Pl[i - 1], float(alpha[i - 1]))
        rh, rl = dd.dd_sub(rh, rl, sh, sl)
        Ph[i + 1], Pl[i + 1] = dd.dd_div(rh, rl, float(alpha[i]), 0.0)
    return Ph, Pl


def value_at_zero(params: JacobiParams, n: int) -> float:
    """P_n(0) = (-1)^n k^-n, as a formula."""
    if n < 0:
        raise SequenceError(f"degree must be non-negative, got {n}")
    return (-1.0) ** n * params.k ** (-n)


def second_kind_at_zero(params: JacobiParams, n: int, tol: float = 1e-14) -> float:
    """w_n(0) = (-1)^n sum_{j>=n} k^{2j-n}/a_j, truncated with certified tail < tol."""
    if n < 0:
        raise SequenceError(f"index must be non-negative, got {n}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    k = params.k
    J = n + 8
    while True:
        tail = k ** (2 * (J + 1) - n) * tail_sum_reciprocal(params.seq, J + 1)
        if tail < tol or J > n + (1 << 14):
            break
        J *= 2
    a, _, _ = entry_arrays(params, J + 1)
    j = np.arange(n, J + 1)
    terms = k ** (2 * j - n) / a[n:]
    return (-1.0) ** n * float(dd.compensated_sum(terms[::-1]))


def trace_inverse(params: JacobiParams, tol: float = 1e-14) -> float:
    """sum_j (1 - k^{2j+2}) / ((1-k^2) a_j), certified tail below tol."""
    direct, _ = trace_inverse_routes(params, tol, with_alt=False)
    return direct


def trace_inverse_routes(
    params: JacobiParams, tol: float = 1e-14, with_alt: bool = True
) -> tuple[float, Optional[float]]:
    """Trace of the inverse by the closed sum and by sum_n w_n(0) P_n(0).

    The two routes are analytically identical; returning both lets callers
    cross-check the sequence machinery against the second-kind machinery.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    k = params.k
    k2 = k * k
    J = 16
    while True:
        tail = tail_sum_reciprocal(params.seq, J + 1) / (1.0 - k2)
        if tail < tol or J > (1 << 16):
            break
        J *= 2
    a, _, _ = entry_arrays(params, J + 1)
    j = np.arange(J + 1)
    terms = (1.0 - k2 ** (j + 1)) / ((1.0 - k2) * a)
    direct = float(dd.compensated_sum(terms[::-1]))
    if not with_alt:
        return direct, None
    # w_n(0) P_n(0) = sum_{j>=n} k^{2(j-n)} / a_j, all positive
    scale = max(direct, 1e-300)
    alt = 0.0
    n = 0
    while True:
        term = second_kind_at_zero(params, n, tol=tol * 1e-3 * scale) * value_at_zero(params, n)
        alt += term
        bound = tail_sum_reciprocal(params.seq, n + 1) / (1.0 - k2)
        if bound < 0.05 * tol * scale or n > (1 << 12):
            break
        n += 1
    return direct, alt
