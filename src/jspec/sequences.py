"""Weight sequences and the tridiagonal entries they induce.

The operators studied here are built from a positive sequence ``a_n`` with a
summable reciprocal, together with a coupling ``k in (0, 1)``:

    alpha_n = k * a_n
    beta_n  = a_n + k^2 * a_{n-1}        (beta_0 = a_0, no predecessor term)

Three sequence families are supported:

* ``Geometric(q)``    : a_n = q^(-2(n+1)) * (1 - q^(n+1)),   0 < q < 1
* ``PowerLaw(c, p)``  : a_n = c * (n+1)^p,                   c > 0, p > 1
* ``Explicit(values, tail)`` : a finite positive prefix continued by one of
  the two closed-form families (indexed by the global position n).

Every family comes with a certified upper bound on the reciprocal tail
``sum_{j >= n0} 1/a_j`` and with a certified minimum, which yields the
spectral lower bound ``gamma = a_min * (1-k)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import SequenceError

__all__ = [
    "Geometric",
    "PowerLaw",
    "Explicit",
    "SequenceSpec",
    "JacobiParams",
    "seq_value",
    "seq_values",
    "entries",
    "entry_arrays",
    "tail_sum_reciprocal",
    "sequence_min",
    "gamma_lower_bound",
]


@dataclass(frozen=True)
class Geometric:
    """a_n = q^(-2(n+1)) (1 - q^(n+1)); strictly increasing in n."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise SequenceError(f"geometric ratio q must lie in (0,1), got {self.q}")


@dataclass(frozen=True)
class PowerLaw:
    """a_n = c (n+1)^p with p > 1 so the reciprocals are summable."""

    c: float
    p: float

    def __post_init__(self):
        if not (self.c > 0.0):
            raise SequenceError(f"power-law scale c must be positive, got {self.c}")
        if not (self.p > 1.0):
            raise SequenceError(f"power-law exponent p must exceed 1, got {self.p}")


@dataclass(frozen=True)
class Explicit:
    """A finite positive prefix, continued by a closed-form tail.

    The tail rule is evaluated at the global index n (it "continues" the
    list rather than restarting at zero).
    """

    values: tuple[float, ...]
    tail: Union[Geometric, PowerLaw]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise SequenceError("explicit sequence needs at least one value")
        if any(not (v > 0.0) or not math.isfinite(v) for v in vals):
            raise SequenceError("explicit sequence values must be positive and finite")


SequenceSpec = Union[Geometric, PowerLaw, Explicit]


def _geometric_values(q: float, start: int, stop: int) -> np.ndarray:
    n = np.arange(start, stop, dtype=float)
    # a_n = u(u-1) with u = q^{-(n+1)}; keeps binary-rational q exact as
    # long as u^2 stays below 2^53.
    u = (1.0 / q) ** (n + 1.0)
    return u * (u - 1.0)


def seq_values(spec: SequenceSpec, count: int) -> np.ndarray:
    """First ``count`` sequence values a_0 .. a_{count-1}."""
    if count <= 0:
        return np.empty(0)
    if isinstance(spec, Geometric):
        vals = _geometric_values(spec.q, 0, count)
    elif isinstance(spec, PowerLaw):
        n = np.arange(count, dtype=float)
        vals = spec.c * (n + 1.0) ** spec.p
    elif isinstance(spec, Explicit):
        head = np.asarray(spec.values[:count], dtype=float)
        if count <= len(spec.values):
            vals = head
        else:
            L = len(spec.values)
            if isinstance(spec.tail, Geometric):
                tail = _geometric_values(spec.tail.q, L, count)
            else:
                n = np.arange(L, count, dtype=float)
                tail = spec.tail.c * (n + 1.0) ** spec.tail.p
            vals = np.concatenate([head, tail])
    else:
        raise SequenceError(f"unknown sequence spec {spec!r}")
    if not np.all(vals > 0.0) or not np.all(np.isfinite(vals)):
        raise SequenceError("sequence spec produced a non-positive or non-finite value")
    return vals


def seq_value(spec: SequenceSpec, n: int) -> float:
    if n < 0:
        raise SequenceError(f"sequence index must be non-negative, got {n}")
    if isinstance(spec, Explicit) and n < len(spec.values):
        return spec.values[n]
    if isinstance(spec, Explicit):
        return seq_value(spec.tail, n)
    return float(seq_values(spec, n + 1)[-1]) if n < 2 else float(_single(spec, n))


def _single(spec: SequenceSpec, n: int) -> float:
    if isinstance(spec, Geometric):
        u = (1.0 / spec.q) ** (n + 1.0)
        return u * (u - 1.0)
    if isinstance(spec, PowerLaw):
        return spec.c * (n + 1.0) ** spec.p
    raise SequenceError(f"unknown sequence spec {spec!r}")


@dataclass(frozen=True)
class JacobiParams:
    """Sequence spec plus the coupling k; source of the matrix entries."""

    seq: SequenceSpec
    k: float

    def __post_init__(self):
        if not (0.0 < self.k < 1.0):
            raise SequenceError(f"coupling k must lie strictly in (0,1), got {self.k}")
        # touching the first few values validates positivity early
        seq_values(self.seq, 2)


def entries(params: JacobiParams, n: int) -> tuple[float, float, float]:
    """(a_n, alpha_n, beta_n) for a single index.

    beta_0 = a_0 by convention: the predecessor term is absent at n = 0,
    which is forced by the factorization J = (I + kE) diag(a) (I + kE^T).
    """
    if n < 0:
        raise SequenceError(f"entry index must be non-negative, got {n}")
    a_n = seq_value(params.seq, n)
    alpha_n = params.k * a_n
    beta_n = a_n if n == 0 else a_n + params.k * params.k * seq_value(params.seq, n - 1)
    return a_n, alpha_n, beta_n


def entry_arrays(params: JacobiParams, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (a, alpha, beta) arrays of length ``count``.

    This is the per-computation memoization point: callers fetch one block
    of values up front and share it; there is no global cache.
    """
    a = seq_values(params.seq, count)
    alpha = params.k * a
    beta = a.copy()
    beta[1:] += params.k * params.k * a[:-1]
    return a, alpha, beta


def tail_sum_reciprocal(spec: SequenceSpec, n0: int) -> float:
    """Certified upper bound on sum_{j >= n0} 1/a_j.

    Geometric uses the closed geometric majorant
    ``q^{2(n0+1)} / ((1 - q^2)(1 - q^{n0+1}))``; PowerLaw uses the integral
    bound; Explicit scans the remaining list and delegates to its tail rule.
    The bound is monotone non-increasing in n0 and dominates every partial
    sum of the true tail.
    """
    if n0 < 0:
        raise SequenceError(f"tail start index must be non-negative, got {n0}")
    # outward rounding: the closed forms dominate the true tail exactly, but
    # their float evaluation may land a few ulps low
    up = 1.0 + 4e-15
    if isinstance(spec, Geometric):
        # 1/a_j <= q^{2(j-n0)} / a_{n0}, so the tail is at most
        # 1/(a_{n0} (1-q^2)); building it from the same float sequence value
        # the partial sums use keeps the domination robust to rounding
        q = spec.q
        try:
            a_n0 = _single(spec, n0)
        except OverflowError:
            # q^{-(n0+1)} left the float range, so the bound lies below the
            # least subnormal: form it in log space and round it up, so it
            # never drops under the true tail
            log_a = 2.0 * (n0 + 1.0) * math.log(1.0 / q) + math.log1p(-(q ** (n0 + 1.0)))
            return math.nextafter(up * math.exp(-log_a) / (1.0 - q * q), math.inf)
        return up / (a_n0 * (1.0 - q * q))
    if isinstance(spec, PowerLaw):
        # sum_{j>=n0} (j+1)^-p  <=  1/(p-1) * n0^(1-p)   for n0 >= 1
        if n0 == 0:
            return up * (1.0 + 1.0 / (spec.p - 1.0)) / spec.c
        return up * n0 ** (1.0 - spec.p) / ((spec.p - 1.0) * spec.c)
    if isinstance(spec, Explicit):
        L = len(spec.values)
        head = sum(1.0 / v for v in spec.values[n0:L]) if n0 < L else 0.0
        return up * head + tail_sum_reciprocal(spec.tail, max(n0, L))
    raise SequenceError(f"unknown sequence spec {spec!r}")


def sequence_min(spec: SequenceSpec) -> float:
    """Certified minimum of the sequence.

    Geometric and PowerLaw are strictly increasing (the geometric ratio
    a_{n+1}/a_n = q^{-2} (1-q^{n+2})/(1-q^{n+1}) exceeds 1), so the minimum
    sits at n = 0.  Explicit scans its list and applies the same argument
    to the tail from its start index on.
    """
    if isinstance(spec, (Geometric, PowerLaw)):
        return float(seq_values(spec, 1)[0])
    if isinstance(spec, Explicit):
        L = len(spec.values)
        return min(min(spec.values), seq_value(spec.tail, L))
    raise SequenceError(f"unknown sequence spec {spec!r}")


def sequence_min_from(spec: SequenceSpec, n0: int) -> float:
    """Certified minimum over indices >= n0 (same monotonicity argument)."""
    if isinstance(spec, (Geometric, PowerLaw)):
        return seq_value(spec, n0)
    if isinstance(spec, Explicit):
        L = len(spec.values)
        tail_min = seq_value(spec.tail, max(n0, L))
        if n0 >= L:
            return tail_min
        return min(min(spec.values[n0:L]), tail_min)
    raise SequenceError(f"unknown sequence spec {spec!r}")


def gamma_lower_bound(params: JacobiParams) -> float:
    """Spectral lower bound gamma = a_min (1-k)^2.

    Every eigenvalue of the operator, and every root of the orthonormal
    polynomials, lies in [gamma, infinity).
    """
    g = sequence_min(params.seq) * (1.0 - params.k) ** 2
    if not (g > 0.0):
        raise SequenceError("could not certify a positive spectral lower bound")
    return g
