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

Every family comes with one enclosure (value, err) of the reciprocal tail
``sum_{j >= n0} 1/a_j``, ``tail_sum_enclosure``, whose error covers its own
rounding, so its upper end ``tail_sum_reciprocal`` is a certified bound; and
with a certified minimum, which yields the spectral lower bound
``gamma = a_min * (1-k)^2``.
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
    "entry_arrays",
    "tail_sum_reciprocal",
    "tail_sum_enclosure",
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


def _closed_form(spec: Union[Geometric, PowerLaw], n):
    """a_n of a closed-form family at a float index n, or at an array of
    them; overflow gives inf.

    Every sequence value comes from here, through numpy's power on a block
    and on one index alike (Python's ``**`` rounds some powers differently:
    ``5.0 ** 106.0`` is one ulp above numpy's), so a value does not depend
    on the block it was fetched with.
    """
    with np.errstate(over="ignore"):
        if isinstance(spec, Geometric):
            # a_n = u(u-1) with u = q^{-(n+1)}; keeps binary-rational q exact
            # as long as u^2 stays below 2^53.
            u = np.power(1.0 / spec.q, n + 1.0)
            return u * (u - 1.0)
        if isinstance(spec, PowerLaw):
            return spec.c * np.power(n + 1.0, spec.p)
    raise SequenceError(f"unknown sequence spec {spec!r}")


def seq_values(spec: SequenceSpec, count: int) -> np.ndarray:
    """First ``count`` sequence values a_0 .. a_{count-1}."""
    if count <= 0:
        return np.empty(0)
    if isinstance(spec, Explicit):
        head = np.asarray(spec.values[:count], dtype=float)
        L = len(spec.values)
        tail = _closed_form(spec.tail, np.arange(L, count, dtype=float))
        vals = head if count <= L else np.concatenate([head, tail])
    else:
        vals = _closed_form(spec, np.arange(count, dtype=float))
    if not np.all(vals > 0.0) or not np.all(np.isfinite(vals)):
        raise SequenceError("sequence spec produced a non-positive or non-finite value")
    return vals


def seq_value(spec: SequenceSpec, n: int) -> float:
    """a_n alone; the same bits as ``seq_values(spec, N)[n]`` for every N > n."""
    if n < 0:
        raise SequenceError(f"sequence index must be non-negative, got {n}")
    if isinstance(spec, Explicit):
        if n < len(spec.values):
            return spec.values[n]
        spec = spec.tail
    value = float(_closed_form(spec, n))
    if not (math.isfinite(value) and value > 0.0):
        raise SequenceError(f"sequence value a_{n} is non-positive or non-finite")
    return value


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
    """Certified upper bound on sum_{j >= n0} 1/a_j: value + err of
    ``tail_sum_enclosure``; monotone non-increasing in n0."""
    value, err = tail_sum_enclosure(spec, n0)
    return value + err


# B_2, B_4, ..., B_14: the Euler-Maclaurin terms of the power-law tail
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _hurwitz_zeta(p: float, N: int) -> tuple[float, float]:
    """zeta(p, N) = sum_{m >= N} m^-p and a bound on its truncation error.

    Terms below m = 16 are summed directly; from x = max(N, 16) on,
    Euler-Maclaurin gives x^{1-p}/(p-1) + x^{-p}/2 + sum_i t_i with
    t_i = B_{2i}/(2i)! (p)_{2i-1} x^{-p-2i+1}.  Since f = x^-p has even
    derivatives of one sign, the remainder is at most |f^{(2K-1)}(x)|
    |B_{2K}|/(2K)!, the size of the last term kept.  The value itself
    carries a few ulps of rounding, which ``tail_sum_enclosure`` covers.
    """
    x = max(N, 16)
    head = math.fsum(float(m) ** -p for m in range(N, x))
    x = float(x)
    terms = [x ** (1.0 - p) / (p - 1.0), 0.5 * x ** -p]
    rising = p * x ** (-p - 1.0)  # (p)_{2i-1} x^{-p-2i+1} at i = 1
    fact = 2.0  # (2i)!
    for i, b in enumerate(_BERNOULLI_EVEN, start=1):
        terms.append(b / fact * rising)
        rising *= (p + 2 * i - 1) * (p + 2 * i) / (x * x)
        fact *= (2 * i + 1) * (2 * i + 2)
    return head + math.fsum(terms), abs(terms[-1])


_EPS = float(np.finfo(float).eps)
# at least 4 x the worst shortfall of value + err below the 50-digit tail
# without this term (2.2 eps, on ``polycore._trace_tail``): it covers the
# roundings of the value (the prefix fsum, the Euler-Maclaurin sum, the
# division by c) and of value + err
_ULPS = 16.0


def tail_sum_enclosure(spec: SequenceSpec, n0: int) -> tuple[float, float]:
    """Value of sum_{j >= n0} 1/a_j and a certified bound on its error.

    Geometric tails are only bounded: the value is 0 and the error the
    closed majorant q^{2(n0+1)} / ((1 - q^2)(1 - q^{n0+1})).  PowerLaw gives
    the Hurwitz zeta(p, n0+1)/c by Euler-Maclaurin with its remainder bound.
    Explicit adds the ``fsum`` of its remaining list to its tail rule.  The
    error also covers _ULPS ulps of the value, so value + err bounds the
    tail after its own rounding too.
    """
    if n0 < 0:
        raise SequenceError(f"tail start index must be non-negative, got {n0}")
    head = 0.0
    if isinstance(spec, Explicit):
        L = len(spec.values)
        head = math.fsum(1.0 / v for v in spec.values[n0:L])
        spec, n0 = spec.tail, max(n0, L)
    if isinstance(spec, Geometric):
        # 1/a_j <= q^{2(j-n0)} / a_{n0}, so the tail is at most
        # 1/(a_{n0} (1-q^2)), built from the float a_{n0} the partial sums
        # use; up rounds its evaluation outward
        q, up = spec.q, 1.0 + 4e-15
        a_n0 = float(_closed_form(spec, n0))
        if math.isinf(a_n0):
            # a_{n0} (or already q^{-(n0+1)}) left the float range, so the
            # bound lies at or below the least subnormal: form it in log
            # space with one rounding and round that up
            log_a = 2.0 * (n0 + 1.0) * math.log(1.0 / q) + math.log1p(-(q ** (n0 + 1.0)))
            value, err = 0.0, math.nextafter(up * math.exp(-log_a - math.log1p(-q * q)), math.inf)
        else:
            value, err = 0.0, up / (a_n0 * (1.0 - q * q))
    elif isinstance(spec, PowerLaw):
        z, err = _hurwitz_zeta(spec.p, n0 + 1)
        value, err = z / spec.c, err / spec.c
    else:
        raise SequenceError(f"unknown sequence spec {spec!r}")
    value += head
    return value, err + _ULPS * _EPS * value


def sequence_min_from(spec: SequenceSpec, n0: int) -> float:
    """Certified minimum over indices >= n0.

    Geometric and PowerLaw are strictly increasing (the geometric ratio
    a_{n+1}/a_n = q^{-2} (1-q^{n+2})/(1-q^{n+1}) exceeds 1), so the minimum
    sits at n0.  Explicit scans its list from n0 and applies the same
    argument to the tail from its start index on.
    """
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
    g = sequence_min_from(params.seq, 0) * (1.0 - params.k) ** 2
    if not (g > 0.0):
        raise SequenceError("could not certify a positive spectral lower bound")
    return g
