"""Numerical verification of the q-series summation identities.

Seven identity families are checked at finite truncation with certified
tail bounds; together they exercise every summation pattern the entire
function closed forms rely on, so this module doubles as the regression
corpus for the q machinery.

Identity ids and parameters (q in (0,1) throughout):

* BASIC        sum_n q^{rn} / (q^n w; q)_{r+1} = 1 / ((1-q^r)(w; q)_r),
               r >= 1 integer, |w| < 1
* PHI10        1 / (w; q)_m = sum_s (q^m; q)_s / (q; q)_s w^s,  |w| < 1
* LEMMA1       (1-q^m)(w;q)_m sum_j [q^{(m+1)j} w^j / (1-q^{j+m})]
                 sum_n q^{(j+m+1)n} / (q^n w; q)_{m+1}
               = sum_j q^{mj} w^j / (1-q^{j+m+1}),    m >= 1, |w| < 1
* DENOM        ordered (m+1)-fold sum over 0 <= n_m <= ... <= n_0 of
               q^{n_0+...+n_m} / [ (q^{n_m+a};q)_2 (q^{n_{m-1}+a+2};q)_2
               ... (q^{n_1+a+2m-2};q)_2 (q^{n_0+a+2m};q)_1 ]
               = 1/((q;q)_m (q^a;q)_m) sum_j q^{(m+a)j}/(1-q^{j+m+1}),  a > 0
* CHAIN_OPEN   (1-q)^{-m} sum over 0 <= j_0 <= ... <= j_m of
               q^{c_0 j_0 + ... + c_m j_m} (1-q^{j_1-j_0})...(1-q^{j_m-j_{m-1}})
               = q^{c_1+2c_2+...+m c_m} /
                 [ (q^{C_0};q)_1 (q^{C_1};q)_2 ... (q^{C_m};q)_2 ],
               c_i > 0, C_i = c_i + ... + c_m
* CHAIN_CLOSED same with strict ordering, the extra seed factor
               (1-q^{j_0+1}), prefactor (1-q)^{-(m+1)}, and the first
               denominator factor promoted to (q^{C_0};q)_2
* SYNCHRO      ordered sum over 0 <= n_m <= ... <= n_1 of
               q^{s_1 n_1 + ... + s_m n_m} / prod_i (q^{n_i+shift_i};q)_{s_i+1},
               shift_i = s_{i+1}+...+s_m + a + (m-i)
               = 1 / [ prod_t (1-q^{s_1+...+s_t}) (q^a;q)_{s_1+...+s_m} ],
               m >= 1, s_i >= 1 integers, a > 0

Every left-hand side is evaluated by direct nested summation with
innermost-first (prefix) accumulation and a per-level geometric tail bound;
no closed form is reused on the left side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterOutOfRange, TruncationTooCoarse
from .qlaguerre import qpochhammer

__all__ = ["IdentityReport", "IDENTITY_IDS", "check", "draw_params", "chain_rhs"]

_DEPTH_CAP = 1 << 17


@dataclass
class IdentityReport:
    identity_id: str
    params: dict
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    trunc_bound: float
    depth: int

    def holds(self, slack: float = 1e-10) -> bool:
        return self.abs_err <= self.trunc_bound + slack * max(1.0, abs(self.lhs), abs(self.rhs))


def _poch_rows(q: float, shift: float, length: int, N: int) -> np.ndarray:
    """(q^{n+shift}; q)_length for n = 0..N-1, vectorized over n."""
    n = np.arange(N, dtype=float)
    out = np.ones(N)
    for t in range(length):
        out *= 1.0 - q ** (n + shift + t)
    return out


def _pick_depth(ratio: float, scale: float, tol: float) -> int:
    """Smallest N with scale * ratio^N / (1 - ratio) < tol."""
    if not (0.0 < ratio < 1.0):
        raise TruncationTooCoarse(f"geometric level ratio {ratio} is not in (0,1)")
    N = 64
    while scale * ratio**N / (1.0 - ratio) >= tol:
        N *= 2
        if N > _DEPTH_CAP:
            raise TruncationTooCoarse(
                f"depth beyond {_DEPTH_CAP} needed for ratio {ratio:.4g} at tol {tol:g}"
            )
    return N


def _geom_tail(ratio: float, scale: float, N: int) -> float:
    return scale * ratio**N / (1.0 - ratio)


# ---------------------------------------------------------------- BASIC --

def _check_basic(q: float, r: int, w: float, tol: float):
    if r < 1:
        raise ParameterOutOfRange(f"BASIC needs integer r >= 1, got {r!r}")
    if not (abs(w) < 1.0):
        raise ParameterOutOfRange(f"BASIC needs |w| < 1 for the certified tail, got {w!r}")
    dmin = qpochhammer(abs(w), q, 200)  # lower bound on every denominator
    ratio = q**r
    N = _pick_depth(ratio, 1.0 / dmin, tol)
    n = np.arange(N, dtype=float)
    den = np.ones(N)
    for t in range(r + 1):
        den *= 1.0 - (q**n) * w * q**t
    terms = q ** (r * n) / den
    lhs = math.fsum(terms)
    rhs = 1.0 / ((1.0 - q**r) * qpochhammer(w, q, r))
    bound = _geom_tail(ratio, 1.0 / dmin, N)
    return lhs, rhs, bound, N


# ---------------------------------------------------------------- PHI10 --

def _check_phi10(q: float, m: int, w: float, tol: float):
    if m < 0:
        raise ParameterOutOfRange(f"PHI10 needs integer m >= 0, got {m!r}")
    if not (abs(w) < 1.0):
        raise ParameterOutOfRange(f"PHI10 needs |w| < 1, got {w!r}")
    qq_inf = qpochhammer(q, q, 400)
    N = _pick_depth(abs(w) if w != 0.0 else 0.5, 1.0 / qq_inf, tol)
    s = np.arange(N, dtype=float)
    num = np.ones(N)
    den = np.ones(N)
    for i in range(1, N):
        num[i] = num[i - 1] * (1.0 - q ** (m + i - 1))
        den[i] = den[i - 1] * (1.0 - q**i)
    terms = num / den * w**s
    lhs = math.fsum(terms)
    rhs = 1.0 / qpochhammer(w, q, m)
    bound = _geom_tail(abs(w) if w != 0.0 else 0.5, 1.0 / qq_inf, N)
    return lhs, rhs, bound, N


# --------------------------------------------------------------- LEMMA1 --

def _check_lemma1(q: float, m: int, w: float, tol: float):
    if m < 1:
        raise ParameterOutOfRange(f"LEMMA1 needs integer m >= 1, got {m!r}")
    if not (abs(w) < 1.0):
        raise ParameterOutOfRange(f"LEMMA1 needs |w| < 1, got {w!r}")
    dmin = qpochhammer(abs(w), q, 200)
    ratio_j = max(abs(w), 1e-3) * q ** (m + 1)
    Nj = _pick_depth(ratio_j, 2.0 / (dmin * (1.0 - q)), tol / 2.0)
    # inner depth: ratio q^{j+m+1} <= q^{m+1}
    Nn = _pick_depth(q ** (m + 1), 2.0 / dmin, tol / 2.0)
    n = np.arange(Nn, dtype=float)
    qn = q**n
    den_inner = np.ones(Nn)
    for t in range(m + 1):
        den_inner *= 1.0 - qn * w * q**t
    j = np.arange(Nj, dtype=float)
    outer = np.empty(Nj)
    for jj in range(Nj):
        inner = math.fsum((qn ** (jj + m + 1)) / den_inner)
        outer[jj] = q ** ((m + 1) * jj) * w**jj / (1.0 - q ** (jj + m)) * inner
    lhs = (1.0 - q**m) * qpochhammer(w, q, m) * math.fsum(outer)
    # right side: geometric series with ratio q^m |w|
    Nr = _pick_depth(max(abs(w), 1e-3) * q**m, 1.0 / (1.0 - q), 1e-17)
    jr = np.arange(Nr, dtype=float)
    rhs_terms = q ** (m * jr) * w**jr / (1.0 - q ** (jr + m + 1))
    rhs = math.fsum(rhs_terms)
    bound = (
        _geom_tail(ratio_j, 2.0 / (dmin * (1.0 - q)), Nj)
        + _geom_tail(q ** (m + 1), 2.0 / dmin, Nn)
        + _geom_tail(max(abs(w), 1e-3) * q**m, 1.0 / (1.0 - q), Nr)
    )
    return lhs, rhs, bound, max(Nj, Nn)


# ---------------------------------------------------------------- DENOM --

def _check_denom(q: float, m: int, a: float, tol: float):
    if m < 0:
        raise ParameterOutOfRange(f"DENOM needs integer m >= 0, got {m!r}")
    if not (a > 0.0):
        raise ParameterOutOfRange(f"DENOM needs a > 0, got {a!r}")
    # level i = 0 (outermost, index n_0) .. m (innermost, index n_m)
    shifts = [a + 2.0 * (m - i) for i in range(m + 1)]
    lengths = [1 if i == 0 else 2 for i in range(m + 1)]
    if m == 0:
        shifts, lengths = [a], [1]
    dmin = 1.0
    for sh, ln in zip(shifts, lengths):
        dmin *= qpochhammer(q**sh, q, ln)
    scale = 1.0 / (dmin * (1.0 - q) ** (m + 1))
    N = _pick_depth(q, scale, tol / 2.0)
    # innermost-first prefix accumulation
    prefix = np.ones(N)
    for i in range(m, 0, -1):
        u = (q ** np.arange(N, dtype=float)) / _poch_rows(q, shifts[i], lengths[i], N)
        prefix = np.cumsum(u * prefix)
    u0 = (q ** np.arange(N, dtype=float)) / _poch_rows(q, shifts[0], lengths[0], N)
    lhs = math.fsum(u0 * prefix)
    # right side series, ratio q^{m+a}
    Nr = _pick_depth(q ** (m + a), 1.0 / (1.0 - q), 1e-17)
    jr = np.arange(Nr, dtype=float)
    rhs_series = math.fsum(q ** ((m + a) * jr) / (1.0 - q ** (jr + m + 1)))
    rhs = rhs_series / (qpochhammer(q, q, m) * qpochhammer(q**a, q, m))
    bound = _geom_tail(q, scale, N) + _geom_tail(q ** (m + a), 1.0 / (1.0 - q), Nr) / (
        qpochhammer(q, q, m) * qpochhammer(q**a, q, m)
    )
    return lhs, rhs, bound, N


# ------------------------------------------------------- CHAIN variants --

def chain_rhs(q: float, c: tuple, strict_seed: bool) -> float:
    """Closed form of the chain sums; ``strict_seed`` marks the variant with
    the (1 - q^{j_0+1}) seed factor."""
    m = len(c) - 1
    expo = sum(i * c[i] for i in range(m + 1))
    denom = 1.0
    suffix = 0.0
    for i in range(m, -1, -1):
        suffix += c[i]
        ln = 2 if (i > 0 or strict_seed) else 1
        denom *= qpochhammer(q**suffix, q, ln)
    return q**expo / denom


def _check_chain(q: float, c: tuple, strict_seed: bool, tol: float):
    if len(c) < 1 or any(not (v > 0.0) for v in c):
        raise ParameterOutOfRange(f"chain identities need positive exponents, got {c!r}")
    m = len(c) - 1
    cmin = min(c)
    power = m + 1 if strict_seed else m
    scale = 1.0 / ((1.0 - q) ** power * np.prod([1.0 - q**v for v in c]))
    N = _pick_depth(q**cmin, scale, tol / 2.0)
    j = np.arange(N, dtype=float)
    if strict_seed:
        W = q ** (c[0] * j) * (1.0 - q ** (j + 1.0))
    else:
        W = q ** (c[0] * j)
    for i in range(1, m + 1):
        # C(j) = sum_{i'<j} W(i') (1 - q^{j-i'}) via the positive split
        # E(j) = sum_{i'<=j} W(i') q^{j-i'},  C(j+1) = C(j) + (1-q) E(j)
        Cacc = 0.0
        E = 0.0
        Wn = np.empty(N)
        for jj in range(N):
            Wn[jj] = q ** (c[i] * jj) * Cacc
            E = q * E + W[jj]
            Cacc = Cacc + (1.0 - q) * E
        W = Wn
    lhs = math.fsum(W) / (1.0 - q) ** power
    rhs = chain_rhs(q, c, strict_seed)
    bound = _geom_tail(q**cmin, scale, N)
    return lhs, rhs, bound, N


# --------------------------------------------------------------- SYNCHRO --

def _check_synchro(q: float, s: tuple, a: float, tol: float):
    if len(s) < 1 or any(v < 1 for v in s):
        raise ParameterOutOfRange(f"SYNCHRO needs positive integer exponents, got {s!r}")
    if not (a > 0.0):
        raise ParameterOutOfRange(f"SYNCHRO needs a > 0, got {a!r}")
    m = len(s)
    # position i (0-based) carries exponent s[i]; its pochhammer shift is
    # the sum of the deeper exponents plus a plus the remaining level count
    shifts = [sum(s[i + 1:]) + a + (m - 1 - i) for i in range(m)]
    dmin = 1.0
    for i in range(m):
        dmin *= qpochhammer(q ** shifts[i], q, s[i] + 1)
    scale = 1.0 / (dmin * np.prod([1.0 - q ** float(v) for v in s]))
    N = _pick_depth(q ** s[0], scale, tol / 2.0)
    n = np.arange(N, dtype=float)
    prefix = np.ones(N)
    for i in range(m - 1, 0, -1):
        u = q ** (s[i] * n) / _poch_rows(q, shifts[i], s[i] + 1, N)
        prefix = np.cumsum(u * prefix)
    u0 = q ** (s[0] * n) / _poch_rows(q, shifts[0], s[0] + 1, N)
    lhs = math.fsum(u0 * prefix)
    denom = qpochhammer(q**a, q, sum(s))
    for t in range(1, m + 1):
        denom *= 1.0 - q ** sum(s[:t])
    rhs = 1.0 / denom
    bound = _geom_tail(q ** s[0], scale, N)
    return lhs, rhs, bound, N


# ------------------------------------------------------------- dispatch --

# identity id -> (checker, the parameters it takes besides q, in report order)
_IDENTITIES = {
    "BASIC": (_check_basic, ("r", "w")),
    "CHAIN_CLOSED": (partial(_check_chain, strict_seed=True), ("c",)),
    "CHAIN_OPEN": (partial(_check_chain, strict_seed=False), ("c",)),
    "DENOM": (_check_denom, ("m", "a")),
    "LEMMA1": (_check_lemma1, ("m", "w")),
    "PHI10": (_check_phi10, ("m", "w")),
    "SYNCHRO": (_check_synchro, ("s", "a")),
}
IDENTITY_IDS = tuple(_IDENTITIES)

_INT = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)
# parameter -> the type of its value, or of every entry of an exponent list
_TYPES = {"r": _INT, "m": _INT, "w": _REAL, "a": _REAL, "c": _REAL, "s": _INT}


def _is(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _typed(identity_id: str, name: str, value):
    """``value`` as its checker takes it (a list as a tuple), else ParameterOutOfRange."""
    types, is_list = _TYPES[name], name in ("c", "s")
    if is_list and isinstance(value, (list, tuple, np.ndarray)) and all(_is(v, types) for v in value):
        return tuple(value)
    if not is_list and _is(value, types):
        return value
    kind = ("list of " if is_list else "") + ("int" if types is _INT else "float")
    raise ParameterOutOfRange(f"{identity_id} needs {name} of type {kind}, got {value!r}")


def check(identity_id: str, q: float, *, tol: float = 1e-12, **params) -> IdentityReport:
    """Evaluate one identity at the given parameters.

    ``params`` are exactly the identity's own parameters (module docstring);
    a missing one or one the identity does not take raises
    ParameterOutOfRange.  The left side is a truncated nested sum with the
    certified bound ``trunc_bound``; the report satisfies
    ``abs_err <= trunc_bound + 1e-12 max(|lhs|, |rhs|)`` whenever the
    identity holds.
    """
    if not (_is(q, _REAL) and 0.0 < q < 1.0):
        raise ParameterOutOfRange(f"base q must be a real number in (0,1), got {q!r}")
    if tol <= 0.0:
        raise ParameterOutOfRange("tolerance must be positive")
    if identity_id not in _IDENTITIES:
        raise ParameterOutOfRange(f"unknown identity id {identity_id!r}")
    checker, names = _IDENTITIES[identity_id]
    unknown = [name for name in params if name not in names]
    missing = [name for name in names if name not in params]
    if unknown or missing:
        wrong = f"takes no parameter {', '.join(unknown)}" if unknown else f"needs {', '.join(missing)}"
        raise ParameterOutOfRange(f"{identity_id} {wrong}; its parameters are q, {', '.join(names)}")
    given = {name: _typed(identity_id, name, params[name]) for name in names}
    lhs, rhs, bound, depth = checker(q, tol=tol, **given)
    if bound > tol:
        raise TruncationTooCoarse(
            f"{identity_id}: certified bound {bound:.3e} exceeds tolerance {tol:g}"
        )
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(
        identity_id=identity_id,
        params={"q": q, **given},
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        trunc_bound=bound,
        depth=depth,
    )


def draw_params(identity_id: str, rng: np.random.Generator) -> dict:
    """One pseudo-random admissible parameter set (fixed seeds upstream)."""
    q = float(rng.uniform(0.2, 0.65))
    if identity_id == "BASIC":
        return {"q": q, "r": int(rng.integers(1, 4)), "w": float(rng.uniform(-0.8, 0.8))}
    if identity_id == "PHI10":
        return {"q": q, "m": int(rng.integers(0, 5)), "w": float(rng.uniform(-0.8, 0.8))}
    if identity_id == "LEMMA1":
        return {"q": q, "m": int(rng.integers(1, 4)), "w": float(rng.uniform(-0.7, 0.7))}
    if identity_id == "DENOM":
        return {"q": q, "m": int(rng.integers(0, 3)), "a": float(rng.uniform(0.2, 3.0))}
    if identity_id in ("CHAIN_OPEN", "CHAIN_CLOSED"):
        m = int(rng.integers(0, 3))
        return {"q": q, "c": tuple(float(v) for v in rng.uniform(0.3, 2.5, size=m + 1))}
    if identity_id == "SYNCHRO":
        m = int(rng.integers(1, 4))
        return {
            "q": q,
            "s": tuple(int(v) for v in rng.integers(1, 4, size=m)),
            "a": float(rng.uniform(0.2, 3.0)),
        }
    raise ParameterOutOfRange(f"unknown identity id {identity_id!r}")
