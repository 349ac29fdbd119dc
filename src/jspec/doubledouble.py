"""Double-double (two-word compensated) arithmetic.

A value is carried as an unevaluated sum ``hi + lo`` of two floats with
``|lo| <= 0.5 ulp(hi)``, giving roughly 32 significant decimal digits.  Only
the handful of operations the series machinery needs are provided, all in a
flat functional style so the hot loops stay cheap: every function takes and
returns plain floats, never wrapper objects.  The arithmetic is elementwise,
so every function also accepts numpy arrays, mixed freely with scalars, and
gives per element the bits of the scalar call.

The building blocks are the classical error-free transformations (Dekker
split, Knuth two-sum).
"""

from __future__ import annotations

# Conservative per-operation relative rounding unit for error bounds.
# The exact dd unit is 2^-104; a few bits of headroom absorb the
# renormalization steps.
EPS_DD = 2.0 ** -100

_SPLITTER = 134217729.0  # 2^27 + 1


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact sum: (s, e) with s + e == a + b, s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Exact product: (p, e) with p + e == a * b, p = fl(a * b).

    Dekker's split, not ``math.fma``: fma takes no arrays, and where the
    split does not overflow both give the same exact e.
    """
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def dd_add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    s, e = two_sum(ah, bh)
    t, f = two_sum(al, bl)
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    return quick_two_sum(s, e)


def dd_add_d(ah: float, al: float, b: float) -> tuple[float, float]:
    s, e = two_sum(ah, b)
    e += al
    return quick_two_sum(s, e)


def dd_sub(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    return dd_add(ah, al, -bh, -bl)


def dd_mul(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    p, e = two_prod(ah, bh)
    e += ah * bl + al * bh
    return quick_two_sum(p, e)


def dd_mul_d(ah: float, al: float, b: float) -> tuple[float, float]:
    p, e = two_prod(ah, b)
    e += al * b
    return quick_two_sum(p, e)


def dd_div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    q1 = ah / bh
    ph, pl = dd_mul_d(bh, bl, q1)
    rh, rl = dd_add(ah, al, -ph, -pl)
    q2 = rh / bh
    ph, pl = dd_mul_d(bh, bl, q2)
    rh, rl = dd_add(rh, rl, -ph, -pl)
    q3 = rh / bh
    s, e = two_sum(q1, q2)
    e += q3
    return quick_two_sum(s, e)


def dd_pow_int(ah: float, al: float, n: int) -> tuple[float, float]:
    """Integer power by binary exponentiation, n >= 0."""
    rh, rl = 1.0, 0.0
    bh, bl = ah, al
    while n:
        if n & 1:
            rh, rl = dd_mul(rh, rl, bh, bl)
        n >>= 1
        if n:
            bh, bl = dd_mul(bh, bl, bh, bl)
    return rh, rl


def compensated_sum(values) -> float:
    """Neumaier compensated sum of an iterable of floats."""
    s = 0.0
    c = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c
