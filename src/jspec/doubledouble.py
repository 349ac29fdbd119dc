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


def split(a):
    """Dekker's split (hi, lo) of a, as ``two_prod`` forms it: hi + lo == a.

    The halves have the same bits wherever they are formed, so a constant
    operand is split once and handed to ``dd_mul_split``.
    """
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


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


def dd_mul_split(ah, al, bh, bl, bhi, blo):
    """``dd_mul(ah, al, bh, bl)``, bit for bit, with ``(bhi, blo) = split(bh)``
    formed by the caller: only ``ah`` is split here."""
    p = ah * bh
    ahi, alo = split(ah)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
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


def dd_sum_sq(hs, ls) -> tuple[float, float]:
    """sum_i (hs[i] + ls[i])^2 in order, on Python floats, from (0, 0).

    Each step is ``dd_add(*s, *dd_mul(h, l, h, l))`` written out, with the
    same operations in the same order, so the same bits, and no call per
    operation; the two splits of h that ``two_prod(h, h)`` makes are the
    same, so one serves both.
    """
    S = _SPLITTER
    sh = sl = 0.0
    for h, l in zip(hs, ls):
        p = h * h
        c = S * h
        hi = c - (c - h)
        lo = h - hi
        e = ((hi * hi - p) + hi * lo + lo * hi) + lo * lo
        e += h * l + l * h
        mh = p + e
        ml = e - (mh - p)
        s = sh + mh
        bb = s - sh
        e = (sh - (s - bb)) + (mh - bb)
        t = sl + ml
        bb = t - sl
        f = (sl - (t - bb)) + (ml - bb)
        e += t
        s2 = s + e
        e = e - (s2 - s)
        e += f
        sh = s2 + e
        sl = e - (sh - s2)
    return sh, sl

