"""q-series specialization: q-Laguerre polynomials and Jackson q-Bessel forms.

With the geometric weight sequence ``a_n = q^(-2(n+1)) (1 - q^(n+1))`` and
coupling ``k = sqrt(q)``, the whole spectral apparatus collapses to classical
q-analysis:

* the characteristic function becomes ``0phi1(; q^2; q, -q^2 z)``, equal to
  ``(1-q)/sqrt(z) * J_1^(2)(2 sqrt(z); q)`` in terms of the Jackson q-Bessel
  function of the second kind, so the orthogonality measure sits on the
  squared half-roots of that Bessel function;
* the Weyl-function numerator splits into a ``J_2^(2)`` term plus a 2phi1
  correction series;
* the orthonormal polynomials are signed rescalings of the modified
  q-Laguerre polynomials ``Lt_n(x;q) = q^(n+1) L_n^(0)(x;q) + (1-q) L_n^(1)(x;q)``.

Basic hypergeometric conventions follow the standard normalization in which
``r_phi_s`` carries the factor ``[(-1)^m q^(m(m-1)/2)]^(1+s-r)`` per term;
this is the unique convention under which the ladder identity
``q^n L_n^(0) + L_{n-1}^(1) - L_n^(1) = 0`` holds, which the test suite
checks explicitly.  ``_basic_sum`` sums every such series here in
double-double and stops it by one certified remainder test (see
``basic_hypergeometric``).  One argument, and arrays narrower than
``_ARRAY_FROM``, go through a scalar loop on Python floats; a wider array
goes through one numpy pass, in which each element stops at its own term.
Both give each element the bits of its one-point call.

``jackson_qbessel2``, ``char_closed_forms`` and ``weyl_num_closed_forms``
take a float or a 1-d array of points, and every element of an array call
has the bits of its one-point call.  An array call forms what does not
depend on the point once: the q-Bessel prefactor, the correction series'
2phi1 coefficients, and one chain series per distinct truncation among the
points (the one a point would choose on its own); its 0phi1 values come
from one array ``_basic_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import doubledouble as dd
from .entire import _evals_by_truncation, _point_array, _scalar, _truncation
from .errors import CancellationFailure, ConvergenceFailure, DivergentArgument, SequenceError
from .sequences import Geometric, JacobiParams
from .spectrum import section_eigenvalues, truncate

__all__ = [
    "QParams",
    "induced_params",
    "qpochhammer",
    "basic_hypergeometric",
    "q_laguerre",
    "modified_laguerre",
    "laguerre_classical",
    "jackson_qbessel2",
    "qbessel2_roots",
    "char_closed_forms",
    "weyl_num_closed_forms",
    "orthopoly_relation_residuals",
]


@dataclass(frozen=True)
class QParams:
    """Base q of the specialization; induces the geometric weight sequence."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise SequenceError(f"q must lie strictly in (0,1), got {self.q}")


def induced_params(qp: QParams) -> JacobiParams:
    """Jacobi parameters of the specialization: geometric weights, k = sqrt(q)."""
    return JacobiParams(Geometric(qp.q), math.sqrt(qp.q))


def qpochhammer(a: float, q: float, n: Optional[int] = None) -> float:
    """(a; q)_n = prod_{i<n} (1 - a q^i); n = None means the infinite product.

    A finite n multiplies all n factors.  The infinite case multiplies until
    |a| q^i drops below 1e-18, at which point the omitted factors differ
    from 1 by less than ``|a| q^i / (1 - q)`` in log, far below double
    rounding; it raises ConvergenceFailure if that takes more than 100,001
    factors.
    """
    if n is not None and n < 0:
        raise ValueError(f"q-Pochhammer length must be non-negative, got {n}")
    if n is None and not (0.0 < abs(q) < 1.0):
        raise DivergentArgument("infinite q-Pochhammer needs |q| < 1")
    p = 1.0
    f = a
    for _ in range(100001 if n is None else n):
        if n is None and abs(f) < 1e-18:
            return p
        p *= 1.0 - f
        f *= q
    if n is None:
        raise ConvergenceFailure(
            f"(a; q)_inf with a={a!r}, q={q!r} needs more than 100001 factors to reach 1e-18"
        )
    return p


_STOP = 1e-17  # a sum stops once its certified remainder is this far below it
# from this many arguments on, an array _basic_sum sums them in one numpy
# pass, whose cost barely grows below a few hundred elements (timeit, 0phi1
# at q = 1/4, b = q^2, points of one scan decade; loop against pass: 36-51
# against 270-340 us at 4 points, 180-390 against 180-360 us at 32, 1.1-2.5
# against 0.20-0.42 ms at 200)
_ARRAY_FROM = 32


def _remainder_small(t: float, rho: float, s: float) -> bool:
    """Whether |t| (rho + rho^2 + ...), the remainder after the term t when
    no later term ratio exceeds rho, is at most _STOP of |s|."""
    return rho < 1.0 and abs(t) * rho / (1.0 - rho) <= _STOP * max(abs(s), 1e-300)


def _ratio(upper, lower, q, m, name):
    """(q^m, the z-free factor prod(1 - a q^m) q^(me) / (prod(1 - b q^m)
    (1 - q^(m+1))) of the ratio t_{m+1} / t_m), e = 1 + s - r; DivergentArgument
    for a lower parameter equal to q^-m."""
    qm = q**m
    num = 1.0
    for a in upper:
        num *= 1.0 - a * qm
    den = 1.0 - qm * q
    for b in lower:
        den *= 1.0 - b * qm
    if den == 0.0:
        raise DivergentArgument(f"{name}: a lower parameter in {lower} is q^-{m}")
    return qm, num * qm ** (1 + len(lower) - len(upper)) / den


def _ratio_bound(upper, lower, q, qn, az):
    """rho, elementwise in |z| = az, bounding every term ratio after
    t_{m+1} (qn = q^(m+1)); None where some 1 - |b| qn is not positive."""
    up, down = az * qn ** (1 + len(lower) - len(upper)), 1.0 - q * qn
    for a in upper:
        up *= 1.0 + abs(a) * qn
    for b in lower:
        down *= max(1.0 - abs(b) * qn, 0.0)
    return up / down if down > 0.0 else None


def _basic_sum(upper, lower, q, z, terms=None):
    """r_phi_s(upper; lower; q, z) in double-double; returns (hi, lo, bound).

    The term ratio is prod(1 - a q^m) / (prod(1 - b q^m) (1 - q^(m+1)))
    (-q^m)^e z, e = 1 + s - r: z multiplies the double-double term first,
    then the float rest.  bound = sum |t_m| (terms + 2) 2^-52 bounds the
    rounding of the terms.  ``terms`` sums that many terms; otherwise the sum
    stops at a term t_m below 1e-17 of it whose remainder |t_m| rho/(1 - rho)
    is too, rho = |z| q^(e(m+1)) prod(1 + |a| q^(m+1)) / (prod(1 - |b| q^(m+1))
    (1 - q^(m+2))) bounding every later ratio once each 1 - |b| q^(m+1) > 0.
    DivergentArgument for e = 0 with |z| >= 1 and for a lower parameter equal
    to q^-m; ConvergenceFailure when a partial sum leaves the float range or
    100,000 terms do not stop the sum.

    ``z`` may also be a 1-d array of arguments; then the result is
    (hi, lo, bound, failed), arrays with the bits of each element's one-point
    call and a dict from the index of each element whose one-point call
    raises to that exception (its hi, lo and bound are NaN).  Nothing is
    raised for a failed element: the caller raises its exception where it
    consumes the element (``_raise_first``).  Below ``_ARRAY_FROM`` elements,
    or with ``terms``, the one-point loop runs per element; from there on
    ``_sum_array`` sums all of them in one numpy pass.
    """
    if np.ndim(z) == 0:
        return _sum_at(upper, lower, q, float(z), terms)
    z = np.asarray(z, dtype=float)
    if terms is None and len(z) >= _ARRAY_FROM:
        return _sum_array(upper, lower, q, z)
    hi, lo, bound = np.full((3, len(z)), math.nan)
    failed = {}
    for i, x in enumerate(z.tolist()):
        try:
            hi[i], lo[i], bound[i] = _sum_at(upper, lower, q, x, terms)
        except (DivergentArgument, ConvergenceFailure) as exc:
            failed[i] = exc
    return hi, lo, bound, failed


def _raise_first(failed):
    """Raise the exception of the first failed element of an array
    ``_basic_sum``, the one a loop of one-point calls would raise."""
    if failed:
        raise failed[min(failed)]


def _sum_at(upper, lower, q, z, terms):
    """The one-point ``_basic_sum`` on Python floats.

    The ``dd_mul_d`` and ``dd_add`` steps of a term are written out: the
    same operations in the same order, so the same bits, without a call per
    operation.  The split of the constant factor zs is formed once.
    """
    e = 1 + len(lower) - len(upper)
    name = f"{len(upper)}phi{len(lower)}"
    if e == 0 and not abs(z) < 1.0:
        raise DivergentArgument(f"{name} needs |z| < 1, got {z}")
    S = dd._SPLITTER
    zs = -z if e % 2 else z  # z times the sign of (-q^m)^e
    c = S * zs
    zhi = c - (c - zs)
    zlo = zs - zhi
    th, tl = 1.0, 0.0
    sh, sl = 1.0, 0.0
    ab = 1.0
    m = -1  # the index of the last ratio applied
    for m in range(100000 if terms is None else terms - 1):
        qm, r = _ratio(upper, lower, q, m, name)
        # t *= zs (dd_mul_d)
        p = th * zs
        c = S * th
        hi = c - (c - th)
        lo = th - hi
        err = ((hi * zhi - p) + hi * zlo + lo * zhi) + lo * zlo
        err += tl * zs
        th = p + err
        tl = err - (th - p)
        # t *= r (dd_mul_d)
        p = th * r
        c = S * th
        hi = c - (c - th)
        lo = th - hi
        c = S * r
        rhi = c - (c - r)
        rlo = r - rhi
        err = ((hi * rhi - p) + hi * rlo + lo * rhi) + lo * rlo
        err += tl * r
        th = p + err
        tl = err - (th - p)
        # s += t (dd_add)
        s = sh + th
        bb = s - sh
        err = (sh - (s - bb)) + (th - bb)
        u = sl + tl
        bb = u - sl
        f = (sl - (u - bb)) + (tl - bb)
        err += u
        sh = s + err
        err = err - (sh - s)
        err += f
        s = sh + err
        sl = err - (s - sh)
        sh = s
        if not abs(sh) < math.inf:
            raise ConvergenceFailure(f"{name} partial sum overflowed at term {m + 1}")
        ab += abs(th)
        if terms is None and abs(th) <= _STOP * max(abs(sh), 1e-300):
            rho = _ratio_bound(upper, lower, q, qm * q, abs(z))
            if rho is not None and _remainder_small(th, rho, sh):
                break
    else:
        if terms is None:
            raise ConvergenceFailure(f"{name} at q={q!r}, z={z!r} did not stop in 100000 terms")
    return sh, sl, ab * (m + 3) * 2.0**-52


def _sum_array(upper, lower, q, z):
    """The array ``_basic_sum`` in one numpy pass over the 1-d array ``z``.

    The z-free factor of each term ratio is formed once, as a Python float,
    and each element leaves the pass at the term where its one-point call
    stops or fails, so each keeps that call's bits.  The elements still
    summing are compacted whenever some leave.
    """
    e = 1 + len(lower) - len(upper)
    name = f"{len(upper)}phi{len(lower)}"
    n = len(z)
    hi, lo, bound = np.full((3, n), math.nan)
    failed = {}
    idx = np.arange(n)
    if e == 0:
        bad = ~(abs(z) < 1.0)
        for i in np.flatnonzero(bad).tolist():
            failed[i] = DivergentArgument(f"{name} needs |z| < 1, got {z[i].item()}")
        idx = idx[~bad]
    zs = -z[idx] if e % 2 else z[idx]
    az = abs(zs)
    zhi, zlo = dd.split(zs)
    th, tl = np.ones(len(idx)), np.zeros(len(idx))
    sh, sl = th.copy(), tl.copy()
    ab = th.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a failed element is flagged
        for m in range(100000):
            if not len(idx):
                break
            try:
                qm, r = _ratio(upper, lower, q, m, name)
            except DivergentArgument as exc:
                failed.update(dict.fromkeys(idx.tolist(), exc))
                idx = idx[:0]
                break
            # t *= zs, split once; then t *= r
            p = th * zs
            thi, tlo = dd.split(th)
            err = ((thi * zhi - p) + thi * zlo + tlo * zhi) + tlo * zlo
            err += tl * zs
            th, tl = dd.quick_two_sum(p, err)
            th, tl = dd.dd_mul_d(th, tl, r)
            sh, sl = dd.dd_add(sh, sl, th, tl)
            at, ash = abs(th), abs(sh)
            ab += at
            over = ~(ash < math.inf)
            small = _STOP * np.maximum(ash, 1e-300)
            stop = at <= small
            if stop.any():
                rho = _ratio_bound(upper, lower, q, qm * q, az)
                if rho is None:
                    stop[:] = False
                else:
                    stop &= (rho < 1.0) & (at * rho / (1.0 - rho) <= small) & ~over
            done = stop | over
            if not done.any():
                continue
            out = idx[stop]
            hi[out], lo[out], bound[out] = sh[stop], sl[stop], ab[stop] * (m + 3) * 2.0**-52
            for i in idx[over].tolist():
                failed[i] = ConvergenceFailure(f"{name} partial sum overflowed at term {m + 1}")
            keep = ~done
            idx, zs, az, zhi, zlo = idx[keep], zs[keep], az[keep], zhi[keep], zlo[keep]
            th, tl, sh, sl, ab = th[keep], tl[keep], sh[keep], sl[keep], ab[keep]
    for i in idx.tolist():
        failed[i] = ConvergenceFailure(
            f"{name} at q={q!r}, z={z[i].item()!r} did not stop in 100000 terms"
        )
    return hi, lo, bound, failed


def basic_hypergeometric(
    kind: str,
    q: float,
    z: float,
    a: Optional[float] = None,
    b: Optional[float] = None,
    c: Optional[float] = None,
) -> float:
    """The three series shapes used here, all summed by one loop.

    kind = "0phi1" (needs b), "1phi1" (needs a, b), "2phi1" (needs a, b, c).
    A sum stops once a certified bound on its remainder is below 1e-17 of it.
    DivergentArgument for |z| >= 1 in 2phi1 and for a lower parameter (b, or
    c in 2phi1) equal to q^-m; ConvergenceFailure when a partial sum leaves
    the float range or 100,000 terms do not stop it; for the alternating
    1phi1, CancellationFailure when the rounding bound of its terms,
    sum |t_m| (terms + 2) 2^-52, exceeds 1e-10 of the result.
    """
    if not (0.0 < q < 1.0):
        raise DivergentArgument("base q must lie in (0,1)")
    shapes = {"0phi1": ((), (b,)), "1phi1": ((a,), (b,)), "2phi1": ((a, b), (c,))}
    if kind not in shapes:
        raise ValueError(f"unknown basic hypergeometric kind {kind!r}")
    upper, lower = shapes[kind]
    if None in upper + lower:
        raise ValueError(f"{kind} needs parameters {('b', 'a and b', 'a, b and c')[len(upper)]}")
    hi, lo, bound = _basic_sum(upper, lower, q, z)
    if kind == "1phi1" and bound > 1e-10 * abs(hi + lo):
        raise CancellationFailure(f"1phi1 at q={q!r}, z={z!r}: rounding bound {bound:.3e}, "
                                  f"sum {hi + lo:.3e}")
    return hi + lo


def q_laguerre(n: int, a: int, x: float, qp: QParams) -> float:
    """q-Laguerre polynomial L_n^(a)(x; q), exact terminating sum, a in {0, 1}."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if a not in (0, 1):
        raise ValueError(f"only parameters a = 0 and a = 1 are supported, got {a}")
    q = qp.q
    pref = qpochhammer(q ** (a + 1), q, n) / qpochhammer(q, q, n)
    hi, lo, _ = _basic_sum((q ** (-n),), (q ** (a + 1),), q, -(q ** (n + a + 1)) * x, terms=n + 1)
    return pref * (hi + lo)


def modified_laguerre(n: int, x: float, qp: QParams) -> float:
    """Lt_n(x;q) = q^(n+1) L_n^(0)(x;q) + (1-q) L_n^(1)(x;q); Lt_n(0;q) = 1."""
    q = qp.q
    return q ** (n + 1) * q_laguerre(n, 0, x, qp) + (1.0 - q) * q_laguerre(n, 1, x, qp)


def laguerre_classical(n: int, x: float) -> float:
    """Classical Laguerre polynomial by its three-term recurrence.

    Reference implementation for the q -> 1 limit test only.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n == 0:
        return 1.0
    p_prev, p_cur = 1.0, 1.0 - x
    for m in range(1, n):
        p_next = ((2 * m + 1 - x) * p_cur - m * p_prev) / (m + 1)
        p_prev, p_cur = p_cur, p_next
    return p_cur


def jackson_qbessel2(nu: float, x, qp: QParams):
    """Jackson q-Bessel function of the second kind J_nu^(2)(x; q).

    ((q^(nu+1); q)_inf / (q; q)_inf) (x/2)^nu 0phi1(; q^(nu+1); q, -q^(nu+1) x^2/4),
    real branch, so x >= 0 is required.  ``x`` is a float or a 1-d array of
    points; the prefactor is formed once, and each point has the bits of its
    one-point call.  CancellationFailure when (q; q)_inf underflows to 0
    (q close to 1), which leaves the prefactor no float value.
    """
    xs, shape = _point_array(x)
    if nu <= -1.0:
        raise ValueError(f"order must exceed -1, got {nu}")
    if np.any(xs < 0.0):
        raise ValueError("real branch needs x >= 0")
    q = qp.q
    denom = qpochhammer(q, q)
    if denom == 0.0:
        raise CancellationFailure(
            f"(q; q)_inf underflows to 0 at q={q!r}; the q-Bessel prefactor has no float value"
        )
    pref = qpochhammer(q ** (nu + 1.0), q) / denom
    hi, lo, _, failed = _basic_sum((), (q ** (nu + 1.0),), q, -(q ** (nu + 1.0)) * xs * xs / 4.0)
    _raise_first(failed)
    values = np.array([pref * (v / 2.0) ** nu * s for v, s in zip(xs.tolist(), (hi + lo).tolist())])
    return _scalar(values.reshape(shape))


def qbessel2_roots(nu: float, qp: QParams, count: int) -> np.ndarray:
    """First ``count`` positive roots of J_nu^(2)(.; q) by scan and bisection.

    The positive roots coincide with those of the entire 0phi1 factor, so
    the scan runs on that factor (the power prefactor never vanishes for
    x > 0).  Roots spread geometrically, hence the logarithmic grid of 200
    points per decade.  The scan sums the grid one decade per array
    ``_basic_sum`` and raises a point's failure only when it reaches that
    point, so a point past the last root it needs cannot raise; the
    bisection between two grid points sums one midpoint at a time.
    """
    if count < 1:
        raise ValueError("need a positive root count")
    q = qp.q
    b = q ** (nu + 1.0)
    # scan past the largest eigenvalue of a section comfortably containing
    # the requested roots
    T = truncate(induced_params(qp), count + 10)
    x_max = 2.2 * math.sqrt(section_eigenvalues(T, T.size)[-1])
    lo_x = min(0.05, x_max * 1e-6)
    n_pts = max(int(200 * math.log10(x_max / lo_x)), 64)
    grid = np.exp(np.linspace(math.log(lo_x), math.log(x_max), n_pts))

    def scan():
        for start in range(0, n_pts, 200):
            x = grid[start:start + 200]
            hi, lo, _, failed = _basic_sum((), (b,), q, -b * x * x / 4.0)
            for j, v in enumerate((hi + lo).tolist()):
                if j in failed:
                    raise failed[j]
                yield v

    def f(x):
        hi, lo, _ = _basic_sum((), (b,), q, -b * x * x / 4.0)
        return hi + lo

    roots = []
    values = scan()
    f_prev = next(values)
    for i, f_cur in enumerate(values, 1):
        if f_prev == 0.0:
            roots.append(grid[i - 1])
        elif f_prev * f_cur < 0.0:
            a_, b_ = grid[i - 1], grid[i]
            fa = f_prev
            for _ in range(200):
                mid = 0.5 * (a_ + b_)
                if mid == a_ or mid == b_:
                    break
                fm = f(mid)
                if fa * fm <= 0.0:
                    b_ = mid
                else:
                    a_, fa = mid, fm
            roots.append(0.5 * (a_ + b_))
        if len(roots) >= count:
            break
        f_prev = f_cur
    if len(roots) < count:
        raise DivergentArgument(f"found only {len(roots)} roots below x={x_max:g}")
    return np.array(roots[:count])


def _by_series_truncation(params: JacobiParams):
    """The truncation of the series route at a point z, as ``choose_truncation``
    picks it for radius max(|z|, 1) at tol 1e-13, with its weight suffix."""
    return lambda z: _truncation(params, max(abs(z), 1.0), 1e-13)


def char_closed_forms(z, qp: QParams):
    """Characteristic function by Bessel form, 0phi1 form, and chain series.

    Returns (via_bessel, via_phi01, via_series): floats for one point z, or
    arrays over a 1-d array of points, each element with the bits of its
    one-point call.  The series route builds one characteristic series per
    distinct truncation among the points and asks each evaluation to
    certify a relative 1e-9.  For |z| <= 1e-8 the removable 1/sqrt(z)
    singularity of the Bessel form is handled by its series limit (the
    0phi1 form itself).  ValueError for a point below 0.
    """
    zs, shape = _point_array(z)
    if not np.all(zs >= 0.0):
        raise ValueError("the Bessel route needs z >= 0")
    q = qp.q
    hi, lo, _, failed = _basic_sum((), (q * q,), q, -q * q * zs)
    _raise_first(failed)
    via_phi = hi + lo
    via_bessel = via_phi.copy()
    big = zs > 1e-8
    if np.any(big):
        root = np.sqrt(zs[big])
        via_bessel[big] = (1.0 - q) / root * jackson_qbessel2(1.0, 2.0 * root, qp)
    params = induced_params(qp)
    (fe,) = _evals_by_truncation(
        params, zs, _by_series_truncation(params), lambda pair: pair[:1], tol=1e-9
    )
    return tuple(_scalar(v.reshape(shape)) for v in (via_bessel, via_phi, fe.value))


def weyl_num_closed_forms(z, qp: QParams):
    """Weyl-function numerator by its closed two-piece form and by the series.

    Returns (via_closed, via_series): floats for one point z, or arrays over
    a 1-d array of points, each element with the bits of its one-point call.
    The closed form is ``(1-q) q / z * J_2^(2)(2 sqrt(qz); q)`` plus the
    2phi1-coefficient correction series in (-z).  Its z-free coefficients are
    formed once per call, as far as the points need them; at each point the
    series stops by the remainder test of the basic hypergeometric sums: a
    term below 1e-17 of the sum whose remainder, bounded through a
    term-ratio bound, is too (ConvergenceFailure at the first term where the
    partial sum is not finite, or if 200 terms do not get there), and
    CancellationFailure when the rounding bound of its terms,
    sum |t_m| (terms + 2) 2^-52, then exceeds 1e-10 of its sum.  For
    |z| <= 1e-8 the first piece is evaluated through its 0phi1 limit
    ``q^2/(1-q^2) 0phi1(; q^3; q, -q^4 z)``.
    The series route builds one numerator series per distinct truncation
    among the points and is not asked to certify a relative accuracy: near
    a zero of the numerator only absolute agreement is meaningful.
    """
    zs, shape = _point_array(z)
    q = qp.q
    part1 = np.empty(len(zs))
    big = zs > 1e-8
    if np.any(big):
        part1[big] = (1.0 - q) * q / zs[big] * jackson_qbessel2(2.0, 2.0 * np.sqrt(q * zs[big]), qp)
    for i in np.flatnonzero(~big).tolist():
        part1[i] = q * q / (1.0 - q * q) * basic_hypergeometric("0phi1", q, -(q**4) * zs[i].item(), b=q**3)
    # correction series: sum_m q^{(m+3)(m+1)} 2phi1(q^{m+2}, q; q^{m+3}; q, q^{m+2})
    #                     / ((q;q)_m (q^2;q)_{m+1}) (-z)^m
    # The 2phi1 factor lies in [1, 1/(1 - q^{m+2})], so from m on every term
    # ratio is at most |z| q^{2m+5} / ((1 - q^{m+1})(1 - q^{m+3})^2).
    # coef[m] holds the z-free coefficient of (-z)^m and that ratio bound's
    # numerator and denominator.
    coef = []
    poch_q = 1.0      # (q;q)_m of the next m
    poch_q2 = 1.0 - q * q  # (q^2;q)_{m+1} of the next m
    corr = np.empty(len(zs))
    for i, x in enumerate(zs.tolist()):
        sh, sl = 0.0, 0.0
        ab = 0.0
        zp = 1.0
        for m in range(200):
            if m == len(coef):
                hi, lo, _ = _basic_sum((q ** (m + 2), q), (q ** (m + 3),), q, q ** (m + 2))
                coef.append((
                    q ** ((m + 3) * (m + 1)) * (hi + lo) / (poch_q * poch_q2),
                    q ** (2 * m + 5),
                    (1.0 - q ** (m + 1)) * (1.0 - q ** (m + 3)) ** 2,
                ))
                poch_q *= 1.0 - q ** (m + 1)   # (q;q)_{m+1} gains (1 - q^{m+1})
                poch_q2 *= 1.0 - q ** (m + 3)  # (q^2;q)_{m+2} gains (1 - q^{m+3})
            c, up, down = coef[m]
            term = c * zp
            sh, sl = dd.dd_add_d(sh, sl, term)
            if not abs(sh) < math.inf:  # a non-finite term makes the sum non-finite too
                raise ConvergenceFailure(
                    f"correction series of the Weyl numerator at z={x!r}, q={q!r} "
                    f"is not finite at term {m}"
                )
            ab += abs(term)
            if _remainder_small(term, abs(x) * up / down, sh):
                break
            zp *= -x
        else:
            raise ConvergenceFailure(
                f"correction series of the Weyl numerator at z={x!r}, q={q!r} did not settle in 200 terms"
            )
        bound = ab * (m + 3) * 2.0**-52
        if bound > 1e-10 * abs(sh + sl):
            raise CancellationFailure(
                f"correction series of the Weyl numerator at z={x!r}, q={q!r}: "
                f"rounding bound {bound:.3e}, sum {sh + sl:.3e}"
            )
        corr[i] = sh + sl
    params = induced_params(qp)
    (we,) = _evals_by_truncation(params, zs, _by_series_truncation(params), lambda pair: (pair[1][0],))
    return _scalar((part1 + corr).reshape(shape)), _scalar(we.value.reshape(shape))


def orthopoly_relation_residuals(n_max: int, x: float, qp: QParams) -> tuple[np.ndarray, np.ndarray]:
    """Residuals tying the orthonormal polynomials to modified q-Laguerre,
    for every degree n = 0..n_max.

    Returns the arrays (|P_n(x) - (-1)^n q^(-n/2) Lt_n(x;q)|, three-term
    recurrence residual of Lt at degree n).  The recurrence reads

        (1-q^(n+1)) Lt_{n+1} - (1-q^(n+1) + q^3 (1-q^n)) Lt_n
            + q^3 (1-q^n) Lt_{n-1} + x q^(2n+2) Lt_n = 0

    with the n = 0 instance free of the undefined Lt_{-1} term.  Each Lt_n
    is summed once and P_0..P_{n_max} come from one recurrence pass; entry n
    has the bits of the degree-n computation.
    """
    from .polycore import orthopoly_eval

    q = qp.q
    p_vals = orthopoly_eval(induced_params(qp), n_max, x, mode="recurrence").values
    lt = [modified_laguerre(n, x, qp) for n in range(n_max + 2)]
    rel = np.empty(n_max + 1)
    rec = np.empty(n_max + 1)
    for n in range(n_max + 1):
        rel[n] = abs(p_vals[n] - (-1.0) ** n * q ** (-n / 2.0) * lt[n])
        lt_prev = lt[n - 1] if n >= 1 else 0.0
        rec[n] = abs(
            (1.0 - q ** (n + 1)) * lt[n + 1]
            - (1.0 - q ** (n + 1) + q**3 * (1.0 - q**n)) * lt[n]
            + q**3 * (1.0 - q**n) * lt_prev
            + x * q ** (2 * n + 2) * lt[n]
        )
    return rel, rec
