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
checks explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import doubledouble as dd
from .entire import KIND_CHAR, eval_series, second_kind_family, series_coeffs
from .errors import ConvergenceFailure, DivergentArgument, SequenceError
from .sequences import Geometric, JacobiParams
from .spectrum import truncate

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


def qpochhammer(a: float, q: float, n: Optional[int] = None, tol: float = 1e-18) -> float:
    """(a; q)_n = prod_{i<n} (1 - a q^i); n = None means the infinite product.

    A finite n multiplies all n factors.  The infinite case multiplies until
    |a| q^i drops below the tolerance, at which point the omitted factors
    differ from 1 by less than ``|a| q^i / (1 - q)`` in log, far below double
    rounding for the default; it raises ConvergenceFailure if that takes
    more than 100,001 factors.
    """
    if n is not None and n < 0:
        raise ValueError(f"q-Pochhammer length must be non-negative, got {n}")
    if n is None and not (0.0 < abs(q) < 1.0):
        raise DivergentArgument("infinite q-Pochhammer needs |q| < 1")
    p = 1.0
    f = a
    for _ in range(100001 if n is None else n):
        if n is None and abs(f) < tol:
            return p
        p *= 1.0 - f
        f *= q
    if n is None:
        raise ConvergenceFailure(
            f"(a; q)_inf with a={a!r}, q={q!r} needs more than 100001 factors to reach {tol:g}"
        )
    return p


def _phi01_dd(b: float, q: float, z, tol: float = 1e-17):
    """0phi1(; b; q, z) in double-double; returns (hi, lo, abs_sum)."""
    zh, zl = (float(z[0]), float(z[1])) if isinstance(z, tuple) else (float(z), 0.0)
    th, tl = 1.0, 0.0  # running term
    sh, sl = 1.0, 0.0
    ab = 1.0
    m = 0
    while m < 400:
        # t_{m+1} = t_m * q^{2m} * z / ((1 - b q^m)(1 - q^{m+1}))
        den = (1.0 - b * q**m) * (1.0 - q ** (m + 1))
        th, tl = dd.dd_mul(th, tl, zh, zl)
        th, tl = dd.dd_mul_d(th, tl, q ** (2 * m) / den)
        sh, sl = dd.dd_add(sh, sl, th, tl)
        ab += abs(th)
        m += 1
        if abs(th) < tol * max(ab, 1.0) and abs(th) < 1e-280:
            break
        if abs(th) < tol * max(abs(sh), 1e-300) and q ** (2 * m) * abs(zh) / den < 0.5:
            break
    return sh, sl, ab


def _phi11(a: float, b: float, q: float, z: float, terminate_at: Optional[int] = None,
           tol: float = 1e-17) -> float:
    """1phi1(a; b; q, z) with the (-1)^m q^(m(m-1)/2) factor per term."""
    t = 1.0
    s_h, s_l = 1.0, 0.0
    m = 0
    cap = terminate_at if terminate_at is not None else 400
    while m < cap:
        ratio = (1.0 - a * q**m) * (-(q**m) * z) / ((1.0 - b * q**m) * (1.0 - q ** (m + 1)))
        t *= ratio
        if t == 0.0:
            break
        s_h, s_l = dd.dd_add_d(s_h, s_l, t)
        m += 1
        if terminate_at is None and abs(t) < tol * max(abs(s_h), 1e-300) and abs(ratio) < 0.5:
            break
    return s_h + s_l


def _phi21(a: float, b: float, c: float, q: float, z: float, tol: float = 1e-16) -> float:
    """2phi1(a, b; c; q, z), |z| < 1 required."""
    if not (abs(z) < 1.0):
        raise DivergentArgument(f"2phi1 argument must satisfy |z| < 1, got {z}")
    t = 1.0
    s_h, s_l = 1.0, 0.0
    m = 0
    while m < 100000:
        ratio = (1.0 - a * q**m) * (1.0 - b * q**m) * z / ((1.0 - c * q**m) * (1.0 - q ** (m + 1)))
        t *= ratio
        s_h, s_l = dd.dd_add_d(s_h, s_l, t)
        m += 1
        r = abs(z) / abs((1.0 - c * q**m) * (1.0 - q ** (m + 1)))
        if r < 1.0 and abs(t) * r / (1.0 - r) < tol * max(abs(s_h), 1e-300):
            break
    return s_h + s_l


def basic_hypergeometric(
    kind: str,
    q: float,
    z: float,
    tol: float = 1e-15,
    a: Optional[float] = None,
    b: Optional[float] = None,
    c: Optional[float] = None,
) -> float:
    """Dispatch for the three series shapes used here.

    kind = "0phi1" (needs b), "1phi1" (needs a, b), "2phi1" (needs a, b, c).
    The 0phi1 and 1phi1 series are entire in z; 2phi1 requires |z| < 1 and
    raises DivergentArgument otherwise.
    """
    if not (0.0 < q < 1.0):
        raise DivergentArgument("base q must lie in (0,1)")
    if kind == "0phi1":
        if b is None:
            raise ValueError("0phi1 needs the lower parameter b")
        sh, sl, _ = _phi01_dd(b, q, z, tol=tol)
        return sh + sl
    if kind == "1phi1":
        if a is None or b is None:
            raise ValueError("1phi1 needs parameters a and b")
        return _phi11(a, b, q, z, tol=tol)
    if kind == "2phi1":
        if a is None or b is None or c is None:
            raise ValueError("2phi1 needs parameters a, b and c")
        return _phi21(a, b, c, q, z, tol=tol)
    raise ValueError(f"unknown basic hypergeometric kind {kind!r}")


def q_laguerre(n: int, a: int, x: float, qp: QParams) -> float:
    """q-Laguerre polynomial L_n^(a)(x; q), exact terminating sum, a in {0, 1}."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if a not in (0, 1):
        raise ValueError(f"only parameters a = 0 and a = 1 are supported, got {a}")
    q = qp.q
    pref = qpochhammer(q ** (a + 1), q, n) / qpochhammer(q, q, n)
    return pref * _phi11(q ** (-n), q ** (a + 1), q, -(q ** (n + a + 1)) * x,
                         terminate_at=n + 1)


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


def jackson_qbessel2(nu: float, x: float, qp: QParams, tol: float = 1e-15) -> float:
    """Jackson q-Bessel function of the second kind J_nu^(2)(x; q).

    ((q^(nu+1); q)_inf / (q; q)_inf) (x/2)^nu 0phi1(; q^(nu+1); q, -q^(nu+1) x^2/4),
    real branch, so x >= 0 is required.
    """
    if nu <= -1.0:
        raise ValueError(f"order must exceed -1, got {nu}")
    if x < 0.0:
        raise ValueError("real branch needs x >= 0")
    q = qp.q
    pref = qpochhammer(q ** (nu + 1.0), q) / qpochhammer(q, q)
    sh, sl, _ = _phi01_dd(q ** (nu + 1.0), q, -(q ** (nu + 1.0)) * x * x / 4.0, tol=tol)
    return pref * (x / 2.0) ** nu * (sh + sl)


def _phi01_sign(b: float, q: float, z: float) -> float:
    sh, sl, _ = _phi01_dd(b, q, z)
    return sh + sl


def qbessel2_roots(
    nu: float,
    qp: QParams,
    count: int,
    x_max: Optional[float] = None,
    grid_per_decade: int = 200,
) -> np.ndarray:
    """First ``count`` positive roots of J_nu^(2)(.; q) by scan and bisection.

    The positive roots coincide with those of the entire 0phi1 factor, so
    the scan runs on that factor (the power prefactor never vanishes for
    x > 0).  Roots spread geometrically, hence the logarithmic grid.
    """
    if count < 1:
        raise ValueError("need a positive root count")
    q = qp.q
    b = q ** (nu + 1.0)
    if x_max is None:
        # crude spectral radius bound of a section comfortably containing
        # the requested roots: largest Gershgorin disk edge
        T = truncate(induced_params(qp), count + 10)
        hi = T.gershgorin()[1]
        x_max = 2.2 * math.sqrt(hi)
    f = lambda x: _phi01_sign(b, q, -b * x * x / 4.0)
    lo_x = min(0.05, x_max * 1e-6)
    n_pts = max(int(grid_per_decade * math.log10(x_max / lo_x)), 64)
    grid = np.exp(np.linspace(math.log(lo_x), math.log(x_max), n_pts))
    roots = []
    f_prev = f(grid[0])
    for i in range(1, n_pts):
        f_cur = f(grid[i])
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
        raise DivergentArgument(
            f"found only {len(roots)} roots below x_max={x_max:g}; raise x_max"
        )
    return np.array(roots[:count])


def char_closed_forms(
    z: float,
    qp: QParams,
    M: Optional[int] = None,
    J: Optional[int] = None,
    small_z: float = 1e-8,
) -> tuple[float, float, float]:
    """Characteristic function by Bessel form, 0phi1 form, and chain series.

    Returns (via_bessel, via_phi01, via_series).  For |z| below ``small_z``
    the removable 1/sqrt(z) singularity of the Bessel form is handled by
    its series limit (the 0phi1 form itself).
    """
    q = qp.q
    via_phi = _phi01_sign(q * q, q, -q * q * z)
    if z > small_z:
        via_bessel = (1.0 - q) / math.sqrt(z) * jackson_qbessel2(1.0, 2.0 * math.sqrt(z), qp)
    elif z >= 0.0:
        via_bessel = via_phi
    else:
        raise ValueError("the Bessel route needs z >= 0")
    params = induced_params(qp)
    if M is None or J is None:
        from .entire import choose_truncation

        M, J = choose_truncation(params, max(abs(z), 1.0), 1e-13)
    fser = series_coeffs(params, KIND_CHAR, M, J)
    via_series = eval_series(fser, z, tol=1e-9).value
    return via_bessel, via_phi, via_series


def weyl_num_closed_forms(
    z: float,
    qp: QParams,
    M: Optional[int] = None,
    J: Optional[int] = None,
    small_z: float = 1e-8,
    tol: float = 1e-15,
    series_tol: Optional[float] = None,
) -> tuple[float, float]:
    """Weyl-function numerator by its closed two-piece form and by the series.

    The closed form is ``(1-q) q / z * J_2^(2)(2 sqrt(qz); q)`` plus the
    2phi1-coefficient correction series in (-z); below ``small_z`` the first
    piece is evaluated through its 0phi1 limit ``q^2/(1-q^2) 0phi1(; q^3; q, -q^4 z)``.
    ``series_tol`` is handed to the compensated series route and makes it
    raise CancellationFailure when it cannot certify that relative accuracy;
    near a zero of the numerator only absolute agreement is meaningful, so
    the default does not insist.
    """
    q = qp.q
    if z > small_z:
        part1 = (1.0 - q) * q / z * jackson_qbessel2(2.0, 2.0 * math.sqrt(q * z), qp)
    else:
        part1 = q * q / (1.0 - q * q) * _phi01_sign(q**3, q, -(q**4) * z)
    # correction series: sum_m q^{(m+3)(m+1)} 2phi1(q^{m+2}, q; q^{m+3}; q, q^{m+2})
    #                     / ((q;q)_m (q^2;q)_{m+1}) (-z)^m
    sh, sl = 0.0, 0.0
    poch_q = 1.0      # (q;q)_m
    poch_q2 = 1.0 - q * q  # (q^2;q)_{m+1}
    zp = 1.0
    m = 0
    small = 0
    while m < 200:
        hyp = _phi21(q ** (m + 2), q, q ** (m + 3), q, q ** (m + 2), tol=tol)
        term = q ** ((m + 3) * (m + 1)) * hyp / (poch_q * poch_q2) * zp
        sh, sl = dd.dd_add_d(sh, sl, term)
        m += 1
        zp *= -z
        poch_q *= 1.0 - q**m        # (q;q)_m gains (1 - q^m)
        poch_q2 *= 1.0 - q ** (m + 2)  # (q^2;q)_{m+1} gains (1 - q^{m+2})
        if abs(term) < tol * max(abs(sh), 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    via_closed = part1 + (sh + sl)
    params = induced_params(qp)
    if M is None or J is None:
        from .entire import choose_truncation

        M, J = choose_truncation(params, max(abs(z), 1.0), 1e-13)
    wser = second_kind_family(params, M, J, 0)[0]
    via_series = eval_series(wser, z, tol=series_tol).value
    return via_closed, via_series


def orthopoly_relation_residuals(n: int, x: float, qp: QParams) -> tuple[float, float]:
    """Residuals tying the orthonormal polynomials to modified q-Laguerre.

    Returns (|P_n(x) - (-1)^n q^(-n/2) Lt_n(x;q)|, three-term recurrence
    residual of Lt at degree n).  The recurrence reads

        (1-q^(n+1)) Lt_{n+1} - (1-q^(n+1) + q^3 (1-q^n)) Lt_n
            + q^3 (1-q^n) Lt_{n-1} + x q^(2n+2) Lt_n = 0

    with the n = 0 instance free of the undefined Lt_{-1} term.
    """
    from .polycore import orthopoly_eval

    q = qp.q
    params = induced_params(qp)
    p_val = orthopoly_eval(params, n, x, mode="recurrence").values[n]
    lt = modified_laguerre(n, x, qp)
    rel = abs(p_val - (-1.0) ** n * q ** (-n / 2.0) * lt)
    lt_next = modified_laguerre(n + 1, x, qp)
    lt_prev = modified_laguerre(n - 1, x, qp) if n >= 1 else 0.0
    rec = (
        (1.0 - q ** (n + 1)) * lt_next
        - (1.0 - q ** (n + 1) + q**3 * (1.0 - q**n)) * lt
        + q**3 * (1.0 - q**n) * lt_prev
        + x * q ** (2 * n + 2) * lt
    )
    return rel, abs(rec)
