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

Chain sums are never enumerated.  One kernel, ``_chain_tables``, computes
all coefficients in O(J*M): the link factor splits as
``1 - k^{2(j-i)} = 1 - k^{2j} k^{-2i}``, and carrying the scaled accumulator
``E(j) = sum_{i<=j} V(i) k^{2(j-i)}`` turns the recursion into additions of
non-negative terms only (no cancellation, no k^{-2i} overflow):

    E(j) = k^2 E(j-1) + V_m(j),   C(j+1) = C(j) + (1-k^2) E(j),
    V_{m+1}(j) = x_j C(j)

with ``x_j = 1/((1-k^2) a_j)``.  The kernel walks the index axis once and
updates every chain length m as one double-double vector per index (a
wavefront: length m+1 at j needs length m below j only), and it carries
several such blocks side by side, each with its running sum.  Run forward,
a block gives the characteristic prefix table, whose last column is the
"char" series; run on the reversed axis, it gives the backward sums
``G_m(i)`` over chains starting after i, whose running sums of
``k^{2j}/a_j G_m(j)`` give every second-kind shift n at once.
``series_pair`` runs both blocks in one pass and builds every series: it
returns the "char" series and the second-kind family, one
``PowerSeriesApprox`` whose tables carry a trailing shift axis, with
``fam[n]`` the shift-n series.  All accumulation runs in double-double
arithmetic; brute-force chain enumeration is kept in the test suite as
the oracle.

Evaluation is compensated (one double-double Horner loop, ``_horner_dd``)
and certified by one bound, ``_certified``: the order-truncation tail, the
index-cutoff tail, and a cancellation term ``kappa * eps``, where kappa is
the ratio of the sum of absolute terms to the absolute value of the result.
The bound is rounded up once: ``_log_up`` widens its log-space parts
before ``exp``, and ``_certified`` the finished sum.  Loop and bound are
elementwise: ``eval_series`` evaluates a series at an array of points, or
a whole family (shift x point), in one pass, and every element carries the
bits of its one-series, one-point evaluation.  The Horner loop reads the
signed coefficients (-1)^m c_m and the magnitudes |c_m| from tables formed
once per series (``_horner_tables``, kept on the series at its first
evaluation), not per step.  ``_value_and_slope`` forms two tables once per
request: F and F' for Newton's passes, which evaluate only the roots that
continue, and a wide one of F, F' and the second-kind family for one pass
at the points Newton returns, which gives F, F' and the family there.

The kernels are written for few numpy and interpreter calls, never at the
cost of a bit: each keeps the operations of its plain loop, in the same
order.  On the small arrays here a numpy call costs about as much as the
arithmetic it does, and one on broadcast operands about twice one on
same-shape arrays, so an operand that every step reads (z in Horner, 1 - k^2
in the chain kernel) is spread to the result's shape once, and row glue
(concatenation, fancy indexing) goes into fixed buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
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
    "series_pair",
    "eval_series",
    "eval_series_deriv",
    "identity_residuals",
    "choose_truncation",
    "envelope_bound",
]


@dataclass(frozen=True)
class PowerSeriesApprox:
    """Alternating-series approximation of one entire function, or a family.

    ``coeffs``/``coeffs_lo`` hold the double-double coefficient magnitudes;
    the represented function is ``sum_m (-1)^m coeffs[m] z^m``.  A
    second-kind family has ``shift`` None and every table (order+1) x
    shifts, column n for shift n; ``fam[n]`` is that series on its own.

    ``tail_const`` is a certified upper bound S on ``sum_j x_j`` including
    the part beyond the index cutoff, so every coefficient obeys
    ``c_m <= S^m / m!``.  ``ratio_bounds[m]`` bounds the sum of x_j over the
    indices that order m+1 can add, hence the one-step coefficient ratio
    ``c_{m+1} <= c_m * ratio_bounds[m]`` used for evaluation tails.
    ``tail_omitted[m]`` bounds the contribution of chains using any index
    beyond the cutoff to the true c_m.
    """

    shift: Optional[int]
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

    @cached_property
    def _tables(self):
        """``_horner_tables`` of the coefficients, formed at the first evaluation."""
        return _horner_tables(self.coeffs, self.coeffs_lo)

    def __getitem__(self, n: int) -> PowerSeriesApprox:
        """The shift-n series of a family."""
        if self.shift is not None:
            raise TypeError("only a second-kind family is indexed by shift")
        n = range(self.coeffs.shape[1])[n]
        return replace(
            self,
            shift=n,
            **{f: getattr(self, f)[:, n].copy()
               for f in ("coeffs", "coeffs_lo", "tail_omitted", "ratio_bounds")},
        )


@dataclass(frozen=True)
class SeriesEval:
    """One certified series evaluation."""

    value: float
    value_lo: float
    kappa: float
    err_bound: float
    abs_sum: float


def _dd_inputs(params: JacobiParams, J: int):
    """Double-double inputs of the chain sums for indices j = 0..J.

    Returns (a, k2, om, x, p): the entries a_j, k^2, 1-k^2, the weights
    x_j = 1/((1-k^2) a_j) and the powers p_j = k^{2j} for j = 0..J+1.
    """
    a, _, _ = entry_arrays(params, J + 1)
    k2h, k2l = dd.two_prod(params.k, params.k)
    om = dd.dd_add_d(-k2h, -k2l, 1.0)
    x = dd.dd_div(1.0, 0.0, *dd.dd_mul_d(om[0], om[1], a))
    powers = [(1.0, 0.0), (k2h, k2l)]
    for _ in range(J):  # on Python floats: a numpy scalar step costs several times more
        powers.append(dd.dd_mul(*powers[-1], k2h, k2l))
    ph, pl = np.array(powers).T
    return a, (k2h, k2l), om, x, (ph, pl)


def _chain_tables(blocks, k2, om):
    """One pass of the chain-sum recurrence along an index axis r = 0..N-1,
    for several independent blocks side by side.

    Block b is (w, first, lead, seed, L): four double-double (hi, lo) arrays
    over the axis and its number of levels L >= 0.  With ``k2`` and ``om``
    the pairs k^2 and 1-k^2, it fills for l = 0..L-1

        V[0] = first,   V[l+1] = w * C[l],
        C[l](r) = sum_{i<r} (1 - k^{2(r-i)}) V[l](i),

    through E[l](r) = sum_{i<=r} k^{2(r-i)} V[l](i) as in the module notes,
    and carries the running sum

        S(r) = sum_{i<=r} seed(i) * (lead(i), C[0](i), ..., C[L-1](i)).

    Level l+1 at r needs level l below r only, so each step updates every
    level of every block as one vector, and each cell gets the operations
    of a scalar loop per level, in the same order.  A step's three products
    D(r) y, W(r) y and k^2 E read only the previous step's state, so they
    go in one stacked ``dd_mul_split`` whose constant factors are split
    once per pass (per block and step: the tables stay N x blocks), and
    its two sums S + D y and k^2 E + V go in one ``dd_add``.  D(r) y and
    W(r) y are formed as y D(r) and y W(r), which adds Dekker's two cross
    terms in the other order: both additions are exact away from underflow
    and overflow, and the tests hold the tables to the bits of the scalar
    loops.  The step's glue runs on fixed buffers: the products' other
    factors live in one (2, 3n-1) buffer, the step's constants are spread
    into another by ``np.take(..., out=)``, the lead indices are formed once,
    and the previous sum's output takes k^2 E in place of a concatenation.
    Returns (Sh, Sl) of shape (N, sum(L+1)), the L+1 columns of each block
    in turn.
    """
    nb = len(blocks)
    widths = [blk[4] + 1 for blk in blocks]
    starts = np.cumsum([0] + widths[:-1])
    col = np.repeat(np.arange(nb), widths)

    def stacked(field):  # (N, blocks) hi and lo of one field
        return tuple(np.column_stack([blk[field][h] for blk in blocks]) for h in (0, 1))

    (Wh, Wl), (Fh, Fl), (Gh, Gl), (Dh, Dl) = (stacked(f) for f in range(4))
    N, n = len(Gh), len(col)
    # the products' constant factors per step, (D of each block, W of each
    # block, k^2) as hi, lo and split halves, and where each goes in the
    # stacked product; a step spreads its row into the buffer Kb
    Kh = np.column_stack((Dh, Wh, np.full(N, k2[0])))
    Kl = np.column_stack((Dl, Wl, np.full(N, k2[1])))
    K = np.stack((Kh, Kl) + dd.split(Kh), axis=1)
    spread = np.concatenate((col, nb + col, np.full(n - 1, 2 * nb)))
    Kb = np.empty((4, 3 * n - 1))
    # 1-k^2, hi, lo and split halves, as operands of the shape of E
    oms = [np.full(n - 1, v) for v in om + dd.split(om[0])]
    G = np.stack((Gh, Gl), axis=1)  # (N, 2, blocks): the leads and the firsts
    F = np.stack((Fh, Fl), axis=1)
    lead = n + starts  # where the firsts go in the products (V: W y)
    Sh = np.empty((N, n))
    Sl = np.empty((N, n))
    # U holds the products' other factors (y, y, E), hi and lo: y is (lead,
    # C[0], ..., C[L-1]) of each block and E is aligned with y[1:]; E and y
    # at the lead of a later block are scratch, since every step sets that
    # lead afresh.  (th, tl) is the previous step's (S, E), whose E part
    # takes k^2 E before the step's sum.
    U = np.zeros((2, 3 * n - 1))
    uh, ul = U
    y, y2 = U[:, :n], U[:, n:2 * n]
    ch, cl = uh[1:n], ul[1:n]
    eh, el = uh[2 * n:], ul[2 * n:]
    th = np.zeros(2 * n - 1)
    tl = np.zeros(2 * n - 1)
    for r in range(N):
        U[:, starts] = G[r]
        np.copyto(y2, y)
        np.take(K[r], spread, axis=1, out=Kb, mode="clip")
        ph, pl = dd.dd_mul_split(uh, ul, *Kb)
        ph[lead], pl[lead] = F[r]
        th[n:], tl[n:] = ph[2 * n:], pl[2 * n:]
        # (S, k^2 E) + (D y, V[:-1])
        th, tl = dd.dd_add(th, tl, ph[:2 * n - 1], pl[:2 * n - 1])
        Sh[r], Sl[r] = th[:n], tl[:n]
        eh[...], el[...] = th[n:], tl[n:]
        mh, ml = dd.dd_mul_split(eh, el, *oms)
        ch[...], cl[...] = dd.dd_add(ch, cl, mh, ml)
    return Sh, Sl


def _coefficient_tables(params: JacobiParams, M: int, J: int, n_max):
    """The characteristic prefix table and, unless ``n_max`` is None, the
    second-kind table of shifts 0..n_max, from one kernel pass.

    The characteristic block runs forward with seed x: its sum is the prefix
    sum of V, A[m+1](j) = sum_{i<=j} V[m](i), with V[0] the chains of one
    index x_j (1 - k^{2(j+1)}).  The second-kind block runs on the reversed
    axis r = J - i, where the kernel's V[m](r) is x_i G[m](i), G[m](i) the
    chains i < j_1 < ... < j_m weighted by prod (1-k^{2 d}) x_j; so V[0] is
    x itself, G[m+1](i) is C[m](r), and its sum with seed k^{2i}/a_i and
    lead 1 is the suffix sum sum_{i>=n} seed(i) G[m](i) of shift n at
    r = J - n.  Returns (Ah, Al) of shape (M+1, J+1), and (Hh, Hl) of shape
    (M+1, n_max+1) or None.
    """
    a, k2, om, x, (ph, pl) = _dd_inputs(params, J)
    blocks = []
    if M > 0:  # the characteristic block has M columns, none when M = 0
        lead = dd.dd_add_d(-ph[1:], -pl[1:], 1.0)
        blocks.append((x, dd.dd_mul(*x, *lead), lead, x, M - 1))
    if n_max is not None:
        w = (x[0][::-1], x[1][::-1])
        seed = dd.dd_div(ph[:-1], pl[:-1], a, 0.0)
        one = (np.ones(J + 1), np.zeros(J + 1))
        blocks.append((w, w, one, (seed[0][::-1], seed[1][::-1]), M))
    Sh = Sl = np.empty((J + 1, 0))
    if blocks:
        Sh, Sl = _chain_tables(blocks, k2, om)
    Ah, Al = np.zeros((M + 1, J + 1)), np.zeros((M + 1, J + 1))
    Ah[0] = 1.0
    Ah[1:], Al[1:] = Sh[:, :M].T, Sl[:, :M].T
    H = None
    if n_max is not None:
        H = tuple(np.ascontiguousarray(S[J - n_max:, M:][::-1].T) for S in (Sh, Sl))
    return (Ah, Al), H


def char_chain_prefixes(params: JacobiParams, M: int, J: int):
    """Prefix sums A[m][j] = sum of chains of length m with all indices <= j.

    A[m][n-1] is exactly the x^m coefficient magnitude of the degree-n
    orthonormal polynomial in its closed form (scaled by (-1)^{n+m} k^{-n}),
    so one DP run serves every polynomial degree up to J+1.
    Returned as (A_hi, A_lo); row 0 is identically 1.
    """
    return _coefficient_tables(params, M, J, None)[0]


def _one_minus_k2(k: float) -> float:
    """1 - k^2 within 2u (u = eps/2): (1 - kh) - kl from the exact square kh + kl."""
    kh, kl = dd.two_prod(k, k)
    return (1.0 - kh) - kl


def _weight_beyond(params: JacobiParams, J: int) -> float:
    """Certified bound on sum_{j > J} x_j, the weight tail beyond the cutoff J."""
    return tail_sum_reciprocal(params.seq, J + 1) / _one_minus_k2(params.k)


def _weight_suffix(params: JacobiParams, J: int) -> np.ndarray:
    """X[m] >= sum_{j >= m} x_j for m = 0..J+1, tail beyond J included.

    X[J+1] is the certified tail bound beyond the cutoff alone.
    """
    a, _, _ = entry_arrays(params, J + 1)
    x = 1.0 / (_one_minus_k2(params.k) * a)
    # u = eps/2: the cumsum of J + 2 positive terms rounds by (J + 1) u, each x_j
    # by 4u (1 - k^2, product, quotient), the tail by 3u and the widening by u;
    # (J + 4) eps = (2J + 8) u covers that (J + 6) u and the second-order terms
    X = np.cumsum(np.concatenate(([_weight_beyond(params, J)], x[::-1])))[::-1]
    return X * (1.0 + (J + 4) * _EPS)


def _check_orders(M: int, J: int, n_max: int):
    if M < 0:
        raise ValueError(f"order M must be non-negative, got {M}")
    if M > J:
        raise ValueError(f"order M={M} exceeds index cutoff J={J}")
    if n_max >= J:
        raise ValueError(f"largest shift {n_max} must stay below the cutoff J={J}")


def _seed_beyond(params: JacobiParams, J: int) -> float:
    """The seed weight k^{2j}/a_j summed beyond the cutoff, shared by every shift."""
    return params.k ** (2 * (J + 1)) * tail_sum_reciprocal(params.seq, J + 1)


def series_pair(
    params: JacobiParams, M: int, J: int, n_max: int
) -> tuple[PowerSeriesApprox, PowerSeriesApprox]:
    """The characteristic series and the second-kind family of shifts
    0..n_max, up to order M with index cutoff J, from one kernel pass.

    M is the truncation order (coefficients c_0..c_M are produced) and J the
    largest chain index kept; chains of length m need m distinct indices,
    so M <= J is required, and n_max < J.  The shift-n series is
    ``series_pair(params, M, J, n)[1][n]``; a caller that wants only the
    characteristic series passes n_max = 0.  This is the one builder: a
    caller sizes (M, J) with ``choose_truncation`` and builds here, and the
    weight suffix that every bound reads is formed here, once per pair.
    Coefficients past the float range come out inf or NaN, without a
    warning; such a series is not fit to evaluate (``point_spectrum``
    skips it).
    """
    _check_orders(M, J, n_max)
    X = _weight_suffix(params, J)
    with np.errstate(over="ignore", invalid="ignore"):
        (Ah, Al), (Hh, Hl) = _coefficient_tables(params, M, J, n_max)
        return (
            _finalize("char", M, J, Ah[:, J].copy(), Al[:, J].copy(), X),
            _finalize("second_kind", M, J, Hh, Hl, X, _seed_beyond(params, J)),
        )


def _finalize(kind, M, J, chi, clo, X, seed_beyond=0.0) -> PowerSeriesApprox:
    """The char series, or the second-kind family of the columns of chi, with its bounds."""
    # omitted-index bounds: a chain touching an index beyond J contributes at
    # most (that index's weight) times a full chain one link shorter.
    omitted = np.zeros_like(chi)
    omitted[1:] = X[J + 1] * chi[:-1]
    orders = np.arange(M + 1)
    # ratio row m: c_{m+1} adds an index >= m (char), >= n + m + 1 (shift n)
    if kind == "char":
        ratio = X[: M + 1]
    else:
        ratio = X[np.minimum(orders[:, None] + np.arange(1, chi.shape[1] + 1), J + 1)]
        # plus the seed beyond J times every chain after it, seed * X^m / m!
        # with X = ratio[0], in log space: X^m and m! leave the float range
        # long before the bound is useless
        omitted[0] = seed_beyond
        log_fact = np.array([math.lgamma(m + 1) for m in range(1, M + 1)])[:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_terms = _log_up([np.log(seed_beyond), orders[1:, None] * np.log(ratio[0]), -log_fact])
            omitted[1:] += np.exp(log_terms)
    return PowerSeriesApprox(
        shift=0 if kind == "char" else None,
        order=M,
        cutoff=J,
        coeffs=chi,
        coeffs_lo=clo,
        tail_const=float(X[0]),
        tail_omitted=omitted,
        ratio_bounds=ratio,
    )


def _as_dd_point(z):
    """(hi, lo) of a float, an (hi, lo) pair, or a pair of point arrays.

    A complex point, numpy or Python, scalar or array, raises TypeError
    rather than losing its imaginary part.
    """
    zh, zl = z if isinstance(z, tuple) else (z, 0.0)
    if isinstance(zh, float):  # np.float64 included
        return float(zh), float(zl)
    zh = np.asarray(zh).astype(float, casting="same_kind", copy=False)
    if zh.ndim == 0:
        return float(zh), float(zl)
    return zh, np.broadcast_to(np.asarray(zl, dtype=float), zh.shape)


def _alternating_signs(chi):
    """(-1)^m along the orders of ``chi``, shaped to multiply it."""
    return np.where(np.arange(len(chi)) % 2, -1.0, 1.0).reshape((-1,) + (1,) * (np.ndim(chi) - 1))


def _horner_tables(chi, clo):
    """What ``_horner_dd`` reads, formed once per series: the signed
    coefficients (-1)^m c_m, hi and lo, and their magnitudes |c_m|."""
    sign = _alternating_signs(chi)
    return chi * sign, clo * sign, abs(chi)


def _spread(x, shape):
    """``x`` broadcast to ``shape`` as a contiguous array (a scalar stays one)."""
    return x if np.shape(x) == shape else np.broadcast_to(x, shape).copy()


def _horner_dd(tables, zh, zl):
    """Compensated Horner (Graillat, Langlois & Louvet 2005) for sum (-1)^m c_m z^m.

    Also returns the abs-sum at |z|.  ``tables`` is ``_horner_tables(chi,
    clo)``, indexed by order first; every trailing axis (the shifts of a
    family) broadcasts against the points ``zh``/``zl``, and dd arithmetic
    is elementwise, so each element gets the bits of its own one-series,
    one-point call.  z is spread to the shape of the result and split
    once per call (``dd_mul_split``).
    """
    shi, slo, ach = tables
    n = len(shi)
    rows, points = shi.shape[1:], np.shape(zh)
    shape = np.broadcast_shapes(rows, points) if rows and points else rows or points
    if n == 1:  # no Horner step: the constant takes the shape of the points
        return tuple(np.broadcast_to(x[0], shape).copy() for x in tables)
    zh, zl = _spread(zh, shape), _spread(zl, shape)
    zsh, zsl = dd.split(zh)
    az = abs(zh)
    rh, rl, ab = shi[n - 1], slo[n - 1], ach[n - 1]
    for m in range(n - 2, -1, -1):
        rh, rl = dd.dd_mul_split(rh, rl, zh, zl, zsh, zsl)
        rh, rl = dd.dd_add(rh, rl, shi[m], slo[m])
        ab = ab * az + ach[m]
    return rh, rl, ab


_EPS = np.finfo(float).eps
# at least 4 x the worst error measured against mpmath (3.2 ulps for
# math.lgamma at the integers 2..4097, at most 0.72 for numpy's log, log1p
# and exp over 1.2e5 arguments each), plus the roundings of a sum of terms
_ULPS = 32.0


# from here on the gaps 1 - rho and 1 - ts/(M+2) of _eval_tail_bound come
# from exact products: below it the stepped-up float's error of at most
# 2^-52 magnifies by less than 2^20 in the bound, under 1e-9 relative
_NEAR_POLE = 1.0 - 2.0**-20


def _log_up(terms):
    """The sum of log-space ``terms`` widened by _ULPS ulps of 1 + sum |t_i|,
    so that its exp bounds the exact exp(sum) away from underflow: each term
    is within a few ulps of its value, or is the log of a float within an ulp
    of its argument, and the 1 covers those arguments and the exp.  A -inf
    term (a zero factor) keeps the sum -inf, so its bound stays 0."""
    total = sum(terms)
    wide = total + _ULPS * _EPS * (1.0 + sum(abs(t) for t in terms))
    return np.where(total == -np.inf, total, wide)


def _eval_tail_bound(s: PowerSeriesApprox, az):
    """Certified bound on the omitted orders m > order at |z| = az.

    Both candidates are formed in log space: at large |z| and order the
    factors az**M and S**(M+1) exceed the float range long before the
    bound itself is useless, and an overflowing bound is reported as inf.
    rho = r az, ts = S az and ts/(M+2) step up past their rounding, since
    1 - rho and 1 - ts/(M+2) magnify an error in them without limit.  Past
    ``_NEAR_POLE`` that magnification would leave the bound far above its
    value, so there the gaps 1 - r az and 1 - S az/(M+2) come from the exact
    products (``two_prod``) instead, rounded down.
    """
    M = s.order
    at_zero = az == 0.0
    az = az + at_zero  # 1 where az is 0: the bound is 0 there; keep the logs finite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # past rho = 1 the geometric candidate's log is nan, and fmin drops it
        rho = np.nextafter(s.ratio_bounds[M] * az, np.inf)
        gap = 1.0 - rho
        near = rho > _NEAR_POLE
        if np.any(near):  # 1 - rh is exact there (Sterbenz)
            rh, rl = dd.two_prod(s.ratio_bounds[M], az)
            gap = np.where(near, np.nextafter((1.0 - rh) - rl, -np.inf), gap)
        log_geo = _log_up([np.log(s.coeffs[M] + s.tail_omitted[M]), M * np.log(az), np.log(rho / gap)])
        # elementary-symmetric fallback S^{m}/m!, useful at small |z|:
        # ts^{M+1}/(M+1)! times 1/(1 - ts/(M+2)) where the exact S |z| lies
        # below M+2, else e^ts; inf where the stepped-up y reaches 1 below it
        ph, pl = dd.two_prod(s.tail_const, az)
        below = (ph < M + 2) | ((ph == M + 2) & (pl < 0.0))
        ts = np.nextafter(ph, np.inf)
        y = np.nextafter(ts / (M + 2), np.inf)
        factor = np.where(below, np.where(y < 1.0, -np.log1p(-y), np.inf), ts)
        near = below & (y > _NEAR_POLE)
        if np.any(near):  # (M + 2) - ph is exact there
            gap = np.nextafter(np.nextafter((M + 2.0 - ph) - pl, -np.inf) / (M + 2.0), -np.inf)
            factor = np.where(near, -np.log(gap), factor)
        log_fact = _log_up([(M + 1) * np.log(ts), -math.lgamma(M + 2), factor])
        bound = np.exp(np.fmin(log_geo, log_fact))
    return np.where(at_zero, 0.0, bound)


def _omitted_eval_bound(s: PowerSeriesApprox, az):
    """sum_m omitted[m] az^m in order, inf once a term or a power of az is.

    ``az`` is a scalar, an array of points, or points x 1 against a family's
    shifts.  The powers come from one ``cumprod`` of (1, az, az, ...) and the
    sum from one ``cumsum`` of (0, terms): both accumulate in sequence, so
    each element gets the bits of the loop p = p*az, tot = tot + omitted[m]*p.
    """
    om = s.tail_omitted
    hit = np.any(om == math.inf, axis=0)  # else it may meet an underflowed az^m: inf * 0
    M1 = len(om)
    az = np.asarray(az, dtype=float)
    powers = np.empty((M1 + 1,) + az.shape)
    powers[0] = 1.0
    powers[1:] = az
    powers = np.cumprod(powers, axis=0)
    # orders first, then the points and the family's shifts, aligned on the right
    r, a = om.shape[1:], az.shape
    terms = np.zeros((M1 + 1,) + (np.broadcast_shapes(r, a) if r and a else r or a))
    np.multiply(
        om.reshape((M1,) + (1,) * (len(a) - len(r)) + r),
        powers[:M1].reshape((M1,) + (1,) * (len(r) - len(a)) + a),
        out=terms[1:],
    )
    # the powers only grow once past 1, so an inf among them is the last one
    return np.where(hit | (powers[-1] == math.inf), math.inf, np.cumsum(terms, axis=0)[-1])


def _dd_rounding(s: PowerSeriesApprox) -> float:
    """Rounding-unit count of a dd evaluation of ``s`` or of its derivative."""
    return 4.0 * s.order + 2.0 * s.cutoff + 16.0


def _scalar(x):
    """A 0-d result as a Python scalar; arrays pass through."""
    return x.item() if isinstance(x, (np.ndarray, np.generic)) and x.ndim == 0 else x


def _uncertified(value, err, kappa, tol):
    """Elementwise: whether an evaluation misses the relative accuracy ``tol``,
    by its bound ``err`` or by its cancellation ``kappa * EPS_DD``.  A NaN
    value or bound counts as missing it."""
    return ~(err <= tol * np.maximum(abs(value), 1e-300)) | (kappa * EPS_DD > tol)


def _certified(s, value, value_lo, abs_sum, az, tol, rounding, tail_factor=1.0):
    """The SeriesEval fields, with the one certified bound, of an evaluation at |z| = az.

    Order tail (times ``tail_factor``) + omitted-index tail + ``rounding``
    units of EPS_DD on the abs-sum, elementwise over whatever shape the
    evaluation has; raises CancellationFailure when ``tol`` is given and
    some element does not certify.
    """
    # inf and nan arise quietly here, as they do in scalar float arithmetic.
    # The factor covers the half-ulp roundings away from underflow: at most
    # 2M + 4 in the omitted-index polynomial and its entries, 2M + 2 in the
    # abs-sum's Horner steps and its product, and three for the sum here.
    with np.errstate(over="ignore", invalid="ignore"):
        err = (
            _eval_tail_bound(s, az) * tail_factor
            + _omitted_eval_bound(s, az)
            + rounding * EPS_DD * abs_sum
        ) * (1.0 + (2 * s.order + 8) * _EPS)
    nonzero = value != 0.0
    kappa = np.where(nonzero, abs_sum / np.where(nonzero, abs(value), 1.0), math.inf)
    if tol is not None:
        bad = _uncertified(value, err, kappa, tol)
        if np.any(bad):
            i = int(np.argmax(bad))
            az_i, err_i, kappa_i = (float(np.broadcast_to(x, bad.shape).flat[i]) for x in (az, err, kappa))
            raise CancellationFailure(
                f"series evaluation at |z|={az_i!r} certifies only |err|<={err_i:.3e} "
                f"(kappa={kappa_i:.3e}), beyond the requested tolerance {tol:.3e}"
            )
    return value, value_lo, kappa, err, abs_sum


def _evaluate(s: PowerSeriesApprox, z, tol, rounding, tail_factor=1.0) -> SeriesEval:
    zh, zl = _as_dd_point(z)
    family_at_points = s.shift is None and np.ndim(zh) > 0
    if family_at_points:  # evaluated as (point x shift), returned as (shift x point)
        zh, zl = zh[..., None], zl[..., None]
    rh, rl, ab = _horner_dd(s._tables, zh, zl)
    fields = _certified(s, rh, rl, ab, abs(zh), tol, rounding, tail_factor)
    if family_at_points:
        fields = (np.moveaxis(x, -1, 0) for x in fields)
    return SeriesEval(*map(_scalar, fields))


def eval_series(s: PowerSeriesApprox, z, tol: Optional[float] = None) -> SeriesEval:
    """Evaluate ``sum_m (-1)^m c_m z^m`` with a certified error bound.

    ``z`` may be a float, an (hi, lo) double-double pair, or a pair of
    arrays of points, which gives array fields whose every element has the
    bits of the one-point call.  A family (``series_pair(...)[1]``) gives
    one element per shift, (shift x point) at an array of points, each
    with the bits of ``eval_series(fam[n], point)``.  Points are real: the
    operator is self-adjoint, and a complex point raises TypeError.

    Raises CancellationFailure when ``tol`` is given and the certified
    relative error exceeds it (at any of the points); the caller should
    switch to a matrix route.
    """
    return _evaluate(s, z, tol, _dd_rounding(s))


def _point_array(z):
    """(the points of ``z`` as a 1-d float array, the shape of ``z``).

    A float is one point (shape ()); a complex point raises TypeError, and
    an empty or multi-dimensional array ValueError.
    """
    z = np.asarray(z).astype(float, casting="same_kind", copy=False)
    if z.ndim > 1 or z.size == 0:
        raise ValueError(f"points must be a float or a non-empty 1-d array, got shape {z.shape}")
    return z.reshape(-1), z.shape


def _evals_by_truncation(params: JacobiParams, z: np.ndarray, truncation, pick, tol=None):
    """``eval_series`` of the series that ``pick`` takes from a series pair,
    at every point of the 1-d array ``z``, each through the pair
    ``series_pair(params, M, J, 0)`` with (M, J) = ``truncation(point)``.

    One pair is built per distinct (M, J) and evaluated at its points in
    one call, so every element has the bits of the one-point evaluation.
    Returns one SeriesEval of arrays per series that ``pick`` returns.
    """
    groups = {}
    for i, x in enumerate(z.tolist()):
        groups.setdefault(truncation(x), []).append(i)
    out = None
    for (M, J), idx in groups.items():
        evals = [eval_series(s, z[idx], tol) for s in pick(series_pair(params, M, J, 0))]
        out = out or [np.empty((5, len(z))) for _ in evals]  # the five SeriesEval fields
        for fields, ev in zip(out, evals):
            fields[:, idx] = (ev.value, ev.value_lo, ev.kappa, ev.err_bound, ev.abs_sum)
    return [SeriesEval(*fields) for fields in out]


def eval_series_deriv(s: PowerSeriesApprox, z) -> SeriesEval:
    """Evaluate the analytic derivative, by differentiating coefficients.

    The derivative of ``sum (-1)^m c_m z^m`` is ``-sum_j (-1)^j d_j z^j``
    with ``d_j = (j+1) c_{j+1}``; no finite differences anywhere.  ``z``
    takes the forms ``eval_series`` takes.
    """
    if s.order < 1:
        shape = s.coeffs.shape[1:] + np.shape(z[0] if isinstance(z, tuple) else z)
        return SeriesEval(*(_scalar(np.full(shape, v)) for v in (0.0, 0.0, 1.0, 0.0, 0.0)))
    dser = _deriv_view(s)
    out = _evaluate(dser, z, None, _dd_rounding(s), dser.order + 2.0)
    return SeriesEval(-out.value, -out.value_lo, out.kappa, out.err_bound, out.abs_sum)


def _deriv_view(s: PowerSeriesApprox) -> PowerSeriesApprox:
    j = np.arange(1, s.order + 1, dtype=float).reshape((-1,) + (1,) * (s.coeffs.ndim - 1))
    chi, clo = dd.dd_mul_d(s.coeffs[1:], s.coeffs_lo[1:], j)
    # ratio row m stays that of order m: a bound on c_{m+1}/c_m, hence on
    # the smaller c_{m+2}/c_{m+1} that derivative order m needs (the growth
    # (m+2)/(m+1) of d_m is carried by the tail factor)
    return replace(
        s,
        order=s.order - 1,
        coeffs=chi,
        coeffs_lo=clo,
        tail_omitted=s.tail_omitted[1:] * j,
        ratio_bounds=s.ratio_bounds[:-1],
    )


def _value_and_slope(s: PowerSeriesApprox, fam: Optional[PowerSeriesApprox] = None):
    """An evaluator of F = ``s`` and F' together at arrays of points, and of
    the second-kind family ``fam`` (of the same order) with them on request.

    The returned function maps (zh, zl) to (SeriesEval of F, F' hi, F' lo):
    F's fields have the bits of ``eval_series(s, (zh, zl))``, and F' those of
    ``eval_series_deriv(s, (zh, zl)).value`` and ``.value_lo``, from one
    ``_horner_dd`` pass over a two-column table, formed once and shared by
    every call: the coefficients of F, and those of ``_deriv_view(s)``
    padded with a zero at order M.  The padding is exact: the zero's Horner
    step adds 0 to a coefficient pair normalised by ``quick_two_sum``, which
    returns the pair unchanged.  F' carries no bound of its own.

    With ``family=True`` the pass runs over one wide table, the two columns
    followed by the family's, and a fourth element is the family's
    SeriesEval (shift x point), with the bits of ``eval_series(fam, (zh,
    zl))``: Horner and its bound are elementwise.  Newton's passes
    (``spectrum._refine_roots``) run over the two columns alone, and
    ``point_spectrum`` makes the wide pass at the points Newton returns.
    """
    d = _deriv_view(s)
    tables = _horner_tables(
        np.column_stack((s.coeffs, np.append(d.coeffs, 0.0))),
        np.column_stack((s.coeffs_lo, np.append(d.coeffs_lo, 0.0))),
    )
    if fam is not None:
        wide = tuple(np.column_stack(pair) for pair in zip(tables, fam._tables))
    rounding = _dd_rounding(s)

    def evaluate(zh, zl, family=False):
        rh, rl, ab = _horner_dd(wide if family else tables, zh[:, None], zl[:, None])
        az = abs(zh)
        fe = SeriesEval(*_certified(s, rh[:, 0], rl[:, 0], ab[:, 0], az, None, rounding))
        if not family:
            return fe, -rh[:, 1], -rl[:, 1]
        fields = _certified(fam, rh[:, 2:], rl[:, 2:], ab[:, 2:], az[:, None], None, _dd_rounding(fam))
        return fe, -rh[:, 1], -rl[:, 1], SeriesEval(*(x.T for x in fields))

    return evaluate


def scale_for_shift(k: float, n: int) -> float:
    """(-1)^n k^-n, the prefactor turning a shift-n series into Phi_n.

    It is also P_n(0); past the float range it is +-inf.
    """
    try:
        return (-1.0) ** n * k ** (-n)
    except OverflowError:
        return math.copysign(math.inf, (-1.0) ** n)


def envelope_bound(params: JacobiParams, n: int, abs_z: float) -> float:
    """Certified bound on |Phi_n(z)| for |z| <= abs_z.

    k^n / ((1-k^2) min_{j>=n} a_j) * exp(|z| R(n+1) / (1-k^2)) with R the
    certified reciprocal-tail bound.  (The 1/(1-k^2) factor is needed: the
    shift-n series at 0 already sums k^{2j}/a_j over j >= n, which a bare
    1/min a_j does not dominate.)
    """
    return _envelope(_one_minus_k2(params.k), _envelope_factors(params, n), abs_z)


def _envelope_factors(params: JacobiParams, n: int) -> tuple[float, float]:
    """The |z|-free factors of ``envelope_bound``: its prefactor and R(n+1)."""
    k = params.k
    amin = sequence_min_from(params.seq, n)
    return k**n / (_one_minus_k2(k) * amin), tail_sum_reciprocal(params.seq, n + 1)


def _envelope(om: float, factors: tuple[float, float], abs_z: float) -> float:
    scale, tail = factors
    try:
        return scale * math.exp(abs_z * tail / om)
    except OverflowError:  # the bound is past the float range
        return math.inf


def choose_truncation(
    params: JacobiParams,
    radius: float,
    tol: float,
    min_cutoff: int = 0,
) -> tuple[int, int]:
    """Pick (order M, cutoff J) certifying tol/10 tails at the given radius.

    J is enlarged until the omitted-index contribution at the radius is
    below tol/10 in relative terms; M until the order-truncation tail is.
    The order rule uses the one-step coefficient-ratio bound (the blunt
    S^{M+1} R^{M+1} / (M+1)! criterion stalls at large radii because the
    true coefficients decay much faster than S^m/m!), read from the weight
    suffix at the chosen J.  M is capped at 512, and J is raised to M
    where M exceeds it, since a chain of length M needs M indices.
    ConvergenceFailure when J, doubling from max(16, min_cutoff), reaches
    2^15 without passing the cutoff test.
    ``series_pair(params, M, J, n_max)`` builds the series.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    radius = max(radius, 1.0)
    J, max_cutoff = max(16, min_cutoff), 1 << 15
    while True:
        t_beyond = _weight_beyond(params, J)
        if t_beyond * radius < tol / 10.0 or J >= max_cutoff:
            break
        J *= 2
    if t_beyond * radius >= tol / 10.0:
        raise ConvergenceFailure(
            f"no index cutoff below {max_cutoff} certifies radius {radius:g} at tol {tol:g}"
        )
    suffix = _weight_suffix(params, J)
    max_order = 512
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
    return M, max(J, M)


def identity_residuals(
    params: JacobiParams, z, n_max: int, fser: PowerSeriesApprox, fam: PowerSeriesApprox
) -> tuple[np.ndarray, np.ndarray]:
    """Wronskian and recurrence residuals of the second-kind entries, n = 0..n_max.

    Wronskian: |alpha_n (P_n Phi_{n+1} - P_{n+1} Phi_n) - F(z)|; the bracket
    is constant in n and equal to the characteristic function.  Recurrence:
    |alpha_n Phi_{n+1} + (beta_n - z) Phi_n + alpha_{n-1} Phi_{n-1}|, where at
    n = 0 the boundary form applies and F(z) takes the place of the last
    term.  ``fser, fam`` is the caller's ``series_pair(params, M, J,
    n_max + 1)``, built once for every point; one polynomial run serves
    every n, and column n of each result is the one a single-n call gives.
    """
    from .polycore import orthopoly_values_dd  # local import, avoids a cycle

    zh, zl = _as_dd_point(z)
    ev = eval_series(fam, (zh, zl))
    scales = np.array([scale_for_shift(params.k, n) for n in range(n_max + 2)])
    vh, vl = dd.dd_mul_d(ev.value, ev.value_lo, scales)
    Ph, Pl = orthopoly_values_dd(params, n_max + 1, (zh, zl))
    _, alpha, beta = entry_arrays(params, n_max + 1)
    fe = eval_series(fser, (zh, zl))

    t1 = dd.dd_mul(Ph[:-1], Pl[:-1], vh[1:], vl[1:])
    t2 = dd.dd_mul(Ph[1:], Pl[1:], vh[:-1], vl[:-1])
    wh, wl = dd.dd_mul_d(*dd.dd_sub(*t1, *t2), alpha)
    wr, _ = dd.dd_sub(wh, wl, fe.value, fe.value_lo)

    rh, rl = dd.dd_mul(*dd.dd_add_d(-zh, -zl, beta), vh[:-1], vl[:-1])
    rh, rl = dd.dd_add(rh, rl, *dd.dd_mul_d(vh[1:], vl[1:], alpha))
    rh[0], rl[0] = dd.dd_sub(rh[0], rl[0], fe.value, fe.value_lo)
    rh[1:], _ = dd.dd_add(rh[1:], rl[1:], *dd.dd_mul_d(vh[:-2], vl[:-2], alpha[:-1]))
    return np.abs(wr), np.abs(rh)
