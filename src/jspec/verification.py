"""Acceptance-grade verification suite.

Each criterion is a standalone callable returning a CriterionResult; the
registry drives both the ``verify`` CLI command and the acceptance tests.
Tolerances are pinned here as constants, not computed.

The reference configuration is the geometric weight sequence with ratio
1/4 and coupling 1/2 (the q-series specialization at q = 1/4), for which
closed forms exist for everything the suite asserts.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import doubledouble as dd
from .entire import (
    KIND_CHAR,
    KIND_SECOND,
    choose_truncation,
    eval_series,
    recurrence_residual,
    second_kind_family,
    series_coeffs,
    wronskian_residual,
)
from .errors import JspecError
from .identities import IDENTITY_IDS, check as identity_check, draw_params
from .polycore import orthopoly_eval, trace_inverse_routes, value_at_zero
from .qlaguerre import (
    QParams,
    char_closed_forms,
    induced_params,
    laguerre_classical,
    modified_laguerre,
    orthopoly_relation_residuals,
    q_laguerre,
    qbessel2_roots,
    qpochhammer,
    weyl_num_closed_forms,
)
from .sequences import Geometric, JacobiParams, entry_arrays, gamma_lower_bound
from .spectrum import (
    associated_checks,
    char_via_second_kind,
    masses_and_vectors,
    point_spectrum,
    section_eigenvalues,
    truncate,
    weyl,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

REFERENCE = JacobiParams(Geometric(0.25), 0.5)
IDENTITY_SEED = 20240817

TOL_TRACE_REL = 1e-12
TOL_COMPLETENESS = 1e-8
TOL_MODE_AGREE = 1e-10
TOL_P2_COEFF = 1e-12
TOL_ZERO_REL = 1e-12
TOL_ORTHO = 1e-6
TOL_MASS_SUM = 1e-8
TOL_MASS_ROUTES = 1e-6
TOL_WRONSKIAN = 1e-9
TOL_EIGRES = 1e-8
TOL_NORM_ID = 1e-8
TOL_WEYL = 1e-8
TOL_WEYL_ASYMP = 0.02
TOL_CHAR_EQ = 1e-9
TOL_IDENTITY_SLACK = 1e-10
TOL_QLAG_COEFF = 1e-12
TOL_QLAG_F = 1e-10
TOL_QLAG_W = 1e-9
TOL_QLAG_REL42 = 1e-9
TOL_QLAG_LADDER = 1e-12
TOL_ROOTS = 1e-6
TOL_ASSOC_TRACE = 1e-8
TOL_ASSOC_ZEROS = 1e-6
TOL_ORACLE = 1e-14


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] criterion {self.cid:2d}: {self.title} ({self.detail}) "
            f"[{self.seconds:.2f} s]"
        )


_sd_cache: dict = {}


def _spectral(count: int):
    key = count
    if key not in _sd_cache:
        _sd_cache[key] = point_spectrum(REFERENCE, count, tol=1e-10)
    return _sd_cache[key]


def crit_trace_identity() -> tuple[bool, str]:
    direct, alt = trace_inverse_routes(REFERENCE, tol=1e-15)
    target = 4.0 / 45.0
    rel = abs(direct - target) / target
    rel_alt = abs(alt - target) / target
    sd = _spectral(8)
    ok = rel <= TOL_TRACE_REL and rel_alt <= 1e-12 and sd.completeness_defect <= TOL_COMPLETENESS
    return ok, (
        f"trace rel err {rel:.2e} (route two {rel_alt:.2e}), "
        f"completeness defect {sd.completeness_defect:.2e}"
    )


def crit_explicit_vs_recurrence() -> tuple[bool, str]:
    sd = _spectral(8)
    xs = np.linspace(0.0, 2.0 * sd.lambdas[0], 20)
    worst = 0.0
    for n in range(26):
        for x in xs:
            pr = orthopoly_eval(REFERENCE, n, float(x), mode="recurrence").values[n]
            pe = orthopoly_eval(REFERENCE, n, float(x), mode="explicit").values[n]
            worst = max(worst, abs(pr - pe) / max(1.0, abs(pr)))
    coeffs = orthopoly_eval(REFERENCE, 2, 0.0, mode="explicit").coeffs
    target = np.array([4.0, -17.0 / 48.0, 1.0 / 720.0])
    cerr = float(np.max(np.abs(coeffs - target) / np.abs(target)))
    ok = worst <= TOL_MODE_AGREE and cerr <= TOL_P2_COEFF
    return ok, f"mode agreement {worst:.2e}, quadratic coefficients {cerr:.2e}"


def crit_zero_values() -> tuple[bool, str]:
    worst = 0.0
    pe = orthopoly_eval(REFERENCE, 30, 0.0, mode="recurrence")
    for n in range(31):
        target = value_at_zero(REFERENCE, n)
        worst = max(worst, abs(pe.values[n] - target) / abs(target))
    return worst <= TOL_ZERO_REL, f"max relative deviation {worst:.2e}"


def crit_orthonormality() -> tuple[bool, str]:
    from .spectrum import orthonormality_check

    sd = _spectral(12)
    dev = orthonormality_check(REFERENCE, sd, 8, tol=TOL_ORTHO)
    mass_sum_dev = abs(float(np.sum(sd.masses)) - 1.0)
    ok = dev <= TOL_ORTHO and mass_sum_dev <= TOL_MASS_SUM
    return ok, f"max deviation {dev:.2e}, unit-mass defect {mass_sum_dev:.2e}"


def crit_masses() -> tuple[bool, str]:
    sd = _spectral(8)
    positive = bool(np.all(sd.masses > 0.0))
    rel = np.abs(sd.masses[:6] - sd.masses_quadrature[:6]) / sd.masses[:6]
    worst = float(np.max(rel))
    ok = positive and worst <= TOL_MASS_ROUTES
    return ok, f"all positive: {positive}, route agreement j<=5: {worst:.2e}"


def crit_wronskian() -> tuple[bool, str]:
    M, J = choose_truncation(REFERENCE, 16.0, 1e-14, min_cutoff=16)
    fser = series_coeffs(REFERENCE, KIND_CHAR, M, J)
    worst = 0.0
    worst_const = 0.0
    for z in (1.0, 5.0, 10.0):
        fz = eval_series(fser, z).value
        vals = []
        for n in range(11):
            res = wronskian_residual(REFERENCE, n, z, M=M, J=J)
            worst = max(worst, res / abs(fz))
            vals.append(res)
        # |W_n - W_m| <= res_n + res_m, so twice the largest residual
        # bounds every pairwise difference
        worst_const = max(worst_const, 2.0 * max(vals) / abs(fz))
    ok = worst <= TOL_WRONSKIAN and worst_const <= TOL_WRONSKIAN
    return ok, f"residual/|F| {worst:.2e}, constancy spread {worst_const:.2e}"


def crit_eigenvector_norm() -> tuple[bool, str]:
    sd = _spectral(8)
    md = masses_and_vectors(REFERENCE, sd, n_max=30)
    eig = float(np.max(md.eigen_residuals[:7]))
    nrm = float(np.max(md.norm_residuals[:7]))
    ok = eig <= TOL_EIGRES and nrm <= TOL_NORM_ID
    return ok, f"matrix residual {eig:.2e}, norm-identity residual {nrm:.2e}"


def crit_weyl() -> tuple[bool, str]:
    sd = _spectral(8)
    gamma = gamma_lower_bound(REFERENCE)
    points = [0.0, -1.0, gamma / 2.0]
    for j in range(3):
        points.append(float(math.sqrt(sd.lambdas[j] * sd.lambdas[j + 1])))
    worst = 0.0
    for z in points:
        w = weyl(REFERENCE, z, sd)
        vals = [w.series, w.poles, w.resolvent]
        scale = max(1.0, max(abs(v) for v in vals))
        for u, v in itertools.combinations(vals, 2):
            worst = max(worst, abs(u - v) / scale)
    w_far = weyl(REFERENCE, -1e6, sd)
    asym = abs(w_far.poles * 1e6 - 1.0)
    ok = worst <= TOL_WEYL and asym <= TOL_WEYL_ASYMP
    return ok, f"pairwise route gap {worst:.2e}, asymptotic defect {asym:.2e}"


def crit_char_equivalence() -> tuple[bool, str]:
    M, J = choose_truncation(REFERENCE, 8.0, 1e-14)
    fser = series_coeffs(REFERENCE, KIND_CHAR, M, J)
    worst = 0.0
    for z in (0.0, 2.0, 5.0):
        via_wn = char_via_second_kind(REFERENCE, z, tol=1e-13)
        via_series = eval_series(fser, z).value
        worst = max(worst, abs(via_wn - via_series) / abs(via_series))
    return worst <= TOL_CHAR_EQ, f"max relative gap {worst:.2e}"


def crit_identities() -> tuple[bool, str]:
    rng = np.random.default_rng(IDENTITY_SEED)
    worst_excess = -math.inf
    for iid in IDENTITY_IDS:
        for _ in range(5):
            ps = draw_params(iid, rng)
            rep = identity_check(iid, **ps)
            excess = rep.abs_err - rep.trunc_bound
            worst_excess = max(worst_excess, excess)
            if not rep.holds(TOL_IDENTITY_SLACK):
                return False, f"{iid} failed at {ps}: err {rep.abs_err:.2e} > bound {rep.trunc_bound:.2e}"
    return True, f"35 draws, worst err-minus-bound {worst_excess:.2e}"


def crit_qlaguerre_closed_forms() -> tuple[bool, str]:
    worst_c = 0.0
    for q in (0.2, 0.5, 0.8):
        params = JacobiParams(Geometric(q), math.sqrt(q))
        J = 192 if q >= 0.8 else 96
        ser = series_coeffs(params, KIND_CHAR, 12, J)
        for m in range(1, 13):
            target = q ** (m * (m + 1)) / (qpochhammer(q, q, m) * qpochhammer(q * q, q, m))
            worst_c = max(worst_c, abs(ser.coefficient(m) - target) / target)
    qp = QParams(0.25)
    sd = _spectral(8)
    lam5 = float(sd.lambdas[5])
    zgrid = np.geomspace(0.05, 0.97 * lam5, 12)
    worst_f = 0.0
    for z in zgrid:
        cb, cph, cs = char_closed_forms(float(z), qp)
        scale = max(abs(cb), abs(cph), abs(cs))
        worst_f = max(worst_f, (max(cb, cph, cs) - min(cb, cph, cs)) / scale)
    lam3 = float(sd.lambdas[3])
    worst_w = 0.0
    for z in np.geomspace(0.05, lam3, 10):
        # absolute two-route agreement: the interval endpoint sits within
        # rounding of a numerator zero, where relative error is ill-posed
        wc, ws = weyl_num_closed_forms(float(z), qp)
        worst_w = max(worst_w, abs(wc - ws))
    ok = worst_c <= TOL_QLAG_COEFF and worst_f <= TOL_QLAG_F and worst_w <= TOL_QLAG_W
    return ok, f"coefficients {worst_c:.2e}, char routes {worst_f:.2e}, numerator routes {worst_w:.2e}"


def crit_qlaguerre_relations() -> tuple[bool, str]:
    qp = QParams(0.25)
    worst_rel = 0.0
    for n in range(13):
        for x in (0.5, 3.0, 11.0):
            rel, _ = orthopoly_relation_residuals(n, x, qp)
            pn = orthopoly_eval(induced_params(qp), n, x).values[n]
            worst_rel = max(worst_rel, rel / max(1.0, abs(pn)))
    worst_ladder = 0.0
    worst_rec = 0.0
    qh = QParams(0.5)
    for n in range(11):
        for x in (0.5, 1.0, 2.0):
            ladder = (
                qh.q**n * q_laguerre(n, 0, x, qh)
                + (q_laguerre(n - 1, 1, x, qh) if n >= 1 else 0.0)
                - q_laguerre(n, 1, x, qh)
            )
            worst_ladder = max(worst_ladder, abs(ladder))
            _, rec = orthopoly_relation_residuals(n, x, qh)
            worst_rec = max(worst_rec, rec)
    monotone = True
    for n in range(1, 6):
        errs = []
        for q in (0.9, 0.99, 0.999):
            qq = QParams(q)
            errs.append(
                max(
                    abs(modified_laguerre(n, (1.0 - q) * x, qq) - laguerre_classical(n, x))
                    for x in (0.5, 1.0, 2.0)
                )
            )
        monotone = monotone and errs[0] > errs[1] > errs[2]
    ok = (
        worst_rel <= TOL_QLAG_REL42
        and worst_ladder <= TOL_QLAG_LADDER
        and worst_rec <= TOL_QLAG_LADDER
        and monotone
    )
    return ok, (
        f"rescaling residual {worst_rel:.2e}, ladder {worst_ladder:.2e}, "
        f"recurrence {worst_rec:.2e}, classical limit monotone: {monotone}"
    )


def crit_qbessel_roots() -> tuple[bool, str]:
    qp = QParams(0.25)
    roots = qbessel2_roots(1.0, qp, 5)
    sd = _spectral(8)
    lam = (roots / 2.0) ** 2
    rel = float(np.max(np.abs(lam - sd.lambdas[:5]) / sd.lambdas[:5]))
    return rel <= TOL_ROOTS, f"root-to-eigenvalue map {rel:.2e}"


def crit_associated() -> tuple[bool, str]:
    rep = associated_checks(REFERENCE, 60, n_zeros=5)
    worst_zero = float(np.max(rep.zero_rel_diffs))
    ok = rep.trace_rel_diff <= TOL_ASSOC_TRACE and worst_zero <= TOL_ASSOC_ZEROS and rep.trace_sane
    return ok, f"trace routes {rep.trace_rel_diff:.2e}, zero match {worst_zero:.2e}"


def _chain_bruteforce(params: JacobiParams, kind: str, m: int, J: int, shift: int = 0) -> float:
    """Direct enumeration of all index chains (the oracle for the DP)."""
    a, _, _ = entry_arrays(params, J + 1)
    k2 = params.k * params.k
    total = 0.0
    if kind == KIND_CHAR:
        for ch in itertools.combinations(range(J + 1), m):
            num = 1.0
            prev = None
            for t, j in enumerate(ch):
                d = j + 1 if t == 0 else j - prev
                num *= 1.0 - k2**d
                prev = j
            den = (1.0 - k2) ** m
            for j in ch:
                den *= a[j]
            total += num / den
        return total if m >= 1 else 1.0
    for ch in itertools.combinations(range(shift, J + 1), m + 1):
        num = k2 ** ch[0]
        prev = ch[0]
        for j in ch[1:]:
            num *= 1.0 - k2 ** (j - prev)
            prev = j
        den = (1.0 - k2) ** m
        for j in ch:
            den *= a[j]
        total += num / den
    return total


def crit_oracle_equivalence() -> tuple[bool, str]:
    params = JacobiParams(Geometric(0.37), 0.61)
    J = 12
    fser = series_coeffs(params, KIND_CHAR, 3, J)
    worst = 0.0
    for m in range(1, 4):
        brute = _chain_bruteforce(params, KIND_CHAR, m, J)
        worst = max(worst, abs(fser.coefficient(m) - brute) / brute)
    fam = second_kind_family(params, 3, J, 2)
    for shift in (0, 2):
        for m in range(0, 4):
            brute = _chain_bruteforce(params, KIND_SECOND, m, J, shift=shift)
            worst = max(worst, abs(fam[shift].coefficient(m) - brute) / brute)
    # interlacing of section eigenvalues up to N = 30; low-index eigenvalues
    # of adjacent sections agree beyond float resolution, so the downward
    # inequality is asserted with an ulp-level slack while the gap to the
    # next index is checked strictly
    eps = np.finfo(float).eps
    interlace_ok = True
    prev = None
    for N in range(1, 31):
        T = truncate(REFERENCE, N)
        lams = section_eigenvalues(T, N, rtol=0.0)  # bisect to bit saturation
        if prev is not None:
            for j in range(len(prev)):
                if not (lams[j] <= prev[j] * (1.0 + 8 * eps)):
                    interlace_ok = False
                if not (prev[j] < lams[j + 1] * (1.0 - 1e-12)):
                    interlace_ok = False
        prev = lams
    ok = worst <= TOL_ORACLE and interlace_ok
    return ok, f"chain-sum deviation {worst:.2e}, interlacing holds: {interlace_ok}"


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "trace identity and completeness", crit_trace_identity),
    (2, "explicit vs recurrence polynomial evaluation", crit_explicit_vs_recurrence),
    (3, "polynomial values at zero", crit_zero_values),
    (4, "orthonormality under the discrete measure", crit_orthonormality),
    (5, "mass positivity and route agreement", crit_masses),
    (6, "Wronskian identity and constancy", crit_wronskian),
    (7, "eigenvector and norm identities", crit_eigenvector_norm),
    (8, "Weyl function three-route agreement", crit_weyl),
    (9, "characteristic function via second-kind values", crit_char_equivalence),
    (10, "q-series summation identities", crit_identities),
    (11, "q-Laguerre closed forms", crit_qlaguerre_closed_forms),
    (12, "modified q-Laguerre relations", crit_qlaguerre_relations),
    (13, "q-Bessel root correspondence", crit_qbessel_roots),
    (14, "associated operator checks", crit_associated),
    (15, "chain-sum oracle equivalence and interlacing", crit_oracle_equivalence),
]


def run_criterion(cid: int) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == cid:
            t0 = time.perf_counter()
            try:
                passed, detail = fn()
            except JspecError as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(num, title, passed, detail, time.perf_counter() - t0)
    raise ValueError(f"no criterion numbered {cid}")


def run_all(echo: bool = False) -> list[CriterionResult]:
    results = []
    for num, _, _ in CRITERIA:
        res = run_criterion(num)
        results.append(res)
        if echo:
            print(res.line(), flush=True)
    return results
