import math

import numpy as np
import pytest

from jspec.errors import ParameterOutOfRange, TruncationTooCoarse
from jspec.identities import IDENTITY_IDS, chain_rhs, check, draw_params
from jspec.qlaguerre import qpochhammer

SEED = 20240817


def test_basic_degenerate_w():
    # w = 0 collapses both sides to 1/(1-q)
    for q in (0.2, 0.5, 0.75):
        rep = check("BASIC", q=q, r=1, w=0.0)
        assert rep.lhs == pytest.approx(1.0 / (1.0 - q), rel=1e-15)
        assert rep.abs_err <= 1e-15


def test_basic_partial_sums():
    # r=1, w=q=1/2: partial sums 2.667, 3.429, 3.733, ... toward 4
    q = w = 0.5
    partial = 0.0
    seen = []
    for n in range(40):
        partial += q**n / ((1 - q**n * w) * (1 - q ** (n + 1) * w))
        if n < 3:
            seen.append(partial)
    assert seen == pytest.approx([2.6666667, 3.4285714, 3.7333333], rel=1e-6)
    rep = check("BASIC", q=q, r=1, w=w)
    assert rep.rhs == pytest.approx(4.0)
    assert abs(partial - 4.0) < 1e-10


def test_lemma1_degenerate_w():
    rep = check("LEMMA1", q=0.5, m=1, w=0.0)
    assert rep.lhs == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert rep.rhs == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_synchro_particular_case():
    # all exponents 1, a = 2: closed form 1/((q;q)_m (q^2;q)_m)
    for q in (0.3, 0.5):
        for m in (1, 2, 3):
            rep = check("SYNCHRO", q=q, s=(1,) * m, a=2.0)
            target = 1.0 / (qpochhammer(q, q, m) * qpochhammer(q * q, q, m))
            assert rep.rhs == pytest.approx(target, rel=1e-13)
            assert rep.holds(1e-12)


def test_chain_open_example():
    q = 1.0 / 3.0
    rep = check("CHAIN_OPEN", q=q, c=(1.0, 1.0))
    target = q / ((1 - q * q) * ((1 - q) * (1 - q * q)))
    assert rep.rhs == pytest.approx(target, rel=1e-14)
    assert rep.holds(1e-12)


def test_all_ids_random_draws():
    rng = np.random.default_rng(SEED)
    for iid in IDENTITY_IDS:
        for _ in range(5):
            ps = draw_params(iid, rng)
            rep = check(iid, **ps)
            assert rep.abs_err <= rep.trunc_bound + 1e-10, (iid, ps, rep)


def test_chain_tail_index_limit():
    # appending one level with a large exponent X multiplies the closed form
    # by exactly q^X/(q^X;q)_2; the evaluated nested sum must agree with the
    # one-fewer-level closed form through that factor
    q, c, X = 0.45, (0.8, 1.7), 50.0
    rep = check("CHAIN_OPEN", q=q, c=c + (X,))
    poch = (1 - q**X) * (1 - q ** (X + 1))
    reduced = chain_rhs(q, (c[0], c[1] + X), strict_seed=False)
    assert abs(rep.lhs * poch / q**X - reduced) <= 1e-8


def test_char_coefficients_via_chain_closed_forms():
    # with geometric weights at base q the m-th characteristic coefficient
    # must reproduce q^{m(m+1)}/((q;q)_m (q^2;q)_m), the value the chain
    # and ordered-denominator closed forms assemble to
    from jspec.entire import series_pair
    from jspec.sequences import Geometric, JacobiParams

    for q in (0.25, 0.5):
        params = JacobiParams(Geometric(q), math.sqrt(q))
        ser = series_pair(params, 6, 120, 0)[0]
        for m in range(1, 7):
            target = q ** (m * (m + 1)) / (qpochhammer(q, q, m) * qpochhammer(q * q, q, m))
            assert abs(ser.coefficient(m) - target) / target <= 1e-10


def test_weyl_num_coefficients_via_denom_closed_form():
    # the z^m numerator coefficient equals q^{2m+2} X_m where X_m combines
    # the ordered-denominator sum with the synchronized product form
    from jspec.entire import series_pair
    from jspec.sequences import Geometric, JacobiParams

    q = 0.25
    params = JacobiParams(Geometric(q), math.sqrt(q))
    fam = series_pair(params, 6, 120, 0)[1]
    for m in range(0, 6):
        denom_series = sum(
            q ** ((m + 2) * j) / (1 - q ** (j + m + 2)) for j in range(200)
        )
        pq = qpochhammer(q, q, m)
        pq2 = qpochhammer(q * q, q, m)
        x_m = q ** ((m + 1) ** 2) / (pq * pq2) * denom_series + q ** ((m + 1) * m) / (
            pq * pq2 * (1 - q ** (m + 2))
        )
        target = q ** (2 * m + 2) * x_m
        assert abs(fam[0].coefficient(m) - target) / target <= 1e-10


def test_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        check("BASIC", q=1.2, r=1, w=0.0)
    with pytest.raises(ParameterOutOfRange):
        check("BASIC", q=0.5, r=0, w=0.0)
    with pytest.raises(ParameterOutOfRange):
        check("PHI10", q=0.5, m=2, w=1.5)
    with pytest.raises(ParameterOutOfRange):
        check("DENOM", q=0.5, m=1, a=-1.0)
    with pytest.raises(ParameterOutOfRange):
        check("CHAIN_OPEN", q=0.5, c=(1.0, -2.0))
    with pytest.raises(ParameterOutOfRange):
        check("SYNCHRO", q=0.5, s=(0,), a=1.0)
    with pytest.raises(ParameterOutOfRange):
        check("NOPE", q=0.5)


def test_check_takes_exactly_the_identity_parameters():
    # an extra parameter was silently dropped from BASIC's check
    with pytest.raises(ParameterOutOfRange, match="no parameter m"):
        check("BASIC", q=0.5, r=1, w=0.0, m=3)
    with pytest.raises(ParameterOutOfRange, match="needs c"):
        check("CHAIN_OPEN", q=0.5)


@pytest.mark.parametrize("iid, params", [
    pytest.param("CHAIN_OPEN", {"q": 0.5, "c": 5}, id="number-for-list"),
    pytest.param("BASIC", {"q": 0.5, "r": 1, "w": "x"}, id="string-w"),
    pytest.param("BASIC", {"q": "x", "r": 1, "w": 0.0}, id="string-q"),
    pytest.param("BASIC", {"q": 0.5, "r": True, "w": 0.0}, id="bool-r"),
    pytest.param("SYNCHRO", {"q": 0.5, "s": [1.5], "a": 1.0}, id="float-in-integer-list"),
])
def test_check_refuses_parameters_of_the_wrong_type(iid, params):
    # these ended in a TypeError from inside the checker (or truncated 1.5 to 1)
    with pytest.raises(ParameterOutOfRange):
        check(iid, **params)


def test_truncation_too_coarse():
    with pytest.raises(TruncationTooCoarse):
        check("BASIC", q=0.99999, r=1, w=0.9, tol=1e-13)


def test_report_fields():
    rep = check("DENOM", q=0.4, m=1, a=0.7)
    assert rep.identity_id == "DENOM"
    assert rep.params == {"q": 0.4, "m": 1, "a": 0.7}
    assert rep.rel_err <= rep.abs_err / max(abs(rep.lhs), abs(rep.rhs)) * (1 + 1e-12) + 1e-300
    assert rep.depth >= 64
