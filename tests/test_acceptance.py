"""Acceptance gate: every criterion at its pinned tolerance.

Each test runs one registered criterion and prints its pass/fail line, so
``pytest -s tests/test_acceptance.py`` doubles as the human-readable
acceptance report.  Tolerances live as constants next to the criterion
implementations and are asserted here to stay at their contract values.
"""

import pytest

from jspec import verification as V


@pytest.mark.parametrize("cid,title", [(num, title) for num, title, _ in V.CRITERIA])
def test_criterion(cid, title, capsys):
    result = V.run_criterion(cid)
    with capsys.disabled():
        print(f"\n{result.line()}", end="")
    assert result.passed, result.line()


def test_all_fifteen_registered():
    assert [num for num, _, _ in V.CRITERIA] == list(range(1, 16))


def test_tolerances_pinned():
    # the contract values; failing here means a silent goalpost move
    assert V.TOL_TRACE_REL == 1e-12
    assert V.TOL_COMPLETENESS == 1e-8
    assert V.TOL_MODE_AGREE == 1e-10
    assert V.TOL_P2_COEFF == 1e-12
    assert V.TOL_ZERO_REL == 1e-12
    assert V.TOL_ORTHO == 1e-6
    assert V.TOL_MASS_SUM == 1e-8
    assert V.TOL_MASS_ROUTES == 1e-6
    assert V.TOL_WRONSKIAN == 1e-9
    assert V.TOL_EIGRES == 1e-8
    assert V.TOL_NORM_ID == 1e-8
    assert V.TOL_WEYL == 1e-8
    assert V.TOL_WEYL_ASYMP == 0.02
    assert V.TOL_CHAR_EQ == 1e-9
    assert V.TOL_IDENTITY_SLACK == 1e-10
    assert V.TOL_QLAG_COEFF == 1e-12
    assert V.TOL_QLAG_F == 1e-10
    assert V.TOL_QLAG_W == 1e-9
    assert V.TOL_QLAG_REL42 == 1e-9
    assert V.TOL_QLAG_LADDER == 1e-12
    assert V.TOL_ROOTS == 1e-6
    assert V.TOL_ASSOC_TRACE == 1e-8
    assert V.TOL_ASSOC_ZEROS == 1e-6
    assert V.TOL_ORACLE == 1e-14


def test_mode_agreement_reads_every_degree_off_one_call(monkeypatch):
    # criterion 2 compares the two modes at 26 degrees and 20 points with
    # one degree-25 call per mode over the points, plus the quadratic coefficients
    calls = []
    real = V.orthopoly_eval

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(V, "orthopoly_eval", counting)
    passed, detail = V.crit_explicit_vs_recurrence()
    assert passed
    assert len(calls) <= 3
    assert detail == "mode agreement 8.37e-16, quadratic coefficients 0.00e+00"


def _count_builds(monkeypatch):
    """The (M, J, n_max) of every series build from here on: each runs _series_pair."""
    from jspec import entire

    builds = []
    real = entire._series_pair

    def counting(*args, **kwargs):
        builds.append(args[1:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(entire, "_series_pair", counting)
    return builds


def test_wronskian_builds_each_series_once_per_point(monkeypatch):
    # criterion 6 builds one series pair and reads F and the residuals of
    # all eleven n at every point from it
    builds = _count_builds(monkeypatch)
    passed, detail = V.crit_wronskian()
    assert passed
    assert len(builds) == 1
    assert detail == "residual/|F| 6.02e-17, constancy spread 1.20e-16"


def test_weyl_builds_one_series_pair_for_all_points(monkeypatch):
    # criterion 8 evaluates the Weyl function at seven points, which all
    # take the same truncation, in one call
    builds = _count_builds(monkeypatch)
    passed, detail = V.crit_weyl()
    assert passed
    assert builds == [(14, 40, 0)]
    assert detail == "pairwise route gap 1.39e-17, asymptotic defect 1.20e-05"


def test_closed_forms_build_one_series_per_truncation(monkeypatch):
    # criterion 11 builds the three coefficient series, then one pair per
    # truncation among the points of each closed-form grid: three for the
    # characteristic function, two for the Weyl numerator
    builds = _count_builds(monkeypatch)
    passed, detail = V.crit_qlaguerre_closed_forms()
    assert passed
    assert builds[:3] == [(12, 96, 0), (12, 96, 0), (12, 192, 0)]
    assert sorted(builds[3:6]) == [(8, 16, 0), (10, 16, 0), (14, 16, 0)]
    assert sorted(builds[6:]) == [(8, 16, 0), (10, 16, 0)]
    assert detail == "coefficients 1.29e-14, char routes 2.51e-15, numerator routes 6.30e-14"
