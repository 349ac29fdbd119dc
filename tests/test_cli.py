import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import jspec
from jspec.cli import UsageError, emit_report, load_config, main, _make_parser
from jspec.sequences import Geometric, PowerLaw


def _parse(argv):
    return _make_parser().parse_args(argv)


def test_load_config_q_mode():
    cfg = load_config(_parse(["--seq", "geometric", "--q", "0.25", "spectrum"]))
    assert isinstance(cfg.seq, Geometric) and cfg.seq.q == 0.25
    assert cfg.k == 0.5  # coupling sqrt(q)
    assert cfg.q_mode == 0.25


def test_load_config_powerlaw():
    cfg = load_config(_parse(["--seq", "powerlaw", "--c", "1", "--p", "2", "--k", "0.5", "spectrum"]))
    assert isinstance(cfg.seq, PowerLaw)
    assert (cfg.seq.c, cfg.seq.p, cfg.k) == (1.0, 2.0, 0.5)
    assert cfg.q_mode is None


def test_load_config_rejects_bad_k():
    with pytest.raises(UsageError, match="k"):
        load_config(_parse(["--k", "1.5", "--seq", "powerlaw", "--c", "1", "--p", "2", "spectrum"]))


def test_load_config_rejects_both_modes():
    with pytest.raises(UsageError, match="exactly one"):
        load_config(_parse(["--k", "0.5", "--q", "0.25", "spectrum"]))


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "q": 0.25,
        "count": 6,
        "tolerances": {"eig_tol": 1e-9},
        "output": {"format": "csv"},
    }))
    cfg = load_config(_parse(["--config", str(path), "--count", "3", "spectrum"]))
    assert cfg.count == 3          # flag wins
    assert cfg.eig_tol == 1e-9     # file value survives
    assert cfg.fmt == "csv"


def test_config_file_explicit_sequence(tmp_path):
    from jspec.sequences import Explicit

    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "k": 0.5,
        "sequence": {"kind": "explicit", "values": [3.0, 7.0],
                     "tail": {"kind": "powerlaw", "c": 1.0, "p": 2.0}},
    }))
    cfg = load_config(_parse(["--config", str(path), "--seq", "explicit", "spectrum"]))
    assert isinstance(cfg.seq, Explicit)
    assert cfg.seq.values == (3.0, 7.0)


def _explicit_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "sequence": {"kind": "explicit", "values": [5, 2, 11],
                     "tail": {"kind": "powerlaw", "c": 1, "p": 2}},
    }))
    return str(path)


def test_shape_flags_select_the_power_law_over_the_file_kind(capsys, tmp_path):
    # --c and --p were dropped when the file's kind was explicit: lambda_0
    # read 1.3928322721758544 with and without them
    path = _explicit_config(tmp_path)
    cfg = load_config(_parse(["--config", path, "--k", "0.5", "--c", "3", "--p", "4", "measure"]))
    assert cfg.seq == PowerLaw(3.0, 4.0)
    assert main(["--config", path, "--k", "0.5", "--c", "3", "--p", "4", "measure", "--count", "2"]) == 0
    first = json.loads(capsys.readouterr().out)["rows"][0]
    assert main(["--seq", "powerlaw", "--k", "0.5", "--c", "3", "--p", "4", "measure", "--count", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0] == first


@pytest.mark.parametrize("flags, named", [(["--c", "3"], "c:"), (["--p", "4"], "p:")])
def test_shape_flags_are_refused_with_an_explicit_sequence(capsys, tmp_path, flags, named):
    argv = ["--config", _explicit_config(tmp_path), "--seq", "explicit", "--k", "0.5", *flags, "measure"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: {named}") and flags[0] in captured.err
    assert captured.out == ""


def test_emit_report_roundtrip_bits():
    values = [1.0 / 3.0, 4.0 / 45.0, 11.841809843065835, 2.4628911525480292e-71]
    text = emit_report({"rows": [{"v": v} for v in values]}, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "v"
    parsed = [float(s) for s in lines[1:]]
    assert parsed == values  # bit-for-bit through 17 significant digits
    as_json = emit_report({"values": values}, "json")
    assert json.loads(as_json)["values"] == values


def test_emit_report_empty_rows_has_header():
    text = emit_report({"columns": ["index", "lambda"], "rows": []}, "csv")
    assert text == "index,lambda\n"


def test_cli_spectrum_csv_schema(capsys):
    rc = main(["--q", "0.25", "--count", "3", "--format", "csv", "spectrum"])
    assert rc == 0
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == ["index", "lambda", "lambda_err", "mass", "residual_F",
                                 "residual_matrix", "refined"]
    rows = list(reader)
    assert len(rows) == 3
    lams = [float(r["lambda"]) for r in rows]
    assert lams == sorted(lams) and lams[0] > 0.0


def test_cli_empty_spectrum(capsys):
    rc = main(["--q", "0.25", "--count", "0", "--format", "csv", "spectrum"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "index,lambda,lambda_err,mass,residual_F,residual_matrix,refined"


def test_cli_usage_error_exit_code(capsys):
    rc = main(["--k", "1.5", "--seq", "powerlaw", "--c", "1", "--p", "2", "spectrum"])
    assert rc == 1
    assert "k" in capsys.readouterr().err


def test_cli_identities_single(capsys):
    rc = main(["identities", "--id", "BASIC", "--r", "1", "--w", "0", "--q", "0.5",
               "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_hold"] is True
    row = data["rows"][0]
    assert row["identity_id"] == "BASIC"
    assert row["abs_err"] == 0.0


def test_cli_identities_draws(capsys):
    rc = main(["--format", "json", "identities", "--draws", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == 14  # 7 ids x 2 draws
    assert data["all_hold"] is True


def test_cli_identities_take_q_from_the_config_file(capsys, tmp_path):
    # q was set to 0.25 before the file was read, so the file's q was ignored
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"q": 0.5}))
    argv = ["--config", str(path), "identities", "--id", "BASIC", "--r", "1", "--w", "0"]
    for extra, q in (([], 0.5), (["--q", "0.3"], 0.3)):
        assert main([*argv, *extra]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["params"]["q"] == q


def test_cli_identities_ignore_a_config_k(capsys, tmp_path):
    # identities reads no --k, so a file shared with a power-law run made
    # it exit 1 with "provide exactly one of --k or --q"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": 0.5, "sequence": {"kind": "powerlaw", "c": 1, "p": 2}}))
    assert main(["--config", str(path), "identities", "--draws", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["all_hold"] is True
    assert main(["--config", str(path), "identities", "--id", "BASIC", "--r", "1", "--w", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["params"]["q"] == 0.25


@pytest.mark.parametrize("flags, named", [
    pytest.param(["--r", "1", "--w", "0"], "--r, --w", id="r-w"),
    pytest.param(["--cs", "1,2", "--ss", "1"], "--cs, --ss", id="cs-ss"),
    pytest.param(["--params", '{"r": 1}'], "--params", id="params"),
])
def test_cli_identity_parameters_need_id(capsys, flags, named):
    # without --id the command drew random parameters and dropped these
    rc = main(["identities", "--q", "0.5", *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert named in captured.err and "--id" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, named", [
    pytest.param(["--q", "0.9"], "--q", id="q"),
    pytest.param(["--q", "0.9", "--id", "BASIC"], "--q", id="q-id"),
    pytest.param(["--k", "0.5", "--seq", "powerlaw", "--c", "1", "--p", "2"], "--k", id="k"),
])
def test_cli_identity_draws_refuse_mode_flags(capsys, flags, named):
    # drawn parameters carry their own q; an explicit --q or --k was
    # silently ignored and the command exited 0
    rc = main(["identities", "--draws", "2", *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert named in captured.err and "usage error" in captured.err
    assert captured.out == ""


# a flag each command does not read, and arguments that make the rest valid
@pytest.mark.parametrize("command, flag, rest", [
    pytest.param("spectrum", ["--seed", "3"], ["--q", "0.25"], id="spectrum-seed"),
    pytest.param("measure", ["--identity-tol", "1e-9"], ["--q", "0.25"], id="measure-identity-tol"),
    pytest.param("poly", ["--count", "5"], ["--q", "0.25"], id="poly-count"),
    pytest.param("poly", ["--tol", "1e-3"], ["--q", "0.25"], id="poly-tol"),
    pytest.param("qlaguerre", ["--k", "0.5"], [], id="qlaguerre-k"),
    pytest.param("qlaguerre", ["--count", "3"], ["--q", "0.25"], id="qlaguerre-count"),
    pytest.param("identities", ["--seq", "geometric"], ["--draws", "1"], id="identities-seq"),
    pytest.param("identities", ["--tol", "1e-9"],
                 ["--id", "BASIC", "--r", "1", "--w", "0"], id="identities-tol"),
    pytest.param("verify", ["--config", "run.json"], [], id="verify-config"),
])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_cli_refuses_flags_the_command_does_not_read(capsys, command, flag, rest, before):
    # every command parsed all twelve run-configuration flags and silently
    # ignored those it does not use
    argv = [*flag, command, *rest] if before else [command, *rest, *flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "usage error" in captured.err and flag[0] in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, named", [
    pytest.param(["identities", "--id", "BASIC", "--r", "1", "--w", "0", "--m", "3", "--q", "0.5"],
                 "parameter m", id="identity-extra-parameter"),
    pytest.param(["identities", "--id", "BASIC", "--r", "0", "--w", "0", "--q", "0.5"],
                 "r >= 1", id="identity-parameter-out-of-range"),
    pytest.param(["identities", "--id", "SYNCHRO", "--a", "1", "--q", "0.5"],
                 "needs s", id="identity-missing-parameter"),
    pytest.param(["identities", "--id", "BASIC", "--r", "1", "--w", "0", "--q", "0.5",
                  "--draws", "3"], "--draws", id="draws-with-explicit-parameters"),
    pytest.param(["identities", "--id", "BASIC", "--params", '{"q": 0.3, "r": 1, "w": 0}',
                  "--q", "0.5"], "--q", id="q-twice"),
    pytest.param(["identities", "--id", "CHAIN_OPEN", "--q", "0.5", "--params", '{"c": 5}'],
                 "needs c", id="identity-number-for-list"),
    pytest.param(["identities", "--id", "BASIC", "--params", '{"r": 1, "w": "x"}'],
                 "needs w", id="identity-string-parameter"),
    pytest.param(["identities", "--id", "BASIC", "--params", '{"q": "x", "r": 1, "w": 0}'],
                 "base q", id="identity-string-q"),
    pytest.param(["identities", "--draws", "0"], "draws", id="draws-0"),
    pytest.param(["identities", "--draws", "-1"], "draws", id="draws-negative"),
    pytest.param(["--q", "0.25", "--c", "3", "spectrum"], "--c", id="q-with-c"),
    pytest.param(["--q", "0.25", "measure", "--p", "5"], "--p", id="q-with-p"),
    pytest.param(["--q", "0.25", "poly", "--degree", "-1"], "degree", id="negative-degree"),
    pytest.param(["--q", "0.25", "qlaguerre", "--z", "-1"], "z >= 0", id="negative-z"),
    pytest.param(["--q", "0.25", "poly", "--degree", "3", "--x", "nan"], "x:", id="nan-x"),
    pytest.param(["--q", "0.25", "poly", "--degree", "3", "--x", "inf"], "x:", id="inf-x"),
    pytest.param(["--q", "0.25", "qlaguerre", "--z", "inf"], "z:", id="inf-z"),
])
def test_cli_bad_inputs_are_usage_errors(capsys, argv, named):
    # each of these exited 0 and ignored an input (a nan or inf x printed NaN
    # rows), exited 2 as a numerical failure, or died with a traceback
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and named in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("cfg, named", [
    ({"k": "abc", "sequence": {"kind": "powerlaw", "c": 1, "p": 2}}, "k:"),
    ({"q": 0.25, "count": "x"}, "count:"),
    ({"k": 0.5, "sequence": {"kind": "powerlaw", "c": "one", "p": 2}}, "c:"),
    ({"q": 0.25, "count": 1e999}, "count:"),
    ({"q": 0.25, "tolerances": {"eval_tol": []}}, "eval_tol:"),
    ({"q": 0.25, "seed": "s"}, "seed:"),
    ({"k": 0.5, "sequence": {"kind": "explicit", "values": [1.0]}}, "sequence:"),
    ({"k": 0.5, "sequence": {"kind": "explicit", "values": [1.0],
                             "tail": {"kind": "powerlaw", "c": 1}}}, "p:"),
], ids=["k", "count", "c", "count-inf", "eval_tol", "seed", "no-tail", "no-p"])
def test_cli_non_numeric_config_values_are_usage_errors(capsys, tmp_path, cfg, named):
    # these died with a ValueError, OverflowError or KeyError traceback
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "spectrum"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: " + named)
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--cs", "1,x"], ["--ss", "1.5", "--a", "1"]],
                         ids=["cs", "ss"])
def test_cli_malformed_exponent_lists_are_usage_errors(capsys, flags):
    # these died with a ValueError traceback
    assert main(["identities", "--id", "SYNCHRO", "--q", "0.5", *flags]) == 1
    captured = capsys.readouterr()
    assert flags[0] in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_empty_measure(capsys):
    # --count 0 computed one eigenvalue anyway
    assert main(["--q", "0.25", "--count", "0", "measure"]) == 0
    assert json.loads(capsys.readouterr().out) == {"columns": ["index", "lambda", "mass"], "rows": []}


def test_cli_measure_json(capsys):
    rc = main(["--q", "0.25", "--count", "4", "measure"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["unit_mass_defect"] <= 1e-8
    masses = [row["mass"] for row in data["rows"]]
    assert abs(sum(masses) - 1.0) <= 1e-8


def test_cli_poly_values(capsys):
    rc = main(["--q", "0.25", "poly", "--degree", "2", "--x", "3.0"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    expected = 9.0 / 720.0 - 17.0 * 3.0 / 48.0 + 4.0
    assert data["rows"][2]["value_recurrence"] == pytest.approx(expected, rel=1e-12)
    assert data["coefficients"][1] == pytest.approx(-17.0 / 48.0, rel=1e-12)
    # 10^320 = k^-320 is past the float range: +-inf values under the flag
    # (this exited 2 on a bare OverflowError)
    rc = main(["--k", "0.1", "--seq", "powerlaw", "--c", "1", "--p", "2", "poly", "--degree", "320", "--x", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overflow"] is True and data["rows"][320]["value_explicit"] == "-inf"


def test_readme_examples_run(capsys):
    # every `jspec ...` line of the README's sh blocks runs as printed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("jspec ")]
    assert len(lines) >= 8
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


def test_cli_qlaguerre_cross_checks(capsys):
    rc = main(["--q", "0.25", "qlaguerre", "--z", "0.5", "--z", "2.0"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["worst_cross_check"] <= 1e-10


def test_cli_output_file(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["--q", "0.25", "--count", "2", "--format", "csv", "--out", str(out), "spectrum"])
    assert rc == 0
    assert out.read_text().startswith("index,lambda")


def test_cli_unknown_flag_is_usage():
    assert main(["--frobnicate", "spectrum"]) == 1


def test_cli_spectrum_count13(capsys):
    # the order-truncation tail bound once overflowed here (az**M)
    rc = main(["--q", "0.25", "--count", "13", "--format", "csv", "spectrum"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 13


def test_cli_spectrum_residual_F_is_relative(capsys):
    # the bare |F| at the last root is about 1.9e47; divided by the series
    # abs-sum of the same evaluation it reads as a relative residual
    rc = main(["--q", "0.25", "--count", "12", "--format", "csv", "spectrum"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 12
    assert all(0.0 <= float(r["residual_F"]) <= 1e-30 for r in rows)


def test_cli_spectrum_fallback_rows_have_matrix_residuals(capsys):
    # at p = 2 every mass takes the matrix-side route; its rows report the
    # section residual of the twisted eigenvector, not NaN, and since no
    # series is evaluated there, residual_F is nan
    rc = main(["--k", "0.5", "--seq", "powerlaw", "--c", "1", "--p", "2", "--count", "8",
               "spectrum", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 8
    assert all("nan" not in r["residual_matrix"] for r in rows)
    assert all(0.0 <= float(r["residual_matrix"]) <= 1e-12 for r in rows)
    assert all(r["residual_F"] == "nan" and r["refined"] == "False" for r in rows)
    assert all(0.0 <= float(r["lambda_err"]) <= 1e-10 * float(r["lambda"]) for r in rows)


def test_cli_stray_arithmetic_error_is_numerical_failure(monkeypatch, capsys):
    import jspec.cli

    def overflow(*args, **kwargs):
        raise OverflowError("Numerical result out of range")

    monkeypatch.setattr(jspec.cli, "point_spectrum", overflow)
    assert main(["--q", "0.25", "--count", "3", "spectrum"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_removed_truncation_flags_are_usage_errors():
    # the truncation is chosen per evaluation from the tolerances; a flag
    # that would be parsed and then ignored is refused instead
    assert main(["--q", "0.25", "--trunc-order", "5", "spectrum"]) == 1
    assert main(["--q", "0.25", "--index-cutoff", "64", "spectrum"]) == 1
    assert main(["--q", "0.25", "--matrix-size", "64", "spectrum"]) == 1


@pytest.mark.parametrize("argv, named", [
    (["verify", "--out", "F", "--format", "csv", "--count", "3"], "--count, --out, --format"),
    (["--q", "0.3", "verify"], "--q"),
    (["verify", "--seed", "5"], "--seed"),
])
def test_cli_verify_refuses_flags(capsys, tmp_path, monkeypatch, argv, named):
    # verify runs a fixed reference suite; every flag was parsed and then
    # ignored (--out was never written) and the command exited 0
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert named in captured.err and "usage error" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("argv, expect", [
    pytest.param(["poly", "--q", "0.25", "--degree", "2"],
                 lambda out: json.loads(out)["rows"], id="poly"),
    pytest.param(["verify"], lambda out: "15/15 criteria passed" in out.splitlines(), id="verify"),
])
def test_module_entry_point_runs_uninstalled(argv, expect):
    # ``python -m jspec`` from a plain checkout: only the source directory
    # on the path
    src = str(Path(jspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "jspec", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect(proc.stdout)


def test_closed_pipe_exits_quietly():
    # ``jspec verify | head -1``: the reader closes stdout after one line;
    # the run stops without a traceback and without exit 1, which means a
    # usage error (it may finish first, and then exits 0)
    src = str(Path(jspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "jspec", "verify"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    code = proc.wait(timeout=120)
    proc.stderr.close()
    assert first.startswith(b"[PASS] criterion  1")
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code in (0, 141), code
