import csv
import io
import json

import pytest

from jspec.cli import UsageError, emit_report, load_config, main, _make_parser, _fill_missing
from jspec.sequences import Geometric, PowerLaw


def _parse(argv):
    return _fill_missing(_make_parser().parse_args(argv))


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
    assert reader.fieldnames == ["index", "lambda", "mass", "residual_F",
                                 "residual_matrix", "refined"]
    rows = list(reader)
    assert len(rows) == 3
    lams = [float(r["lambda"]) for r in rows]
    assert lams == sorted(lams) and lams[0] > 0.0


def test_cli_empty_spectrum(capsys):
    rc = main(["--q", "0.25", "--count", "0", "--format", "csv", "spectrum"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "index,lambda,mass,residual_F,residual_matrix,refined"


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
    rc = main(["--q", "0.5", "--format", "json", "identities", "--draws", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == 14  # 7 ids x 2 draws
    assert data["all_hold"] is True


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
