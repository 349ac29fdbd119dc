"""Command-line front end: config parsing, subcommand dispatch, reports.

Configuration comes from an optional JSON file (``--config``) mirroring
RunConfig, with command-line flags overriding file values.  Exactly one of
``--q`` (q-mode: geometric weights, coupling sqrt(q)) or ``--k`` (general
mode, power-law or explicit weights) must end up set.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
Floating-point output is printed with 17 significant digits, so every
emitted value parses back bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import JspecError
from .identities import IDENTITY_IDS, check as identity_check, draw_params
from .polycore import orthopoly_eval
from .qlaguerre import QParams, char_closed_forms, weyl_num_closed_forms
from .sequences import Explicit, Geometric, JacobiParams, PowerLaw, SequenceSpec
from .spectrum import point_spectrum

__all__ = ["RunConfig", "UsageError", "load_config", "emit_report", "run", "main"]


class UsageError(Exception):
    """Bad flags or config; the message names the offending field."""


@dataclass
class RunConfig:
    seq: SequenceSpec
    k: float
    q_mode: Optional[float]  # set when configured through --q
    count: int = 8
    eig_tol: float = 1e-10
    eval_tol: float = 1e-10
    identity_tol: float = 1e-12
    out: Optional[str] = None
    fmt: str = "json"
    seed: int = 20240817

    def params(self) -> JacobiParams:
        return JacobiParams(self.seq, self.k)


def _fmt_float(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _json_write(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _json_write(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, val in enumerate(list(obj)):
            if i:
                out.append(", ")
            _json_write(val, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            out.append(json.dumps(_fmt_float(v)))
        else:
            out.append(_fmt_float(v))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    else:
        out.append(json.dumps(str(obj)))


def emit_report(data, fmt: str) -> str:
    """Serialize a report: JSON object, or CSV when data is {'rows': [...]}-shaped.

    CSV requires dict rows with a shared key order; the header is emitted
    even when there are no rows.
    """
    if fmt == "json":
        parts: list[str] = []
        _json_write(data, parts)
        return "".join(parts) + "\n"
    if fmt == "csv":
        rows = data["rows"] if isinstance(data, dict) else data
        columns = data.get("columns") if isinstance(data, dict) else None
        if columns is None:
            columns = list(rows[0].keys()) if rows else []
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt_float(_pyval(row[c])) for c in columns))
        return "\n".join(lines) + "\n"
    raise UsageError(f"format: unknown output format {fmt!r}")


def _pyval(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


def _build_seq(node: dict) -> SequenceSpec:
    kind = node.get("kind")
    if kind == "geometric":
        return Geometric(float(node["q"]))
    if kind == "powerlaw":
        return PowerLaw(float(node["c"]), float(node["p"]))
    if kind == "explicit":
        return Explicit(tuple(float(v) for v in node["values"]), _build_seq(node["tail"]))
    raise UsageError(f"sequence: unknown kind {kind!r}")


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the optional JSON config file with flag overrides."""
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"config: cannot read {args.config}: {exc}") from exc

    q = args.q if args.q is not None else file_cfg.get("q")
    k = args.k if args.k is not None else file_cfg.get("k")
    if q is not None and k is not None:
        raise UsageError("k/q: provide exactly one of --k (general) or --q (q-mode)")
    seq_kind = args.seq if args.seq is not None else (file_cfg.get("sequence") or {}).get("kind")

    if q is not None:
        q = float(q)
        if not (0.0 < q < 1.0):
            raise UsageError(f"q: must lie strictly in (0,1), got {q}")
        if seq_kind not in (None, "geometric"):
            raise UsageError("seq: --q selects the geometric sequence; do not combine with --seq " + seq_kind)
        seq: SequenceSpec = Geometric(q)
        k_val = math.sqrt(q)
        q_mode: Optional[float] = q
    elif k is not None:
        k_val = float(k)
        if not (0.0 < k_val < 1.0):
            raise UsageError(f"k: must lie strictly in (0,1), got {k_val}")
        q_mode = None
        if seq_kind == "powerlaw" or (seq_kind is None and args.c is not None):
            c = args.c if args.c is not None else (file_cfg.get("sequence") or {}).get("c")
            p = args.p if args.p is not None else (file_cfg.get("sequence") or {}).get("p")
            if c is None or p is None:
                raise UsageError("seq: powerlaw needs --c and --p")
            seq = PowerLaw(float(c), float(p))
        elif seq_kind == "explicit":
            node = (file_cfg.get("sequence") or {})
            if "values" not in node:
                raise UsageError("seq: explicit sequences must come from a config file with 'values' and 'tail'")
            seq = _build_seq(node)
        elif seq_kind == "geometric":
            raise UsageError("seq: geometric runs are configured through --q, not --k")
        else:
            raise UsageError("seq: --k needs a sequence kind (powerlaw or explicit)")
    else:
        raise UsageError("k/q: provide exactly one of --k or --q")

    tols = file_cfg.get("tolerances") or {}
    out_cfg = file_cfg.get("output") or {}
    cfg = RunConfig(
        seq=seq,
        k=k_val,
        q_mode=q_mode,
        count=int(args.count if args.count is not None else file_cfg.get("count", 8)),
        eig_tol=float(args.tol if args.tol is not None else tols.get("eig_tol", 1e-10)),
        eval_tol=float(tols.get("eval_tol", 1e-10)),
        identity_tol=float(args.identity_tol if getattr(args, "identity_tol", None) is not None
                           else tols.get("identity_tol", 1e-12)),
        out=args.out if args.out is not None else out_cfg.get("path"),
        fmt=args.format if args.format is not None else out_cfg.get("format", "json"),
        seed=int(args.seed if args.seed is not None else file_cfg.get("seed", 20240817)),
    )
    for name, value in (("count", cfg.count),):
        if value < 0:
            raise UsageError(f"{name}: must be non-negative, got {value}")
    for name, value in (("tol", cfg.eig_tol), ("eval_tol", cfg.eval_tol),
                        ("identity_tol", cfg.identity_tol)):
        if not (value > 0.0):
            raise UsageError(f"{name}: tolerance must be positive, got {value}")
    if cfg.fmt not in ("json", "csv"):
        raise UsageError(f"format: must be json or csv, got {cfg.fmt}")
    return cfg


def _write_output(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise JspecError(f"cannot write output to {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


SPECTRUM_COLUMNS = ["index", "lambda", "mass", "residual_F", "residual_matrix", "refined"]


def _cmd_spectrum(cfg: RunConfig) -> int:
    rows = []
    if cfg.count > 0:
        sd = point_spectrum(cfg.params(), cfg.count, tol=cfg.eig_tol)
        for j in range(sd.count):
            rows.append({
                "index": j,
                "lambda": float(sd.lambdas[j]),
                "mass": float(sd.masses[j]),
                "residual_F": float(sd.residual_F[j]),
                "residual_matrix": float(sd.residual_matrix[j]),
                "refined": bool(sd.refined[j]),
            })
        meta = {
            "N_used": sd.N_used,
            "completeness_defect": sd.completeness_defect,
            "gamma": sd.gamma,
        }
    else:
        meta = {}
    data = {"columns": SPECTRUM_COLUMNS, "rows": rows}
    if cfg.fmt == "json":
        data.update(meta)
    _write_output(emit_report(data, cfg.fmt), cfg)
    return 0


def _cmd_measure(cfg: RunConfig) -> int:
    sd = point_spectrum(cfg.params(), max(cfg.count, 1), tol=cfg.eig_tol)
    rows = [
        {"index": j, "lambda": float(sd.lambdas[j]), "mass": float(sd.masses[j])}
        for j in range(sd.count)
    ]
    defect = abs(1.0 - float(np.sum(sd.masses)))
    data = {
        "columns": ["index", "lambda", "mass"],
        "rows": rows,
        "unit_mass_defect": defect,
        "completeness_defect": sd.completeness_defect,
    }
    if cfg.fmt == "csv":
        data = {"columns": data["columns"], "rows": rows}
    _write_output(emit_report(data, cfg.fmt), cfg)
    return 0


def _cmd_poly(cfg: RunConfig, degree: int, x: float) -> int:
    params = cfg.params()
    rec = orthopoly_eval(params, degree, x, mode="recurrence")
    exp = orthopoly_eval(params, degree, x, mode="explicit")
    rows = [
        {
            "degree": n,
            "value_recurrence": float(rec.values[n]),
            "value_explicit": float(exp.values[n]),
        }
        for n in range(degree + 1)
    ]
    data = {
        "columns": ["degree", "value_recurrence", "value_explicit"],
        "rows": rows,
        "x": x,
        "coefficients": [float(c) for c in exp.coeffs],
        "overflow": bool(rec.overflow or exp.overflow),
    }
    if cfg.fmt == "csv":
        data = {"columns": data["columns"], "rows": rows}
    _write_output(emit_report(data, cfg.fmt), cfg)
    return 0


def _cmd_qlaguerre(cfg: RunConfig, zs: list[float]) -> int:
    if cfg.q_mode is None:
        raise UsageError("q: the qlaguerre command needs q-mode (--q)")
    qp = QParams(cfg.q_mode)
    rows = []
    worst = 0.0
    for z in zs:
        cb, cph, cs = char_closed_forms(z, qp)
        wc, ws = weyl_num_closed_forms(z, qp)
        spread_f = (max(cb, cph, cs) - min(cb, cph, cs)) / max(abs(cb), abs(cph), abs(cs), 1e-300)
        worst = max(worst, spread_f, abs(wc - ws))
        rows.append({
            "z": z,
            "char_bessel": cb,
            "char_phi01": cph,
            "char_series": cs,
            "weylnum_closed": wc,
            "weylnum_series": ws,
        })
    data = {
        "columns": ["z", "char_bessel", "char_phi01", "char_series",
                    "weylnum_closed", "weylnum_series"],
        "rows": rows,
        "worst_cross_check": worst,
    }
    if cfg.fmt == "csv":
        data = {"columns": data["columns"], "rows": rows}
    _write_output(emit_report(data, cfg.fmt), cfg)
    if worst > cfg.eval_tol:
        raise JspecError(f"closed-form cross-checks disagree at {worst:.3e} > {cfg.eval_tol:g}")
    return 0


def _identity_report_row(rep) -> dict:
    return {
        "identity_id": rep.identity_id,
        "params": rep.params,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "abs_err": rep.abs_err,
        "rel_err": rep.rel_err,
        "trunc_bound": rep.trunc_bound,
        "depth": rep.depth,
    }


def _cmd_identities(cfg: RunConfig, identity_id: Optional[str], raw_params: Optional[str],
                    draws: int, flag_params: Optional[dict] = None) -> int:
    jobs: list[tuple[str, dict]] = []
    explicit = dict(flag_params or {})
    if raw_params:
        try:
            explicit.update(json.loads(raw_params))
        except json.JSONDecodeError as exc:
            raise UsageError(f"params: invalid JSON: {exc}") from exc
    if identity_id is not None and explicit:
        ps = explicit
        if "c" in ps:
            ps["c"] = tuple(ps["c"])
        if "s" in ps:
            ps["s"] = tuple(ps["s"])
        if "q" not in ps:
            if cfg.q_mode is None:
                raise UsageError("q: explicit identity parameters need --q")
            ps["q"] = cfg.q_mode
        jobs.append((identity_id, ps))
    else:
        rng = np.random.default_rng(cfg.seed)
        ids = [identity_id] if identity_id is not None else list(IDENTITY_IDS)
        for iid in ids:
            for _ in range(draws):
                jobs.append((iid, draw_params(iid, rng)))
    reports = [identity_check(iid, tol=cfg.identity_tol, **ps) for iid, ps in jobs]
    rows = [_identity_report_row(rep) for rep in reports]
    ok = all(rep.holds(1e-10) for rep in reports)
    data = {"rows": rows, "all_hold": ok}
    if cfg.fmt == "csv":
        for row in rows:
            row["params"] = json.dumps(row["params"])
        data = {
            "columns": ["identity_id", "params", "lhs", "rhs", "abs_err", "rel_err",
                        "trunc_bound", "depth"],
            "rows": rows,
        }
    _write_output(emit_report(data, cfg.fmt), cfg)
    if not ok:
        raise JspecError("at least one identity check exceeded its certified bound")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    from .verification import run_all

    results = run_all(echo=True)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 2


_GLOBAL_FLAGS = [
    ("--config", dict(help="JSON config file mirroring RunConfig")),
    ("--seq", dict(choices=["geometric", "powerlaw", "explicit"])),
    ("--q", dict(type=float, help="q-mode: geometric ratio, coupling sqrt(q)")),
    ("--k", dict(type=float, help="general mode coupling in (0,1)")),
    ("--c", dict(type=float, help="power-law scale")),
    ("--p", dict(type=float, help="power-law exponent (> 1)")),
    ("--count", dict(type=int, help="number of eigenvalues")),
    ("--tol", dict(type=float, help="eigenvalue tolerance")),
    ("--identity-tol", dict(type=float, dest="identity_tol")),
    ("--out", dict(help="output path (default stdout)")),
    ("--format", dict(choices=["json", "csv"])),
    ("--seed", dict(type=int)),
]


def _make_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand: they
    # live on the main parser and (with suppressed defaults, so a bare
    # subcommand does not clobber earlier values) on every subparser
    shared = argparse.ArgumentParser(add_help=False)
    for flag, kw in _GLOBAL_FLAGS:
        shared.add_argument(flag, default=argparse.SUPPRESS, **kw)
    parser = argparse.ArgumentParser(
        prog="jspec",
        description="Spectral toolkit for Jacobi matrices with trace-class inverse",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[shared],
                   help="eigenvalues, masses and residual diagnostics")
    sub.add_parser("measure", parents=[shared], help="discrete orthogonality measure")
    p_poly = sub.add_parser("poly", parents=[shared],
                            help="orthonormal polynomial values and coefficients")
    p_poly.add_argument("--degree", type=int, default=8)
    p_poly.add_argument("--x", type=float, default=1.0)
    p_ql = sub.add_parser("qlaguerre", parents=[shared],
                          help="closed-form cross checks (q-mode only)")
    p_ql.add_argument("--z", type=float, action="append",
                      help="evaluation point (repeatable; default 0.5, 2, 5)")
    p_id = sub.add_parser("identities", parents=[shared], help="q-series identity checks")
    p_id.add_argument("--id", dest="identity_id", choices=list(IDENTITY_IDS))
    p_id.add_argument("--params", help="JSON object of identity parameters")
    p_id.add_argument("--r", type=int, help="identity parameter r")
    p_id.add_argument("--w", type=float, help="identity parameter w")
    p_id.add_argument("--m", type=int, help="identity parameter m")
    p_id.add_argument("--a", type=float, help="identity parameter a")
    p_id.add_argument("--cs", help="comma-separated chain exponents c_0,..,c_m")
    p_id.add_argument("--ss", help="comma-separated integer exponents s_1,..,s_m")
    p_id.add_argument("--draws", type=int, default=5)
    sub.add_parser("verify", parents=[shared], help="run the full verification suite")
    return parser


def _fill_missing(args: argparse.Namespace) -> argparse.Namespace:
    for flag, kw in _GLOBAL_FLAGS:
        name = kw.get("dest") or flag.lstrip("-").replace("-", "_")
        if not hasattr(args, name):
            setattr(args, name, None)
    return args


def run(command: str, cfg: RunConfig, **extra) -> int:
    """Dispatch one subcommand; raises JspecError on numerical failure."""
    if command == "spectrum":
        return _cmd_spectrum(cfg)
    if command == "measure":
        return _cmd_measure(cfg)
    if command == "poly":
        return _cmd_poly(cfg, extra.get("degree", 8), extra.get("x", 1.0))
    if command == "qlaguerre":
        zs = extra.get("zs") or [0.5, 2.0, 5.0]
        return _cmd_qlaguerre(cfg, zs)
    if command == "identities":
        return _cmd_identities(cfg, extra.get("identity_id"), extra.get("raw_params"),
                               extra.get("draws", 5), extra.get("flag_params"))
    if command == "verify":
        return _cmd_verify(cfg)
    raise UsageError(f"command: unknown command {command!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _make_parser()
    try:
        args = _fill_missing(parser.parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract here is 1
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command in ("verify", "identities") and args.q is None and args.k is None:
            args.q = 0.25  # the reference configuration
        cfg = load_config(args)
        extra = {}
        if args.command == "poly":
            extra = {"degree": args.degree, "x": args.x}
        elif args.command == "qlaguerre":
            extra = {"zs": args.z}
        elif args.command == "identities":
            flag_params = {
                name: getattr(args, name)
                for name in ("r", "w", "m", "a")
                if getattr(args, name, None) is not None
            }
            if getattr(args, "cs", None):
                flag_params["c"] = tuple(float(v) for v in args.cs.split(","))
            if getattr(args, "ss", None):
                flag_params["s"] = tuple(int(v) for v in args.ss.split(","))
            extra = {
                "identity_id": args.identity_id,
                "raw_params": args.params,
                "draws": args.draws,
                "flag_params": flag_params,
            }
        return run(args.command, cfg, **extra)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (JspecError, ArithmeticError) as exc:
        # a stray OverflowError or ZeroDivisionError is a numerical failure
        # too, never a usage error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
