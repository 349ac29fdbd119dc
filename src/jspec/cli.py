"""Command-line front end: config parsing, subcommand dispatch, reports.

Configuration comes from an optional JSON file (``--config``) mirroring
RunConfig, with command-line flags overriding file values.  Each subcommand
reads the run-configuration flags that ``_READS`` lists for it, before or
after its name; any other flag is a usage error.  Keys of a config file are
not checked, since one file may serve several commands.

``spectrum``, ``measure`` and ``poly`` need exactly one of ``--q`` (q-mode:
geometric weights, coupling sqrt(q)) or ``--k`` (general mode, power-law or
explicit weights); ``qlaguerre`` needs q-mode.  ``identities`` reads no
``--k``; for explicit identity parameters it takes q from ``--q``, else from
the config file, else 0.25, while drawn ones carry their own q.  ``verify``
runs a fixed suite and reads no flags.

Exit codes: 0 success, 1 usage error, 2 numerical failure, and 141 (the
status of a process ended by SIGPIPE) when the reader of stdout closes it.
Floating-point output is printed with 17 significant digits, so every
emitted value parses back bit-for-bit.

The ``residual_F`` column of ``spectrum`` is scaled: |F(lambda)| divided by
the abs-sum sum_m c_m |lambda|^m of the same series evaluation, so it reads
as a relative residual (the bare |F| at the twelfth root of q = 1/4 is
about 1e47, against an abs-sum of about 1e80).  It is read at the printed
``lambda``: an unrefined row's is F at its section value.  Where
``point_spectrum`` proves that no series value can certify and builds no
series (power-law weights, typically), the column reads ``nan``.  The
``lambda_err`` column bounds the distance from ``lambda`` to the operator's
eigenvalue (the bracket of ``point_spectrum``), and is at most ``--tol``
times ``lambda``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import JspecError, ParameterOutOfRange
from .identities import IDENTITY_IDS, check as identity_check, draw_params
from .polycore import orthopoly_eval
from .qlaguerre import QParams, char_closed_forms, weyl_num_closed_forms
from .sequences import Explicit, Geometric, JacobiParams, PowerLaw, SequenceSpec
from .spectrum import point_spectrum

__all__ = ["RunConfig", "UsageError", "load_config", "emit_report", "main"]


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
    if isinstance(x, (float, np.floating)):
        x = float(x)
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
            lines.append(",".join(_fmt_float(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    raise UsageError(f"format: unknown output format {fmt!r}")


def _number(name: str, value, convert=float):
    """``convert(value)``, a usage error naming ``name`` when it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{name}: must be a number, got {value!r}") from None


def _build_seq(node: dict) -> SequenceSpec:
    kind = node.get("kind")
    if kind == "geometric":
        return Geometric(_number("q", node.get("q")))
    if kind == "powerlaw":
        return PowerLaw(_number("c", node.get("c")), _number("p", node.get("p")))
    if kind == "explicit":
        return Explicit(tuple(_number("values", v) for v in node["values"]),
                        _build_seq(node.get("tail") or {}))
    raise UsageError(f"sequence: unknown kind {kind!r}")


def _read_config_file(args: argparse.Namespace) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config: cannot read {args.config}: {exc}") from exc


def _q_mode(q) -> tuple[SequenceSpec, float, float]:
    """(sequence, k, q) of q-mode: geometric weights, coupling sqrt(q)."""
    q = _number("q", q)
    if not (0.0 < q < 1.0):
        raise UsageError(f"q: must lie strictly in (0,1), got {q}")
    return Geometric(q), math.sqrt(q), q


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the optional JSON config file with flag overrides."""
    file_cfg = _read_config_file(args)
    q = args.q if args.q is not None else file_cfg.get("q")
    k = args.k if args.k is not None else file_cfg.get("k")
    if q is not None and k is not None:
        raise UsageError("k/q: provide exactly one of --k (general) or --q (q-mode)")
    seq_kind = args.seq if args.seq is not None else (file_cfg.get("sequence") or {}).get("kind")
    # only the power law reads --c/--p: without --seq they select it over the file's kind
    shape = [f"--{name}" for name in ("c", "p") if getattr(args, name) is not None]
    if shape and args.seq is None and q is None:
        seq_kind = "powerlaw"

    if q is not None:
        seq, k_val, q_mode = _q_mode(q)
        if seq_kind not in (None, "geometric"):
            raise UsageError("seq: --q selects the geometric sequence; do not combine with --seq " + seq_kind)
        if shape:
            raise UsageError(f"{shape[0][2:]}: --q selects the geometric sequence; do not combine "
                             f"with {', '.join(shape)}")
    elif k is not None:
        k_val = _number("k", k)
        if not (0.0 < k_val < 1.0):
            raise UsageError(f"k: must lie strictly in (0,1), got {k_val}")
        q_mode = None
        if seq_kind == "powerlaw":
            c = args.c if args.c is not None else (file_cfg.get("sequence") or {}).get("c")
            p = args.p if args.p is not None else (file_cfg.get("sequence") or {}).get("p")
            if c is None or p is None:
                raise UsageError("seq: powerlaw needs --c and --p")
            seq = PowerLaw(_number("c", c), _number("p", p))
        elif seq_kind == "explicit":
            if shape:
                raise UsageError(f"{shape[0][2:]}: the explicit sequence comes from the config file; "
                                 f"do not combine --seq explicit with {', '.join(shape)}")
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
    return _run_config(args, file_cfg, seq, k_val, q_mode)


def _run_config(args, file_cfg: dict, seq: SequenceSpec, k_val: float,
                q_mode: Optional[float]) -> RunConfig:
    """The RunConfig of a resolved mode, its other fields from flags over the file."""
    tols = file_cfg.get("tolerances") or {}
    out_cfg = file_cfg.get("output") or {}
    cfg = RunConfig(
        seq=seq,
        k=k_val,
        q_mode=q_mode,
        count=_number("count", args.count if args.count is not None
                      else file_cfg.get("count", 8), int),
        eig_tol=_number("eig_tol", args.tol if args.tol is not None
                        else tols.get("eig_tol", 1e-10)),
        eval_tol=_number("eval_tol", tols.get("eval_tol", 1e-10)),
        identity_tol=_number("identity_tol", args.identity_tol if args.identity_tol is not None
                             else tols.get("identity_tol", 1e-12)),
        out=args.out if args.out is not None else out_cfg.get("path"),
        fmt=args.format if args.format is not None else out_cfg.get("format", "json"),
        seed=_number("seed", args.seed if args.seed is not None
                     else file_cfg.get("seed", 20240817), int),
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


SPECTRUM_COLUMNS = ["index", "lambda", "lambda_err", "mass", "residual_F", "residual_matrix", "refined"]


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    data = {"columns": SPECTRUM_COLUMNS, "rows": []}
    if cfg.count > 0:
        sd = point_spectrum(cfg.params(), cfg.count, tol=cfg.eig_tol)
        for j in range(sd.count):
            data["rows"].append({
                "index": j,
                "lambda": float(sd.lambdas[j]),
                "lambda_err": float(sd.lambda_err[j]),
                "mass": float(sd.masses[j]),
                "residual_F": float(sd.residual_F[j] / sd.residual_F_abs_sum[j]),
                "residual_matrix": float(sd.residual_matrix[j]),
                "refined": bool(sd.refined[j]),
            })
        data.update(N_used=sd.N_used, completeness_defect=sd.completeness_defect, gamma=sd.gamma)
    _write_output(emit_report(data, cfg.fmt), cfg)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    data = {"columns": ["index", "lambda", "mass"], "rows": []}
    if cfg.count > 0:
        sd = point_spectrum(cfg.params(), cfg.count, tol=cfg.eig_tol)
        data["rows"] = [
            {"index": j, "lambda": float(sd.lambdas[j]), "mass": float(sd.masses[j])}
            for j in range(sd.count)
        ]
        data.update(unit_mass_defect=abs(1.0 - float(np.sum(sd.masses))),
                    completeness_defect=sd.completeness_defect)
    _write_output(emit_report(data, cfg.fmt), cfg)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    degree, x = args.degree, args.x
    if degree < 0:
        raise UsageError(f"degree: must be non-negative, got {degree}")
    if not math.isfinite(x):
        raise UsageError(f"x: must be finite, got {x}")
    cfg = load_config(args)
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
    _write_output(emit_report(data, cfg.fmt), cfg)
    return 0


def _cmd_qlaguerre(args: argparse.Namespace) -> int:
    zs = args.z or [0.5, 2.0, 5.0]
    bad = [z for z in zs if not 0.0 <= z < math.inf]
    if bad:
        raise UsageError(f"z: the Bessel closed form needs a finite z >= 0, got {bad[0]}")
    cfg = load_config(args)
    if cfg.q_mode is None:
        raise UsageError("q: the qlaguerre command needs q-mode (--q)")
    qp = QParams(cfg.q_mode)
    rows = []
    worst = 0.0
    points = np.array(zs)
    routes = [r.tolist() for r in char_closed_forms(points, qp) + weyl_num_closed_forms(points, qp)]
    for z, cb, cph, cs, wc, ws in zip(zs, *routes):
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
    _write_output(emit_report(data, cfg.fmt), cfg)
    if worst > cfg.eval_tol:
        raise JspecError(f"closed-form cross-checks disagree at {worst:.3e} > {cfg.eval_tol:g}")
    return 0


def _cmd_identities(args: argparse.Namespace) -> int:
    flags = {"r": "r", "w": "w", "m": "m", "a": "a", "c": "cs", "s": "ss"}  # parameter -> flag
    params = {name: getattr(args, flag) for name, flag in flags.items()
              if getattr(args, flag) is not None}
    if args.identity_id is None and (params or args.params is not None):
        given = ["--" + flags[name] for name in params]
        given += ["--params"] if args.params is not None else []
        raise UsageError(f"id: {', '.join(given)} set the parameters of one identity; add --id")
    if args.params:
        try:
            raw = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise UsageError(f"params: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"params: must be a JSON object, got {args.params}")
        if "q" in raw and args.q is not None:
            raise UsageError("q: --params sets q and would override --q; set q in one place")
        params.update(raw)
    if params and args.draws is not None:
        raise UsageError("draws: explicit identity parameters are checked once and would "
                         "ignore --draws")
    if not params and args.q is not None:
        raise UsageError("q: drawn identity parameters carry their own q and would ignore --q; "
                         "pass --id and the identity's parameters to set q")
    draws = 5 if args.draws is None else args.draws
    if draws < 1:
        raise UsageError(f"draws: must be at least 1, got {draws}")
    file_cfg = _read_config_file(args)
    q = args.q if args.q is not None else file_cfg.get("q")
    cfg = _run_config(args, file_cfg, *_q_mode(0.25 if q is None else q))  # 0.25: the reference
    if params:
        jobs = [(args.identity_id, {"q": cfg.q_mode, **params})]
    else:
        rng = np.random.default_rng(cfg.seed)
        ids = [args.identity_id] if args.identity_id is not None else list(IDENTITY_IDS)
        jobs = [(iid, draw_params(iid, rng)) for iid in ids for _ in range(draws)]
    reports = [identity_check(iid, tol=cfg.identity_tol, **ps) for iid, ps in jobs]
    rows = [asdict(rep) for rep in reports]
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


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_all

    results = run_all()
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
    ("--identity-tol", dict(type=float)),
    ("--out", dict(help="output path (default stdout)")),
    ("--format", dict(choices=["json", "csv"])),
    ("--seed", dict(type=int)),
]


# The run-configuration flags each subcommand reads; main refuses any other.
_SPECTRAL_FLAGS = ("--config", "--seq", "--q", "--k", "--c", "--p", "--count", "--tol",
                   "--out", "--format")
_READS = {
    "spectrum": _SPECTRAL_FLAGS,
    "measure": _SPECTRAL_FLAGS,
    "poly": ("--config", "--seq", "--q", "--k", "--c", "--p", "--out", "--format"),
    "qlaguerre": ("--config", "--seq", "--q", "--out", "--format"),
    "identities": ("--config", "--q", "--identity-tol", "--seed", "--out", "--format"),
    "verify": (),
}


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _make_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand: the
    # main parser defaults them to None, and the subparsers suppress their
    # defaults so that a bare subcommand does not clobber earlier values
    shared = argparse.ArgumentParser(add_help=False)
    parser = argparse.ArgumentParser(
        prog="jspec",
        description="Spectral toolkit for Jacobi matrices with trace-class inverse",
    )
    for flag, kw in _GLOBAL_FLAGS:
        parser.add_argument(flag, **kw)
        shared.add_argument(flag, default=argparse.SUPPRESS, **kw)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        cmd = sub.add_parser(name, parents=[shared], help=help_text)
        cmd.set_defaults(handler=handler)
        return cmd

    command("spectrum", _cmd_spectrum, "eigenvalues, masses and residual diagnostics")
    command("measure", _cmd_measure, "discrete orthogonality measure")
    p_poly = command("poly", _cmd_poly, "orthonormal polynomial values and coefficients")
    p_poly.add_argument("--degree", type=int, default=8)
    p_poly.add_argument("--x", type=float, default=1.0)
    p_ql = command("qlaguerre", _cmd_qlaguerre, "closed-form cross checks (q-mode only)")
    p_ql.add_argument("--z", type=float, action="append",
                      help="evaluation point z >= 0 (repeatable; default 0.5, 2, 5)")
    p_id = command("identities", _cmd_identities, "q-series identity checks")
    p_id.add_argument("--id", dest="identity_id", choices=list(IDENTITY_IDS))
    p_id.add_argument("--params", help="JSON object of identity parameters")
    p_id.add_argument("--r", type=int, help="identity parameter r")
    p_id.add_argument("--w", type=float, help="identity parameter w")
    p_id.add_argument("--m", type=int, help="identity parameter m")
    p_id.add_argument("--a", type=float, help="identity parameter a")
    p_id.add_argument("--cs", type=_float_list, help="comma-separated chain exponents c_0,..,c_m")
    p_id.add_argument("--ss", type=_int_list, help="comma-separated integer exponents s_1,..,s_m")
    p_id.add_argument("--draws", type=int, help="random parameter sets per identity (default 5)")
    command("verify", _cmd_verify, "run the full verification suite (takes no flags)")
    return parser


_EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract here is 1
        return 0 if exc.code in (0, None) else 1
    try:
        reads = _READS[args.command]
        stray = [flag for flag, _ in _GLOBAL_FLAGS
                 if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None]
        if stray:
            raise UsageError(f"{stray[0][2:]}: {args.command} would ignore {', '.join(stray)} "
                             f"(it reads {', '.join(reads) or 'no flags'})")
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except (UsageError, ParameterOutOfRange) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (JspecError, ArithmeticError) as exc:
        # a stray OverflowError or ZeroDivisionError is a numerical failure
        # too, never a usage error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``jspec verify | head -1``): stop quietly,
        # with the status of a process ended by SIGPIPE, and send the rest of
        # the output, including the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
