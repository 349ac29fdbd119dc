"""Worker side of the benchmark: the only code here that imports jspec.

    python perfbench/worker.py serve [--trace-out FILE]
        Answer spectrum requests, one JSON line in, one JSON line out, until
        stdin closes.  With --trace-out, trace every request and write the
        spans to FILE at the end.
    python perfbench/worker.py verify --trace-out FILE
        Run ``jspec verify`` traced, in this fresh interpreter, and exit with
        its exit code.

``src`` of the checkout must be on PYTHONPATH; the worker refuses to run
against a jspec imported from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys


def _import_jspec():
    import jspec

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(jspec.__file__).startswith(src + os.sep):
        sys.exit(f"jspec was imported from {jspec.__file__}, not from {src}")
    return jspec


def _params(jspec, req: dict):
    if req["family"] == "geometric":
        seq = jspec.Geometric(req["q"])
    else:
        seq = jspec.PowerLaw(req["c"], req["p"])
    return jspec.JacobiParams(seq, req["k"])


def _finite(x: float):
    return x if math.isfinite(x) else None


def _solve(jspec, req: dict) -> dict:
    try:
        sd = jspec.point_spectrum(_params(jspec, req), req["count"])
    except Exception as exc:  # every failure is reported to the client, which counts it
        return {"id": req["id"], "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {
        "id": req["id"],
        "ok": True,
        "lambdas": [float(x) for x in sd.lambdas],
        "masses": [float(x) for x in sd.masses],
        "N_used": int(sd.N_used),
        "completeness_defect": _finite(float(sd.completeness_defect)),
    }


def serve(trace_out: str | None) -> None:
    jspec = _import_jspec()
    tracer = None
    if trace_out:
        import tracer as tracing

        tracer = tracing.install()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if tracer:
            tracer.begin(req["id"])
        reply = _solve(jspec, req)
        if tracer:
            tracer.end()
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(reply), flush=True)
    if tracer:
        tracer.dump(trace_out)


def verify(trace_out: str, request_id: int) -> int:
    _import_jspec()
    import tracer as tracing

    tracer = tracing.install()
    import jspec.cli

    tracer.begin(request_id)
    try:
        rc = jspec.cli.main(["verify"])
    finally:
        tracer.end()
        sys.stdout.flush()
        tracer.dump(trace_out)
    return rc


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("serve", "verify"))
    ap.add_argument("--trace-out")
    ap.add_argument("--request-id", type=int, default=0)
    args = ap.parse_args()
    if args.mode == "serve":
        serve(args.trace_out)
    else:
        if not args.trace_out:
            ap.error("verify needs --trace-out")
        sys.exit(verify(args.trace_out, args.request_id))


if __name__ == "__main__":
    main()
