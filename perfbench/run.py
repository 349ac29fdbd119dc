#!/usr/bin/env python3
"""Closed-loop benchmark of jspec with one client.

    python3 perfbench/run.py --workload spectrum-q4 --seed 1 --seconds 30 --trace 0

This client never imports jspec.  It sends seeded requests strictly one at a
time, either to one long-lived worker process (the spectrum workloads) or as
one fresh ``python -m jspec.cli verify`` per request, and it times the
calibration kernel of ``calib.py`` before, during and after every request,
on the one CPU that it and its children are pinned to.  Latency, throughput
and set-up time are reported at the reference host speed; the raw seconds
and the kernel time are printed alongside as diagnostics.  Every output is
checked after the timed loop, and a failed or wrong request counts against
``failed``.  A known defect that the timed stream leaves out is probed once
after the timed loop and reported beside the metrics, ungated.

With ``--trace 1`` every request runs twice, untraced and then traced in a
second worker, and the run reports the per-layer metrics of ``tracer.py``
plus ``trace.overhead``.  The last line of standard output is the result:
one JSON object with the keys correct, attempted, failed and metrics.
Per-run records and the spans of traced runs are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11
# start of a bare interpreter, in seconds, on the reference host of calib.C_REF
BARE_START_REF = 0.045
REQUEST_TIMEOUT_S = 60.0

# the gated end-to-end metrics of BENCHMARK.json, with their units
E2E_UNITS = {"latency_s.p50": "s", "throughput_rps": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def pin_cpu():
    """Pin this process, and so every process it starts, to one CPU.

    The calibration kernel only tracks the speed of the CPU it runs on, so it
    must share that CPU with the request it calibrates.  Returns the CPU, or
    None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(cpu, cal_times: list) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **versions,
        "cpu": model,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "c_ref_s": calib.C_REF,
        "calibration_s": statistics.median(cal_times),
    }


def _reap(proc: subprocess.Popen) -> int:
    """Wait for proc; its peak RSS in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def run_child(cmd: list, env: dict) -> tuple[int, str, int]:
    """Run cmd to completion; (exit code, merged output, peak RSS in KiB)."""
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=ROOT,
    )
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        rss = _reap(proc)
    return proc.returncode, out, rss


def start_time(env: dict, code: str) -> float:
    """Seconds from starting a fresh interpreter until ``code`` has run in it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code + "; import sys; sys.stdout.write('ok\\n'); sys.stdout.flush()"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _reap(proc)
    if line.strip() != "ok" or proc.returncode != 0:
        raise BenchError(f"{code!r} failed in a fresh interpreter (exit {proc.returncode})")
    return elapsed


def setup_probes(env: dict) -> list:
    """(import, bare) seconds of each set-up probe.

    A probe times ``import jspec`` in a fresh interpreter.  Set-up is mostly
    process start and module loading, which the host slows less than it
    slows the compute kernel of ``calib``, so it is calibrated instead by
    the start of a bare interpreter, timed right before and after it.
    """
    probes = []
    bare = start_time(env, "pass")
    for i in range(SETUP_PROBES + 1):
        t = start_time(env, "import jspec")
        bare_after = start_time(env, "pass")
        if i:  # the first probe compiles the bytecode, which users pay once
            probes.append((t, 0.5 * (bare + bare_after)))
        bare = bare_after
    return probes


class Worker:
    """One long-lived worker process answering spectrum requests."""

    def __init__(self, env: dict, trace_out: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "serve"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        if not self._read().get("ready"):
            raise BenchError("worker did not start")

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REQUEST_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker exited or timed out")
        return json.loads(line)

    def call(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def verify_call(env: dict, trace_dir: Path | None):
    """Executor of one verify request, in a fresh interpreter."""

    def execute(req: dict) -> dict:
        cmd = [sys.executable, "-m", "jspec.cli", "verify"]
        reply = {"id": req["id"]}
        if trace_dir is not None:
            reply["spans"] = str(trace_dir / f"spans-verify-{req['id']}.json")
            cmd = [sys.executable, str(HERE / "worker.py"), "verify", "--trace-out", reply["spans"],
                   "--request-id", str(req["id"])]
        reply["returncode"], reply["stdout"], reply["maxrss_kb"] = run_child(cmd, env)
        return reply

    return execute


def judge(workload: str, req: dict, reply: dict) -> dict:
    """Outcome of one request: ok, or the error or wrong output that failed it."""
    if workload == "verify":
        wrong = workloads.check_verify(reply["returncode"], reply["stdout"])
        return {"ok": wrong is None, "error": None, "wrong": wrong}
    if not reply["ok"]:
        return {"ok": False, "error": reply["error"], "wrong": None}
    wrong = workloads.check_spectrum(req, reply)
    return {"ok": wrong is None, "error": None, "wrong": wrong}


def closed_loop(sides: dict, gen, seconds: float, min_requests: int, clock: calib.Clock) -> list:
    """Send requests one at a time until ``seconds`` have passed.

    ``sides`` maps a side name to its executor; each request runs once per
    side, one after the other.
    """
    records = []
    start = time.perf_counter()
    n = 0
    while time.perf_counter() - start < seconds or n < min_requests:
        req = next(gen)
        for side, execute in sides.items():
            raw, cal, reply = clock.measure(lambda: execute(req))
            records.append({"req": req, "side": side, "raw_s": raw, "cal_s": cal, "reply": reply})
        n += 1
    return records


def correlation(xs: list, ys: list):
    """Pearson correlation, or None where it is undefined (too few or constant values)."""
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None


def calibrated(raw_s: float, cal_s: float) -> float:
    return raw_s * calib.C_REF / cal_s


def end_to_end(records: list, setup: list) -> tuple[dict, dict]:
    """The gated end-to-end metrics of one side, and the lines printed beside them."""
    done = [r for r in records if r["ok"]]
    if not done:
        raise BenchError("no request completed")
    lat = sorted(calibrated(r["raw_s"], r["cal_s"]) for r in done)
    busy = sum(calibrated(r["raw_s"], r["cal_s"]) for r in records)
    metrics = {
        "latency_s.p50": statistics.median(lat),
        "throughput_rps": len(done) / busy,
        "peak_rss_mb": max(r["reply"]["maxrss_kb"] for r in records) / 1024.0,
    }
    if setup:
        metrics["setup_s"] = statistics.median(t * BARE_START_REF / bare for t, bare in setup)
    info = {"error_rate": (len(records) - len(done)) / len(records)}
    # the highest percentile with at least ten completed requests beyond it,
    # reported only where that percentile lies above the median
    if len(lat) >= 21:
        idx = len(lat) - 11
        info["latency_s.tail"] = lat[idx]
        info["latency_s.tail.percentile"] = 100.0 * (idx + 1) / len(lat)
    info.update({
        "completed": len(done),
        "latency_s.p50.raw": statistics.median(r["raw_s"] for r in done),
        "calibration_s.mean": statistics.fmean(r["cal_s"] for r in records),
        "corr_raw_latency_vs_calibration": correlation([r["raw_s"] for r in done], [r["cal_s"] for r in done]),
    })
    if setup:
        info["setup_s.raw"] = statistics.median(t for t, _ in setup)
        info["bare_start_s"] = statistics.median(bare for _, bare in setup)
    defects = [r["reply"].get("completeness_defect") for r in done]
    defects = [d for d in defects if d is not None]
    if defects:
        info["completeness_defect.max"] = max(defects)
    info["failure_kinds"] = sorted({r["error"] or r["wrong"] for r in records if not r["ok"]})[:5]
    return metrics, info


# units of the lines printed beside the gated metrics
INFO_UNITS = {
    "error_rate": "ratio", "latency_s.tail": "s", "latency_s.tail.percentile": "%", "completed": "count",
    "latency_s.p50.raw": "s", "calibration_s.mean": "s", "setup_s.raw": "s", "bare_start_s": "s",
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = pin_cpu()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    setup = [] if trace else setup_probes(env)
    clock = calib.Clock()

    workers = []
    span_path = OUT / f"spans-{tag}.json"
    try:
        if workload == "verify":
            sides = {"plain": verify_call(env, None)}
            if trace:
                sides["traced"] = verify_call(env, OUT)
        else:
            workers.append(Worker(env))
            sides = {"plain": workers[0].call}
            if trace:
                workers.append(Worker(env, trace_out=span_path))
                sides["traced"] = workers[1].call
        prefix = workloads.TRACE_PREFIX[workload] if trace else 1
        records = closed_loop(sides, workloads.requests(workload, seed), seconds, prefix, clock)
        probe = workloads.KNOWN_DEFECT_PROBES.get(workload)
        if probe is not None:
            probe_outcome = judge(workload, probe, workers[0].call(probe))
    finally:
        for w in workers:
            w.close()
    if trace:
        if workload == "verify":
            paths = [Path(r["reply"]["spans"]) for r in records if "spans" in r["reply"]]
        else:
            paths = [span_path]
        docs = [json.loads(p.read_text()) for p in paths if p.exists()]
        for p in paths:
            p.unlink(missing_ok=True)

    for r in records:
        r.update(judge(workload, r["req"], r["reply"]))
    if trace and workload != "verify":
        # the wrappers must not change a single output bit
        plain = {r["req"]["id"]: r["reply"] for r in records if r["side"] == "plain"}
        for r in records:
            if r["side"] == "traced" and r["ok"]:
                if dict(r["reply"], maxrss_kb=None) != dict(plain[r["req"]["id"]], maxrss_kb=None):
                    r.update(ok=False, wrong="traced output differs from the untraced output")

    by_side = {side: [r for r in records if r["side"] == side] for side in sides}
    metrics, info = end_to_end(by_side["plain"], setup)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(cpu, [r["cal_s"] for r in records]),
    }
    if trace:
        traced, _ = end_to_end(by_side["traced"], [])
        summaries = {}
        for doc in docs:
            summaries.update(tracer.request_summaries(doc))
        factors = {r["req"]["id"]: calib.C_REF / r["cal_s"] for r in by_side["traced"]}
        prefix_ids = [r["req"]["id"] for r in by_side["traced"][: workloads.TRACE_PREFIX[workload]]]
        overhead = traced["latency_s.p50"] / metrics["latency_s.p50"]
        result["metrics"] = tracer.per_layer(summaries, factors, prefix_ids, overhead)
        result["units"] = {m: unit for m, unit, _ in tracer.PER_LAYER}
        with open(OUT / f"trace-{tag}.json", "w") as fh:
            json.dump({"env": result["env"], "requests": _request_log(records), "spans": docs}, fh)
    else:
        result["metrics"] = metrics
        result["units"] = dict(E2E_UNITS)
    if probe is not None:
        # what the probe shows: the error it raises, or that it now passes
        info[f"known_defect.count{probe['count']}_q{probe['q']:g}"] = (
            probe_outcome["error"] or probe_outcome["wrong"] or "passes the output checks"
        )
    result["info"] = info
    result["requests"] = _request_log(records)
    result["correct"] = all(not r["wrong"] for r in records)
    result["attempted"] = len(by_side["plain"])
    result["failed"] = sum(1 for r in by_side["plain"] if not r["ok"])
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _request_log(records: list) -> list:
    return [
        {"id": r["req"]["id"], "side": r["side"], "raw_s": r["raw_s"], "cal_s": r["cal_s"],
         "ok": r["ok"], "error": r["error"], "wrong": r["wrong"],
         **{k: v for k, v in r["req"].items() if k != "id"}}
        for r in records
    ]


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "jspec" / "__init__.py").is_file():
        print(f"error: no jspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {_fmt(value):>14s} {result['units'][name]}")
    for name, value in result["info"].items():
        print(f"  {name:40s} {_fmt(value):>14s} {INFO_UNITS.get(name, '')}  (not gated)")
    print("env " + json.dumps(result["env"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": result["units"][m]} for m, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
