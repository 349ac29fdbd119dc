"""Per-layer tracing of jspec from outside its source.

``install`` runs inside a worker process only.  It replaces every public
function of every jspec module, in every ``jspec.*`` namespace that binds it,
with a wrapper that records a span (name, start, end, parent span, request
id, attributes).  Names imported with ``from .x import f`` are rebound too,
because the rebinding looks for the function object itself, not its name.
The double-double ``dd_*`` primitives get a counting-only wrapper: they run
millions of times per request, and a span for each would cost more memory
and time than the work it measures.  The error-free transforms ``two_sum``,
``quick_two_sum`` and ``two_prod`` are the bodies of those primitives and are
left unwrapped.

Spans stay in memory and are written out once, by ``dump``, when the worker
ends.  ``per_layer`` turns the written spans back into the per-layer metrics;
the client calls it and never imports jspec.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MODULES = (
    "sequences", "doubledouble", "polycore", "entire", "spectrum",
    "qlaguerre", "identities", "verification", "cli",
)
_UNWRAPPED = {"doubledouble.two_sum", "doubledouble.quick_two_sum", "doubledouble.two_prod"}

# attributes recorded on a span from the call's bound arguments and its result


def _dp_cells(a, out):
    if a.get("kind", "char") != "char":
        return {"cells": 0}  # the second-kind route delegates to second_kind_family
    return {"cells": a["M"] * a["J"]}


_ATTRS = {
    "spectrum.section_eigenvalues": lambda a, out: {"rows": a["T"].size},
    "spectrum.point_spectrum": lambda a, out: {
        "roots": len(out.lambdas),
        "refined": int(out.refined.sum()),
        "series": out.mass_route.count("series"),
    },
    "entire.series_coeffs": _dp_cells,
    "entire.char_chain_prefixes": lambda a, out: {"cells": a["M"] * a["J"]},
    "entire.second_kind_family": lambda a, out: {"cells": a["M"] * a["J"] * (a["n_max"] + 1)},
    "identities.check": lambda a, out: {"depth": out.depth},
    "verification.run_criterion": lambda a, out: {"cid": a["cid"]},
}


class Tracer:
    """Span and counter store of one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (sid, parent, name, t0, t1, req, attrs)
        self.dd_ops: dict = {}
        self._stack = [0]
        self._next = 1
        self._req = None
        self._ops = 0

    def begin(self, req) -> None:
        self._req = req
        self._ops = 0

    def end(self) -> None:
        self.dd_ops[self._req] = self.dd_ops.get(self._req, 0) + self._ops
        self._req = None

    def span(self, name: str, fn):
        attr_fn = _ATTRS.get(name)
        sig = inspect.signature(fn) if attr_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, t0, t1, self._req, {"error": type(exc).__name__}))
                raise
            t1 = time.perf_counter()
            self._stack.pop()
            attrs = None
            if attr_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = attr_fn(bound.arguments, out)
            self.spans.append((sid, parent, name, t0, t1, self._req, attrs))
            return out

        return wrapper

    def counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self._ops += 1
            return fn(*args)

        return wrapper

    def dump(self, path: str) -> None:
        doc = {
            "spans": self.spans,
            "dd_ops": [[req, n] for req, n in self.dd_ops.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install() -> Tracer:
    """Import every jspec module and interpose on its public functions."""
    for mod in MODULES:
        importlib.import_module("jspec." + mod)
    tracer = Tracer()
    replacements = {}
    for mod in MODULES:
        module = sys.modules["jspec." + mod]
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            qual = f"{mod}.{name}"
            if qual in _UNWRAPPED:
                continue
            if mod == "doubledouble" and name.startswith("dd_"):
                replacements[id(obj)] = (obj, tracer.counter(obj))
            else:
                replacements[id(obj)] = (obj, tracer.span(qual, obj))
    for modname, module in list(sys.modules.items()):
        if modname != "jspec" and not modname.startswith("jspec."):
            continue
        for name, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    return tracer


# --- client side: spans -> per-layer metrics -------------------------------

# metric -> span names whose self time it sums ("mod.*" means every span of mod)
SELF_S = {
    "spectrum.section_eigenvalues.self_s": ("spectrum.section_eigenvalues",),
    "spectrum.point_spectrum.self_s": ("spectrum.point_spectrum",),
    "entire.series_coeffs.self_s": ("entire.series_coeffs",),
    "entire.second_kind_family.self_s": ("entire.second_kind_family",),
    "entire.char_chain_prefixes.self_s": ("entire.char_chain_prefixes",),
    "entire.eval_series.self_s": ("entire.eval_series", "entire.eval_series_deriv"),
    "polycore.orthopoly_eval.self_s": ("polycore.orthopoly_eval",),
    "polycore.trace_inverse.self_s": ("polycore.trace_inverse", "polycore.trace_inverse_routes"),
    "polycore.orthopoly_values_dd.self_s": ("polycore.orthopoly_values_dd",),
    "sequences.tail_sum_reciprocal.self_s": ("sequences.tail_sum_reciprocal",),
    "doubledouble.compensated_sum.self_s": ("doubledouble.compensated_sum",),
    "qlaguerre.self_s": ("qlaguerre.*",),
    "identities.check.self_s": ("identities.check",),
    "cli.main.self_s": ("cli.main",),
}
# metric -> span names whose calls it counts
CALLS = {
    "spectrum.section_eigenvalues.calls": ("spectrum.section_eigenvalues",),
    "entire.eval_series.calls": ("entire.eval_series", "entire.eval_series_deriv"),
    "entire.choose_truncation.calls": ("entire.choose_truncation",),
    "polycore.orthopoly_eval.calls": ("polycore.orthopoly_eval",),
    "sequences.entry_arrays.calls": ("sequences.entry_arrays",),
    "identities.check.calls": ("identities.check",),
}
# metric -> (span name, attribute) summed over the request
ATTR_SUMS = {
    "spectrum.section_rows": ("spectrum.section_eigenvalues", "rows"),
    "entire.dp_cells": (("entire.series_coeffs", "entire.char_chain_prefixes", "entire.second_kind_family"), "cells"),
    "identities.depth": ("identities.check", "depth"),
}
CRITERIA = range(1, 16)

# every per-layer metric, with its unit and direction, in report order
PER_LAYER = (
    [(m, "s", "lower") for m in SELF_S]
    + [(m, "count/req", "lower") for m in CALLS]
    + [(m, "count/req", "lower") for m in ATTR_SUMS]
    + [
        ("entire.choose_truncation.failures", "count/req", "lower"),
        ("doubledouble.ops", "count/req", "lower"),
        ("spectrum.refined_share", "ratio", "higher"),
        ("spectrum.series_mass_share", "ratio", "higher"),
    ]
    + [(f"verification.criterion_s.{c}", "s", "lower") for c in CRITERIA]
    + [("trace.overhead", "ratio", "lower")]
)
COUNT_METRICS = [m for m, unit, _ in PER_LAYER if unit == "count/req" or m.endswith("_share")]


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".*") and name.startswith(p[:-1])) for p in patterns)


def request_summaries(doc: dict) -> dict:
    """Per request: self seconds, calls, attribute sums, criterion seconds."""
    child = {}
    for sid, parent, name, t0, t1, req, attrs in doc["spans"]:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out: dict = {}
    for sid, parent, name, t0, t1, req, attrs in doc["spans"]:
        r = out.setdefault(req, {"self": {}, "calls": {}, "spans": []})
        r["self"][name] = r["self"].get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
        r["calls"][name] = r["calls"].get(name, 0) + 1
        r["spans"].append((name, t1 - t0, attrs or {}))
    for req, n in doc["dd_ops"]:
        out.setdefault(req, {"self": {}, "calls": {}, "spans": []})["dd_ops"] = n
    return out


def _request_counts(r: dict) -> dict:
    vals = {m: sum(n for name, n in r["calls"].items() if _matches(name, pats)) for m, pats in CALLS.items()}
    for m, (names, key) in ATTR_SUMS.items():
        names = (names,) if isinstance(names, str) else names
        vals[m] = sum(a.get(key, 0) for name, _, a in r["spans"] if name in names)
    vals["entire.choose_truncation.failures"] = sum(
        1 for name, _, a in r["spans"] if name == "entire.choose_truncation" and "error" in a
    )
    vals["doubledouble.ops"] = r.get("dd_ops", 0)
    return vals


def per_layer(reqs: dict, factors: dict, prefix: list, overhead: float) -> dict:
    """Per-layer metrics from the request summaries of one run.

    ``factors`` maps each traced request to its calibration factor; times
    are the median over those requests of the calibrated per-request value.
    Counts are per-request means over ``prefix``, a fixed list of request
    ids set by the workload, so two traced runs of one seed repeat them
    exactly whatever their length.
    """
    empty = {"self": {}, "calls": {}, "spans": []}
    timed = [(reqs.get(req, empty), f) for req, f in factors.items()]
    metrics = {}
    for m, pats in SELF_S.items():
        metrics[m] = statistics.median(
            f * sum(s for name, s in r["self"].items() if _matches(name, pats)) for r, f in timed
        )
    for c in CRITERIA:
        metrics[f"verification.criterion_s.{c}"] = statistics.median(
            f * sum(d for name, d, a in r["spans"] if name == "verification.run_criterion" and a.get("cid") == c)
            for r, f in timed
        )
    counted = [_request_counts(reqs.get(req, empty)) for req in prefix]
    for m in counted[0]:
        metrics[m] = sum(v[m] for v in counted) / len(prefix)
    roots = refined = series = 0
    for req in prefix:
        for name, _, a in reqs.get(req, empty)["spans"]:
            if name == "spectrum.point_spectrum" and "roots" in a:
                roots += a["roots"]
                refined += a["refined"]
                series += a["series"]
    metrics["spectrum.refined_share"] = refined / roots if roots else 0.0
    metrics["spectrum.series_mass_share"] = series / roots if roots else 0.0
    metrics["trace.overhead"] = overhead
    return metrics
