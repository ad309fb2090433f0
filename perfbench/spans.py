"""Spans around calls into the package's layers, recorded from outside.

``Tracer`` wraps every public function of the layer modules, plus
``cli.main``, under every name the package's modules look it up by (so
``bias.psi_exact`` and ``gfactor.lambda_xy`` are traced as well as
``smoothcount.psi_exact``).  Each call appends a span (name, start, end,
parent, run id, error, counts) to an in-memory list; nothing is written
until the run ends.  The wrappers are removed on exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

LAYERS = ("specfun", "primes", "zetazeros", "debruijn", "smoothcount", "gfactor", "bias")

# x/y above which the IBP route of Lambda truncates its sawtooth integral
# at this benchmark's first baseline; counted from the inputs.
CAP_RATIO = 1e6


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _lambda_counts(x, y, *_, **__) -> dict:
    return {"capped_calls": int(x / y > CAP_RATIO)}


def _density_counts(cfg, zeros, *_, **__) -> dict:
    m = int((zeros.gammas <= cfg.T).sum())
    return {"samples": cfg.n_samples, "cos_evals": cfg.n_samples * m}


# Counts taken from a call's inputs, by span name; each counter takes the
# traced function's arguments.
COUNTERS = {
    "debruijn.lambda_xy": _lambda_counts,
    "bias.li_density": _density_counts,
}
# Spans that also record the rise of the ru_maxrss high-water mark.
RSS_SPANS = {"smoothcount.psi_exact"}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, span_name: str, fn):
        counter = COUNTERS.get(span_name)
        track_rss = span_name in RSS_SPANS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            extra = counter(*args, **kwargs) if counter else {}
            rss0 = _maxrss_mb() if track_rss else 0.0
            spans.append(None)
            stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if track_rss:
                    extra["rss_step_mb"] = _maxrss_mb() - rss0
                spans[index] = (span_name, start, end, parent, self.run_id, error, extra)

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "smoothnum"]
        wrappers = {}
        for layer in LAYERS + ("cli",):
            module = sys.modules[f"smoothnum.{layer}"]
            for name, fn in _public_functions(module):
                if layer == "cli" and name != "main":
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run, error, extra in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "run": run, "error": error, **extra}
                handle.write(json.dumps(record) + "\n")


# Functions reported by their inclusive time.
FUNCTION_SPANS = (
    "smoothcount.psi_exact",
    "debruijn.lambda_xy",
    "debruijn.lambda_atom_sum",
    "debruijn.lambda_ibp",
    "gfactor.g_value",
    "specfun.saddle",
    "bias.model_rhs",
    "bias.li_density",
)


def layer_metrics(spans: list, passes: int, traced_s: float) -> dict:
    """Per-pass layer numbers from the spans of ``passes`` traced passes
    that took ``traced_s`` seconds in all.

    ``<module>.self_s`` is the time spent in that module's spans minus
    the time of their child spans.  ``<module>.<function>.s`` is the
    inclusive time of the function's outermost calls.  ``unattributed.s``
    is pass wall time outside every span.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("cli",)}
    for fn in FUNCTION_SPANS:
        out[f"{fn}.s"] = 0.0
    out.update({
        "smoothcount.psi_exact.calls": 0, "smoothcount.psi_exact.skipped": 0,
        "smoothcount.psi_exact.max_call_s": 0.0, "smoothcount.psi_exact.rss_step_mb": 0.0,
        "debruijn.lambda_xy.calls": 0, "debruijn.lambda_xy.capped_calls": 0,
        "bias.li_density.samples": 0, "bias.li_density.cos_evals": 0,
    })
    top = 0.0
    for i, (name, start, end, parent, _run, error, extra) in enumerate(spans):
        span_s = end - start
        if parent < 0:
            top += span_s
        out[name.split(".")[0] + ".self_s"] += span_s - child_time[i]
        if name not in FUNCTION_SPANS:
            continue
        ancestor, nested = parent, False
        while ancestor >= 0 and not nested:
            nested = spans[ancestor][0] == name
            ancestor = spans[ancestor][3]
        if not nested:
            out[f"{name}.s"] += span_s
        if name == "smoothcount.psi_exact":
            out["smoothcount.psi_exact.calls"] += 1
            out["smoothcount.psi_exact.skipped"] += error == "ResourceError"
            out["smoothcount.psi_exact.max_call_s"] = max(
                out["smoothcount.psi_exact.max_call_s"], span_s)
            out["smoothcount.psi_exact.rss_step_mb"] = max(
                out["smoothcount.psi_exact.rss_step_mb"], extra["rss_step_mb"])
        elif name == "debruijn.lambda_xy":
            out["debruijn.lambda_xy.calls"] += 1
            out["debruijn.lambda_xy.capped_calls"] += extra["capped_calls"]
        elif name == "bias.li_density":
            out["bias.li_density.samples"] += extra["samples"]
            out["bias.li_density.cos_evals"] += extra["cos_evals"]
    per_pass = {}
    for key, value in out.items():
        if key.endswith(("max_call_s", "rss_step_mb")):
            per_pass[key] = value
        else:
            per_pass[key] = value / passes
    per_pass["unattributed.s"] = (traced_s - top) / passes
    per_pass["trace.spans"] = len(spans) / passes
    return per_pass
