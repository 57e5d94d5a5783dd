"""Outside-in tracing: spans recorded by wrappers around omoe_lab's public functions.

Nothing here edits the package. ``Tracer.install`` replaces module and class
attributes with timing wrappers for the length of a ``with`` block and puts
the originals back afterwards. Each span records its name, start, end, the
span that was open when it started (its parent) and, for a call that returns a
step outcome, the step's kind (R or O) as its tag.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, TAG = range(5)
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples beyond it
_PERCENTILES = [99.9] + list(range(99, 49, -1))


def patch(stack: contextlib.ExitStack, owner, attr: str, make) -> None:
    """Set ``owner.attr = make(original)`` until ``stack`` closes."""
    original = vars(owner)[attr]
    setattr(owner, attr, make(original))
    stack.callback(setattr, owner, attr, original)


def trace_points():
    """(span name, import sites) for every wrapped function on the training path.

    A function imported by name into another module is wrapped at each site,
    because callers look it up in their own module.
    """
    from omoe_lab import grad, harness, metrics, model, optim, projector
    return [
        ("harness.run", [(harness, "run")]),
        ("harness.train_single", [(harness, "train_single")]),
        ("tasks.build_dataset", [(harness, "build_dataset")]),
        ("optim.step_dispatch", [(optim, "step_dispatch"), (harness, "step_dispatch")]),
        ("model.forward", [(model, "model_forward"), (grad, "model_forward"),
                           (optim, "model_forward"), (harness, "model_forward")]),
        ("model.fingerprint", [(model.MoEModel, "fingerprint")]),
        ("grad.backward", [(grad, "backward"), (optim, "backward"), (harness, "backward")]),
        ("optim.base_step", [(optim.BaseOptimizer, "step")]),
        ("optim.o_step", [(optim, "o_step")]),
        ("optim.average_projector", [(optim, "average_projector")]),
        ("projector.rls_update", [(projector.OrthoProjector, "rls_update")]),
        ("metrics.diversity_report", [(metrics, "diversity_report"),
                                      (harness, "diversity_report")]),
    ]


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index, tag]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1, None])
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][END] = clock()
            spans[idx][TAG] = getattr(out, "kind", None)
            return out
        return traced

    def install(self, stack: contextlib.ExitStack) -> None:
        for name, sites in trace_points():
            for owner, attr in sites:
                patch(stack, owner, attr, lambda fn, n=name: self.wrap(n, fn))

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - covered(children[i], span[START], span[END])
            for i, span in enumerate(spans)]


def tail_percentile(n: int):
    """Highest percentile with at least TAIL_BEYOND of ``n`` samples beyond it, else None."""
    for q in _PERCENTILES:
        if n * (100 - q) / 100 >= TAIL_BEYOND - 1e-9:
            return q
    return None


def latency_summary(samples_ms: list[float]) -> dict:
    """Median and tail of step latencies; the tail falls back to the median
    when there are too few samples to name one."""
    n = len(samples_ms)
    q = tail_percentile(n) or 50
    return {"ms_p50": float(np.percentile(samples_ms, 50)) if n else math.nan,
            "ms_tail": float(np.percentile(samples_ms, q)) if n else math.nan,
            "tail_pct": q, "samples": n}


def layer_totals(spans: list[list]):
    """(calls, inclusive seconds, self seconds) per span name."""
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        total[span[NAME]] += span[END] - span[START]
        own[span[NAME]] += self_s
    return calls, total, own


def operation_metrics(spans: list[list], wall_s: float) -> dict:
    """Per-layer numbers for one traced operation that took ``wall_s`` seconds."""
    calls, total, own = layer_totals(spans)
    below_harness = sum(s for name, s in own.items() if not name.startswith("harness."))
    return {
        "model.forward.calls": calls["model.forward"],
        "model.forward.self_s": own["model.forward"],
        "model.fingerprint.calls": calls["model.fingerprint"],
        "model.fingerprint.s": total["model.fingerprint"],
        "grad.backward.calls": calls["grad.backward"],
        "grad.backward.self_s": own["grad.backward"],
        "optim.base_step.calls": calls["optim.base_step"],
        "optim.base_step.s": total["optim.base_step"],
        "optim.o_step.calls": calls["optim.o_step"],
        "optim.o_step.s": total["optim.o_step"],
        "optim.o_step.self_s": own["optim.o_step"],
        "optim.average_projector.calls": calls["optim.average_projector"],
        "optim.average_projector.s": total["optim.average_projector"],
        "projector.rls_update.calls": calls["projector.rls_update"],
        "projector.rls_update.s": total["projector.rls_update"],
        "metrics.diversity_report.calls": calls["metrics.diversity_report"],
        "metrics.diversity_report.s": total["metrics.diversity_report"],
        "tasks.build_dataset.s": total["tasks.build_dataset"],
        "harness.train_single.calls": calls["harness.train_single"],
        "harness.seed_overlap": total["harness.train_single"] / wall_s,
        "harness.unattributed_s": wall_s - below_harness,
    }


def step_latencies_ms(spans: list[list]) -> dict:
    """Durations of ``optim.step_dispatch`` spans in ms, split by step kind."""
    out = {"R": [], "O": []}
    for span in spans:
        if span[NAME] == "optim.step_dispatch":
            out[span[TAG]].append((span[END] - span[START]) * 1e3)
    return out
