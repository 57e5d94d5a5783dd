"""Output checks for every benchmark operation, and the O-step MAC check.

An operation passes when every trained run's report is finite, its R/O step
counts follow the skipping schedule, the means it produced minus those it
consumed equal the means still buffered, and its final eval score and
expert parameter variance match ``reference.json`` within the tolerance
recorded there.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import astuple
from pathlib import Path

from spans import patch
from workloads import step_schedule

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def non_finite(obj, path: str = "") -> list[str]:
    """Paths of every float in a nested report that is NaN or infinite."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path or "."]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in non_finite(v, f"{path}[{i}]")]
    return []


def run_key(cfg: dict, seed: int) -> tuple:
    return cfg["optimizer"]["kind"], bool(cfg["omoe"]["enabled"]), seed


class BufferedMeans:
    """Counts the means each ``train_single`` call left buffered in its OMoE state."""

    def __init__(self):
        self.left: dict[tuple, int] = {}

    def install(self, stack: contextlib.ExitStack) -> None:
        from omoe_lab import harness
        patch(stack, harness, "train_single", self._wrap)

    def _wrap(self, train_single):
        def capturing(cfg, seed):
            result = train_single(cfg, seed)
            state = result.state
            self.left[run_key(cfg, seed)] = (
                sum(len(b) for b in state.buffers.values()) if state is not None else 0)
            return result
        return capturing


def check_run(label: str, cfg: dict, report: dict, left: dict,
              reference: dict, tolerance: dict) -> list[str]:
    """Problems found in one trained run's report; empty when it is correct."""
    problems = [f"{label}: non-finite value at {p}" for p in non_finite(report)]
    _samples, expected = step_schedule(cfg)
    for rec in report["per_seed"]:
        seed = rec["seed"]
        where = f"{label} seed {seed}"
        if rec["step_counts"] != expected:
            problems.append(f"{where}: step counts {rec['step_counts']} != schedule {expected}")
        buffered = left.get(run_key(cfg, seed))
        if rec["means_produced"] - rec["means_consumed"] != buffered:
            problems.append(f"{where}: means produced {rec['means_produced']} - consumed "
                            f"{rec['means_consumed']} != buffered {buffered}")
        ref = reference.get(label, {}).get(str(seed))
        if ref is None:
            problems.append(f"{where}: no reference result")
            continue
        ref_score, ref_var = ref
        if not abs(rec["final_eval_score"] - ref_score) <= tolerance["eval_score_abs"]:
            problems.append(f"{where}: eval score {rec['final_eval_score']} vs "
                            f"reference {ref_score}")
        if not (abs(rec["final_param_variance"] - ref_var)
                <= tolerance["param_variance_rel"] * abs(ref_var)):
            problems.append(f"{where}: param variance {rec['final_param_variance']} vs "
                            f"reference {ref_var}")
    return problems


class MacCheck:
    """Compares each O step's instrumented MACs with ``predict_o_step_macs``.

    The counter is attached by wrapping ``harness.new_omoe_state``. Around each
    ``o_step`` the wrapper only records the buffered-mean counts and the
    counter before and after; ``take`` makes the prediction and the comparison
    once the operation is over.
    """

    def __init__(self):
        self.steps = 0
        self._records: list[tuple] = []

    def install(self, stack: contextlib.ExitStack) -> None:
        from omoe_lab import harness, optim
        patch(stack, harness, "new_omoe_state", self._attach)
        patch(stack, optim, "o_step", self._recording)

    def take(self) -> dict:
        """MAC totals and mismatches of the O steps since the last call."""
        from omoe_lab import predict_o_step_macs
        totals, mismatches = [0, 0, 0], []
        for d, h, M, counts, before, after in self._records:
            delta = tuple(a - b for a, b in zip(after, before))
            predicted = astuple(predict_o_step_macs(d, h, M, counts))
            if delta != predicted:
                mismatches.append(f"O step {self.steps}: instrumented {delta} != "
                                  f"predicted {predicted}")
            totals = [t + x for t, x in zip(totals, delta)]
            self.steps += 1
        self._records.clear()
        rls, average, project = totals
        return {"rls": rls, "average": average, "project": project,
                "mismatches": mismatches}

    @staticmethod
    def _attach(new_omoe_state):
        from omoe_lab import MacCounter

        def attaching(*args, **kwargs):
            state = new_omoe_state(*args, **kwargs)
            state.mac_counter = MacCounter()
            return state
        return attaching

    def _recording(self, o_step):
        records = self._records

        def recording(state, model, grads):
            mac = state.mac_counter
            counts = {key: len(entries) for key, entries in state.buffers.items()}
            before = (mac.rls, mac.average, mac.project)
            outcome = o_step(state, model, grads)
            records.append((model.dims.d, model.dims.h, state.M, counts, before,
                            (mac.rls, mac.average, mac.project)))
            return outcome
        return recording


def same_numbers(untraced: list, traced: list) -> bool:
    """True when two operations' per-seed eval scores, parameter variances and
    loss curves are exactly equal."""
    def numbers(runs):
        return [(label, rec["seed"], rec["final_eval_score"], rec["final_param_variance"],
                 rec["loss_curve"]) for label, _cfg, report in runs for rec in report["per_seed"]]
    return numbers(untraced) == numbers(traced)
