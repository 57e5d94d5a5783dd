"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import contextlib
import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from omoe_lab import harness  # noqa: E402

from checks import BufferedMeans, MacCheck, check_run, non_finite  # noqa: E402
from spans import (Tracer, covered, latency_summary, self_times,  # noqa: E402
                   tail_percentile)
from workloads import step_schedule  # noqa: E402

TOLERANCE = {"eval_score_abs": 0.01, "param_variance_rel": 0.01}


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_subtracts_nested_children():
    spans = [span("root", 0.0, 10.0),
             span("child_a", 1.0, 4.0, 0),
             span("grandchild", 2.0, 3.0, 1),
             span("child_b", 6.0, 7.5, 0)]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 6.0, 0),
             span("c", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered([(1.0, 5.0), (3.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)


def test_tracer_records_parents_and_restores_originals():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = vars(Owner)["outer"]
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        from spans import patch
        patch(stack, Owner, "outer", lambda fn: tracer.wrap("outer", fn))
        patch(stack, Owner, "inner", lambda fn: tracer.wrap("inner", fn))
        assert Owner().outer() == 42
    assert vars(Owner)["outer"] is original
    spans = tracer.take()
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans == []


@pytest.mark.parametrize("n, q", [(1000, 99), (999, 98), (10000, 99.9), (9999, 99),
                                  (150, 93), (20, 50), (19, None), (0, None)])
def test_tail_percentile_has_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        assert n * (100 - q) / 100 >= 10 - 1e-9


def test_latency_summary_falls_back_to_median_for_few_samples():
    out = latency_summary([1.0, 2.0, 3.0])
    assert out["tail_pct"] == 50 and out["ms_tail"] == out["ms_p50"] == 2.0
    out = latency_summary([float(i) for i in range(1000)])
    assert out["tail_pct"] == 99 and out["samples"] == 1000


def test_non_finite_finds_nested_values():
    report = {"a": [1.0, {"b": math.nan}], "c": math.inf, "d": "text", "e": True}
    assert non_finite(report) == [".a[1].b", ".c"]


@pytest.fixture(scope="module")
def small_run():
    """One short checked OMoE run and the reference built from it."""
    cfg = harness.make_config({"task": {"n_per_cluster": 40}, "train": {"epochs": 2},
                               "seeds": [0]})
    buffered = BufferedMeans()
    with contextlib.ExitStack() as stack:
        buffered.install(stack)
        report = harness.run(cfg)
    rec = report["per_seed"][0]
    reference = {"adamw/omoe": {"0": [rec["final_eval_score"], rec["final_param_variance"]]}}
    return cfg, report, dict(buffered.left), reference


def test_check_accepts_a_correct_run(small_run):
    cfg, report, left, reference = small_run
    assert check_run("adamw/omoe", cfg, report, left, reference, TOLERANCE) == []


def test_check_rejects_non_finite_report(small_run):
    cfg, report, left, reference = small_run
    bad = copy.deepcopy(report)
    bad["per_seed"][0]["loss_curve"][-1] = math.nan
    problems = check_run("adamw/omoe", cfg, bad, left, reference, TOLERANCE)
    assert any("non-finite" in p for p in problems)


def test_check_rejects_mis_scheduled_steps(small_run):
    cfg, report, left, reference = small_run
    bad = copy.deepcopy(report)
    counts = bad["per_seed"][0]["step_counts"]
    counts["R"], counts["O"] = counts["R"] + 1, counts["O"] - 1
    problems = check_run("adamw/omoe", cfg, bad, left, reference, TOLERANCE)
    assert any("schedule" in p for p in problems)


def test_check_rejects_unbalanced_means_and_reference_drift(small_run):
    cfg, report, left, reference = small_run
    bad = copy.deepcopy(report)
    bad["per_seed"][0]["means_consumed"] -= 1
    bad["per_seed"][0]["final_param_variance"] *= 1.5
    problems = check_run("adamw/omoe", cfg, bad, left, reference, TOLERANCE)
    assert any("buffered" in p for p in problems)
    assert any("param variance" in p for p in problems)


def test_step_schedule_matches_a_baseline_run():
    cfg = harness.make_config({"task": {"n_per_cluster": 40}, "train": {"epochs": 1},
                               "omoe": {"enabled": False}, "seeds": [0]})
    samples, expected = step_schedule(cfg)
    rec = harness.run(cfg)["per_seed"][0]
    assert rec["step_counts"] == expected and expected["O"] == 0
    assert samples == 160 - 32


def test_mac_check_counts_every_o_step_without_mismatch():
    cfg = harness.make_config({"task": {"n_per_cluster": 80}, "train": {"epochs": 2},
                               "seeds": [0]})
    macs = MacCheck()
    with contextlib.ExitStack() as stack:
        macs.install(stack)
        harness.run(cfg)
    taken = macs.take()
    assert macs.steps == step_schedule(cfg)[1]["O"] == 3
    assert taken["mismatches"] == [] and taken["rls"] > 0 and taken["project"] > 0


def test_mac_check_reports_a_miscounted_o_step():
    from omoe_lab import optim
    cfg = harness.make_config({"task": {"n_per_cluster": 80}, "train": {"epochs": 2},
                               "seeds": [0]})

    def miscounting(o_step):
        def step(state, model, grads):
            outcome = o_step(state, model, grads)
            state.mac_counter.rls += 1
            return outcome
        return step

    macs = MacCheck()
    with contextlib.ExitStack() as stack:
        from spans import patch
        patch(stack, optim, "o_step", miscounting)
        macs.install(stack)
        harness.run(cfg)
    assert len(macs.take()["mismatches"]) == 3
