"""The names the benchmark in ``perfbench/`` reaches into the package for.

perfbench wraps the functions listed in ``spans.trace_points``, wraps
``harness.new_omoe_state``, ``optim.o_step`` and ``harness.train_single`` for
its output checks, and repeats ``train_single``'s set-up through harness's
helpers in ``setup_probe.py``. A change that renames or drops one of them
fails here instead of in the benchmark.
"""

import contextlib
import json
import subprocess
import sys
from pathlib import Path

from omoe_lab import harness, optim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from checks import BufferedMeans, MacCheck  # noqa: E402
from spans import NAME, Tracer, patch  # noqa: E402

# two seeds of a tiny dense task; s=2 gives O steps that drain buffered means
TINY = {
    "task": {"K": 3, "d_raw": 12, "subspace_dim": 3, "n_per_cluster": 40},
    "model": {"d": 8, "h": 8, "M": 3, "c": 3, "routing": "dense"},
    "omoe": {"s": 2},
    "train": {"epochs": 1, "batch_size": 16},
    "seeds": [0, 1],
}


def test_trace_and_checks_cover_a_run():
    tracer, macs, buffered = Tracer(), MacCheck(), BufferedMeans()
    with contextlib.ExitStack() as stack:
        # installed in the order perfbench/run.py installs them
        buffered.install(stack)
        tracer.install(stack)
        macs.install(stack)
        report = harness.run(harness.make_config(TINY))
    names = {span[NAME] for span in tracer.take()}
    assert {"model.forward", "grad.backward", "optim.step_dispatch", "optim.base_step",
            "optim.o_step", "optim.average_projector", "projector.rls_update",
            "metrics.diversity_report"} <= names
    mac = macs.take()
    assert macs.steps > 0 and mac["rls"] > 0
    assert mac["mismatches"] == []
    assert {seed for _kind, _enabled, seed in buffered.left} == {0, 1}
    for rec in report["per_seed"]:
        left = buffered.left[("adamw", True, rec["seed"])]
        assert rec["means_produced"] - rec["means_consumed"] == left


def test_mac_check_on_top1_with_several_means_and_idle_experts():
    # top-1 with s=5: an O step drains up to four means per (expert, layer), and
    # with six experts and four-row batches some expert gets no rows in those R steps
    cfg = harness.make_config({**TINY, "model": {**TINY["model"], "M": 6, "routing": "top1"},
                               "omoe": {"s": 5}, "train": {"epochs": 1, "batch_size": 4},
                               "seeds": [0]})
    counts, macs = [], MacCheck()

    def counting(o_step):
        def wrapped(state, model, grads):
            counts.append([len(entries) for entries in state.buffers.values()])
            return o_step(state, model, grads)
        return wrapped

    with contextlib.ExitStack() as stack:
        macs.install(stack)
        patch(stack, optim, "o_step", counting)
        harness.run(cfg)
    assert macs.take()["mismatches"] == []
    assert macs.steps == len(counts) > 0
    assert any(max(c) > 1 for c in counts) and any(min(c) == 0 for c in counts)


def test_setup_probe_runs():
    out = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), json.dumps(TINY)],
                         cwd=PERFBENCH.parent, capture_output=True, text=True, check=True,
                         timeout=60)
    assert float(out.stdout.strip().splitlines()[-1]) > 0
