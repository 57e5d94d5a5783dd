"""omoe-lab benchmark: training throughput, set-up time and result quality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload default --seed 0 --seconds 24 --trace 0

``--trace 0`` times operations untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced operations on the same seeds and
prints the per-layer metrics taken from the spans (see ``spans.py``). Every
operation's output is checked (see ``checks.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The lines before it record the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread per process: the workloads are many small matmuls on a small
# host, where extra BLAS threads only contend.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7       # fresh interpreters timed per run, after one untimed warm-up
MIN_TRACE_PAIRS = 2    # untraced/traced operation pairs in a traced run
PROBE_TIMEOUT_S = 60
# HostSpeed's kernel time on the reference host (2 vCPU x86_64 VM, numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread) at one moment; times are reported at the
# speed this stands for. The baseline runs there saw median factors of 0.82-0.99.
KERNEL_REF_S = 0.135


def prepare_environment() -> None:
    """Pin BLAS threads, run seeds sequentially, and import omoe_lab from this checkout."""
    if not (SRC / "omoe_lab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no omoe_lab sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("OMOE_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))


def environment(workload: str, seed: int, blocks: list) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
            "workload": workload, "seed": seed, "training_seeds": blocks}


class SetupProbes:
    """Set-up seconds from fresh interpreters, started one at a time.

    The first probe compiles bytecode and fills the file cache, so it is not
    kept. The rest are spread between the run's operations, so that their
    median sees the host over the whole run rather than one moment of it.
    """

    def __init__(self, overrides: dict, first_seed: int):
        self.arg = json.dumps({**overrides, "seeds": [first_seed]})
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), self.arg],
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        return float(out.stdout.strip().splitlines()[-1])

    def between_ops(self) -> None:
        if len(self.times) < SETUP_PROBES:
            self.times.append(self._probe())

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.times.append(self._probe())
        return self.times


class HostSpeed:
    """How fast the host runs right now, from a fixed kernel that never calls omoe_lab.

    On a host shared with other tenants the same work can take up to twice as
    long from one minute to the next. The kernel (small matmuls, elementwise
    ops and dict stores like the default workload, plus mid-size BLAS calls
    like the wide one) runs between operations, and the end-to-end times are
    rescaled by ``kernel seconds / KERNEL_REF_S`` measured around them, so a
    run reports what the program would take on the reference host.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(32, 16)), rng.normal(size=(16, 32))
        self.mid = rng.normal(size=(128, 256)), rng.normal(size=(256, 128))
        self.factors: list[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns and records its time over KERNEL_REF_S."""
        import numpy as np
        (a, b), (c, d) = self.small, self.mid
        store = {}
        t0 = time.perf_counter()
        for i in range(10000):
            store[i % 64] = np.maximum(a @ b, 0.0).sum(axis=0)
        for _ in range(150):
            store[-1] = c @ d
        self.factors.append((time.perf_counter() - t0) / KERNEL_REF_S)
        return self.factors[-1]


# The benchmark's other modules import omoe_lab, so functions below import them
# only after prepare_environment() has pinned BLAS and put src/ on sys.path.


class Runner:
    """Runs one workload's operations and checks each one's output."""

    def __init__(self, workload, blocks, reference):
        from checks import BufferedMeans
        self.workload = workload
        self.blocks = blocks
        self.reference = reference["workloads"][workload.name]
        self.tolerance = reference["tolerance"]
        self.buffered = BufferedMeans()
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []

    def op(self, block):
        """One checked operation: (operation index, wall seconds, runs)."""
        from checks import check_run
        self.buffered.left.clear()
        t0 = time.perf_counter()
        runs = self.workload.op(block)
        wall = time.perf_counter() - t0
        index = self.attempted
        self.attempted += 1
        self.fail(index, [p for label, cfg, report in runs
                          for p in check_run(label, cfg, report, self.buffered.left,
                                             self.reference, self.tolerance)])
        return index, wall, runs

    def fail(self, index: int, problems: list[str]) -> None:
        if problems:
            self.failed_ops.add(index)
            self.problems += [f"operation {index}: {p}" for p in problems]


def measure(runner: Runner, seconds: float, speed: HostSpeed,
            between_ops) -> tuple[dict, dict]:
    """Untraced operations cycling through the run's seed blocks.

    Each operation's times are rescaled by the mean host-speed factor measured
    just before and just after it. Quality is averaged over one pass through
    the blocks, so it is the same whatever the timing; the pass always
    completes.
    """
    from workloads import step_schedule
    quality = {}

    def note_quality(runs):
        for label, cfg, report in runs:
            for rec in report["per_seed"]:
                quality[(label, rec["seed"])] = (rec["final_eval_score"],
                                                 rec["final_param_variance"],
                                                 cfg["omoe"]["enabled"])

    # Warm-up: the first operation in a process runs slow, so only its output counts.
    note_quality(runner.op(runner.blocks[0])[2])
    walls, rates, seed_means, calls = [], [], [], 0
    k, wall = 1, 0.0
    before = speed.sample()
    while k < len(runner.blocks) or sum(walls) + wall / 2 < seconds:
        _index, wall, runs = runner.op(runner.blocks[k % len(runner.blocks)])
        after = speed.sample()
        factor = (before + after) / 2
        before = after
        walls.append(wall)
        samples = sum(step_schedule(cfg)[0] * len(report["per_seed"])
                      for _label, cfg, report in runs)
        rates.append(samples / wall * factor)
        seed_walls = [t for _label, _cfg, report in runs for t in report["timing"]["per_seed_s"]]
        seed_means.append(statistics.fmean(seed_walls) / factor)
        calls += len(seed_walls)
        if k < len(runner.blocks):
            note_quality(runs)
        k += 1
        between_ops()
    metrics = {
        "samples_per_s": statistics.median(rates),
        # Per operation a mean, not a median: the sweep's calls cost two clusters of
        # times (with and without O steps), and a median between them jumps with noise.
        "seed_s": statistics.median(seed_means),
        "eval_score": statistics.fmean(q[0] for q in quality.values()),
        # geometric: the sweep's optimizers leave variances an order of magnitude apart
        "param_variance": statistics.geometric_mean(q[1] for q in quality.values() if q[2]),
    }
    counts = {"operations": len(walls), "train_single_calls": calls,
              "quality_seeds": len(quality)}
    return metrics, counts


def _median(values: list):
    """Median; a count stays an integer, as counts are equal across traced operations."""
    return statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Pairs of untraced and traced operations, order alternating.

    Every pair trains the run's first seed block, so the counts of every
    traced operation are the same and the median of each is exact.
    """
    from checks import MacCheck, same_numbers
    from spans import (Tracer, latency_summary, operation_metrics,
                       step_latencies_ms)
    tracer, macs = Tracer(), MacCheck()
    runner.op(runner.blocks[0])  # warm-up, as in the untraced run
    per_op, plain_walls, traced_walls = [], [], []
    latencies = {"R": [], "O": []}
    j, pair_wall = 0, 0.0
    while j < MIN_TRACE_PAIRS or sum(plain_walls + traced_walls) + pair_wall / 2 < seconds:
        block = runner.blocks[0]
        results = {}
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                with contextlib.ExitStack() as stack:
                    tracer.install(stack)
                    # Wraps the traced o_step: its bookkeeping (a few µs an O
                    # step) falls outside o_step's span but inside step_dispatch's.
                    macs.install(stack)
                    results[traced] = runner.op(block)
            else:
                results[traced] = runner.op(block)
        (_, plain_wall, plain_runs), (index, wall, runs) = results[False], results[True]
        mac = macs.take()
        runner.fail(index, mac.pop("mismatches"))
        if not same_numbers(plain_runs, runs):
            runner.fail(index, ["traced numbers differ from the untraced operation"])
        spans = tracer.take()
        for kind, values in step_latencies_ms(spans).items():
            latencies[kind] += values
        op_metrics = operation_metrics(spans, wall)
        o_s = op_metrics["optim.o_step.s"]
        op_metrics.update({
            "optim.o_step.macs_rls": mac["rls"],
            "optim.o_step.macs_average": mac["average"],
            "optim.o_step.macs_project": mac["project"],
            "optim.o_step.gmacs_per_s": sum(mac.values()) / o_s / 1e9 if o_s else 0.0,
            "optim.means_produced": sum(rec["means_produced"] for _l, _c, rep in runs
                                        for rec in rep["per_seed"]),
            "optim.means_consumed": sum(rec["means_consumed"] for _l, _c, rep in runs
                                        for rec in rep["per_seed"]),
        })
        per_op.append(op_metrics)
        plain_walls.append(plain_wall)
        traced_walls.append(wall)
        pair_wall = plain_wall + wall
        j += 1
    metrics = {name: _median([op[name] for op in per_op]) for name in per_op[0]}
    for kind, values in latencies.items():
        for key, value in latency_summary(values).items():
            metrics[f"optim.step_{kind}.{key}"] = value
    # Ratios within a pair: its two operations ran back to back, on the same host load.
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced_walls, plain_walls)) - 1
    return metrics, {"pairs": j, "o_steps_checked": macs.steps}


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="omoe-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()

    import omoe_lab
    if Path(omoe_lab.__file__).resolve().parent != SRC / "omoe_lab":
        raise SystemExit(f"benchmark: imported omoe_lab from {omoe_lab.__file__}, not {SRC}")
    from checks import load_reference
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    units = declared_units(bool(args.trace))
    workload = WORKLOADS[args.workload]
    blocks = workload.seed_blocks(args.seed)
    print(json.dumps({"environment": environment(workload.name, args.seed, blocks)}))
    runner = Runner(workload, blocks, load_reference())

    if args.trace:
        with contextlib.ExitStack() as stack:
            runner.buffered.install(stack)
            metrics, counts = measure_traced(runner, args.seconds)
    else:
        probes = SetupProbes(workload.overrides, blocks[0][0])
        speed = HostSpeed()
        with contextlib.ExitStack() as stack:
            runner.buffered.install(stack)
            metrics, counts = measure(runner, args.seconds, speed, probes.between_ops)
        host_factor = statistics.median(speed.factors)
        setup = probes.finish()
        metrics["setup_s"] = statistics.median(setup) / host_factor
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counts.update(setup_s_samples=len(setup), host_factor=host_factor,
                      host_factor_samples=len(speed.factors))
    if set(metrics) != set(units):
        raise SystemExit("benchmark: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    failed = len(runner.failed_ops)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {name: f"{metrics[name]:.6g} {unit}" for name, unit in units.items()}
    summary["failed_frac"] = f"{failed / runner.attempted:.6g} fraction"
    print(json.dumps({"summary": summary, "counts": counts}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
