"""The benchmark's workloads: configs, the operation each one runs, and its seeds.

An operation is one call into the public ``omoe_lab.harness`` API. It returns
the trained runs as ``(label, config, report)`` triples, where ``report`` is
the RunReport dict that ``harness.run`` produces. Training seeds come from a
fixed pool whose per-seed results are recorded in ``reference.json``; the
benchmark's ``--seed`` picks which of them a run trains.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from omoe_lab import harness

SWEEP_KINDS = ["sgd", "adam", "adamw", "rmsprop", "adagrad"]

# Training seeds 0..POOL_SIZE-1 have reference results; a run draws its seed
# blocks from them.
POOL_SIZE = 40


# Config overrides over harness.DEFAULT_CONFIG, which is the paper's default.
DEFAULT_OVERRIDES: dict = {}
WIDE_OVERRIDES = {
    "task": {"d_raw": 128, "subspace_dim": 16},
    "model": {"d": 128, "h": 256, "M": 8, "routing": "dense"},
    "omoe": {"s": 2},
    "train": {"epochs": 3},  # about 4 s a seed on a 2-core host, so a run times several
}


def default_config(seeds: list[int]) -> dict:
    return harness.make_config({**DEFAULT_OVERRIDES, "seeds": seeds})


def wide_config(seeds: list[int]) -> dict:
    return harness.make_config({**WIDE_OVERRIDES, "seeds": seeds})


def run_default(seeds: list[int]) -> list[tuple[str, dict, dict]]:
    cfg = default_config(seeds)
    return [("adamw/omoe", cfg, harness.run(cfg))]


def run_wide(seeds: list[int]) -> list[tuple[str, dict, dict]]:
    cfg = wide_config(seeds)
    return [("adamw/omoe", cfg, harness.run(cfg))]


def run_sweep(seeds: list[int]) -> list[tuple[str, dict, dict]]:
    out = harness.compare_optimizers(default_config(seeds), SWEEP_KINDS)
    runs = []
    for kind in SWEEP_KINDS:
        for variant in ("baseline", "omoe"):
            report = out["reports"][kind][variant]
            runs.append((f"{kind}/{variant}", report["config"], report))
    return runs


@dataclass
class Workload:
    name: str
    op: Callable[[list[int]], list[tuple[str, dict, dict]]]
    block_size: int       # training seeds per operation
    blocks_per_run: int   # distinct operations a run cycles through
    overrides: dict       # shapes whose first-seed set-up is timed

    def seed_blocks(self, seed: int) -> list[list[int]]:
        """Training-seed blocks for one benchmark run, drawn from the pool by ``seed``."""
        pool = random.Random(seed).sample(range(POOL_SIZE),
                                          self.block_size * self.blocks_per_run)
        return [sorted(pool[i:i + self.block_size])
                for i in range(0, len(pool), self.block_size)]


# Blocks per run: enough seeds that the mean quality of a run varies little
# with --seed, few enough that one pass fits in a run. sweep trains at the
# default shapes, so its set-up is the default one.
WORKLOADS = {w.name: w for w in (
    Workload("default", run_default, 5, 4, DEFAULT_OVERRIDES),
    Workload("wide", run_wide, 1, 6, WIDE_OVERRIDES),
    Workload("sweep", run_sweep, 1, 5, DEFAULT_OVERRIDES),
)}


def step_total(cfg: dict, n: int) -> tuple[int, int]:
    """(training points, total steps) of one seed on a dataset of ``n`` points,
    split and batched as ``harness.train_single`` does it."""
    train = cfg["train"]
    n_train = n - max(1, int(n * train["eval_fraction"]))
    return n_train, train["epochs"] * math.ceil(n_train / train["batch_size"])


def step_schedule(cfg: dict) -> tuple[int, dict]:
    """(training samples, expected step counts) for one seed of a config."""
    task, train = cfg["task"], cfg["train"]
    n_train, n_total = step_total(cfg, task["K"] * task["n_per_cluster"])
    o_steps = n_total // cfg["omoe"]["s"] if cfg["omoe"]["enabled"] else 0
    return n_train * train["epochs"], {"R": n_total - o_steps, "O": o_steps}
