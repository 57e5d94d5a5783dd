"""Print where a training seed's memory sits, phase by phase.

    PYTHONPATH=src python tools/memory_phases.py --seeds 7

For the base config and for the wide shape of ``payload_digest.py`` (its
``run/wide`` settings over the base config, first seed only), every seed is
trained by ``harness.train_single`` under ``tracemalloc``, with these phases
wrapped:

- ``forward``: the training step's forward (``optim.model_forward``);
- ``backward``: its backward (``optim.backward``);
- ``base step``: ``BaseOptimizer.step``;
- ``O step``: ``optim.o_step``;
- ``eval``: the per-epoch evaluation (``harness._eval_score``);
- ``diagnostics``: the per-epoch ``diversity_report``.

Each row gives the phase's call count, the largest traced memory live when a
call starts, and the largest traced peak inside a call, in MB (2^20 bytes).
The forward's entry is the step's entry, so its first column is the live set a
training step starts from. Only allocations made after the seed's set-up
begins are traced: imported modules are not counted, and numpy's arrays are.

The last column is how far the process's ``ru_maxrss`` rose during the phase's
calls, summed over them. It comes from a second pass without ``tracemalloc``,
in a fresh process for each shape, and is indicative only: this process has
none of the benchmark's set-up probes, host-speed kernels or earlier
operations, so its heap is laid out differently, and a phase shown flat here
can still raise a benchmark run's ``peak_rss_mb``. Confirm a memory claim with
benchmark pairs. Traced peaks do not rank the rises either: a phase whose
traced peak is below another's can still raise RSS, when its arrays get fresh
pages instead of the heap's freed ones.

``--seeds`` and ``--override key=value`` (repeatable) set the base config, as
they do for ``payload_digest.py``.
"""

from __future__ import annotations

import multiprocessing
import resource
import tracemalloc

from payload_digest import RUN_VARIANTS, base_config, config_parser, merge

from omoe_lab import harness, make_config, optim

MB = 2 ** 20
# phase -> (owner, attribute) of the function it wraps; no phase runs inside another
PHASES = {"forward": (optim, "model_forward"), "backward": (optim, "backward"),
          "base step": (optim.BaseOptimizer, "step"), "O step": (optim, "o_step"),
          "eval": (harness, "_eval_score"), "diagnostics": (harness, "diversity_report")}


def max_rss() -> int:
    """The process's ``ru_maxrss`` in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measured(fn, stats: list):
    """``fn`` wrapped to add its call to ``stats``: [calls, max live at entry, max traced
    peak, ru_maxrss rise]. The traced values read 0 when ``tracemalloc`` is off."""
    def wrapper(*args, **kwargs):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rss = max_rss()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            stats[:] = [stats[0] + 1, max(stats[1], live), max(stats[2], peak),
                        stats[3] + max_rss() - rss]
    return wrapper


def phase_memory(cfg: dict, traced: bool = True) -> dict[str, list]:
    """Phase -> [calls, max bytes live at entry, max traced peak, ru_maxrss rise] over
    ``cfg``'s seeds, each trained under ``tracemalloc`` when ``traced``."""
    stats = {phase: [0, 0, 0, 0] for phase in PHASES}
    originals = {phase: vars(owner)[attr] for phase, (owner, attr) in PHASES.items()}
    for phase, (owner, attr) in PHASES.items():
        setattr(owner, attr, measured(originals[phase], stats[phase]))
    try:
        for seed in cfg["seeds"]:
            if traced:
                tracemalloc.start()
            try:
                harness.train_single(cfg, seed)
            finally:
                tracemalloc.stop()
    finally:
        for phase, (owner, attr) in PHASES.items():
            setattr(owner, attr, originals[phase])
    return stats


def main(argv=None) -> None:
    base = base_config(config_parser(__doc__.splitlines()[0]).parse_args(argv))
    for name, variant in (("base", {}), ("wide", RUN_VARIANTS["run/wide"])):
        cfg = make_config(merge(base, variant))
        if name == "wide":
            cfg["seeds"] = cfg["seeds"][:1]
        with multiprocessing.get_context("spawn").Pool(1) as fresh:
            untraced = fresh.apply(phase_memory, (cfg, False))
        print(f"{name} (seeds {','.join(map(str, cfg['seeds']))})")
        print(f"  {'phase':<12} {'calls':>6} {'live at entry MB':>17} {'peak inside MB':>15}"
              f" {'RSS rise MB':>12}")
        for phase, (calls, live, peak, _) in phase_memory(cfg).items():
            rise = untraced[phase][3]
            print(f"  {phase:<12} {calls:>6} {live / MB:>17.2f} {peak / MB:>15.2f}"
                  f" {rise / MB:>12.2f}")


if __name__ == "__main__":
    main()
