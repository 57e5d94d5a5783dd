"""Print where a training seed's traced memory sits, phase by phase.

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
``--seeds`` and ``--override key=value`` (repeatable) set the base config, as
they do for ``payload_digest.py``.
"""

from __future__ import annotations

import tracemalloc

from payload_digest import RUN_VARIANTS, base_config, merge

from omoe_lab import harness, make_config, optim

MB = 2 ** 20
# phase -> (owner, attribute) of the function it wraps; no phase runs inside another
PHASES = {"forward": (optim, "model_forward"), "backward": (optim, "backward"),
          "base step": (optim.BaseOptimizer, "step"), "O step": (optim, "o_step"),
          "eval": (harness, "_eval_score"), "diagnostics": (harness, "diversity_report")}


def measured(fn, stats: list):
    """``fn`` wrapped to add its call to ``stats``: [calls, max live at entry, max peak]."""
    def wrapper(*args, **kwargs):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            stats[:] = [stats[0] + 1, max(stats[1], live), max(stats[2], peak)]
    return wrapper


def phase_memory(cfg: dict) -> dict[str, list]:
    """Phase -> [calls, max bytes live at entry, max traced peak] over ``cfg``'s seeds."""
    stats = {phase: [0, 0, 0] for phase in PHASES}
    originals = {phase: vars(owner)[attr] for phase, (owner, attr) in PHASES.items()}
    for phase, (owner, attr) in PHASES.items():
        setattr(owner, attr, measured(originals[phase], stats[phase]))
    try:
        for seed in cfg["seeds"]:
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
    base = base_config(argv, __doc__.splitlines()[0])
    for name, variant in (("base", {}), ("wide", RUN_VARIANTS["run/wide"])):
        cfg = make_config(merge(base, variant))
        if name == "wide":
            cfg["seeds"] = cfg["seeds"][:1]
        print(f"{name} (seeds {','.join(map(str, cfg['seeds']))})")
        print(f"  {'phase':<12} {'calls':>6} {'live at entry MB':>17} {'peak inside MB':>15}")
        for phase, (calls, live, peak) in phase_memory(cfg).items():
            print(f"  {phase:<12} {calls:>6} {live / MB:>17.2f} {peak / MB:>15.2f}")


if __name__ == "__main__":
    main()
