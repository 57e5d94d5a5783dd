"""Print one sha256 digest per payload that a results-preserving change must keep.

A change that claims byte-identical results runs this on the parent checkout
and on its own, and diffs the two outputs:

    PYTHONPATH=src python tools/payload_digest.py > digests.txt

The payloads, each printed as ``<digest>  <name>``; a report's digest hashes the JSON
bytes the CLI writes for it, keys in the report's own order, so a reordered key moves
it:

- ``run/*``: ``harness.run`` reports with their ``timing`` sections dropped,
  for the default config over ``--seeds``, dense routing with s=2,
  independent init with M=6, OMoE disabled, and the first seed at the wide
  shape (d=128, h=256, M=8, dense, s=2, 3 epochs);
- ``compare_optimizers``: all five base optimizers, baseline and OMoE, and
  ``ablate_skip`` over s = 2, 5 and ``ablate_experts`` over M = 2, 3, with every
  report's ``timing`` dropped;
- ``overhead``: the ``omoe-lab overhead`` JSON, the closed-form O-step cost
  and memory accounting;
- ``checkpoint/<routing>/{model,optimizer}``: the ``save_model`` and
  ``save_optimizer`` files after 7 ``step_dispatch`` steps on the first seed,
  with top-1 and with dense routing (the optimizer's mean buffers are then
  non-empty);
- ``metrics``: the ``omoe-lab metrics`` JSON for those two model files, the
  top-1 one as model A: both ``diversity_report``s and ``diverse_degree``.

``--seeds`` and ``--override key=value`` (repeatable) set the base config
every payload starts from, as they do for ``omoe-lab train``; each payload's
own settings apply over it, so a small base config gives a quick run.

A change that moves the payloads on purpose states its drift as a tolerance.
``--dump DIR`` also writes each payload's hashed bytes to ``DIR/<name>.json``;
``drift_lines(base_dir, head_dir)`` names each payload whose dumps differ and
its largest relative float difference. To dump the parent checkout's payloads
with this tool, run it with ``PYTHONPATH`` pointing at the parent's ``src/``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from omoe_lab import (ModelDims, Rng, ablate_experts, ablate_skip, compare_optimizers,
                      init_model, make_config, make_optimizer, new_omoe_state, overhead_report,
                      run, save_model, save_optimizer, step_dispatch)
from omoe_lab.cli import _load_config  # the CLI's --seeds and --override semantics
from omoe_lab.cli import main as cli_main
from omoe_lab.harness import build_dataset
from omoe_lab.model import _decode  # the checkpoint codec's array hook
from omoe_lab.optim import OPTIMIZERS

RUN_VARIANTS = {
    "run/default": {},
    "run/dense_s2": {"model": {"routing": "dense"}, "omoe": {"s": 2}},
    "run/independent_M6": {"model": {"init": "independent", "M": 6}},
    "run/omoe_off": {"omoe": {"enabled": False}},
    "run/wide": {"task": {"d_raw": 128, "subspace_dim": 16},
                 "model": {"d": 128, "h": 256, "M": 8, "routing": "dense"},
                 "omoe": {"s": 2}, "train": {"epochs": 3}},
}
CHECKPOINT_STEPS = 7


def merge(base: dict, extra: dict) -> dict:
    """A deep copy of ``base`` with the nested keys of ``extra`` set over it."""
    out = copy.deepcopy(base)
    for key, value in extra.items():
        out[key] = merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def without_timing(payload):
    """``payload`` with every ``timing`` entry removed, at any depth."""
    if isinstance(payload, dict):
        return {k: without_timing(v) for k, v in payload.items() if k != "timing"}
    if isinstance(payload, list):
        return [without_timing(v) for v in payload]
    return payload


def json_bytes(payload) -> bytes:
    """The bytes the CLI writes for ``payload`` (its ``json.dumps`` call, keys in the
    payload's own order), with every ``timing`` entry dropped."""
    return json.dumps(without_timing(payload), indent=2, allow_nan=False).encode()


def checkpoint_payloads(cfg: dict, workdir: Path) -> dict[str, bytes]:
    """The model and optimizer files after ``CHECKPOINT_STEPS`` steps."""
    seed = cfg["seeds"][0]
    data_rng, model_rng = Rng(seed).spawn(2)
    data = build_dataset(cfg, data_rng)
    mc, o, bs = cfg["model"], cfg["omoe"], cfg["train"]["batch_size"]
    model = init_model(model_rng, ModelDims(cfg["task"]["d_raw"], mc["d"], mc["h"], mc["c"]),
                       mc["M"], mc["init"])
    model.routing = mc["routing"]
    state = new_omoe_state(make_optimizer(**cfg["optimizer"]), model, o["s"], CHECKPOINT_STEPS,
                           o["alpha0"], o["lambda"], o["avg_norm"], o["o_lr"])
    rows = np.random.default_rng(seed).permutation(data.n)
    for i in range(CHECKPOINT_STEPS):
        batch = rows[i * bs:(i + 1) * bs]
        step_dispatch(state, model, data.X[batch], data.y[batch])
    files = {"model": (save_model, model), "optimizer": (save_optimizer, state)}
    out = {}
    for name, (save, obj) in files.items():
        path = workdir / f"{mc['routing']}_{name}.json"
        save(obj, path)
        out[f"checkpoint/{mc['routing']}/{name}"] = path.read_bytes()
    return out


def payloads(base: dict) -> dict[str, bytes]:
    """Payload name -> the bytes its digest hashes, for every payload over ``base``."""
    out = {}
    for name, variant in RUN_VARIANTS.items():
        cfg = make_config(merge(base, variant))
        if name == "run/wide":
            cfg["seeds"] = cfg["seeds"][:1]
        out[name] = json_bytes(run(cfg))
    out["compare_optimizers"] = json_bytes(compare_optimizers(base, list(OPTIMIZERS)))
    out["ablate_skip"] = json_bytes(ablate_skip(base, [2, 5]))
    out["ablate_experts"] = json_bytes(ablate_experts(base, [2, 3]))
    out["overhead"] = json_bytes(overhead_report(base))  # the bytes `omoe-lab overhead` writes
    with tempfile.TemporaryDirectory() as tmp:
        for routing in ("top1", "dense"):
            cfg = make_config(merge(base, {"model": {"routing": routing}}))
            out.update(checkpoint_payloads(cfg, Path(tmp)))
        models = [str(Path(tmp) / f"{routing}_model.json") for routing in ("top1", "dense")]
        if cli_main(["metrics", "--model-a", models[0], "--model-b", models[1],
                     "--out", tmp]) != 0:
            raise SystemExit("payload_digest: omoe-lab metrics failed")
        out["metrics"] = (Path(tmp) / "metrics.json").read_bytes()
    return out


def float_drift(base, head) -> float:
    """Largest relative difference |a - b| / max(|a|, |b|) over the floats and float
    arrays of two decoded payloads; inf where they differ in layout or in any other value."""
    if isinstance(base, float | np.ndarray) and isinstance(head, float | np.ndarray):
        a, b = np.asarray(base), np.asarray(head)
        if a.shape != b.shape:
            return math.inf
        scale, diff = np.maximum(np.abs(a), np.abs(b)), np.abs(a - b)
        return float(np.divide(diff, scale, out=np.zeros(diff.shape), where=diff > 0).max(
            initial=0.0))
    if isinstance(base, dict) and isinstance(head, dict):
        if base.keys() != head.keys():
            return math.inf
        return max((float_drift(base[k], head[k]) for k in base), default=0.0)
    if isinstance(base, list) and isinstance(head, list):
        if len(base) != len(head):
            return math.inf
        return max(map(float_drift, base, head), default=0.0)
    return 0.0 if type(base) is type(head) and base == head else math.inf


def drift_lines(base_dir: Path, head_dir: Path) -> list[str]:
    """How many payloads of two ``--dump`` directories differ, then one line for each:
    its largest relative float difference, or that it differs in more than floats."""
    names = sorted({path.relative_to(root).as_posix() for root in (base_dir, head_dir)
                    for path in root.rglob("*.json")})
    lines = []
    for name in names:
        a, b = base_dir / name, head_dir / name
        if not (a.exists() and b.exists()):
            lines.append(f"  {name[:-5]}: only in {'head' if b.exists() else 'base'}")
        elif a.read_bytes() != b.read_bytes():
            drift = float_drift(*(json.loads(p.read_bytes(), object_hook=_decode) for p in (a, b)))
            lines.append(f"  {name[:-5]}: " + (f"largest relative float difference {drift:.3g}"
                         if math.isfinite(drift) else "differs in more than float values"))
    return [f"{len(lines) or 'none'} of {len(names)} payloads differ", *lines]


def config_parser(description: str) -> argparse.ArgumentParser:
    """A parser of ``--seeds`` and ``--override``, which ``base_config`` reads."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seeds", default="0,1,2,3,4",
                        help="comma-separated training seeds (default 0,1,2,3,4)")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="base config override, e.g. train.epochs=1 (repeatable)")
    return parser


def base_config(args: argparse.Namespace) -> dict:
    """The base config that ``args.seeds`` and each ``args.override`` set."""
    seeds = [int(s) for s in args.seeds.split(",")]
    return _load_config(argparse.Namespace(config=None, seeds=seeds, override=args.override))


def main(argv=None) -> None:
    parser = config_parser(__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each payload's hashed bytes to DIR/<name>.json")
    args = parser.parse_args(argv)
    for name, data in payloads(base_config(args)).items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
        if args.dump:
            path = args.dump / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


if __name__ == "__main__":
    main()
