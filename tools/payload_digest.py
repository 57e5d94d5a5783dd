"""Print one sha256 digest per payload that a results-preserving change must keep.

A change that claims byte-identical results runs this on the parent checkout
and on its own, and diffs the two outputs:

    PYTHONPATH=src python tools/payload_digest.py > digests.txt

The payloads, each printed as ``<digest>  <name>``:

- ``run/*``: ``harness.run`` reports with their ``timing`` sections dropped,
  for the default config over ``--seeds``, dense routing with s=2,
  independent init with M=6, OMoE disabled, and the first seed at the wide
  shape (d=128, h=256, M=8, dense, s=2, 3 epochs);
- ``compare_optimizers``: all five base optimizers, baseline and OMoE, with
  every report's ``timing`` dropped;
- ``checkpoint/<routing>/{model,optimizer}``: the ``save_model`` and
  ``save_optimizer`` files after 7 ``step_dispatch`` steps on the first seed,
  with top-1 and with dense routing (the optimizer's mean buffers are then
  non-empty);
- ``metrics``: the ``omoe-lab metrics`` JSON for those two model files, the
  top-1 one as model A: both ``diversity_report``s and ``diverse_degree``.

``--seeds`` and ``--override key=value`` (repeatable) set the base config
every payload starts from, as they do for ``omoe-lab train``; each payload's
own settings apply over it, so a small base config gives a quick run.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from omoe_lab import (ModelDims, Rng, compare_optimizers, init_model, make_config,
                      make_optimizer, new_omoe_state, run, save_model, save_optimizer,
                      step_dispatch)
from omoe_lab.cli import _load_config  # the CLI's --seeds and --override semantics
from omoe_lab.cli import main as cli_main
from omoe_lab.harness import build_dataset
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


def json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(without_timing(payload), sort_keys=True).encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_digests(cfg: dict, workdir: Path) -> dict[str, str]:
    """Digests of the model and optimizer files after ``CHECKPOINT_STEPS`` steps."""
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
        step_dispatch(state, model, data.X[batch], data.y[batch], cfg["train"]["loss"])
    files = {"model": (save_model, model), "optimizer": (save_optimizer, state)}
    out = {}
    for name, (save, obj) in files.items():
        path = workdir / f"{mc['routing']}_{name}.json"
        save(obj, path)
        out[f"checkpoint/{mc['routing']}/{name}"] = file_digest(path)
    return out


def digests(base: dict) -> dict[str, str]:
    """Payload name -> sha256, for every payload over the base config ``base``."""
    out = {}
    for name, variant in RUN_VARIANTS.items():
        cfg = make_config(merge(base, variant))
        if name == "run/wide":
            cfg["seeds"] = cfg["seeds"][:1]
        out[name] = json_digest(run(cfg))
    out["compare_optimizers"] = json_digest(compare_optimizers(base, list(OPTIMIZERS)))
    with tempfile.TemporaryDirectory() as tmp:
        for routing in ("top1", "dense"):
            cfg = make_config(merge(base, {"model": {"routing": routing}}))
            out.update(checkpoint_digests(cfg, Path(tmp)))
        models = [str(Path(tmp) / f"{routing}_model.json") for routing in ("top1", "dense")]
        if cli_main(["metrics", "--model-a", models[0], "--model-b", models[1],
                     "--out", tmp]) != 0:
            raise SystemExit("payload_digest: omoe-lab metrics failed")
        out["metrics"] = file_digest(Path(tmp) / "metrics.json")
    return out


def base_config(argv, description: str) -> dict:
    """The base config that ``--seeds`` and each ``--override`` in ``argv`` set."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seeds", default="0,1,2,3,4",
                        help="comma-separated training seeds (default 0,1,2,3,4)")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="base config override, e.g. train.epochs=1 (repeatable)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    return _load_config(argparse.Namespace(config=None, seeds=seeds, override=args.override))


def main(argv=None) -> None:
    base = base_config(argv, __doc__.splitlines()[0])
    for name, digest in digests(base).items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
