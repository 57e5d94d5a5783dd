"""Time one fresh interpreter's set-up for the first seed of a config.

Covers importing omoe_lab, building the config, generating the dataset,
initialising the model and creating the OMoE state, in the order
``harness.train_single`` does them and through harness's own helpers where it
has them. When ``train_single``'s set-up changes, this has to follow it.
Prints the seconds taken.

    python3 perfbench/setup_probe.py '<config overrides as JSON>'
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from omoe_lab import Rng, harness, init_model, new_omoe_state
    from omoe_lab.model import ModelDims
    from workloads import step_total

    cfg = harness.make_config(json.loads(sys.argv[1]))
    data_rng, model_rng = Rng(cfg["seeds"][0]).spawn(2)
    dataset = harness.build_dataset(cfg, data_rng)
    mc, omoe = cfg["model"], cfg["omoe"]
    dims = ModelDims(d_raw=cfg["task"]["d_raw"], d=mc["d"], h=mc["h"], c=mc["c"])
    model = init_model(model_rng, dims, mc["M"], mc["init"])
    model.routing = mc["routing"]
    base = harness._optimizer_from_config(cfg)
    _n_train, n_total = step_total(cfg, dataset.n)
    new_omoe_state(base, model, omoe["s"], n_total, omoe["alpha0"], omoe["lambda"],
                   omoe["avg_norm"], omoe.get("o_lr"))
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
