"""What does an O step cost? Closed-form prediction vs an instrumented run.

The extra work per orthogonal step is (a) rank-one RLS updates for the
buffered means, (b) averaging the peer projectors (each layer's projectors
are summed once and each expert's own is subtracted from the sum), and (c) the
projected gradient products -- all counted in multiply-accumulates. The
prediction is exact: an instrumented O step reproduces it to the MAC.
"""

import numpy as np

from omoe_lab import (Rng, init_model, make_config, make_optimizer, new_omoe_state,
                      predict_o_step_macs)
from omoe_lab.grad import Gradients
from omoe_lab.harness import overhead_report
from omoe_lab.model import ModelDims
from omoe_lab.optim import MacCounter, o_step

cfg = make_config()
print("default config, per O step:")
for key, value in overhead_report(cfg).items():
    print(f"  {key:>24}: {value}")

# instrument a real O step on the same shapes and compare
mc = cfg["model"]
d, h, M = mc["d"], mc["h"], mc["M"]
model = init_model(Rng(0), ModelDims(cfg["task"]["d_raw"], d, h, mc["c"]), M)
state = new_omoe_state(make_optimizer("sgd", 0.1), model, s=cfg["omoe"]["s"],
                       n_total=100, alpha0=1.0, lam=0.9, avg_norm="paper", o_lr=0.1)
rng = np.random.default_rng(0)
means_counts = {}
for key in state.buffers:
    means_counts[key] = cfg["omoe"]["s"] - 1
    dim = state.projectors[key].d
    for i in range(means_counts[key]):
        state.buffers[key].append((i, rng.normal(size=dim)))
state.mac_counter = MacCounter()
grads = Gradients({n: rng.normal(size=p.shape) for n, p in model.params.items()}, 0.0)
o_step(state, model, grads)

predicted = predict_o_step_macs(d, h, M, means_counts)
print(f"\npredicted  rls/average/project: "
      f"{predicted.rls}/{predicted.average}/{predicted.project}")
print(f"instrumented rls/average/project: "
      f"{state.mac_counter.rls}/{state.mac_counter.average}/{state.mac_counter.project}")
print(f"exact match: {(predicted.rls, predicted.average, predicted.project) == (state.mac_counter.rls, state.mac_counter.average, state.mac_counter.project)}")

print("\nscaling: the per-update projector cost is quadratic in the layer width --")
from omoe_lab.optim import rls_update_macs
for w in (64, 128, 256):
    print(f"  width {w:>4}: {rls_update_macs(w):>9} MACs "
          f"(x{rls_update_macs(w) / rls_update_macs(w // 2):.3f} vs width {w // 2})")
