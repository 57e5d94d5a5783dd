"""What the RLS projector does, geometrically.

A fresh projector is the identity: it lets every gradient direction through.
Each accumulated input direction gets progressively attenuated, so gradients
projected through P barely move along directions the layer has already
absorbed. With a fixed regularizer alpha the recursion is exactly the closed
form alpha * (A A^T + alpha I)^-1, which we verify at the end.
"""

import numpy as np

from omoe_lab import OrthoProjector, direct_projector
from omoe_lab.linalg import sym_eigvals

d = 6
alpha = 1e-3
rng = np.random.default_rng(0)

proj = OrthoProjector(d)
print(f"fresh projector: effective_rank(0.5) = {proj.effective_rank(0.5)} (full capacity)")

directions = rng.normal(size=(d, 3))
directions /= np.linalg.norm(directions, axis=0)
for j in range(3):
    u = directions[:, j]
    before = np.linalg.norm(proj.P @ u)
    proj.rls_update(u, alpha)
    after = np.linalg.norm(proj.P @ u)
    print(f"accumulated direction {j}: |P u| {before:.4f} -> {after:.6f}  "
          f"(effective_rank {proj.effective_rank(0.5)})")

fresh = rng.normal(size=d)
fresh /= np.linalg.norm(fresh)
print(f"\nan unrelated unit direction still passes: |P v| = "
      f"{np.linalg.norm(proj.P @ fresh):.4f}")

print(f"eigenvalues of P: {np.round(sym_eigvals(proj.P), 6)}")

oracle = direct_projector(directions, alpha)
rel = np.linalg.norm(proj.P - oracle) / np.linalg.norm(oracle)
print(f"\nrecursion vs closed form alpha*(AA^T + alpha I)^-1: "
      f"relative Frobenius error {rel:.2e}")
