"""Recursive-least-squares orthogonal projector.

Each guarded weight layer carries a square matrix P, initialized to the
identity and shrunk by rank-one updates so that P attenuates directions the
layer has already absorbed. With a constant regularizer ``alpha`` the
recursion computes exactly ``alpha * (A A^T + alpha I)^-1`` for the stacked
input columns A; ``direct_projector`` is that closed form, with one alpha per
column for a decayed schedule, and serves as the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .linalg import require_finite, sym_eigvals


@dataclass
class OrthoProjector:
    d: int
    P: np.ndarray = field(default=None)  # type: ignore[assignment]
    updates_applied: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ContractViolation("projector dimension must be >= 1")
        if self.updates_applied < 0:
            raise ContractViolation(f"updates_applied: must be >= 0, got {self.updates_applied}")
        if self.P is None:
            self.P = np.eye(self.d)
        if np.shape(self.P) != (self.d, self.d):
            raise ContractViolation(f"P of shape {np.shape(self.P)} does not fit dimension {self.d}")

    def rls_update(self, xbar: np.ndarray, alpha: float) -> None:
        """Rank-one shrink: P <- P - (P x)(x^T P) / (alpha + x^T P x).

        A zero input is a no-op (zero gain). Symmetry holds up to rounding: the
        subtracted term is v (v / denom)^T with v = P x, formed in one temporary.
        """
        if not 0 < alpha < np.inf:  # NaN fails this test too
            raise ContractViolation("alpha must be positive and finite")
        x = np.asarray(xbar, dtype=np.float64).ravel()
        if x.shape[0] != self.d:
            raise ContractViolation(f"input dim {x.shape[0]} != projector dim {self.d}")
        require_finite(x, "projector input")
        v = self.P @ x
        denom = alpha + float(x @ v)
        self.P -= v[:, None] * (v / denom)
        self.updates_applied += 1

    def effective_rank(self, tau: float) -> int:
        """Count of eigenvalues strictly above tau: remaining capacity."""
        if not (0 < tau < 1):
            raise ContractViolation("tau must lie in (0, 1)")
        return int(np.sum(sym_eigvals(self.P) > tau))


def direct_projector(a: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """Closed form I - A (diag(alpha) + A^T A)^-1 A^T for columns A.

    ``alpha`` is one regularizer for every column, or an (m,) array holding the
    alpha each column's RLS update used; in exact arithmetic the update order
    does not matter.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all((0 < alpha) & (alpha < np.inf)):  # NaN fails this test too
        raise ContractViolation("alpha must be positive and finite")
    a = require_finite(np.asarray(a, dtype=np.float64), "projector columns")
    if a.ndim == 1:
        a = a[:, None]
    d, m = a.shape
    if alpha.ndim and alpha.shape != (m,):
        raise ContractViolation(f"alpha of shape {alpha.shape} for {m} columns")
    if m == 0:
        return np.eye(d)
    inner = alpha * np.eye(m) + a.T @ a
    return require_finite(np.eye(d) - a @ np.linalg.solve(inner, a.T), "closed-form projector")
