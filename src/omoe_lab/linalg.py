"""The seeded random generator, the finite-entry check and symmetric eigenvalues.

Matrices are plain float64 numpy arrays; numpy is the only dependency. Every
random stream comes from ``Rng``: a numpy ``Generator`` over PCG64, so
identical seeds produce identical streams across runs and platforms, and
``Generator.spawn`` gives a seed's independent child streams.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


def Rng(seed) -> np.random.Generator:
    """The PCG64 generator of ``seed``: an int, a sequence of ints or a SeedSequence."""
    return np.random.Generator(np.random.PCG64(seed))


def require_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not np.isfinite(a).all():
        raise ContractViolation(f"{what} contains non-finite entries")
    return a


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"sym_eigvals needs a square matrix, got {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise ContractViolation("matrix is asymmetric beyond 1e-10")
    vals = np.linalg.eigvalsh(a)
    return vals[::-1].copy()
