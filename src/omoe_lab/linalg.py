"""Minimal dense linear algebra and the seeded random generator.

Matrices are plain float64 numpy arrays; numpy is the only dependency. Every
random stream comes from ``Rng``: a numpy ``Generator`` over PCG64, so
identical seeds produce identical streams across runs and platforms, and
``Generator.spawn`` gives a seed's independent child streams.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, SingularMatrixError


def Rng(seed) -> np.random.Generator:
    """The PCG64 generator of ``seed``: an int, a sequence of ints or a SeedSequence."""
    return np.random.Generator(np.random.PCG64(seed))


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    return a


def require_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if not np.isfinite(a).all():
        raise ContractViolation(f"{what} contains non-finite entries")
    return a


def _pivot_of_failure(a: np.ndarray) -> int:
    """Locate the first non-positive pivot with a plain Cholesky sweep."""
    n = a.shape[0]
    m = a.copy()
    for j in range(n):
        pivot = m[j, j] - np.dot(m[j, :j], m[j, :j])
        if pivot <= 0.0 or not np.isfinite(pivot):
            return j
        m[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            m[j + 1:, j] = (m[j + 1:, j] - m[j + 1:, :j] @ m[j, :j]) / m[j, j]
    return n - 1


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ X = b for symmetric positive definite a via Cholesky, a = L L^T."""
    a, b_m = _as_matrix(a), _as_matrix(b)
    if a.shape[0] != a.shape[1]:
        raise ContractViolation(f"solve_spd needs a square matrix, got {a.shape}")
    if a.shape[0] != b_m.shape[0]:
        raise ContractViolation(f"rhs rows {b_m.shape[0]} != system size {a.shape[0]}")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(_pivot_of_failure(a)) from None
    x = np.linalg.solve(low.T, np.linalg.solve(low, b_m))
    x = x if np.asarray(b).ndim > 1 else x[:, 0]
    return require_finite(x, "solution")


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ContractViolation(f"sym_eigvals needs a square matrix, got {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise ContractViolation("matrix is asymmetric beyond 1e-10")
    vals = np.linalg.eigvalsh(a)
    return vals[::-1].copy()


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int,
                    mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    if std < 0:
        raise ContractViolation("std must be non-negative")
    return rng.normal(mean, std, size=(rows, cols))
