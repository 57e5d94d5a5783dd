"""The synthetic classification task, CSV ingestion, batching.

``gen_subspace_clusters`` places each class inside its own random linear
subspace (pairwise orthogonal when they fit), so a router + specialist
experts can carve the input space cleanly. ``load_csv`` reads a classification
dataset from a file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DataLoadError
from .grad import _class_indices
from .linalg import Rng


@dataclass
class Dataset:
    X: np.ndarray           # (N, d_raw)
    y: np.ndarray           # (N,) class indices in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        if self.X.shape[0] < 1:
            raise ContractViolation("dataset must contain at least one row")
        if not np.all(np.isfinite(self.X)):
            raise ContractViolation("features contain non-finite values")
        self.y = _class_indices(self.y, self.X.shape[0], self.n_classes)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def gen_subspace_clusters(rng: np.random.Generator, K: int, d_raw: int, n_per_cluster: int,
                          subspace_dim: int, noise_std: float = 0.0) -> Dataset:
    """K classes, class k living in its own ``subspace_dim``-dim subspace.

    Bases come from one QR factorization, so they are exactly orthogonal when
    K * subspace_dim <= d_raw; otherwise each basis is sampled independently
    and the subspaces overlap.
    """
    if K < 2:
        raise ContractViolation("need at least K=2 clusters")
    if subspace_dim > d_raw:
        raise ContractViolation("subspace_dim cannot exceed d_raw")
    if K * subspace_dim > d_raw:
        bases = []
        for _ in range(K):
            q, _ = np.linalg.qr(rng.normal(size=(d_raw, subspace_dim)))
            bases.append(q)
    else:
        q, _ = np.linalg.qr(rng.normal(size=(d_raw, K * subspace_dim)))
        bases = [q[:, k * subspace_dim:(k + 1) * subspace_dim] for k in range(K)]
    xs, ys = [], []
    for k in range(K):
        # coefficients with unit mean so classes have distinct in-subspace centroids
        z = rng.normal(1.0, 1.0, size=(n_per_cluster, subspace_dim))
        pts = z @ bases[k].T
        if noise_std > 0:
            pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
        xs.append(pts)
        ys.append(np.full(n_per_cluster, k, dtype=np.int64))
    return Dataset(np.vstack(xs), np.concatenate(ys), K)


def require_distinct_columns(feature_columns: list[str], target_column: str, where: str = "",
                             error: type = DataLoadError) -> None:
    """Raise ``error``, prefixed by ``where``, naming a column listed twice among
    ``feature_columns`` and ``target_column``: it would be read twice, or leak the label."""
    columns = [*feature_columns, target_column]
    for col in columns:
        if columns.count(col) > 1:
            raise error(f"{where}column {col!r} is named twice among the features and target")


def load_csv(path, feature_columns: list[str], target_column: str) -> Dataset:
    """Strict CSV ingestion of float features and a class-index target; errors carry
    row and column coordinates."""
    require_distinct_columns(feature_columns, target_column)
    try:
        f = open(path, newline="")
    except OSError as exc:
        raise DataLoadError(f"cannot open {path}: {exc}") from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataLoadError("no data rows: file is empty") from None
        for col in feature_columns + [target_column]:
            if col not in header:
                raise DataLoadError(f"missing column {col!r}")
            if header.count(col) > 1:  # header.index would read its first copy alone
                raise DataLoadError(f"column {col!r} appears {header.count(col)} times "
                                    f"in the header")
        # (column index, parser) per cell read: float features, then the target
        cells = [(header.index(c), float) for c in feature_columns]
        cells.append((header.index(target_column), int))
        xs, ys = [], []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataLoadError(f"row {rownum}: expected {len(header)} cells, got {len(row)}")
            values = []
            for i, parse in cells:
                try:
                    if "_" in row[i]:  # int and float would read it as digit grouping
                        raise ValueError
                    values.append(parse(row[i]))
                except ValueError:
                    raise DataLoadError(
                        f"row {rownum}, column {header[i]!r}: unparsable cell {row[i]!r}") from None
            ys.append(values.pop())  # the target's cell is the last
            xs.append(values)
    if not xs:
        raise DataLoadError("no data rows")
    X = np.asarray(xs, dtype=np.float64)
    _require(np.isfinite(X), X, feature_columns, "a finite number")
    y = np.asarray(ys, dtype=np.int64)
    _require(y >= 0, y, [target_column], "a class index >= 0")
    return Dataset(X, y, int(y.max()) + 1)


def _require(ok: np.ndarray, values: np.ndarray, columns: list[str], need: str) -> None:
    """DataLoadError at the first cell, in row-major order, where ``ok`` is False;
    ``values`` holds one row per data row and one column per name in ``columns``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        r, c = divmod(int(bad[0]), len(columns))
        raise DataLoadError(f"row {r + 1}, column {columns[c]!r}: "
                            f"{values.flat[bad[0]].item()!r} is not {need}")


def batches(dataset: Dataset, seed: int, epoch: int, batch_size: int):
    """One epoch of mini-batches, shuffled deterministically in (seed, epoch);
    the final partial batch is kept."""
    if not 1 <= batch_size <= dataset.n:
        raise ContractViolation(f"batch_size must lie in [1, {dataset.n}], got {batch_size}")
    perm = Rng([seed, epoch]).permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        idx = perm[start:start + batch_size]
        yield dataset.X[idx], dataset.y[idx]
