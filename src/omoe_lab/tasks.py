"""Synthetic datasets rewarding expert specialization, CSV ingestion, batching.

``gen_subspace_clusters`` places each class inside its own random linear
subspace (pairwise orthogonal when they fit), so a router + specialist
experts can carve the input space cleanly. ``gen_piecewise_regression`` is
the regression counterpart: a different linear map per input region.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DataLoadError
from .linalg import Rng


@dataclass
class Dataset:
    X: np.ndarray           # (N, d_raw)
    y: np.ndarray           # class indices or real targets
    kind: str               # "classification" or "regression"
    n_classes: int = 0      # valid for classification
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.X.shape[0] < 1:
            raise ContractViolation("dataset must contain at least one row")
        if not np.all(np.isfinite(self.X)):
            raise ContractViolation("features contain non-finite values")
        if self.kind == "classification":
            yi = self.y.astype(np.int64)
            if yi.min() < 0 or yi.max() >= self.n_classes:
                raise ContractViolation("class indices out of range")

    @property
    def n(self) -> int:
        return self.X.shape[0]


def gen_subspace_clusters(rng: np.random.Generator, K: int, d_raw: int, n_per_cluster: int,
                          subspace_dim: int, noise_std: float = 0.0) -> Dataset:
    """K classes, class k living in its own ``subspace_dim``-dim subspace.

    Bases come from one QR factorization, so they are exactly orthogonal when
    K * subspace_dim <= d_raw; otherwise each basis is sampled independently
    and the dataset carries an ``overlapping_subspaces`` warning flag.
    """
    if K < 2:
        raise ContractViolation("need at least K=2 clusters")
    if subspace_dim > d_raw:
        raise ContractViolation("subspace_dim cannot exceed d_raw")
    overlapping = K * subspace_dim > d_raw
    if overlapping:
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
    return Dataset(np.vstack(xs), np.concatenate(ys), "classification", K,
                   {"overlapping_subspaces": overlapping, "bases": bases})


def gen_piecewise_regression(rng: np.random.Generator, pieces: int, d_raw: int, n: int,
                             noise_std: float = 0.0) -> Dataset:
    """Targets follow a region-specific linear map; regions are the cells of
    a nearest-anchor partition (boundaries are hyperplane bisectors)."""
    if pieces < 2:
        raise ContractViolation("need at least 2 pieces")
    anchors = rng.normal(size=(pieces, d_raw))
    maps = rng.normal(size=(pieces, d_raw)) / np.sqrt(d_raw)
    X = rng.normal(size=(n, d_raw))
    dist = ((X[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    region = np.argmin(dist, axis=1)
    y = np.einsum("nd,nd->n", X, maps[region])
    if noise_std > 0:
        y = y + rng.normal(0.0, noise_std, size=n)
    return Dataset(X, y, "regression", 0, {"regions": region})


def write_csv(dataset: Dataset, path) -> None:
    """Full-precision decimal CSV: feature columns f0..f{d-1} plus target."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        d = dataset.X.shape[1]
        writer.writerow([f"f{i}" for i in range(d)] + ["target"])
        for row, target in zip(dataset.X, dataset.y):
            tgt = int(target) if dataset.kind == "classification" else repr(float(target))
            writer.writerow([repr(float(v)) for v in row] + [tgt])


def load_csv(path, feature_columns: list[str], target_column: str,
             kind: str = "classification") -> Dataset:
    """Strict CSV ingestion; errors carry row and column coordinates."""
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
        # (column index, parser) per cell read: float features, then the target
        cells = [(header.index(c), float) for c in feature_columns]
        cells.append((header.index(target_column), int if kind == "classification" else float))
        xs, ys = [], []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataLoadError(f"row {rownum}: expected {len(header)} cells, got {len(row)}")
            values = []
            for i, parse in cells:
                try:
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
    if kind == "classification":
        y = np.asarray(ys, dtype=np.int64)
        _require(y >= 0, y, [target_column], "a class index >= 0")
        return Dataset(X, y, "classification", int(y.max()) + 1)
    y = np.asarray(ys, dtype=np.float64)
    _require(np.isfinite(y), y, [target_column], "a finite number")
    return Dataset(X, y, "regression")


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
