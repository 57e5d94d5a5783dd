"""Diversity and balance diagnostics for expert populations.

All metrics use population variance and are invariant to expert ordering;
``diverse_degree`` compares all unordered expert pairs exhaustively.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ContractViolation
from .model import MoEModel, RoutingRecord, expert_forward, param_shapes

SIMILARITY_THRESHOLD = 1e-3


def _expert_vector(model: MoEModel, m: int) -> np.ndarray:
    return np.concatenate([model.params[n].ravel() for n in model.expert_names(m)])


def expert_param_variance(experts: list[np.ndarray]) -> float:
    """Mean over positions of the across-expert population variance."""
    if len(experts) < 2:
        raise ContractViolation("need at least two experts")
    flat = [np.asarray(e, dtype=np.float64).ravel() for e in experts]
    sizes = {f.size for f in flat}
    if len(sizes) != 1:
        raise ContractViolation("expert parameter sets have mismatched shapes")
    stacked = np.stack(flat)
    # anchor on the first expert so identical experts give exactly zero
    # (variance is translation invariant; this dodges FP noise in the mean)
    stacked = stacked - stacked[0]
    return float(np.mean(np.var(stacked, axis=0)))


def model_param_variance(model: MoEModel) -> float:
    return expert_param_variance([_expert_vector(model, m) for m in range(model.M)])


def similar_fraction(a, b, threshold: float = SIMILARITY_THRESHOLD) -> float:
    """Fraction of positions where |a - b| is below the threshold."""
    if threshold <= 0:
        raise ContractViolation("threshold must be positive")
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ContractViolation("parameter sets have mismatched shapes")
    return float(np.mean(np.abs(a - b) < threshold))


def model_similar_fraction(model: MoEModel, threshold: float = SIMILARITY_THRESHOLD) -> float:
    """Mean similar fraction over all unordered expert pairs."""
    vecs = [_expert_vector(model, m) for m in range(model.M)]
    pairs = list(combinations(range(model.M), 2))
    return float(np.mean([similar_fraction(vecs[i], vecs[j], threshold) for i, j in pairs]))


def diverse_degree(model_a: MoEModel, model_b: MoEModel) -> float:
    """Fraction of (expert pair, position) entries where the cross-expert
    difference is strictly larger in model_a than in model_b."""
    if param_shapes(model_a.dims, model_a.M) != param_shapes(model_b.dims, model_b.M):
        raise ContractViolation("models have mismatched architecture")
    vecs_a = [_expert_vector(model_a, m) for m in range(model_a.M)]
    vecs_b = [_expert_vector(model_b, m) for m in range(model_b.M)]
    larger = 0
    total = 0
    for i, j in combinations(range(model_a.M), 2):
        da = np.abs(vecs_a[i] - vecs_a[j])
        db = np.abs(vecs_b[i] - vecs_b[j])
        larger += int(np.sum(da > db))
        total += da.size
    return larger / total


def output_variance(model: MoEModel, x) -> float:
    """Variance across experts of their outputs on one raw input sample."""
    if model.M < 2:
        raise ContractViolation("need at least two experts")
    x = np.asarray(x, dtype=np.float64).ravel()
    z0 = model.params["input_map.W"] @ x + model.params["input_map.b"]
    outs = np.stack([expert_forward(model.params, m, z0[None, :])[1][0]
                     for m in range(model.M)])
    return float(np.mean(np.var(outs, axis=0)))


def load_entropy(routing: list[RoutingRecord] | RoutingRecord) -> float:
    """Shannon entropy (nats) of the empirical expert-assignment distribution."""
    records = routing if isinstance(routing, list) else [routing]
    if not records:
        raise ContractViolation("need at least one routing record")
    M = records[0].weights.shape[1]
    counts = np.zeros(M)
    for rec in records:
        if rec.selected is not None:
            counts += np.bincount(rec.selected, minlength=M)
        else:
            counts += rec.weights.sum(axis=0)
    if counts.sum() <= 0:
        raise ContractViolation("need at least one token")
    p = counts / counts.sum()
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def diversity_report(model: MoEModel, probe_input, routing) -> dict:
    return {
        "param_variance": model_param_variance(model),
        "similar_fraction": model_similar_fraction(model),
        "output_variance": output_variance(model, probe_input),
        "load_entropy": load_entropy(routing),
    }
