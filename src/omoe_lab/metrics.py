"""Diversity and balance diagnostics for expert populations.

All metrics use population variance and are invariant to expert ordering;
``diverse_degree`` compares all unordered expert pairs exhaustively. The
model-level parameter metrics walk the experts one parameter kind (W1, b1,
W2, b2) at a time and read the experts' arrays in place: none of them holds a
copy of every expert's parameters, or a stack of one kind's.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ContractViolation
from .model import MoEModel, RoutingRecord, expert_forward, param_shapes

SIMILARITY_THRESHOLD = 1e-3


def _expert_blocks(model: MoEModel) -> list[list[np.ndarray]]:
    """The M experts' arrays of each parameter kind, kinds in an expert's parameter order."""
    kinds = [name.split(".", 1)[1] for name in model.expert_names(0)]
    return [[model.params[f"expert{m}.{kind}"] for m in range(model.M)] for kind in kinds]


def _expert_size(model: MoEModel) -> int:
    return sum(model.params[name].size for name in model.expert_names(0))


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


def _anchored_variance(block: list[np.ndarray], out: np.ndarray) -> None:
    """Write ``np.var(stack - stack[0], axis=0)`` of the experts' flattened arrays
    into ``out``, reading them in place: no (M, n) stack is built.

    Each expert's offset from the first is formed in one reused n-vector. The
    offsets are summed one at a time, in order, as ``np.var`` sums a stack two or
    more columns wide, so the bits are the stack's. A one-column block, which
    ``np.var`` would sum pairwise, so gets the bits it has inside the whole-vector
    stack. A non-finite anchor entry gives NaN, as ``stack - stack[0]`` does.
    """
    anchor = block[0].reshape(-1)
    diff = np.empty_like(anchor)
    mean = anchor - anchor
    for x in block[1:]:
        mean += np.subtract(x.reshape(-1), anchor, out=diff)
    mean /= len(block)
    np.subtract(anchor, anchor, out=out)
    out -= mean
    out *= out
    for x in block[1:]:
        np.subtract(x.reshape(-1), anchor, out=diff)
        diff -= mean
        diff *= diff
        out += diff
    out /= len(block)


def model_param_variance(model: MoEModel) -> float:
    """``expert_param_variance`` of the experts' parameter vectors, bit for bit: one
    parameter kind at a time, read in place with two n-vectors of scratch, and one
    ``np.mean`` over every position."""
    if model.M < 2:
        raise ContractViolation("need at least two experts")
    variances = np.empty(_expert_size(model))
    start = 0
    for block in _expert_blocks(model):
        size = block[0].size
        _anchored_variance(block, variances[start:start + size])
        start += size
    return float(np.mean(variances))


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
    if threshold <= 0:
        raise ContractViolation("threshold must be positive")
    pairs = list(combinations(range(model.M), 2))
    similar = [0] * len(pairs)
    for block in _expert_blocks(model):
        for p, (i, j) in enumerate(pairs):
            similar[p] += int(np.count_nonzero(np.abs(block[i] - block[j]) < threshold))
    size = _expert_size(model)
    return float(np.mean([count / size for count in similar]))


def diverse_degree(model_a: MoEModel, model_b: MoEModel) -> float:
    """Fraction of (expert pair, position) entries where the cross-expert
    difference is strictly larger in model_a than in model_b."""
    if param_shapes(model_a.dims, model_a.M) != param_shapes(model_b.dims, model_b.M):
        raise ContractViolation("models have mismatched architecture")
    if model_a.M < 2:  # one expert makes no pair to compare
        raise ContractViolation(f"diverse_degree needs at least two experts, got M = {model_a.M}")
    pairs = list(combinations(range(model_a.M), 2))
    larger = 0
    for block_a, block_b in zip(_expert_blocks(model_a), _expert_blocks(model_b)):
        for i, j in pairs:
            da = np.abs(block_a[i] - block_a[j])
            larger += int(np.count_nonzero(da > np.abs(block_b[i] - block_b[j])))
    return larger / (len(pairs) * _expert_size(model_a))


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
