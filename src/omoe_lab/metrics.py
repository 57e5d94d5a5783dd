"""Diversity and balance diagnostics for expert populations.

All metrics use population variance and are invariant to expert ordering. The
pairwise metrics read one walk, ``_pair_gaps``, over all unordered expert pairs. The
model-level metrics go one parameter kind (W1, b1, W2, b2) at a time and read
the experts' arrays in place: none holds a copy of every expert's parameters,
or a stack of one kind's.
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


def model_param_variance(model: MoEModel) -> float:
    """Mean over positions of the across-expert population variance of the experts'
    parameter vectors, ``np.mean(np.var(stack - stack[0], axis=0))`` of their stack,
    computed without building the stack.

    The experts' arrays are read in place, one parameter kind at a time. Each expert's
    offset from the first is formed in one reused n-vector, and the offsets are summed
    in order, as ``np.var`` sums a stack two or more columns wide (a one-column one it
    sums pairwise from 8 rows up). Anchoring makes identical experts give exactly zero,
    and a non-finite anchor entry gives NaN, as ``stack - stack[0]`` does.
    """
    if model.M < 2:
        raise ContractViolation("need at least two experts")
    variances = np.empty(_expert_size(model))
    start = 0
    for block in _expert_blocks(model):
        anchor = block[0].reshape(-1)
        out = variances[start:start + anchor.size]
        start += anchor.size
        diff = np.empty_like(anchor)
        mean = anchor - anchor
        for x in block[1:]:
            mean += np.subtract(x.reshape(-1), anchor, out=diff)
        mean /= len(block)
        np.multiply(mean, mean, out=out)  # the anchor's own term, (0 - mean)^2
        for x in block[1:]:
            np.subtract(x.reshape(-1), anchor, out=diff)
            diff -= mean
            diff *= diff
            out += diff
        out /= len(block)
    return float(np.mean(variances))


def _pair_gaps(model: MoEModel):
    """For each unordered expert pair, in ``combinations`` order, yield its
    ``|a_i - a_j|`` arrays lazily, one parameter kind at a time."""
    blocks = _expert_blocks(model)
    for i, j in combinations(range(model.M), 2):
        yield (np.abs(block[i] - block[j]) for block in blocks)


def model_similar_fraction(model: MoEModel) -> float:
    """Mean over all unordered expert pairs of the fraction of positions where the
    pair's parameters differ by less than ``SIMILARITY_THRESHOLD``."""
    size = _expert_size(model)
    fractions = [sum(int(np.count_nonzero(gap < SIMILARITY_THRESHOLD)) for gap in gaps) / size
                 for gaps in _pair_gaps(model)]
    return float(np.mean(fractions))


def diverse_degree(model_a: MoEModel, model_b: MoEModel) -> float:
    """Fraction of (expert pair, position) entries where the cross-expert
    difference is strictly larger in model_a than in model_b."""
    if param_shapes(model_a.dims, model_a.M) != param_shapes(model_b.dims, model_b.M):
        raise ContractViolation("models have mismatched architecture")
    if model_a.M < 2:  # one expert makes no pair to compare
        raise ContractViolation(f"diverse_degree needs at least two experts, got M = {model_a.M}")
    larger = sum(int(np.count_nonzero(gap_a > gap_b))
                 for gaps_a, gaps_b in zip(_pair_gaps(model_a), _pair_gaps(model_b))
                 for gap_a, gap_b in zip(gaps_a, gaps_b))
    return larger / (model_a.M * (model_a.M - 1) // 2 * _expert_size(model_a))


def output_variance(model: MoEModel, x) -> float:
    """Variance across experts of their outputs on one raw input sample."""
    if model.M < 2:
        raise ContractViolation("need at least two experts")
    x = np.asarray(x, dtype=np.float64).ravel()
    z0 = model.params["input_map.W"] @ x + model.params["input_map.b"]
    outs = np.stack([expert_forward(model.params, m, z0[None, :])[1][0]
                     for m in range(model.M)])
    return float(np.mean(np.var(outs, axis=0)))


def load_entropy(routing: RoutingRecord) -> float:
    """Shannon entropy (nats) of the empirical expert-assignment distribution: hard
    counts when each row has one expert, the summed gate weights otherwise."""
    if routing.selected is not None:
        counts = np.bincount(routing.selected, minlength=routing.weights.shape[1])
    else:
        counts = routing.weights.sum(axis=0)
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
