"""Exact reverse-mode gradients for the MoE model, plus finite-difference checks.

``backward`` differentiates the mean batch cross-entropy with respect to every
parameter. It reads the tape's (batch row, expert) pairs as
``moe_block_forward`` laid them out: the upstream gradient of each pair, its
gate multiply, the dL/d(gate probability) row sums, the ReLU mask and the fold
of the input gradient back to batch rows run once per batch, and each expert
runs its matmuls on its span of the pair buffers. An idle expert's span is
empty, so its gradients come out exactly zero from the same code. With
``experts_only`` it stops at the experts' gradients, all an O step reads.

An expert weight gradient is the product ``U.T @ X`` of two pair-row factors:
the upstream gradient of the expert's pairs and their input rows. ``backward``
keeps the two factors, which ``Gradients.factors`` returns, and does not form the
product; reading the entry forms it, so an optimizer that reads one weight at a
time holds one such gradient at a time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import Rng
from .model import (BatchTape, ModelDims, MoEModel, fold_pairs, model_forward, param_shapes,
                    softmax)


class Gradients(Mapping):
    """Read-only parameter name -> gradient, with the batch's ``loss``.

    ``Gradients(arrays, loss)`` holds arrays, in their order. ``backward``'s holds each
    expert weight's entry as its factors (U, X), read as ``U.T @ X``, formed anew on every
    read and not kept, and iterates in ``param_shapes`` order. Iteration, ``len`` and
    ``in`` cover only the names it holds: all, or the experts' from ``experts_only``.
    """

    def __init__(self, arrays: dict, loss: float, factors: dict | None = None,
                 layout: tuple[ModelDims, int] | None = None):
        self.loss, self._arrays, self._factors = loss, arrays, factors or {}
        self._layout = layout  # (dims, M); the name order is built only when iterated

    def factors(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Expert weight ``name``'s factors (U, X): its gradient is ``U.T @ X``."""
        return self._factors[name]

    def __getitem__(self, name: str) -> np.ndarray:
        factors = self._factors.get(name)
        if factors is None:
            return self._arrays[name]
        return factors[0].T @ factors[1]

    def __contains__(self, name) -> bool:  # Mapping's would form the product
        return name in self._arrays or name in self._factors

    def __iter__(self):
        names = self._arrays if self._layout is None else param_shapes(*self._layout)
        return (name for name in names if name in self)

    def __len__(self) -> int:
        return len(self._arrays) + len(self._factors)


def _class_indices(targets, n: int, c: int) -> np.ndarray:
    """``targets`` as n int64 class indices; each must be a whole number in [0, c)."""
    t = np.asarray(targets).ravel()
    if t.shape[0] != n:
        raise ContractViolation(f"{t.shape[0]} targets for {n} rows")
    if t.dtype.kind in "iu":
        idx = t.astype(np.int64, copy=False)
        bad = idx.view(np.uint64) >= c  # a negative index reads as a huge unsigned one
    else:  # a float must hold a whole number; a non-finite one casts to garbage, caught here
        with np.errstate(invalid="ignore"):
            idx = t.astype(np.int64)
        bad = (idx != t) | (idx.view(np.uint64) >= c)
    if bad.any():
        row = int(np.argmax(bad))
        raise ContractViolation(f"target {t[row].item()!r} in row {row} "
                                f"is not a class index in [0, {c})")
    return idx


def _loss_with_grad(logits: np.ndarray, targets):
    """(mean batch cross-entropy, its gradient with respect to the logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[0]
    targets = _class_indices(targets, n, logits.shape[1])
    probs = softmax(logits)
    rows = np.arange(n)
    value = float(-np.mean(np.log(probs[rows, targets])))
    probs[rows, targets] -= 1.0
    return value, probs / n


def loss(logits: np.ndarray, targets) -> float:
    """Mean batch cross-entropy over class indices."""
    return _loss_with_grad(logits, targets)[0]


def backward(model: MoEModel, tape: BatchTape, targets, experts_only: bool = False):
    """Analytic gradients of the mean loss with respect to every parameter.

    Each expert weight gradient stays as two pair-row factors: ``expert{m}.W2``
    as (gated upstream gradient, hidden rows) and ``expert{m}.W1`` as
    (pre-ReLU gradient, input rows), over expert m's span. The factors keep the
    tape's hidden buffer and input rows alive, but read no parameter, so the
    parameters may move before the entries are read.

    ``experts_only`` gives the loss and the expert parameters' gradients alone,
    all an O step reads: the head, gate and input-map gradients, the gate
    probabilities' gradient and the pairs' input gradients are not computed,
    and the mapping holds only the expert names.
    """
    if tape.hidden is None:
        raise ContractViolation("tape keeps no activations: its forward ran with backward=False")
    if tape.fingerprint is not None and tape.fingerprint != model.fingerprint():
        raise ContractViolation("stale tape: model parameters changed since forward")
    p = model.params
    loss_value, dlog = _loss_with_grad(tape.logits, targets)

    g = {} if experts_only else {"head.W": dlog.T @ tape.y_moe, "head.b": dlog.sum(axis=0)}
    dY = dlog @ p["head.W"]

    # the experts' part works on pairs: each expert's matmuls on its span of them
    probs, order, experts, hidden = tape.routing.weights, tape.order, tape.experts, tape.hidden
    dOut = dY[order]  # the pairs' upstream gradients, gated in place below
    if not experts_only:
        dP = np.zeros(probs.shape)  # dL/d(gate probability); zero where a row skipped an expert
        dP[order, experts] = np.add.reduce(dOut * tape.out, axis=1)
    dOut *= probs[order, experts, None]
    dPre1 = np.empty(hidden.shape)
    factors = {}  # expert weight -> (U, X), its gradient U.T @ X
    for m, span in enumerate(tape.spans):  # np.add.reduce is ndarray.sum without its wrapper
        factors[f"expert{m}.W2"] = dOut[span], hidden[span]
        g[f"expert{m}.b2"] = np.add.reduce(dOut[span])
        np.matmul(dOut[span], p[f"expert{m}.W2"], out=dPre1[span])
    dPre1 *= hidden > 0
    for m, (span, Z_m) in enumerate(zip(tape.spans, tape.inputs)):
        factors[f"expert{m}.W1"] = dPre1[span], Z_m
        g[f"expert{m}.b1"] = np.add.reduce(dPre1[span])
    if not experts_only:
        dZ_pairs = np.empty(dOut.shape)
        for m, span in enumerate(tape.spans):
            np.matmul(dPre1[span], p[f"expert{m}.W1"], out=dZ_pairs[span])
        dZ0 = fold_pairs(tape.slots, dZ_pairs)
        # softmax Jacobian: dL/dlogit_j = p_j (dP_j - sum_k p_k dP_k)
        dGl = probs * (dP - np.sum(probs * dP, axis=1, keepdims=True))
        g["gate.W"] = dGl.T @ tape.Z0
        dZ0 += dGl @ p["gate.W"]
        g["input_map.W"] = dZ0.T @ tape.X
        g["input_map.b"] = dZ0.sum(axis=0)
    return Gradients(g, loss_value, factors, (model.dims, model.M))


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    excluded: list  # (param name, flat index) coords skipped: some row's experts changed


def grad_check(model: MoEModel, X, targets, h: float = 1e-5, n_samples: int = 200,
               rng: np.random.Generator | None = None) -> GradCheckResult:
    """Central-difference check over a random subsample of parameter coords.

    A coordinate whose perturbation by +h or -h changes any row's chosen experts
    is excluded (the loss is discontinuous there) and reported. Dense routing
    chooses every expert for every row, so it excludes nothing.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ContractViolation("h must lie in [1e-6, 1e-4]")
    if n_samples < 1:
        raise ContractViolation(f"n_samples must be >= 1, got {n_samples}")
    rng = rng or Rng(0)
    logits, tape = model_forward(model, X, guard=False)  # the tape goes straight to backward
    analytic = backward(model, tape, targets)
    chosen = tape.experts[tape.slots]  # (N, k): each row's experts, ascending

    coords = []
    for name in model.param_names():
        coords.extend((name, i) for i in range(model.params[name].size))
    if len(coords) > n_samples:
        pick = rng.choice(len(coords), size=n_samples, replace=False)
        coords = [coords[i] for i in sorted(pick)]

    by_name = {}  # coords runs in parameter order, so each name's coords stay in order
    for name, i in coords:
        by_name.setdefault(name, []).append(i)

    max_err = 0.0
    excluded = []
    for name, flat_ids in by_name.items():
        flat = model.params[name].reshape(-1)
        # read once: an expert weight's gradient is formed from its factors on every read
        analytic_flat = analytic[name].reshape(-1)
        for i in flat_ids:
            orig = flat[i]
            flat[i] = orig + h
            lp, tp = model_forward(model, X, backward=False)
            flat[i] = orig - h
            lm, tm = model_forward(model, X, backward=False)
            flat[i] = orig
            if not all(np.array_equal(t.experts[t.slots], chosen) for t in (tp, tm)):
                excluded.append((name, i))
                continue
            numeric = (loss(lp, targets) - loss(lm, targets)) / (2 * h)
            a = analytic_flat[i]
            max_err = max(max_err, abs(a - numeric) / max(1.0, abs(numeric)))
    return GradCheckResult(max_err, len(coords) - len(excluded), excluded)
