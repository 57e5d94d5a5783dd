"""Exact reverse-mode gradients for the MoE model, plus finite-difference checks.

``backward`` differentiates the mean batch loss with respect to every
parameter and also emits, for each expert and each of its two weight layers,
the mean input vector over the tokens that expert processed this batch (the
raw material for projector accumulation). It reads the tape in dispatch
order, as ``moe_block_forward`` left it: each expert's rows, upstream
gradients and gate probabilities are contiguous slices, and the input and gate
gradients are scattered back to batch order once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import BatchTape, MoEModel, model_forward, softmax


@dataclass
class Gradients:
    grads: dict[str, np.ndarray]
    loss: float


# ExpertInputMeans: (expert, layer) -> mean input vector; entries exist only
# for experts that received at least one token.
ExpertInputMeans = dict


LOSS_KINDS = ("ce", "mse")  # cross-entropy over class indices, 0.5 squared error


def _class_indices(targets, n: int, c: int) -> np.ndarray:
    """``targets`` as n int64 class indices; each must be a whole number in [0, c)."""
    t = np.asarray(targets).ravel()
    if t.shape[0] != n:
        raise ContractViolation("target count does not match batch size")
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


def _loss_with_grad(logits: np.ndarray, targets, kind: str):
    """(mean batch loss, its gradient with respect to the logits)."""
    if kind not in LOSS_KINDS:
        raise ContractViolation(f"unknown loss kind {kind!r}")
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[0]
    if kind == "ce":
        targets = _class_indices(targets, n, logits.shape[1])
        probs = softmax(logits)
        rows = np.arange(n)
        value = float(-np.mean(np.log(probs[rows, targets])))
        probs[rows, targets] -= 1.0
        return value, probs / n
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if t.shape != logits.shape:
        raise ContractViolation(f"target shape {t.shape} != logits shape {logits.shape}")
    residual = logits - t
    return float(np.mean(0.5 * np.sum(residual ** 2, axis=1))), residual / n


def loss(logits: np.ndarray, targets, kind: str = "ce") -> float:
    """Mean batch loss: cross-entropy over class indices or 0.5 squared error."""
    return _loss_with_grad(logits, targets, kind)[0]


def backward(model: MoEModel, tape: BatchTape, targets, kind: str = "ce"):
    """Analytic gradients of the mean loss plus per-expert input means."""
    if tape.fingerprint is not None and tape.fingerprint != model.fingerprint():
        raise ContractViolation("stale tape: model parameters changed since forward")
    p = model.params
    loss_value, dlog = _loss_with_grad(tape.logits, targets, kind)

    idle = tuple(f"expert{m}." for m in range(model.M) if m not in tape.expert_tokens)
    g = {name: np.zeros_like(v) for name, v in p.items()
         if name.startswith(idle)}  # idle experts; every other entry is set below
    g["head.W"] = dlog.T @ tape.y_moe
    g["head.b"] = dlog.sum(axis=0)
    dY = dlog @ p["head.W"]

    # the experts' part works in dispatch order, on each expert's span of it
    probs, order = tape.routing.weights, tape.order
    dY_disp, gates = dY[order], probs[order]
    dZ_disp = np.zeros_like(tape.Z_disp)
    dP_disp = np.zeros_like(probs)  # dL/d(gate probability); zero where a row skipped an expert
    means: ExpertInputMeans = {}
    for m, span in tape.expert_tokens.items():
        hidden = tape.expert_hidden[m]
        Z_m, dY_m = tape.Z_disp[span], dY_disp[span]
        dOut = gates[span, m, None] * dY_m
        dP_disp[span, m] = np.sum(dY_m * tape.expert_out[m], axis=1)
        g[f"expert{m}.W2"] = dOut.T @ hidden
        g[f"expert{m}.b2"] = dOut.sum(axis=0)
        dPre1 = (dOut @ p[f"expert{m}.W2"]) * (hidden > 0)
        g[f"expert{m}.W1"] = dPre1.T @ Z_m
        g[f"expert{m}.b1"] = dPre1.sum(axis=0)
        dZ_disp[span] += dPre1 @ p[f"expert{m}.W1"]
        # sum / count is what ndarray.mean computes, without its per-call Python overhead
        means[(m, 1)] = Z_m.sum(axis=0) / len(Z_m)
        means[(m, 2)] = hidden.sum(axis=0) / len(Z_m)
    dP, dZ0 = np.empty_like(dP_disp), np.empty_like(dZ_disp)
    dP[order], dZ0[order] = dP_disp, dZ_disp
    # softmax Jacobian: dL/dlogit_j = p_j (dP_j - sum_k p_k dP_k)
    dGl = probs * (dP - np.sum(probs * dP, axis=1, keepdims=True))

    g["gate.W"] = dGl.T @ tape.Z0
    dZ0 += dGl @ p["gate.W"]
    g["input_map.W"] = dZ0.T @ tape.X
    g["input_map.b"] = dZ0.sum(axis=0)
    return Gradients(g, loss_value), means


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    excluded: list  # (param name, flat index) coords skipped due to argmax flips


def grad_check(model: MoEModel, X, targets, kind: str = "ce", h: float = 1e-5,
               n_samples: int = 200, rng: np.random.Generator | None = None) -> GradCheckResult:
    """Central-difference check over a random subsample of parameter coords.

    For top1 routing, coordinates whose perturbation flips any token's argmax
    are excluded (the loss is discontinuous there) and reported.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ContractViolation("h must lie in [1e-6, 1e-4]")
    rng = rng or np.random.default_rng(0)
    logits, tape = model_forward(model, X)
    analytic, _ = backward(model, tape, targets, kind)
    base_sel = tape.routing.selected

    coords = []
    for name in model.param_names():
        coords.extend((name, i) for i in range(model.params[name].size))
    if len(coords) > n_samples:
        pick = rng.choice(len(coords), size=n_samples, replace=False)
        coords = [coords[i] for i in sorted(pick)]

    max_err = 0.0
    excluded = []
    for name, i in coords:
        flat = model.params[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        lp, tp = model_forward(model, X)
        sel_p = tp.routing.selected
        loss_p = loss(lp, targets, kind)
        flat[i] = orig - h
        lm, tm = model_forward(model, X)
        sel_m = tm.routing.selected
        loss_m = loss(lm, targets, kind)
        flat[i] = orig
        if model.routing == "top1" and (
                not np.array_equal(sel_p, base_sel) or not np.array_equal(sel_m, base_sel)):
            excluded.append((name, i))
            continue
        numeric = (loss_p - loss_m) / (2 * h)
        a = analytic.grads[name].reshape(-1)[i]
        max_err = max(max_err, abs(a - numeric) / max(1.0, abs(numeric)))
    return GradCheckResult(max_err, len(coords) - len(excluded), excluded)
