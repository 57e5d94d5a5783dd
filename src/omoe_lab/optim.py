"""Base optimizers and the OMoE composite optimizer.

OMoE alternates two kinds of steps over mini-batches (counter ``e`` starts at
1 so training opens with a regular step):

* R step (``e mod s != 0``): the base optimizer updates every parameter, and
  the mean input of each expert's two weight layers over the batch's rows that
  expert ran on, read from the forward tape, is appended to accumulation
  buffers. An idle expert, with no rows, buffers nothing.
* O step (``e mod s == 0``): buffered means are drained into the per-expert
  RLS projectors, then each expert's weight matrices take a plain gradient
  step projected by the averaged projector of the *other* experts. Only
  expert parameters move; base-optimizer moments are not advanced, and the
  step's backward builds the expert gradients alone.

Adam and AdamW keep the textbook moment updates bit for bit and evaluate the
bias-corrected parameter step re-associated, in place, in one temporary.
"""

from __future__ import annotations

import inspect
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .grad import Gradients, backward
from .linalg import require_finite
from .model import (BatchTape, MoEModel, layer_widths, model_forward, param_shapes,
                    read_checkpoint, require_fields, require_keys, require_kind, require_shapes,
                    write_checkpoint)
from .projector import OrthoProjector

AVG_NORMS = ("paper", "proper")  # "paper": 1/M over M-1 terms; "proper": 1/(M-1)


GATHER_BELOW = 4096  # parameters under this many floats step together as one vector


class BaseOptimizer:
    """Per-parameter moment buffers keyed by parameter name.

    A step gathers the parameters under ``GATHER_BELOW`` floats, and their
    gradients, into one vector each, updates it with a single ``_update`` and
    copies the result back into the caller's arrays. The update is elementwise,
    so gathering changes no bit. A larger parameter steps alone, in place.
    ``state[name][moment]`` has the parameter's shape; for a gathered parameter
    it is a view into one flat array per moment.
    """

    kind = "base"
    moments: tuple[str, ...] = ()  # moment buffers kept per parameter

    def __init__(self, lr: float = 0.1):
        self.lr = lr
        self.t = 0
        self.state: dict[str, dict[str, np.ndarray]] = {}
        self._layout = None  # built by _gather_layout on the first step

    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        self.t += 1
        if (self._layout is None or self._layout[0] != tuple(params)
                or self._layout[1] is not self.state):
            self._layout = self._gather_layout(params)
        _, _, gathered, p, moments, views, alone = self._layout
        if gathered:
            np.concatenate([params[name] for name in gathered], axis=None, out=p)
            g = np.concatenate([grads[name] for name in gathered], axis=None)
            self._update(p, g, moments)
            for name, view in zip(gathered, views):
                params[name][...] = view
        for name in alone:
            self._update(params[name], grads[name], self.state.get(name, {}))

    def _gather_layout(self, params: dict[str, np.ndarray]) -> tuple:
        """Flat float64 vectors for the parameters under ``GATHER_BELOW`` floats and
        their moments, and ``state`` rebuilt in ``params``' order around views of the
        flat moments; values already in ``state``, such as a loaded file's, are copied in."""
        gathered = [name for name, arr in params.items() if arr.size < GATHER_BELOW]
        alone = [name for name, arr in params.items() if arr.size >= GATHER_BELOW]
        sizes = [params[name].size for name in gathered]
        p = np.empty(sum(sizes))  # kept with its views; the gradient vector is made per step
        moments = {k: np.zeros(sum(sizes)) for k in self.moments}

        def shaped(flat):  # gathered name -> its part of ``flat``, in the parameter's shape
            return {name: part.reshape(params[name].shape)
                    for name, part in zip(gathered, np.split(flat, np.cumsum(sizes)[:-1]))}

        views = {k: shaped(flat) for k, flat in moments.items()}
        state = {}
        for name, arr in params.items() if self.moments else ():  # SGD's state stays {}
            state[name] = {k: views[k][name] if name in views[k] else np.zeros_like(arr)
                           for k in self.moments}
            for k, old in self.state.get(name, {}).items():
                state[name][k][...] = old
        self.state = state
        return (tuple(params), state, gathered, p, moments, list(shaped(p).values()), alone)

    def _update(self, p: np.ndarray, g: np.ndarray, st: dict[str, np.ndarray]) -> None:
        """Move ``p`` in place by gradient ``g``, advancing ``st``, its moment buffers."""
        raise NotImplementedError

    @classmethod
    def state_floats(cls, param_floats: int) -> int:
        """Moment-buffer float count for ``param_floats`` parameters (memory accounting)."""
        return len(cls.moments) * param_floats


class SGD(BaseOptimizer):
    kind = "sgd"

    def _update(self, p, g, st):
        p -= self.lr * g


class Adam(BaseOptimizer):
    kind = "adam"
    moments = ("m", "v")

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def _update(self, p, g, st):
        """The moments take the textbook expressions' bits; the step is evaluated as
        ``lr/c1 · m / (√v · (1/√c2) + eps)`` with c_i = 1 − beta_i^t, in one temporary."""
        m, v = st["m"], st["v"]
        tmp = np.multiply(g, 1 - self.beta1)
        m *= self.beta1
        m += tmp
        np.multiply(g, 1 - self.beta2, out=tmp)
        tmp *= g
        v *= self.beta2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp *= 1 / math.sqrt(1 - self.beta2 ** self.t)
        tmp += self.eps
        np.divide(m, tmp, out=tmp)
        tmp *= self.lr / (1 - self.beta1 ** self.t)
        p -= tmp


class AdamW(Adam):
    kind = "adamw"

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
        super().__init__(lr, beta1, beta2, eps)
        self.weight_decay = weight_decay

    def _update(self, p, g, st):
        p *= 1 - self.lr * self.weight_decay  # the decoupled decay, before the Adam step
        super()._update(p, g, st)


class RMSProp(BaseOptimizer):
    kind = "rmsprop"
    moments = ("v",)

    def __init__(self, lr=1e-3, rho=0.99, eps=1e-8):
        super().__init__(lr)
        self.rho, self.eps = rho, eps

    def _update(self, p, g, st):
        st["v"] *= self.rho
        st["v"] += (1 - self.rho) * g * g
        p -= self.lr * g / (np.sqrt(st["v"]) + self.eps)


class Adagrad(BaseOptimizer):
    kind = "adagrad"
    moments = ("G",)

    def __init__(self, lr=0.1, eps=1e-10):
        super().__init__(lr)
        self.eps = eps

    def _update(self, p, g, st):
        st["G"] += g * g
        p -= self.lr * g / (np.sqrt(st["G"]) + self.eps)


OPTIMIZERS = {cls.kind: cls for cls in (SGD, Adam, AdamW, RMSProp, Adagrad)}

_POSITIVE, _UNIT = (lambda v: v > 0, "be > 0"), (lambda v: 0 <= v < 1, "lie in [0, 1)")
_NON_NEGATIVE = (lambda v: v >= 0, "be >= 0")
_ONE_UP, _TWO_UP = (lambda v: v >= 1, "be >= 1"), (lambda v: v >= 2, "be >= 2")
# each numeric config key's, hyperparameter's and counter's range, by its config or file
# name; NaN and ±inf fail too. M >= 2: an O step projects by the other experts' projectors
RANGES = {"lr": _POSITIVE, "eps": _POSITIVE, "beta1": _UNIT, "beta2": _UNIT, "rho": _UNIT,
          "weight_decay": _NON_NEGATIVE, "s": _TWO_UP, "n_total": _ONE_UP, "alpha0": _POSITIVE,
          "lambda": (lambda v: 0 < v <= 1, "lie in (0, 1]"), "o_lr": _POSITIVE, "e": _ONE_UP,
          "t": _NON_NEGATIVE, "means_produced": _NON_NEGATIVE, "means_consumed": _NON_NEGATIVE,
          "d": _ONE_UP, "h": _ONE_UP, "c": _ONE_UP, "M": _TWO_UP, "d_raw": _ONE_UP, "K": _TWO_UP,
          "n_per_cluster": _ONE_UP, "subspace_dim": _ONE_UP, "noise_std": _NON_NEGATIVE,
          "epochs": _ONE_UP, "batch_size": _ONE_UP,
          "eval_fraction": (lambda v: 0 < v < 1, "lie in (0, 1)")}


def check_ranges(values: dict, where: str = "", error: type = ContractViolation) -> None:
    """Raise ``error`` naming ``where`` and the key for a value outside its ``RANGES``
    entry, not finite or not a number (None included); keys without an entry pass."""
    for key, value in values.items():
        if key in RANGES and not (isinstance(value, numbers.Real)
                                  and RANGES[key][0](value) and math.isfinite(value)):
            raise error(f"{where}{key}: must {RANGES[key][1]} and be finite, got {value!r}")


def hyperparameters(kind: str) -> dict:
    """Constructor parameter -> default of optimizer ``kind``, in the constructor's order."""
    return {k: p.default for k, p in inspect.signature(OPTIMIZERS[kind]).parameters.items()}


def make_optimizer(kind: str, lr: float, **hyper) -> BaseOptimizer:
    if kind not in OPTIMIZERS:
        raise ContractViolation(f"unknown optimizer kind {kind!r}")
    check_ranges({"lr": lr, **hyper})
    return OPTIMIZERS[kind](lr=lr, **hyper)


# --- multiply-accumulate accounting shared by prediction and instrumentation ---

def rls_update_macs(d: int) -> int:
    # P@x and x^T@P are d^2 each, the rank-one subtraction is d^2, plus O(d) scalars
    return 3 * d * d + 2 * d


def average_projector_macs(d: int, M: int) -> int:
    # one layer per O step: M - 1 additions form the sum of the M projectors, then
    # each expert's own is subtracted from it; a single expert takes no O step
    return (2 * M - 1) * d * d if M > 1 else 0


def projection_macs(d_out: int, d_in: int) -> int:
    return d_out * d_in * d_in


@dataclass
class MacCounter:
    rls: int = 0
    average: int = 0
    project: int = 0

    @property
    def total(self) -> int:
        return self.rls + self.average + self.project


def predict_o_step_macs(d: int, h: int, M: int, means_counts: dict) -> MacCounter:
    """Exact extra multiply-accumulate count for one O step.

    ``means_counts`` maps (expert, layer) to the number of buffered means
    that step will consume.
    """
    widths = layer_widths(d, h)
    return MacCounter(
        rls=sum(n * rls_update_macs(widths[layer][0]) for (_m, layer), n in means_counts.items()),
        average=sum(average_projector_macs(d_in, M) for d_in, _d_out in widths.values()),
        project=M * sum(projection_macs(d_out, d_in) for d_in, d_out in widths.values()))


@dataclass
class StepOutcome:
    kind: str  # "R" or "O"
    loss: float


@dataclass
class OMoEState:
    base: BaseOptimizer
    M: int
    s: int
    n_total: int
    alpha0: float
    lam: float
    avg_norm: str  # one of AVG_NORMS
    o_lr: float  # the O step's learning rate
    e: int = 1
    projectors: dict = field(default_factory=dict)  # (m, layer) -> OrthoProjector
    buffers: dict = field(default_factory=dict)     # (m, layer) -> [(batch index, xbar)]
    means_produced: int = 0
    means_consumed: int = 0
    mac_counter: MacCounter = field(default_factory=MacCounter)

    def __post_init__(self):
        check_ranges({"lambda": self.lam, **{key: getattr(self, key) for key in (
            "M", "s", "n_total", "alpha0", "o_lr", "e", "means_produced", "means_consumed")}})
        if self.e > self.n_total + 1:  # the next step's batch index lies past the schedule
            raise ContractViolation(f"e: must be <= n_total + 1 = {self.n_total + 1}, "
                                    f"got {self.e!r}")
        if self.avg_norm not in AVG_NORMS:
            raise ContractViolation(f"unknown avg_norm {self.avg_norm!r}")

    def alpha_at(self, i: int) -> float:
        """Decayed regularizer alpha0 * lam^(i / n_total) for batch index i."""
        if not (0 <= i <= self.n_total):
            raise ContractViolation(f"batch index {i} outside [0, {self.n_total}]")
        return self.alpha0 * self.lam ** (i / self.n_total)


def new_omoe_state(base: BaseOptimizer, model: MoEModel, s: int, n_total: int, alpha0: float,
                   lam: float, avg_norm: str, o_lr: float) -> OMoEState:
    state = OMoEState(base=base, M=model.M, s=s, n_total=n_total,
                      alpha0=alpha0, lam=lam, avg_norm=avg_norm, o_lr=o_lr)
    for m in range(model.M):
        for layer, (d_in, _d_out) in layer_widths(model.dims.d, model.dims.h).items():
            state.projectors[(m, layer)] = OrthoProjector(d_in)
            state.buffers[(m, layer)] = []
    return state


def r_step(state: OMoEState, model: MoEModel, grads: Gradients,
           tape: BatchTape) -> StepOutcome:
    """Each expert with rows in ``tape`` buffers the mean input of its two weight layers
    over those rows, then the base optimizer updates every parameter. The tape is spent
    once the means are buffered: it drops its pair buffers, and backward refuses it. The
    hidden buffer and the input rows stay alive only as factors of ``grads``' expert
    weight entries, each formed when the base step reads it."""
    for m, span in enumerate(tape.spans):  # no loop variable outlives the tape's buffers
        n = span.stop - span.start
        if n:  # sum / count is what ndarray.mean computes, without its per-call overhead
            state.buffers[(m, 1)].append((state.e, np.add.reduce(tape.inputs[m]) / n))
            state.buffers[(m, 2)].append((state.e, np.add.reduce(tape.hidden[span]) / n))
            state.means_produced += 2
    tape.inputs = tape.hidden = tape.out = None
    state.base.step(model.params, grads.grads)
    state.e += 1
    return StepOutcome("R", grads.loss)


def average_projector(state: OMoEState, layer: int) -> tuple[np.ndarray, int]:
    """Sum S of all experts' projectors for one weight layer, and the averaging norm.

    Expert m's averaged projector is (S - P_m) / norm, the other experts'
    projectors combined. The MAC counter is charged for the whole layer: the
    sum and the M subtractions ``o_step`` makes from it.
    """
    total = state.projectors[(0, layer)].P.copy()
    for j in range(1, state.M):
        total += state.projectors[(j, layer)].P
    state.mac_counter.average += average_projector_macs(total.shape[0], state.M)
    return total, (state.M if state.avg_norm == "paper" else state.M - 1)


def _drain_buffers(state: OMoEState) -> None:
    for key, entries in state.buffers.items():
        proj = state.projectors[key]
        for batch_idx, xbar in entries:
            proj.rls_update(xbar, state.alpha_at(batch_idx))
            state.means_consumed += 1
            state.mac_counter.rls += rls_update_macs(proj.d)
        entries.clear()


def o_step(state: OMoEState, model: MoEModel, grads: Gradients) -> StepOutcome:
    """Orthogonally projected expert update; phi parameters stay untouched.

    Weight matrices move by -o_lr * (G @ Pbar) with Pbar acting on the input
    dimension; biases have no input dimension and move unprojected. The base
    optimizer's moment buffers are not advanced.
    """
    _drain_buffers(state)
    for layer in layer_widths(model.dims.d, model.dims.h):
        total, norm = average_projector(state, layer)
        others = np.empty_like(total)  # reused by every expert of the layer
        step = np.empty_like(model.params[f"expert0.W{layer}"])
        for m in range(state.M):
            np.subtract(total, state.projectors[(m, layer)].P, out=others)
            # the gradient is formed by this read and freed before the next expert's
            np.matmul(grads.grads[f"expert{m}.W{layer}"], others, out=step)
            step *= state.o_lr / norm
            state.mac_counter.project += projection_macs(*step.shape)
            model.params[f"expert{m}.W{layer}"] -= step
            model.params[f"expert{m}.b{layer}"] -= state.o_lr * grads.grads[f"expert{m}.b{layer}"]
    state.e += 1
    return StepOutcome("O", grads.loss)


def step_dispatch(state: OMoEState | BaseOptimizer, model: MoEModel, X, targets) -> StepOutcome:
    """One training step: forward + backward, then a step of ``state``.

    A bare base optimizer, the baseline, takes one base step, reported as R. An
    OMoE state takes R or O by ``e mod s``; O steps use the current batch's
    gradients but do not accumulate its input means. The step's kind is known
    before ``backward`` runs, so an O step's backward builds only the expert
    gradients it reads (``experts_only``). No frame holds the tape's output pair
    buffer while the base step or the O step runs; its hidden buffer and input
    rows live on as the factors of the expert weight gradients.
    """
    o_next = isinstance(state, OMoEState) and not state.e % state.s
    _, tape = model_forward(model, X, guard=False)
    grads = backward(model, tape, targets, experts_only=o_next)
    if isinstance(state, OMoEState) and not o_next:
        return r_step(state, model, grads, tape)  # which spends the tape before its base step
    del tape
    if o_next:
        return o_step(state, model, grads)
    state.step(model.params, grads.grads)
    return StepOutcome("R", grads.loss)


# --- optimizer checkpoint io (the model checkpoint's codec) ---

OPTIMIZER_CHECKPOINT_FORMAT = "omoe-lab-optimizer-v1"
# the state's scalar fields, in the order a checkpoint lists them, with what each holds
_STATE_SCALARS = {"M": "an integer", "s": "an integer", "n_total": "an integer",
                  "alpha0": "a number", "lam": "a number", "avg_norm": "a string",
                  "o_lr": "a number", "e": "an integer",
                  "means_produced": "an integer", "means_consumed": "an integer"}
_CHECKPOINT_FIELDS = {"base": "an object", **_STATE_SCALARS,
                      "projectors": "a list", "buffers": "a list"}
_BASE_FIELDS = {"kind": "a string", "t": "an integer", "hyper": "an object", "state": "an object"}
_PROJECTOR_FIELDS = {"m": "an integer", "layer": "an integer", "d": "an integer",
                     "updates_applied": "an integer", "P": "an array"}
_BUFFER_FIELDS = {"m": "an integer", "layer": "an integer", "entries": "a list"}
_ENTRY_FIELDS = {"i": "an integer", "xbar": "an array"}


def save_optimizer(state: OMoEState, path) -> None:
    base = state.base
    hyper = {k: getattr(base, k) for k in hyperparameters(base.kind)}
    write_checkpoint(path, OPTIMIZER_CHECKPOINT_FORMAT, {
        "base": {"kind": base.kind, "t": base.t, "hyper": hyper, "state": base.state},
        **{key: getattr(state, key) for key in _STATE_SCALARS},
        "projectors": [
            {"m": m, "layer": layer, "d": proj.d,
             "updates_applied": proj.updates_applied, "P": proj.P}
            for (m, layer), proj in state.projectors.items()
        ],
        "buffers": [
            {"m": m, "layer": layer,
             "entries": [{"i": i, "xbar": x} for i, x in entries]}
            for (m, layer), entries in state.buffers.items()
        ],
    })


def _new_key(path, where: str, item: dict, seen: dict) -> tuple:
    """``item``'s (expert, layer) key, which no earlier item of its list may have."""
    key = (item["m"], item["layer"])
    if key in seen:
        raise ContractViolation(f"{path}: {where}: (expert, layer) {key} is listed twice")
    return key


def load_optimizer(path, model: MoEModel) -> OMoEState:
    """The optimizer state saved at ``path``, checked against the layout of ``model``."""
    doc = read_checkpoint(path, OPTIMIZER_CHECKPOINT_FORMAT, _CHECKPOINT_FIELDS)
    for key, kind in _CHECKPOINT_FIELDS.items():
        require_kind(path, key, doc[key], kind)
    if doc["M"] != model.M:
        raise ContractViolation(f"{path}: M: the file has {doc['M']} experts, the model {model.M}")
    require_fields(path, "base", doc["base"], _BASE_FIELDS)
    kind, hyper = doc["base"]["kind"], doc["base"]["hyper"]
    if kind not in OPTIMIZERS:
        raise ContractViolation(f"{path}: base.kind: unknown optimizer kind {kind!r}")
    require_fields(path, "base.hyper", hyper, dict.fromkeys(hyperparameters(kind), "a number"))
    check_ranges(hyper, f"{path}: base.hyper.")
    check_ranges({"t": doc["base"]["t"]}, f"{path}: base.")  # 0: saved before any base step
    base = make_optimizer(kind, **hyper)
    base.t = doc["base"]["t"]
    base.state = doc["base"]["state"]
    try:
        state = OMoEState(base=base, **{key: doc[key] for key in _STATE_SCALARS})
    except ContractViolation as exc:
        raise ContractViolation(f"{path}: {exc}") from None
    for n, item in enumerate(doc["projectors"]):
        require_fields(path, f"projectors[{n}]", item, _PROJECTOR_FIELDS)
        try:
            proj = OrthoProjector(item["d"], item["P"], item["updates_applied"])
        except ContractViolation as exc:
            raise ContractViolation(f"{path}: projectors[{n}]: {exc}") from None
        require_finite(proj.P, f"{path}: projectors[{n}].P")
        state.projectors[_new_key(path, f"projectors[{n}]", item, state.projectors)] = proj
    for n, item in enumerate(doc["buffers"]):
        require_fields(path, f"buffers[{n}]", item, _BUFFER_FIELDS)
        for k, entry in enumerate(item["entries"]):
            require_fields(path, f"buffers[{n}].entries[{k}]", entry, _ENTRY_FIELDS)
        state.buffers[_new_key(path, f"buffers[{n}]", item, state.buffers)] = [
            (entry["i"], entry["xbar"]) for entry in item["entries"]]
    require_shapes(path, "projector", {key: proj.P for key, proj in state.projectors.items()},
                   {(m, layer): (d_in, d_in) for m in range(model.M)
                    for layer, (d_in, _d_out) in layer_widths(model.dims.d, model.dims.h).items()})
    if base.state:  # empty before the first base step, and always for SGD
        shapes = param_shapes(model.dims, model.M)
        require_keys(path, "base.state", base.state, shapes)
        for name, moments in base.state.items():
            require_shapes(path, f"base.state {name} moment", moments,
                           dict.fromkeys(base.moments, shapes[name]))
            for k, arr in moments.items():
                require_finite(arr, f"{path}: base.state {name} moment {k}")
    if state.buffers.keys() != state.projectors.keys():
        raise ContractViolation(f"{path}: buffers and projectors differ in (expert, layer) keys")
    for key, entries in state.buffers.items():
        for i, xbar in entries:
            if not 0 <= i <= state.n_total:
                raise ContractViolation(f"{path}: mean buffered for {key} at batch index {i}, "
                                        f"outside [0, {state.n_total}]")
            if np.shape(xbar) != (state.projectors[key].d,):
                raise ContractViolation(f"{path}: mean {i} buffered for {key} has shape "
                                        f"{np.shape(xbar)}, not ({state.projectors[key].d},)")
            require_finite(xbar, f"{path}: mean {i} buffered for {key}")
    return state
