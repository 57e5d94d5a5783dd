"""Toy mixture-of-experts network: input map -> gated experts -> output head.

The MoE block combines M two-layer ReLU feed-forward experts through a linear
softmax gate. ``top1`` sends each row to its highest-probability expert (ties
broken toward the lowest index), ``dense`` sends every row to every expert.
Both modes dispatch the batch once: the rows are gathered into dispatch order
and each expert works on one contiguous span of it. ``top1`` orders the rows by
expert with a stable sort, so expert m's span holds exactly its rows in
ascending batch order; ``dense`` keeps the batch order and gives every expert
the whole batch. One loop over experts serves both modes, and every expert
runs on its span, an idle expert on an empty one. Each expert's output is
scaled by its gate probability and summed into its span, and the result is
scattered back to batch order once. The tape keeps the dispatch order, the
dispatched rows and every expert's span, so backward reads slices as well.

Parameters live in a flat name -> float64 array dict; ``param_shapes`` gives
each name's shape. Expert parameters are "theta"; everything else is "phi".
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ContractViolation
from .linalg import Rng, gaussian_matrix, require_finite

CHECKPOINT_FORMAT = "omoe-lab-model-v1"

ROUTING_MODES = ("top1", "dense")
INIT_MODES = ("replicate", "independent")


@dataclass
class ModelDims:
    d_raw: int
    d: int
    h: int
    c: int

    def validate(self):
        for name in ("d_raw", "d", "h", "c"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"dimension {name} must be positive")


def layer_widths(d: int, h: int) -> dict[int, tuple[int, int]]:
    """(input width, output width) of each expert weight layer, keyed by layer."""
    return {1: (d, h), 2: (h, d)}


def param_shapes(dims: ModelDims, M: int) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape for an M-expert model with ``dims``, in forward order: the one
    statement of the layout that init, the name helpers and both checkpoint loaders read."""
    d = dims.d
    shapes = {"input_map.W": (d, dims.d_raw), "input_map.b": (d,), "gate.W": (M, d)}
    for m in range(M):
        for layer, (d_in, d_out) in layer_widths(d, dims.h).items():
            shapes[f"expert{m}.W{layer}"] = (d_out, d_in)
            shapes[f"expert{m}.b{layer}"] = (d_out,)
    return {**shapes, "head.W": (dims.c, d), "head.b": (dims.c,)}


def require_keys(path, what: str, found, keys) -> None:
    """Require ``found`` to be a dict holding exactly the keys ``keys``."""
    if not isinstance(found, dict):
        raise ContractViolation(f"{path}: {what}: not a JSON object")
    for key in [*keys, *found]:
        if (key in keys) != (key in found):
            raise ContractViolation(f"{path}: {what}: "
                                    f"{'missing' if key in keys else 'unexpected'} key {key!r}")


# what a checkpoint field may hold, by exact type: a JSON true is a bool, not an integer
JSON_KINDS = {"an integer": (int,), "a number": (int, float),
              "a number or null": (int, float, type(None)), "a string": (str,),
              "a list": (list,), "an object": (dict,), "an array": (np.ndarray,)}


def require_kind(path, what: str, value, kind: str) -> None:
    """Require ``value`` to be ``kind``, one of the keys of ``JSON_KINDS``."""
    if type(value) not in JSON_KINDS[kind]:
        raise ContractViolation(f"{path}: {what}: expected {kind}, got {value!r:.60}")


def require_fields(path, what: str, found, kinds: dict) -> None:
    """Require ``found`` to be a dict holding exactly the keys of ``kinds``, each of its kind."""
    require_keys(path, what, found, kinds)
    for key, kind in kinds.items():
        require_kind(path, f"{what}.{key}", found[key], kind)


def require_shapes(path, what: str, found, shapes: dict) -> None:
    """Require ``found`` to map exactly the keys of ``shapes`` to arrays of those shapes."""
    if not isinstance(found, dict):
        raise ContractViolation(f"{path}: {what}: not a JSON object")
    for key in [*shapes, *found]:
        if key in found:
            require_kind(path, f"{what} {key}", found[key], "an array")
        got = f"shape {np.shape(found[key])}" if key in found else "no entry"
        want = f"shape {shapes[key]}" if key in shapes else "no entry"
        if got != want:
            raise ContractViolation(f"{path}: {what} {key}: found {got}, expected {want}")


@dataclass
class RoutingRecord:
    mode: str
    weights: np.ndarray            # (N, M) softmax probabilities
    selected: np.ndarray | None    # (N,) expert indices for top1, else None


@dataclass
class BatchTape:
    """Activations cached by a forward pass, consumed by backward()."""
    X: np.ndarray                  # (N, d_raw) raw inputs
    Z0: np.ndarray                 # (N, d) post-input-map representation
    routing: RoutingRecord
    order: np.ndarray              # (N,) dispatch order: batch row of each dispatched row
    Z_disp: np.ndarray             # (N, d) Z0[order], the dispatched rows
    expert_tokens: list            # [m] slice of dispatch order holding m's rows; empty if idle
    expert_hidden: list            # [m] (n_m, h) post-ReLU hidden activations
    expert_out: list               # [m] (n_m, d) expert outputs
    y_moe: np.ndarray              # (N, d) combined MoE output
    logits: np.ndarray             # (N, c) head output
    fingerprint: float | None      # stale-tape guard; None if backward runs at once or never


@dataclass
class MoEModel:
    dims: ModelDims
    M: int
    routing: str
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def param_names(self) -> list[str]:
        return list(param_shapes(self.dims, self.M))

    def expert_names(self, m: int) -> list[str]:
        return [n for n in self.param_names() if n.startswith(f"expert{m}.")]

    def theta_names(self) -> list[str]:
        return [n for n in self.param_names() if n.startswith("expert")]

    def phi_names(self) -> list[str]:
        return [n for n in self.param_names() if not n.startswith("expert")]

    def fingerprint(self) -> float:
        return float(sum(float(np.abs(v).sum()) for v in self.params.values()))

    def clone(self) -> "MoEModel":
        return MoEModel(self.dims, self.M, self.routing,
                        {k: v.copy() for k, v in self.params.items()})


def init_model(rng: Rng, dims: ModelDims, M: int, init_mode: str = "replicate") -> MoEModel:
    """Build a fresh model; ``replicate`` clones one seed expert M times."""
    dims.validate()
    if M < 1:
        raise ContractViolation("expert count M must be >= 1")
    if init_mode not in INIT_MODES:
        raise ContractViolation(f"unknown init mode {init_mode!r}")
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(dims, M).items():
        owner, kind = name.split(".")
        expert = owner.startswith("expert")
        if expert and init_mode == "replicate" and owner != "expert0":
            p[name] = p[f"expert0.{kind}"].copy()
        elif len(shape) == 1:
            p[name] = np.zeros(shape)
        else:  # std 1/sqrt(fan_in), or sqrt(2/fan_in) for the ReLU experts
            fan_in = shape[1]
            std = np.sqrt(2.0 / fan_in) if expert else 1.0 / np.sqrt(fan_in)
            p[name] = gaussian_matrix(rng, *shape, 0.0, std)
    for name, arr in p.items():
        require_finite(arr, name)
    return MoEModel(dims, M, "top1", p)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def expert_forward(params: dict, m: int, Z: np.ndarray):
    """Run expert m on rows of Z; returns (hidden, out)."""
    hidden = np.maximum(Z @ params[f"expert{m}.W1"].T + params[f"expert{m}.b1"], 0.0)
    out = hidden @ params[f"expert{m}.W2"].T + params[f"expert{m}.b2"]
    return hidden, out


def moe_block_forward(model: MoEModel, Z0: np.ndarray):
    """Gate + experts on pre-mapped rows Z0; returns (y_moe, routing, caches), where caches
    holds the ``BatchTape`` fields order, Z_disp, expert_tokens, expert_hidden and expert_out."""
    if model.routing not in ROUTING_MODES:
        raise ContractViolation(f"unknown routing mode {model.routing!r}")
    p = model.params
    probs = softmax(Z0 @ p["gate.W"].T)
    N = Z0.shape[0]
    # routing decides only the dispatch order and each expert's span of it
    if model.routing == "top1":
        selected = np.argmax(probs, axis=1)
        order = np.argsort(selected, kind="stable")  # ascending batch order within an expert
        ends = np.cumsum(np.bincount(selected, minlength=model.M)).tolist()
        spans = [slice(start, end) for start, end in zip([0, *ends], ends)]
    else:
        selected, order, spans = None, np.arange(N), [slice(0, N)] * model.M
    Z_disp, gates = Z0[order], probs[order]
    y_disp = np.zeros((N, model.dims.d))
    expert_hidden, expert_out = [], []
    for m, span in enumerate(spans):  # an idle expert runs on its empty span too
        hidden, out = expert_forward(p, m, Z_disp[span])
        y_disp[span] += gates[span, m, None] * out
        expert_hidden.append(hidden)
        expert_out.append(out)
    y_moe = np.empty_like(y_disp)
    y_moe[order] = y_disp
    routing = RoutingRecord(model.routing, probs, selected)
    return y_moe, routing, {"order": order, "Z_disp": Z_disp, "expert_tokens": spans,
                            "expert_hidden": expert_hidden, "expert_out": expert_out}


def model_forward(model: MoEModel, X: np.ndarray, guard: bool = True):
    """Full forward over a raw batch; returns (logits, BatchTape), fingerprinted if ``guard``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] < 1:
        raise ContractViolation("batch must contain at least one row")
    p = model.params
    Z0 = X @ p["input_map.W"].T + p["input_map.b"]
    y_moe, routing, caches = moe_block_forward(model, Z0)
    logits = y_moe @ p["head.W"].T + p["head.b"]
    tape = BatchTape(X=X, Z0=Z0, routing=routing, **caches, y_moe=y_moe, logits=logits,
                     fingerprint=model.fingerprint() if guard else None)
    return logits, tape


# --- checkpoint codec: JSON with base64 float64 payloads, bit-exact round trip ---

def _encode(arr: np.ndarray) -> dict:
    """``json.dump`` hook: an array as its shape and base64 float64 payload."""
    a = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(obj: dict):
    """``json.load`` hook: the inverse of ``_encode``; any other object stays as it is."""
    if obj.keys() != {"shape", "data"}:
        return obj
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(obj["shape"]).copy()


def write_checkpoint(path, fmt: str, body: dict) -> None:
    """Write ``body``, a nest of dicts, lists, scalars and arrays, tagged with format ``fmt``."""
    with open(path, "w") as f:
        json.dump({"format": fmt, **body}, f, default=_encode)


def read_checkpoint(path, fmt: str, keys) -> dict:
    """A checkpoint written by ``write_checkpoint`` with format ``fmt`` and body ``keys``."""
    with open(path) as f:
        try:
            doc = json.load(f, object_hook=_decode)
        except (TypeError, ValueError) as exc:  # bad JSON, text or payload
            raise ContractViolation(f"{path}: unreadable checkpoint: {exc}") from None
    tag = doc.get("format") if isinstance(doc, dict) else None
    if tag != fmt:  # checked before the keys: it tells a wrong kind of file apart
        raise ContractViolation(f"{path}: unknown checkpoint format {tag!r}")
    require_keys(path, "checkpoint", doc, ("format", *keys))
    return doc


def save_model(model: MoEModel, path) -> None:
    write_checkpoint(path, CHECKPOINT_FORMAT, asdict(model))  # dims, M, routing, params


def load_model(path) -> MoEModel:
    doc = read_checkpoint(path, CHECKPOINT_FORMAT, ("dims", "M", "routing", "params"))
    if doc["routing"] not in ROUTING_MODES:
        raise ContractViolation(f"{path}: unknown routing mode {doc['routing']!r}")
    require_keys(path, "dims", doc["dims"], [f.name for f in fields(ModelDims)])
    for name, value in {"M": doc["M"], **doc["dims"]}.items():
        require_kind(path, name, value, "an integer")
    dims = ModelDims(**doc["dims"])
    dims.validate()
    require_shapes(path, "params", doc["params"], param_shapes(dims, doc["M"]))
    return MoEModel(dims, doc["M"], doc["routing"], doc["params"])
