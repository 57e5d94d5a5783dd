"""Toy mixture-of-experts network: input map -> gated experts -> output head.

The MoE block combines M two-layer ReLU feed-forward experts through a linear
softmax gate. Each row goes to k experts, its k most probable ones (ties
broken toward the lowest index), weighted by their raw gate probabilities:
``top1`` is k=1 and ``dense`` is k=M. The N*k (batch row, expert) pairs are
grouped by expert: ``order`` names each pair's batch row, expert m takes one
contiguous span of the pairs, rows ascending within it, and ``slots`` names
where each row's k pairs sit. Each expert's two matmuls write into its span of
one hidden (P x h) and one output (P x d) buffer, an idle expert into an empty
span. An expert whose span holds every row reads Z0 itself (so dense makes no
M-fold copy); any other gathers its rows. The fold sums each row's gated pairs
back onto it in expert order, one N-row gather per slot. The tape keeps the
pair layout and both buffers, so backward reads the same spans. A forward that
never reaches backward (``backward=False``: evaluation, diagnostics, the
perturbed forwards of a gradient check) keeps neither buffer: every expert's
rows pass through one scratch block as tall as the widest span, and its gated
output is added onto its rows at once, in the expert order the fold sums in.

Parameters live in a flat name -> float64 array dict; ``param_shapes`` gives
each name's shape. Expert parameters are "theta"; everything else is "phi".
"""

from __future__ import annotations

import base64
import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ContractViolation
from .linalg import require_finite

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
            value = getattr(self, name)  # a bool is no integer here, as in a checkpoint
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ContractViolation(f"dimension {name} must be a positive integer, "
                                        f"got {value!r}")


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
JSON_KINDS = {"an integer": (int,), "a number": (int, float), "a string": (str,),
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
    weights: np.ndarray            # (N, M) softmax probabilities
    selected: np.ndarray | None    # (N,) each row's expert if k=1 (top1), else None


@dataclass
class BatchTape:
    """Activations a forward pass caches for backward(), which only reads them."""
    X: np.ndarray                  # (N, d_raw) raw inputs
    Z0: np.ndarray                 # (N, d) post-input-map representation
    routing: RoutingRecord
    order: np.ndarray              # (P,) batch row of each (row, expert) pair, grouped by expert
    experts: np.ndarray            # (P,) expert of each pair, ascending
    spans: list                    # [m] slice of the pairs expert m takes; empty if idle
    slots: np.ndarray              # (N, k) pair index of each row's k pairs, in expert order
    # the pair buffers; None if the forward ran with backward=False
    inputs: list | None            # [m] m's input rows: Z0 if its span holds them all
    hidden: np.ndarray | None      # (P, h) post-ReLU hidden activations of each pair
    out: np.ndarray | None         # (P, d) expert output of each pair, before the gate
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

    def fingerprint(self) -> float:
        return float(sum(float(np.abs(v).sum()) for v in self.params.values()))


def init_model(rng: np.random.Generator, dims: ModelDims, M: int,
               init_mode: str = "replicate") -> MoEModel:
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
            p[name] = rng.normal(0.0, std, size=shape)
    for name, arr in p.items():
        require_finite(arr, name)
    return MoEModel(dims, M, "top1", p)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def expert_forward(params: dict, m: int, Z: np.ndarray, hidden=None, out=None):
    """Run expert m on rows of Z; returns (hidden, out), written into those buffers if given."""
    hidden = np.matmul(Z, params[f"expert{m}.W1"].T, out=hidden)
    hidden += params[f"expert{m}.b1"]
    np.maximum(hidden, 0.0, out=hidden)
    out = np.matmul(hidden, params[f"expert{m}.W2"].T, out=out)
    out += params[f"expert{m}.b2"]
    return hidden, out


def fold_pairs(slots: np.ndarray, pairs: np.ndarray, weights=None) -> np.ndarray:
    """Sum row n's pairs ``pairs[slots[n]]`` onto zeros in expert order, each times its
    entry of ``weights`` (P,) if given: one N-row gather per slot, no P x d temporary."""
    rows = np.zeros((len(slots), pairs.shape[1]))
    for slot in slots.T:
        part = pairs.take(slot, axis=0)
        rows += part if weights is None else np.multiply(part, weights[slot, None], out=part)
    return rows


def moe_block_forward(model: MoEModel, Z0: np.ndarray, backward: bool = True):
    """Gate + experts on pre-mapped rows Z0; returns (y_moe, routing, caches), where caches
    holds the ``BatchTape`` fields order, experts, spans, slots, inputs, hidden and out.
    With ``backward=False`` the experts share one scratch block, each expert's gated output
    is added into y_moe as it comes, and inputs, hidden and out are None."""
    if model.routing not in ROUTING_MODES:
        raise ContractViolation(f"unknown routing mode {model.routing!r}")
    p = model.params
    probs = softmax(Z0 @ p["gate.W"].T)
    N, M = Z0.shape[0], model.M
    k = 1 if model.routing == "top1" else M
    # each row's k most probable experts, ascending, ties to the lowest index; the
    # row-major (row, expert) pairs then sort stably by expert, rows ascending in each
    # (stable sorts only: numpy's quicksort kernels add 0.2 MB of resident memory)
    flat = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, :k], axis=1, kind="stable").ravel()
    pair = flat.argsort(kind="stable")  # row-major index of each pair; slots inverts it
    order, experts, slots = pair // k, flat[pair], np.empty(N * k, dtype=np.intp)
    slots[pair] = np.arange(N * k)
    slots = slots.reshape(N, k)  # where row n's k pairs sit, in expert order
    ends = np.cumsum(np.bincount(flat, minlength=M)).tolist()
    spans = [slice(start, end) for start, end in zip([0, *ends], ends)]
    # with no backward to come, every expert's rows pass through one scratch block, and
    # its gated output is added onto its rows in ascending expert order, as fold_pairs sums
    rows = N * k if backward else max(span.stop - span.start for span in spans)
    hidden, out = np.empty((rows, model.dims.h)), np.empty((rows, model.dims.d))
    inputs, y_moe = [], None if backward else np.zeros((N, model.dims.d))
    for m, span in enumerate(spans):  # an idle expert's span is empty
        n_m, rows_m = span.stop - span.start, order[span]
        # an expert holding every row reads Z0 itself (dense: no M-fold copy), others gather
        Z_m = Z0 if n_m == N else Z0.take(rows_m, axis=0)
        block = span if backward else slice(n_m)
        expert_forward(p, m, Z_m, hidden[block], out[block])
        if backward:
            inputs.append(Z_m)
        else:
            part = out[block]
            part *= probs[rows_m, m, None]
            y_moe[rows_m] += part
    routing = RoutingRecord(probs, flat if k == 1 else None)
    if backward:
        y_moe = fold_pairs(slots, out, probs[order, experts])
    else:
        inputs = hidden = out = None
    return y_moe, routing, {"order": order, "experts": experts, "spans": spans, "slots": slots,
                            "inputs": inputs, "hidden": hidden, "out": out}


def model_forward(model: MoEModel, X: np.ndarray, guard: bool = True, backward: bool = True):
    """Full forward over a raw batch; returns (logits, BatchTape).

    The tape is fingerprinted if ``guard``, for a backward that runs after the model
    may have changed. ``backward=False`` is for a forward whose tape never reaches
    backward: its tape keeps no pair buffers (inputs, hidden, out) and no fingerprint,
    and backward refuses it. The logits, routing, pair layout and y_moe are the same bits
    either way.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] < 1:
        raise ContractViolation("batch must contain at least one row")
    p = model.params
    Z0 = X @ p["input_map.W"].T + p["input_map.b"]
    y_moe, routing, caches = moe_block_forward(model, Z0, backward)
    logits = y_moe @ p["head.W"].T + p["head.b"]
    tape = BatchTape(X=X, Z0=Z0, routing=routing, **caches, y_moe=y_moe, logits=logits,
                     fingerprint=model.fingerprint() if guard and backward else None)
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
    if doc["M"] < 1:  # as init_model
        raise ContractViolation(f"{path}: M: expert count must be >= 1, got {doc['M']}")
    dims = ModelDims(**doc["dims"])
    dims.validate()
    require_shapes(path, "params", doc["params"], param_shapes(dims, doc["M"]))
    for name, arr in doc["params"].items():
        require_finite(arr, f"{path}: params {name}")
    return MoEModel(dims, doc["M"], doc["routing"], doc["params"])
