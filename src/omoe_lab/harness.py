"""Config-driven experiment runner: training, ablations, overhead accounting.

A config is built along one path: ``make_config`` merges one overrides dict
(for the CLI: the config file, then ``--seeds``, then each ``--override``)
into ``DEFAULT_CONFIG`` and validates the final config once.

Reports are plain dicts serialized to JSON with full float round-trip
precision. Wall-clock times live in a separate ``timing`` section so the
numeric payload is byte-reproducible for a given (config, seeds).
"""

from __future__ import annotations

import copy
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError
from .grad import LOSS_KINDS, backward, loss as loss_fn
from .linalg import Rng
from .metrics import diversity_report
from .model import (INIT_MODES, ROUTING_MODES, MoEModel, ModelDims, init_model, layer_widths,
                    model_forward, param_shapes)
from .optim import (AVG_NORMS, OPTIMIZERS, check_ranges, hyperparameters, make_optimizer,
                    new_omoe_state, predict_o_step_macs, step_dispatch)
from .tasks import Dataset, batches, gen_piecewise_regression, gen_subspace_clusters, load_csv

DEFAULT_CONFIG = {
    "task": {"kind": "subspace_clusters", "K": 4, "d_raw": 32, "subspace_dim": 6,
             "n_per_cluster": 500, "noise_std": 0.1},
    "model": {"d": 16, "h": 32, "M": 4, "c": 4, "routing": "top1", "init": "replicate"},
    "optimizer": {"kind": "adamw", "lr": 1e-3},
    "omoe": {"enabled": True, "s": 5, "alpha0": 1.0, "lambda": 0.9,
             "avg_norm": "paper", "o_lr": 2.5},
    "train": {"epochs": 10, "batch_size": 32, "eval_fraction": 0.2, "loss": "ce"},
    "seeds": [0, 1, 2, 3, 4],
}

TASK_KINDS = ("subspace_clusters", "piecewise_regression", "csv")
# task keys beyond the defaults, required by the kinds that use them; the
# example values give each key its type
_TASK_REQUIRED = {"piecewise_regression": {"pieces": 3, "n": 1000},
                  "csv": {"path": "data.csv", "feature_columns": ["x0"], "target_column": "y"}}
# the keys each section takes, typed by their values; the optimizer's keys
# depend on optimizer.kind and are checked in validate_config
_FIELDS = {
    "": DEFAULT_CONFIG,
    "task": {**DEFAULT_CONFIG["task"],
             **{k: v for fields in _TASK_REQUIRED.values() for k, v in fields.items()}},
    "model": DEFAULT_CONFIG["model"],
    "omoe": DEFAULT_CONFIG["omoe"],
    "train": DEFAULT_CONFIG["train"],
}


def make_config(overrides: dict | None = None) -> dict:
    """Defaults merged with a (possibly partial) user dict; unknown keys rejected."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if overrides:
        _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def _merge(cfg: dict, overrides: dict) -> None:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            _merge(cfg[key], value)
        else:
            cfg[key] = copy.deepcopy(value)


def _type_ok(value, default) -> bool:
    """Whether ``value`` has the type of its default; an int passes for a float."""
    if isinstance(default, (bool, str, dict)):
        return isinstance(value, type(default))
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if isinstance(default, float):
        return isinstance(value, numbers.Real)
    return isinstance(value, list) and all(_type_ok(v, default[0]) for v in value)  # seeds


def _check_types(section: str, scope: dict, defaults: dict) -> None:
    for key, value in scope.items():
        if key in defaults and not _type_ok(value, defaults[key]):
            if key == "o_lr" and value is None:  # null: O steps use the base lr
                continue
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"{where}: expected a value like the default "
                              f"{defaults[key]!r}, got {value!r}")


def _split(n: int, eval_fraction: float) -> tuple[int, int]:
    """(eval rows, training rows) of an ``n``-row dataset."""
    n_eval = max(1, int(n * eval_fraction))
    return n_eval, n - n_eval


def _check_batch(batch_size: int, n_train: int) -> None:
    if n_train < batch_size:
        raise ConfigError(f"train.batch_size: {batch_size} > {n_train} training rows")


def validate_config(cfg: dict) -> None:
    # "" comes first: it checks that seeds is a list and every section a mapping
    for section, fields in _FIELDS.items():
        scope = cfg[section] if section else cfg
        for key in scope:
            if key not in fields:
                where = f"{section}.{key}" if section else key
                raise ConfigError(f"unknown config key: {where}")
        _check_types(section, scope, fields)
    _check_types("optimizer", cfg["optimizer"], DEFAULT_CONFIG["optimizer"])  # kind and lr
    kind = cfg["optimizer"]["kind"]
    if kind not in OPTIMIZERS:
        raise ConfigError(f"optimizer.kind: unknown kind {kind!r}")
    # an optimizer takes its constructor's parameters, each typed by its default
    taken = {**hyperparameters(kind), **DEFAULT_CONFIG["optimizer"]}
    for key in cfg["optimizer"]:
        if key not in taken:
            raise ConfigError(f"optimizer.{key}: not a parameter of optimizer kind {kind!r}")
    _check_types("optimizer", cfg["optimizer"], taken)
    task, model, omoe, train = cfg["task"], cfg["model"], cfg["omoe"], cfg["train"]
    for field, value, choices in (("task.kind", task["kind"], TASK_KINDS),
                                  ("model.routing", model["routing"], ROUTING_MODES),
                                  ("model.init", model["init"], INIT_MODES),
                                  ("train.loss", train["loss"], LOSS_KINDS),
                                  ("omoe.avg_norm", omoe["avg_norm"], AVG_NORMS)):
        if value not in choices:
            raise ConfigError(f"{field}: unknown value {value!r}, expected one of {choices}")
    for key in _TASK_REQUIRED.get(task["kind"], ()):
        if key not in task:
            raise ConfigError(f"task.{key}: required when task.kind is {task['kind']!r}")
    minima = {"model.d": 1, "model.h": 1, "model.c": 1, "model.M": 2, "task.d_raw": 1,
              "train.epochs": 1, "train.batch_size": 1, "task.noise_std": 0}
    if task["kind"] == "subspace_clusters":
        minima.update({"task.K": 2, "task.n_per_cluster": 1, "task.subspace_dim": 1})
    if task["kind"] == "piecewise_regression":
        minima.update({"task.pieces": 2, "task.n": 1})
    for field, low in minima.items():
        section, key = field.split(".")
        if cfg[section][key] < low:
            raise ConfigError(f"{field}: must be >= {low}, got {cfg[section][key]!r}")
    # optim.RANGES owns these ranges; omoe.s is checked only when OMoE runs
    check_ranges(cfg["optimizer"], "optimizer.", ConfigError)
    check_ranges(omoe if omoe["enabled"] else {**omoe, "s": None}, "omoe.", ConfigError)
    if not 0 < (fraction := train["eval_fraction"]) < 1:  # written so that NaN fails too
        raise ConfigError(f"train.eval_fraction: must lie in (0, 1), got {fraction!r}")
    if task["kind"] in ("subspace_clusters", "piecewise_regression"):  # CSV rows: counted on read
        n = task["K"] * task["n_per_cluster"] if task["kind"] == "subspace_clusters" else task["n"]
        _check_batch(train["batch_size"], _split(n, train["eval_fraction"])[1])
    if task["kind"] == "subspace_clusters" and task["subspace_dim"] > task["d_raw"]:
        raise ConfigError(f"task.subspace_dim: {task['subspace_dim']} exceeds "
                          f"task.d_raw = {task['d_raw']}")
    if task["kind"] == "subspace_clusters" and task["K"] > model["c"]:
        raise ConfigError(f"task.K: {task['K']} clusters exceed model.c = {model['c']} classes")
    if task["kind"] == "csv" and len(task["feature_columns"]) != task["d_raw"]:
        raise ConfigError(f"task.feature_columns: {len(task['feature_columns'])} columns "
                          f"but task.d_raw = {task['d_raw']}")
    loss = train["loss"]
    if task["kind"] == "piecewise_regression" and loss != "mse":
        raise ConfigError(f"train.loss: task.kind 'piecewise_regression' needs 'mse', got {loss!r}")
    if loss == "mse" and model["c"] != 1:
        raise ConfigError(f"train.loss: 'mse' needs model.c = 1 output, got {model['c']}")
    if not cfg["seeds"]:
        raise ConfigError("seeds: need at least one seed")
    if min(cfg["seeds"]) < 0:  # numpy's seed sequences take only non-negative integers
        raise ConfigError(f"seeds: must be >= 0, got {min(cfg['seeds'])!r}")


def build_dataset(cfg: dict, rng: Rng) -> Dataset:
    task = cfg["task"]
    if task["kind"] == "subspace_clusters":
        return gen_subspace_clusters(rng, task["K"], task["d_raw"],
                                     task["n_per_cluster"], task["subspace_dim"],
                                     task["noise_std"])
    if task["kind"] == "piecewise_regression":
        return gen_piecewise_regression(rng, task["pieces"], task["d_raw"],
                                        task["n"], task.get("noise_std", 0.0))
    if task["kind"] == "csv":
        kind = "regression" if cfg["train"]["loss"] == "mse" else "classification"
        return load_csv(task["path"], task["feature_columns"], task["target_column"], kind)
    raise ConfigError(f"task.kind: unknown kind {task['kind']!r}")


def _optimizer_from_config(cfg: dict):
    return make_optimizer(**cfg["optimizer"])


def _eval_score(model: MoEModel, X, y, loss_kind: str):
    logits, tape = model_forward(model, X, guard=False)
    if loss_kind == "ce":
        score = float(np.mean(np.argmax(logits, axis=1) == y))
    else:
        score = -loss_fn(logits, y, "mse")  # higher is better, uniformly
    return score, tape.routing


@dataclass
class SeedResult:
    record: dict
    model: MoEModel
    wall_time_s: float
    state: object = None


def train_single(cfg: dict, seed: int) -> SeedResult:
    """Train one model for one seed; deterministic in (config, seed)."""
    t0 = time.perf_counter()
    data_rng, model_rng = Rng(seed).spawn(2)
    dataset = build_dataset(cfg, data_rng)
    perm = np.random.default_rng([seed, 104729]).permutation(dataset.n)
    n_eval, n_train = _split(dataset.n, cfg["train"]["eval_fraction"])
    _check_batch(cfg["train"]["batch_size"], n_train)  # a CSV task's rows are counted here
    if dataset.n_classes > (c := cfg["model"]["c"]):  # and its classes
        raise ConfigError(f"model.c: {c} outputs, but the data has {dataset.n_classes} classes")
    eval_idx, train_idx = perm[:n_eval], perm[n_eval:]
    X_train, y_train = dataset.X[train_idx], dataset.y[train_idx]
    X_eval, y_eval = dataset.X[eval_idx], dataset.y[eval_idx]
    train_ds = Dataset(X_train, y_train, dataset.kind, dataset.n_classes)

    mc = cfg["model"]
    loss_kind = cfg["train"]["loss"]
    dims = ModelDims(d_raw=cfg["task"]["d_raw"], d=mc["d"], h=mc["h"], c=mc["c"])
    model = init_model(model_rng, dims, mc["M"], mc["init"])
    model.routing = mc["routing"]

    base = _optimizer_from_config(cfg)
    epochs, bs = cfg["train"]["epochs"], cfg["train"]["batch_size"]
    n_total = epochs * math.ceil(train_ds.n / bs)
    omoe_cfg = cfg["omoe"]
    state = None
    if omoe_cfg["enabled"]:
        state = new_omoe_state(base, model, omoe_cfg["s"], n_total,
                               omoe_cfg["alpha0"], omoe_cfg["lambda"],
                               omoe_cfg["avg_norm"], omoe_cfg.get("o_lr"))

    probe = X_eval[0]
    loss_curve, eval_curve, diversity_curve, entropy_curve = [], [], [], []
    step_counts = {"R": 0, "O": 0}
    for epoch in range(epochs):
        epoch_losses = []
        for Xb, yb in batches(train_ds, seed, epoch, bs):
            if state is not None:
                outcome = step_dispatch(state, model, Xb, yb, loss_kind)
                step_counts[outcome.kind] += 1
                epoch_losses.append(outcome.loss)
            else:
                _, tape = model_forward(model, Xb, guard=False)
                grads = backward(model, tape, yb, loss_kind)
                base.step(model.params, grads.grads)
                step_counts["R"] += 1
                epoch_losses.append(grads.loss)
        score, routing = _eval_score(model, X_eval, y_eval, loss_kind)
        report = diversity_report(model, probe, routing)
        loss_curve.append(float(np.mean(epoch_losses)))
        eval_curve.append(score)
        diversity_curve.append(report)
        entropy_curve.append(report["load_entropy"])

    record = {
        "seed": seed,
        "final_train_loss": loss_curve[-1],
        "final_eval_score": eval_curve[-1],
        "final_param_variance": diversity_curve[-1]["param_variance"],
        "loss_curve": loss_curve,
        "eval_curve": eval_curve,
        "diversity_curve": diversity_curve,
        "load_entropy_curve": entropy_curve,
        "step_counts": step_counts,
        "means_produced": state.means_produced if state else 0,
        "means_consumed": state.means_consumed if state else 0,
    }
    return SeedResult(record, model, time.perf_counter() - t0, state)


def run(cfg: dict, return_models: bool = False):
    """Run every seed, aggregate, and return the RunReport dict.

    With ``return_models=True`` also returns {seed: trained model}.
    """
    validate_config(cfg)
    results = [train_single(cfg, s) for s in cfg["seeds"]]

    scores = [r.record["final_eval_score"] for r in results]
    variances = [r.record["final_param_variance"] for r in results]
    report = {
        "artifact_version": __version__,
        "config": cfg,
        "per_seed": [r.record for r in results],
        "aggregate": {
            "eval_score_mean": float(np.mean(scores)),
            "eval_score_std": float(np.std(scores)),
            "param_variance_mean": float(np.mean(variances)),
            "param_variance_std": float(np.std(variances)),
        },
        "timing": {
            "per_seed_s": [r.wall_time_s for r in results],
            "total_s": float(sum(r.wall_time_s for r in results)),
        },
    }
    if return_models:
        return report, {r.record["seed"]: r.model for r in results}
    return report


def _variant(cfg: dict, section: str, **values) -> dict:
    """A deep copy of ``cfg`` with ``values`` replacing keys of its ``section``."""
    variant = copy.deepcopy(cfg)
    variant[section].update(values)
    return variant


def _run_pairs(variants: dict) -> dict:
    """Run reports of each variant config on its plain base optimizer and wrapped
    in OMoE, keyed as ``variants``; every config is validated before any trains."""
    pairs = {key: {"baseline": _variant(v, "omoe", enabled=False),
                   "omoe": _variant(v, "omoe", enabled=True)} for key, v in variants.items()}
    for pair in pairs.values():
        for v in pair.values():
            validate_config(v)
    return {key: {side: run(v) for side, v in pair.items()} for key, pair in pairs.items()}


def _require_distinct(name: str, values: list) -> None:
    if not values:
        raise ConfigError(f"{name} must be non-empty")
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {name} rejected: {values!r}")


def ablate_skip(cfg: dict, s_values: list[int]) -> dict:
    """One run per skipping step; emits raw and normalized variance series."""
    _require_distinct("s_values", s_values)
    if not cfg["omoe"]["enabled"]:
        raise ConfigError("omoe must be enabled for the skip-step ablation")
    # OMoE only: the baseline does not depend on s
    variants = {s: _variant(cfg, "omoe", s=s) for s in map(int, s_values)}
    for variant in variants.values():  # every variant is checked before any trains
        validate_config(variant)
    reports = {s: run(v) for s, v in variants.items()}
    rows = [{"s": s,
             "param_variance": rep["aggregate"]["param_variance_mean"],
             "eval_score": rep["aggregate"]["eval_score_mean"]}
            for s, rep in reports.items()]
    base_var = reports[min(reports)]["aggregate"]["param_variance_mean"]
    normalized = [{"s": r["s"],
                   "normalized_variance": r["param_variance"] / base_var if base_var else 1.0}
                  for r in rows]
    return {"table": rows, "normalized": normalized, "reports": reports}


def ablate_experts(cfg: dict, m_values: list[int]) -> dict:
    """Baseline + OMoE run per expert count; emits the improvement table."""
    _require_distinct("m_values", m_values)
    reports = _run_pairs({m: _variant(cfg, "model", M=m) for m in map(int, m_values)})
    rows = []
    for m, pair in reports.items():
        base = pair["baseline"]["aggregate"]["eval_score_mean"]
        omoe = pair["omoe"]["aggregate"]["eval_score_mean"]
        rows.append({"M": m, "baseline_score": base, "omoe_score": omoe,
                     "improvement": omoe - base})
    return {"table": rows, "reports": reports}


def compare_optimizers(cfg: dict, kinds: list[str]) -> dict:
    """Paired baseline / OMoE-wrapped scores for each base optimizer kind."""
    _require_distinct("kinds", kinds)
    unknown = [k for k in kinds if k not in OPTIMIZERS]
    if unknown:
        raise ConfigError(f"optimizer.kind: unknown kind {unknown[0]!r}")
    # each kind replaces the whole section: the user's optimizer keys, such as
    # adamw's weight_decay, are not parameters of every kind
    reports = _run_pairs({kind: {**cfg, "optimizer": {"kind": kind,
                                                      "lr": hyperparameters(kind)["lr"]}}
                          for kind in kinds})
    rows = [{"optimizer": kind,
             "baseline_score": pair["baseline"]["aggregate"]["eval_score_mean"],
             "omoe_score": pair["omoe"]["aggregate"]["eval_score_mean"],
             "per_seed_delta": [o["final_eval_score"] - b["final_eval_score"]
                                for o, b in zip(pair["omoe"]["per_seed"],
                                                pair["baseline"]["per_seed"])]}
            for kind, pair in reports.items()]
    return {"table": rows, "reports": reports}


# --- overhead accounting -----------------------------------------------------

def overhead_report(cfg: dict) -> dict:
    """Closed-form overhead for the configured shapes.

    Assumes every expert accumulates one mean per weight layer on each of the
    s-1 regular steps between O steps (exact for dense routing; an upper
    bound for top1).
    """
    validate_config(cfg)
    mc = cfg["model"]
    d, h, M, c = mc["d"], mc["h"], mc["M"], mc["c"]
    dims = ModelDims(cfg["task"]["d_raw"], d, h, c)
    s = cfg["omoe"]["s"]
    widths = layer_widths(d, h)
    means_counts = {(m, layer): s - 1 for m in range(M) for layer in widths}
    macs = predict_o_step_macs(d, h, M, means_counts)
    param_floats = sum(math.prod(shape) for shape in param_shapes(dims, M).values())
    base_state = OPTIMIZERS[cfg["optimizer"]["kind"]].state_floats(param_floats)
    projector_floats = M * sum(d_in * d_in for d_in, _d_out in widths.values())
    return {
        "macs_rls": macs.rls,
        "macs_average": macs.average,
        "macs_project": macs.project,
        "macs_total": macs.total,
        "projector_floats": projector_floats,
        "base_state_floats": base_state,
        "param_floats": param_floats,
        # undefined for a stateless base optimizer
        "optimizer_memory_ratio": (base_state + projector_floats) / base_state
        if base_state else None,
    }
