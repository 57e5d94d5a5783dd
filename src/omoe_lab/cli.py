"""Command-line entry point.

Subcommands: train, ablate-skip, ablate-experts, compare-optimizers,
overhead, metrics. Exit codes: 0 success, 2 config error, 3 runtime error.
Failures print a machine-readable JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataLoadError
from .harness import (ablate_experts, ablate_skip, compare_optimizers, make_config,
                      overhead_report, run)
from .metrics import diversity_report, diverse_degree
from .model import load_model, model_forward


def _load_config(args) -> dict:
    """The config file, ``--seeds`` and each ``--override``, in that order, over the defaults."""
    overrides = {}
    if args.config:
        try:
            with open(args.config) as f:
                overrides = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file: top level must be a JSON object, "
                              f"got {type(overrides).__name__}")
    if args.seeds:
        overrides["seeds"] = args.seeds
    for item in args.override or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *sections, name = key.split(".")
        node = overrides
        for section in sections:
            node = node.setdefault(section, {})
            if not isinstance(node, dict):
                raise ConfigError(f"unknown config path: {key}")
        node[name] = value
    return make_config(overrides)


def _write(out_dir: str | None, name: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)  # non-finite results are errors
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
    else:
        print(text)


def _parse_int_lists(args) -> None:
    """Turn the comma-separated integer flags into lists; a bad entry is a ConfigError."""
    for dest in ("seeds", "s_values", "m_values"):
        raw = getattr(args, dest, None)
        if raw is None:
            continue
        try:
            setattr(args, dest, [int(v) for v in raw.split(",")])
        except ValueError:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag}: expected comma-separated integers, got {raw!r}") from None


def cmd_train(args):
    cfg = _load_config(args)
    _write(args.out, "run_report.json", run(cfg))


def cmd_ablate_skip(args):
    cfg = _load_config(args)
    _write(args.out, "ablate_skip.json", ablate_skip(cfg, args.s_values))


def cmd_ablate_experts(args):
    cfg = _load_config(args)
    _write(args.out, "ablate_experts.json", ablate_experts(cfg, args.m_values))


def cmd_compare_optimizers(args):
    cfg = _load_config(args)
    _write(args.out, "compare_optimizers.json",
           compare_optimizers(cfg, args.kinds.split(",")))


def cmd_overhead(args):
    cfg = _load_config(args)
    _write(args.out, "overhead.json", overhead_report(cfg))


def cmd_metrics(args):
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    probe_rng = np.random.default_rng(args.probe_seed)
    X = probe_rng.normal(size=(256, model_a.dims.d_raw))
    reports = {}
    for tag, model in (("model_a", model_a), ("model_b", model_b)):
        _, tape = model_forward(model, X)
        reports[tag] = diversity_report(model, X[0], tape.routing)
    payload = {
        "per_model": reports,
        "diverse_degree_a_over_b": diverse_degree(model_a, model_b),
    }
    _write(args.out, "metrics.json", payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omoe-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--out", help="output directory (prints to stdout when omitted)")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--override", action="append",
                       help="dotted-path override, e.g. omoe.s=10")

    p = sub.add_parser("train", help="train per the config and emit a run report")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate-skip", help="sweep the skipping step s")
    common(p)
    p.add_argument("--s-values", required=True, help="comma-separated s values")
    p.set_defaults(func=cmd_ablate_skip)

    p = sub.add_parser("ablate-experts", help="sweep the expert count M")
    common(p)
    p.add_argument("--m-values", required=True, help="comma-separated expert counts")
    p.set_defaults(func=cmd_ablate_experts)

    p = sub.add_parser("compare-optimizers", help="paired baseline/OMoE runs per optimizer")
    common(p)
    p.add_argument("--kinds", required=True, help="comma-separated optimizer kinds")
    p.set_defaults(func=cmd_compare_optimizers)

    p = sub.add_parser("overhead", help="closed-form O-step cost and memory accounting")
    common(p)
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("metrics", help="diversity report from two model checkpoints")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--probe-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _parse_int_lists(args)
        args.func(args)
    except (ConfigError, DataLoadError) as exc:
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # runtime failures -> exit 3, still machine-readable
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
