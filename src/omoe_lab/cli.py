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


def _parse_list(flag: str, raw: str, parse) -> list:
    """The comma-separated entries of ``flag``'s value; a bad entry is a ConfigError."""
    try:
        return [parse(v) for v in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {raw!r}") from None


# config subcommand -> (help, report file, harness function, (flag, entry type, help) or None)
COMMANDS = {
    "train": ("train per the config and emit a run report", "run_report.json", run, None),
    "ablate-skip": ("sweep the skipping step s", "ablate_skip.json", ablate_skip,
                    ("--s-values", int, "comma-separated s values")),
    "ablate-experts": ("sweep the expert count M", "ablate_experts.json", ablate_experts,
                       ("--m-values", int, "comma-separated expert counts")),
    "compare-optimizers": ("paired baseline/OMoE runs per optimizer", "compare_optimizers.json",
                           compare_optimizers, ("--kinds", str, "comma-separated optimizer kinds")),
    "overhead": ("closed-form O-step cost and memory accounting", "overhead.json",
                 overhead_report, None),
}


def cmd_config(args):
    """Run a config-driven subcommand; its list flags are parsed before the config is loaded."""
    _help, report, make_report, list_flag = COMMANDS[args.command]
    if args.seeds is not None:
        args.seeds = _parse_list("--seeds", args.seeds, int)
    values = []
    if list_flag:
        flag, parse, _flag_help = list_flag
        values.append(_parse_list(flag, getattr(args, flag[2:].replace("-", "_")), parse))
    _write(args.out, report, make_report(_load_config(args), *values))


def cmd_metrics(args):
    model_a = load_model(args.model_a)
    model_b = load_model(args.model_b)
    degree = diverse_degree(model_a, model_b)  # rejects mismatched architectures, so first
    probe_rng = np.random.default_rng(args.probe_seed)
    X = probe_rng.normal(size=(256, model_a.dims.d_raw))
    reports = {}
    for tag, model in (("model_a", model_a), ("model_b", model_b)):
        _, tape = model_forward(model, X)
        reports[tag] = diversity_report(model, X[0], tape.routing)
    payload = {
        "per_model": reports,
        "diverse_degree_a_over_b": degree,
    }
    _write(args.out, "metrics.json", payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omoe-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _report, _make_report, list_flag) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--out", help="output directory (prints to stdout when omitted)")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--override", action="append",
                       help="dotted-path override, e.g. omoe.s=10")
        if list_flag:
            flag, _parse, flag_help = list_flag
            p.add_argument(flag, required=True, help=flag_help)
        p.set_defaults(func=cmd_config)

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
        args.func(args)
    except Exception as exc:  # config and data errors exit 2, any other failure 3
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, (ConfigError, DataLoadError)) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
