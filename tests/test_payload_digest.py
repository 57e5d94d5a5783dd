"""tools/payload_digest.py prints the same digests on every run of the same tree, and
dumps the bytes it hashes for a float-drift comparison of two trees."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seeds", "0",
        "--override", "task.K=3", "--override", "task.d_raw=12",
        "--override", "task.subspace_dim=3", "--override", "task.n_per_cluster=40",
        "--override", "model.d=8", "--override", "model.h=8", "--override", "model.M=3",
        "--override", "model.c=3", "--override", "train.epochs=1",
        "--override", "train.batch_size=16"]
PAYLOADS = ["run/default", "run/dense_s2", "run/independent_M6", "run/omoe_off", "run/wide",
            "compare_optimizers", "ablate_skip", "ablate_experts", "overhead",
            "checkpoint/top1/model", "checkpoint/top1/optimizer", "checkpoint/dense/model",
            "checkpoint/dense/optimizer", "metrics"]


def digest_lines(*extra):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "payload_digest.py"), *TINY,
                           *extra], capture_output=True, text=True, env=env, check=True)
    return done.stdout.splitlines()


def load_tool():
    spec = importlib.util.spec_from_file_location("payload_digest",
                                                  ROOT / "tools" / "payload_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digests_repeat_on_a_tiny_config(tmp_path):
    first, second = digest_lines(), digest_lines("--dump", str(tmp_path))
    assert first == second
    assert [line.split("  ")[1] for line in first] == PAYLOADS
    for line in first:
        digest, name = line.split("  ")
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() == digest
    assert len({line.split("  ")[0] for line in first}) == len(PAYLOADS)  # all distinct


def test_float_drift_is_the_largest_relative_float_difference():
    drift = load_tool().float_drift
    base = {"a": [1.0, 2, "x", None], "b": {"c": np.array([[4.0, 0.0], [-8.0, 1.0]])}}
    head = {"a": [1.0 + 1e-15, 2, "x", None], "b": {"c": np.array([[4.0, 0.0], [-8.5, 1.0]])}}
    assert drift(base, base) == 0.0
    assert drift(base, head) == 0.5 / 8.5
    for other in ({"a": base["a"]}, {**base, "a": [1.0, 3, "x", None]},
                  {**base, "a": [1.0, 2.0, "x", None]}, {**base, "a": [1.0, 2, "x"]},
                  {**base, "b": {"c": np.zeros((1, 4))}}):
        assert drift(base, other) == math.inf


def test_drift_lines_name_each_differing_dump(tmp_path):
    tool = load_tool()
    base, head = tmp_path / "base", tmp_path / "head"
    for root, value in ((base, 1.0), (head, 1.0 + 2 ** -40)):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.json").write_text(json.dumps({"v": 3.0}))
        (root / "run" / "moved.json").write_text(json.dumps({"v": value, "n": 7}))
    (head / "extra.json").write_text("{}")
    assert tool.drift_lines(base, head) == [
        "2 of 3 payloads differ", "  extra: only in head",
        f"  run/moved: largest relative float difference {2 ** -40 / (1 + 2 ** -40):.3g}"]
    assert tool.drift_lines(base, base) == ["none of 2 payloads differ"]


def test_json_bytes_are_the_cli_bytes_in_payload_order(tmp_path):
    from omoe_lab import make_config, overhead_report
    from omoe_lab.cli import main
    json_bytes = load_tool().json_bytes
    assert main(["overhead", "--out", str(tmp_path)]) == 0
    written = (tmp_path / "overhead.json").read_bytes()
    assert json_bytes(overhead_report(make_config())) == written
    payload = {"config": {"b": 1, "a": [2.5, None]}, "timing": {"total_s": 0.1}, "n": 3}
    assert json_bytes(payload) == json_bytes({"config": payload["config"], "n": 3})
    # the same keys and values in another order are other bytes, with another digest
    reordered = {"n": 3, "config": {"a": [2.5, None], "b": 1}}
    assert hashlib.sha256(json_bytes(reordered)).digest() != \
        hashlib.sha256(json_bytes(payload)).digest()
