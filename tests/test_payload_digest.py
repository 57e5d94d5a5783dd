"""tools/payload_digest.py prints the same digests on every run of the same tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seeds", "0",
        "--override", "task.K=3", "--override", "task.d_raw=12",
        "--override", "task.subspace_dim=3", "--override", "task.n_per_cluster=40",
        "--override", "model.d=8", "--override", "model.h=8", "--override", "model.M=3",
        "--override", "model.c=3", "--override", "train.epochs=1",
        "--override", "train.batch_size=16"]
PAYLOADS = ["run/default", "run/dense_s2", "run/independent_M6", "run/omoe_off", "run/wide",
            "compare_optimizers", "checkpoint/top1/model", "checkpoint/top1/optimizer",
            "checkpoint/dense/model", "checkpoint/dense/optimizer", "metrics"]


def digest_lines():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "payload_digest.py"), *TINY],
                          capture_output=True, text=True, env=env, check=True)
    return done.stdout.splitlines()


def test_digests_repeat_on_a_tiny_config():
    first, second = digest_lines(), digest_lines()
    assert first == second
    assert [line.split("  ")[1] for line in first] == PAYLOADS
    for line in first:
        digest = line.split("  ")[0]
        assert len(digest) == 64 and int(digest, 16) >= 0
    assert len({line.split("  ")[0] for line in first}) == len(PAYLOADS)  # all distinct
