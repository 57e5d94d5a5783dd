"""tools/memory_phases.py reports every phase of both shapes it trains."""

import os
import subprocess
import sys

from tests.test_payload_digest import ROOT, TINY

PHASES = ["forward", "backward", "base step", "O step", "eval", "diagnostics"]


def test_every_phase_reported_on_a_tiny_config():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "memory_phases.py"), *TINY],
                          capture_output=True, text=True, env=env, check=True)
    lines = done.stdout.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == ["base (seeds 0)",
                                                                   "wide (seeds 0)"]
    rows = [line.split() for line in lines if line.startswith("  ") and "calls" not in line]
    assert [" ".join(row[:-4]) for row in rows] == PHASES * 2
    for row in rows:
        calls, live, peak, rss_rise = int(row[-4]), float(row[-3]), float(row[-2]), float(row[-1])
        assert calls > 0 and 0 < live <= peak and rss_rise >= 0, row
