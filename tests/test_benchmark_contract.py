"""The calls the benchmark makes into qglab still work: one short traced
sweep-n16 run of perfbench/run.py checks every operation it times."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_n16_round_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n16",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
