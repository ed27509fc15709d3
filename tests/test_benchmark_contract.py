"""The calls the benchmark makes into qglab still work: short traced rounds
of perfbench/run.py check every operation they time."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def assert_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_sweep_n16_round_is_correct():
    assert_round_is_correct("sweep-n16")


def test_pair_n32_round_is_correct():
    # the vorticity-residual, propagator and advect oracles on both solvers
    assert_round_is_correct("pair-n32")
