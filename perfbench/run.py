"""Benchmark of qglab: solver pairs at n=32 and n=64 and the epsilon sweep.

    python3 perfbench/run.py --workload pair-n32 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30

Run from the root of a source checkout: the program is imported from its
``src/`` directory and nowhere else. A run repeats whole rounds of its
workload until ``--seconds`` have passed (at least one round), checks every
operation, and prints one JSON object as its last line. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics (medians over
traced rounds) and the tracing overhead. Outputs go to
``.perfbench_out/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("pair-n32", "pair-n64", "sweep-n16")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_qglab():
    """qglab from this checkout's sources, or exit non-zero."""
    if not (SRC / "qglab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qglab sources under {SRC}")
    # thread pools are sized before numpy loads: no more threads than cores
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, cores)
    sys.path.insert(0, str(SRC))
    import qglab

    if Path(qglab.__file__).resolve().parent != (SRC / "qglab").resolve():
        sys.exit(f"perfbench: imported qglab from {qglab.__file__}, not {SRC}")


def measure(name, seed, seconds, trace):
    """Run rounds of one workload; return the result object to print."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    recorder = spans.Recorder(keep=("pe_solver.build_propagator",))
    outcome = workloads.Outcome()
    plain, traced, layers, kept = [], [], [], []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(plain) > len(traced)
        install = spans.install_trace if tracing else spans.install_probes
        sample, qg_steps = workload.round(seed, recorder, install, outcome, OUT)
        if peak_rss_mb is None:
            # the peak of one round's work; later rounds repeat it and would
            # only add the allocator's history
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracing:
            traced.append(sample)
            layers.append(workloads.layer_metrics(recorder.spans, qg_steps))
            kept.append(recorder.spans)
        else:
            plain.append(sample)
        if time.perf_counter() >= deadline and (not trace or traced):
            break

    if not trace:
        metrics = workloads.end_to_end(plain, peak_rss_mb)
    else:
        med = statistics.median
        values = {key: med(row[key] for row in layers) for key in layers[0]}
        values["trace.overhead_s"] = (med(s.wall_s for s in traced)
                                      - med(s.wall_s for s in plain))
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in workloads.PER_LAYER}
        spans.write_rounds(OUT / f"spans-{name}-seed{seed}.json", kept)
    for key, metric in metrics.items():
        print(f"{name:10s} {key:45s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{name:10s} rounds {len(plain)} untraced, {len(traced)} traced; "
          f"operations attempted {outcome.attempted}, failed {outcome.failed}")
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one at a time; a combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        _import_qglab()
        result = measure(args.workload, args.seed % 2**63, args.seconds,
                         bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
