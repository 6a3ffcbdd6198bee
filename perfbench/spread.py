"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload proj_wide_noisy --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --baseline perfbench/baseline.json

For every end-to-end metric it prints the median over the seeds, the first
and third quartile (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound in
``BENCHMARK.json``.  With ``--baseline`` it also makes one traced run per
workload and writes medians, quartiles, per-layer figures and the machine
description to the given file.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]

    baseline = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        correct = True
        for seed in _seeds(args.seeds):
            result, _ = _run(workload, seed, bench["run_seconds"], 0)
            correct = correct and result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.5g}" for name in bounds), flush=True)
        summary = {}
        print(f"== {workload}: correct on every seed: {correct}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"   {name:18s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:.2f}  "
                  f"share {spread / bounds[name]:5.2f}")
        entry = {"correct": correct, "end_to_end": summary}
        if args.baseline:
            traced, lines = _run(workload, _seeds(args.seeds)[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            env = next(line for line in lines if line.strip().startswith("env:"))
            baseline["environment"] = env.strip()[len("env: "):]
        baseline["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
