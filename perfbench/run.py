"""quassert benchmark: seeded suite workloads, measured end to end and per layer.

Run from the root of a checkout (the directory holding ``src/quassert``):

    python3 perfbench/run.py --workload ci_small_clean --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

For each run the benchmark measures the import time of ``quassert.cli`` in
fresh interpreters, writes a fresh pool of suite documents drawn from
``--seed`` under ``.bench_build/perfbench/<workload>/``, and starts
``worker.py``, which runs the pool as one closed-loop client in one process.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each of the
pool's leading suites untraced and then traced, and reports the per-layer
metrics.  ``--workload all`` does both for every workload and prints every
table.  Timings are scaled to a reference machine speed (see ``speed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
suites that raised; ``correct`` is false if any suite raised, if any report
failed its checks, or if Youden's J fell below ``MIN_YOUDEN_J``.  The exit
code is 0 once a result is printed, and 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generate
import speed
from tracing import DERIVED_METRICS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_BUDGET_S = 175.0
# Planted-correct assertions must pass clearly more often than mutated ones.
MIN_YOUDEN_J = 0.25

END_TO_END = (
    ("suite_p50_ms", "ms"),
    ("suite_p90_ms", "ms"),
    ("assertions_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("youden_j", "prob"),
)
PER_LAYER = tuple((m[0], m[3]) for m in LAYER_METRICS) + tuple(
    (m[0], m[1]) for m in DERIVED_METRICS
)

# Times ``import quassert.cli`` in a fresh interpreter, importing numpy first
# on its own: the total is the same import, and numpy's share is the probe.
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import quassert.cli; print(time.perf_counter() - t0, t1 - t0)"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def measure_setup(root: Path, deadline: float) -> tuple[float, float]:
    """Median time of ``import quassert.cli`` in fresh interpreters, raw and scaled.

    The first import compiles bytecode and warms the file cache; it is run
    and discarded, because a user pays it once, not on every run.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=_env(root / "src"),
            cwd=root,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if child.returncode != 0:
            raise BenchError(f"import quassert.cli failed:\n{child.stderr}")
        seconds, probe_s = (float(x) for x in child.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * speed.NUMPY_IMPORT_REFERENCE_S / probe_s)
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def youden_j(manifest: dict, probabilities: list) -> float:
    """Mean probability on planted-correct minus on planted-mutated assertions."""
    correct, mutated = [], []
    for entry, probs in zip(manifest["suites"], probabilities):
        for label, p in zip(entry["assertions"], probs or ()):
            (correct if label["correct"] else mutated).append(p)
    if not correct or not mutated:
        return 0.0
    return statistics.fmean(correct) - statistics.fmean(mutated)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setup = None if trace else measure_setup(root, deadline)
    work = root / ".bench_build" / "perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    manifest = generate.write_pool(workload, seed, work)
    out = work / "result.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--pool", str(work), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out), "--src", str(root / "src"),
    ]
    try:
        worker = subprocess.run(
            command, env=_env(root / "src"), cwd=root,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker did not finish within {RUN_BUDGET_S:.0f} s") from exc
    if worker.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {worker.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))

    correct = not result["problems"] and result["failed"] == 0
    if trace:
        metrics = result["layers"]
        samples = {}
    else:
        raw_ms = [s * 1000.0 for s in result["latencies_s"]]
        scaled_ms = [ms * k for ms, k in zip(raw_ms, result["scales"])]
        raw, scaled = statistics.quantiles(raw_ms, n=10), statistics.quantiles(scaled_ms, n=10)
        j = youden_j(manifest, result["probabilities"])
        correct = correct and j >= MIN_YOUDEN_J
        count = result["assertions"]
        # Throughput over the time spent inside requests: the report checks
        # between requests are the benchmark's work, not quassert's.
        metrics = {
            "suite_p50_ms": scaled[4],
            "suite_p90_ms": scaled[8],
            "assertions_per_s": count / (sum(scaled_ms) / 1000.0),
            "setup_s": setup[1],
            "peak_rss_mb": result["peak_rss_mb"],
            "youden_j": j,
        }
        samples = {
            "suite_p50_ms": f"{len(raw_ms)} suites; raw {raw[4]:.4g}",
            "suite_p90_ms": f"{len(raw_ms)} suites; raw {raw[8]:.4g}",
            "assertions_per_s": f"{count} assertions; raw {count / sum(result['latencies_s']):.4g}",
            "setup_s": f"median of {SETUP_REPEATS} imports; raw {setup[0]:.4g}",
            "peak_rss_mb": f"1 process; speed probe median {result['probe_s'] * 1e3:.3g} ms",
            "youden_j": f"{sum(len(e['assertions']) for e in manifest['suites'])} assertions",
        }
    return {
        "workload": workload,
        "trace": trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "samples": samples,
        "problems": result["problems"],
        "errors": result["errors"],
        "digest": result["digest"],
        "environment": result["environment"],
    }


def print_table(run: dict) -> None:
    spec = generate.WORKLOADS[run["workload"]]
    mode = "per layer, traced" if run["trace"] else "end to end, untraced"
    print(f"== {run['workload']} ({mode}); closed loop, 1 client, 1 process")
    print(f"   why: {spec.why}")
    print("   env: " + " ".join(f"{k}={v}" for k, v in run["environment"].items()))
    rate = run["failed"] / run["attempted"]
    print(f"   error_rate {rate:.4f} ({run['failed']} of {run['attempted']} suites raised)")
    units = dict(PER_LAYER if run["trace"] else END_TO_END)
    for name, value in run["metrics"].items():
        note = run["samples"].get(name, "")
        print(f"   {name:42s} {value:14.6g} {units[name]:6s} {note}")
    print(f"   report digest sha256:{run['digest']}")
    for line in run["problems"][:10] + run["errors"][:3]:
        print(f"   ! {line.rstrip()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*generate.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "quassert" / "__init__.py").is_file():
        print(f"error: no src/quassert under {root}; run from a quassert checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in generate.WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    try:
        runs = [run_workload(root, w, args.seed, args.seconds, t) for w, t in plan]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = dict(END_TO_END + PER_LAYER)
    metrics = {}
    for run in runs:
        print_table(run)
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        for name, value in run["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
