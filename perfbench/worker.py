"""Closed-loop runner: one client in one process, one suite document at a time.

A request is one suite document, timed from ``cli.load_suite`` through
``orchestrator.run_suite`` to ``orchestrator.format_report`` (text mode), the
path a ``quassert run`` user takes.  Every report is checked outside the
timed region.  Started by ``run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``; writes its findings as one JSON file.

    python3 perfbench/worker.py --pool DIR --seconds 20 --trace 0 --out FILE
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedLog, probe


class Runner:
    """Runs the pool's suites through quassert and checks every report."""

    def __init__(self, pool_dir: Path, manifest: dict):
        from quassert import cli, orchestrator

        self.cli, self.orchestrator = cli, orchestrator
        self.paths = [pool_dir / entry["file"] for entry in manifest["suites"]]
        self.record_counts = [len(entry["assertions"]) for entry in manifest["suites"]]
        self.tracer = None  # set for the traced requests
        self.texts: dict[int, str] = {}
        self.problems: list[str] = []
        self.errors: list[str] = []

    def request(self, index: int):
        """Run suite ``index``; returns (seconds, report), or None if it raised."""
        tracer = self.tracer
        if tracer is not None:
            tracer.suite = index
            tracer.active = True
        start = time.perf_counter()
        try:
            suite = self.cli.load_suite(self.paths[index])
            report = self.orchestrator.run_suite(suite)
            text = self.orchestrator.format_report(report, "text")
            elapsed = time.perf_counter() - start
        except Exception:  # a failing suite is counted, and the loop goes on
            self.errors.append(f"suite {index}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            if tracer is not None:
                tracer.active = False
        self._check(index, report, text)
        return elapsed, report

    def _check(self, index: int, report, text: str) -> None:
        fmt = self.orchestrator.format_report
        as_json = fmt(report, "json")
        parsed = self.orchestrator.parse_report(as_json)
        if fmt(parsed, "json") != as_json or fmt(parsed, "text") != text:
            self.problems.append(f"suite {index}: report does not round-trip through JSON")
        if len(report.records) != self.record_counts[index]:
            self.problems.append(
                f"suite {index}: {len(report.records)} records for "
                f"{self.record_counts[index]} assertions"
            )
        probabilities = [r.result.probability for r in report.records]
        bad = [p for p in probabilities if not 0.0 <= p <= 1.0]
        if bad:
            self.problems.append(f"suite {index}: probabilities outside [0, 1]: {bad}")
        first = self.texts.setdefault(index, text)
        if first != text:
            self.problems.append(f"suite {index}: text report differs between runs")

    def digest(self) -> str:
        """sha256 of the text reports in pool order."""
        h = hashlib.sha256()
        for index in sorted(self.texts):
            h.update(f"{index}\n{self.texts[index]}".encode())
        return h.hexdigest()


def timed_loop(runner: Runner, seconds: float) -> dict:
    """Cycle through the pool for ``seconds``; the first pass always completes.

    The machine-speed probe runs between requests; each latency comes with
    the scale factor of the probes nearest to it.
    """
    speed = SpeedLog()
    pool = len(runner.paths)
    latencies, started, probabilities = [], [], [None] * pool
    assertions = attempted = failed = 0
    start = time.perf_counter()
    while attempted < pool or time.perf_counter() - start < seconds:
        index = attempted % pool
        attempted += 1
        speed.maybe_probe()
        at = time.perf_counter()
        outcome = runner.request(index)
        if outcome is None:
            failed += 1
            continue
        elapsed, report = outcome
        latencies.append(elapsed)
        started.append(at)
        assertions += len(report.records)
        if probabilities[index] is None:
            probabilities[index] = [r.result.probability for r in report.records]
    speed.maybe_probe()
    return {
        "attempted": attempted,
        "failed": failed,
        "latencies_s": latencies,
        "scales": [speed.scale(at) for at in started],
        "probe_s": statistics.median(speed.probes),
        "assertions": assertions,
        "probabilities": probabilities,
    }


def traced_pass(runner: Runner, count: int, spans_path: Path | None) -> dict:
    """Each of the first ``count`` suites untraced, then at once traced.

    Pairing the two runs of a suite keeps drifts in machine speed out of
    the overhead ratio.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    failed = 0
    for index in range(count):
        plain = runner.request(index)
        runner.tracer = tracer
        try:
            with tracer:
                traced = runner.request(index)
        finally:
            runner.tracer = None
        if plain is None or traced is None:
            failed += (plain is None) + (traced is None)
            continue
        untraced_s += plain[0]
        traced_s += traced[0]
    if spans_path is not None:
        tracer.write(spans_path)
    layers = tracer.metrics()
    layers["trace.suites"] = float(count)
    layers["trace_overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    return {"attempted": 2 * count, "failed": failed, "layers": layers}


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version as numpy reports it, and its thread count."""
    import numpy as np

    version = "unknown"
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return version, threads


def environment() -> dict:
    import numpy as np

    version, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "openblas_threads": threads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pool", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args(argv)

    import quassert

    if Path(quassert.__file__).resolve().parent != (args.src / "quassert").resolve():
        print(f"error: quassert imported from {quassert.__file__}, not {args.src}",
              file=sys.stderr)
        return 2

    manifest = json.loads((args.pool / "manifest.json").read_text(encoding="utf-8"))
    runner = Runner(args.pool, manifest)
    # Warm-up, untimed: the probe, and the cheapest suite of each register
    # size, whose reports are checked again later.
    probe()
    for index in manifest["warmup"]:
        runner.request(index)
    if args.trace:
        result = traced_pass(runner, manifest["trace_suites"], args.pool / "spans.npz")
    else:
        result = timed_loop(runner, args.seconds)
    result.update(
        problems=runner.problems,
        errors=runner.errors,
        digest=runner.digest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    args.out.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
