"""Tests of the benchmark itself: generator, report checks and traced runs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

# Small pools that still hold every kind of suite of their workload.
SMALL_POOLS = {"ci_small_clean": 6, "proj_wide_noisy": 2, "tomo_noisy": 5}


def test_same_seed_gives_byte_identical_documents(tmp_path):
    for workload, size in SMALL_POOLS.items():
        first = generate.write_pool(workload, 7, tmp_path / "a" / workload, pool=size)
        generate.write_pool(workload, 7, tmp_path / "b" / workload, pool=size)
        for name in [e["file"] for e in first["suites"]] + ["manifest.json"]:
            a = (tmp_path / "a" / workload / name).read_bytes()
            assert a == (tmp_path / "b" / workload / name).read_bytes()
        assert generate.generate(workload, 8, size)[0] != generate.generate(workload, 7, size)[0]


def _matrix(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


@pytest.mark.parametrize("workload", list(SMALL_POOLS))
def test_planted_cases_match_or_differ_clearly(workload):
    documents, manifest = generate.generate(workload, 11, SMALL_POOLS[workload])
    noise = generate.DEFAULT_NOISE if workload != "ci_small_clean" else None
    for doc, entry in zip(documents, manifest["suites"]):
        n = doc["n_qubits"]
        assert doc["defaults"]["noise"] == noise
        for case, label in zip(doc["cases"], entry["assertions"]):
            (assertion,) = case["assertions"]
            subject, value = case["circuit"], assertion["value"]
            if assertion["type"] == "distribution":
                distance = ref.total_variation(np.array(value), ref.distribution(subject, n, noise))
                assert distance < 1e-12 if label["correct"] else distance >= generate.MIN_TVD
                continue
            if assertion["type"] == "state":
                psi = ref.unitary(subject, n)[:, 0]
                fidelity = float(np.vdot(psi, _matrix(value) @ psi).real)
            else:
                fidelity = ref.channel_overlap(value, subject, n)
            if label["correct"]:
                assert fidelity == pytest.approx(1.0, abs=1e-12)
            else:
                assert fidelity <= generate.MAX_FIDELITY


def test_reference_agrees_with_quassert_under_noise():
    from quassert import Circuit, DensityMatrix, GateOp, NoiseModel, evolve

    noise = {"depolarizing_1q": 0.05, "depolarizing_2q": 0.1,
             "amplitude_damping": 0.07, "readout_flip": 0.0}
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        circuit = generate._random_circuit(rng, n, 10)
        ops = tuple(GateOp(op["gate"], tuple(op["qubits"]), op.get("angle")) for op in circuit)
        expected = evolve(DensityMatrix.ground(n), Circuit(n, ops), NoiseModel(**noise)).mat
        actual = ref.run_density(circuit, n, noise).matrix()
        assert np.abs(actual - expected).max() < 1e-12


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: the traced-run result and the runner that produced it."""
    originals = _binding_sites()
    out = {}
    for workload, size in SMALL_POOLS.items():
        pool = tmp_path_factory.mktemp(workload)
        manifest = generate.write_pool(workload, 3, pool, pool=size)
        runner = worker.Runner(pool, manifest)
        out[workload] = (worker.traced_pass(runner, len(manifest["suites"]), None), runner)
    out["originals"] = originals
    return out


def _binding_sites() -> dict:
    import quassert  # noqa: F401  (loads every module)
    from quassert import cli  # noqa: F401

    sites = {}
    for _, module, attribute, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(module, attribute)
        original = getattr(owner, attr)
        found = [(owner, attr)] if "." in attribute else list(tracing._bindings(original))
        sites[(module, attribute)] = (original, found)
    return sites


# Layers each workload must reach, and layers it must not.
USED = {
    "ci_small_clean": ("cli.load_suite", "protocols.proj", "stats.chi2_gof",
                       "qcore.expanded_gate_matrix", "simulator.evolve"),
    "proj_wide_noisy": ("protocols.proj", "simulator.evolve", "simulator.sample",
                        "qcore.expanded_gate_matrix", "qcore.DensityMatrix.init",
                        "qmath.hermitian_eig", "qmath.kron", "stats.chi2_gof"),
    "tomo_noisy": ("protocols.state_tomo", "protocols.process_tomo",
                   "tomography.state_tomography", "tomography.process_tomography",
                   "qmath.psd_project", "qcore.ChoiMatrix.init", "simulator.sample"),
}
UNUSED = {
    "proj_wide_noisy": ("tomography.", "protocols.state_tomo", "protocols.process_tomo",
                        "qmath.psd_project", "qcore.state_fidelity", "qcore.process_fidelity",
                        "qcore.ChoiMatrix"),
    "tomo_noisy": ("protocols.proj", "stats.chi2_gof"),
}


def test_layer_metrics_are_reached_where_predicted(traced):
    for workload, layers in USED.items():
        metrics = traced[workload][0]["layers"]
        for layer in layers:
            assert metrics[layer + ".s"] > 0.0, (workload, layer)
    for workload, layers in UNUSED.items():
        metrics = traced[workload][0]["layers"]
        for name, value in metrics.items():
            if name.startswith(layers):
                assert value == 0.0, (workload, name)
    for name, _, _, _, _ in tracing.LAYER_METRICS:
        assert any(traced[w][0]["layers"][name] > 0 for w in SMALL_POOLS), name
    for workload in SMALL_POOLS:
        result, runner = traced[workload]
        assert result["failed"] == 0 and not runner.problems
        assert result["layers"]["trace_overhead_ratio"] > 0.0


def test_untraced_path_calls_the_originals_after_a_traced_run(traced):
    assert _binding_sites() == traced["originals"]
    for (_, _), (original, sites) in traced["originals"].items():
        for owner, attr in sites:
            assert getattr(owner, attr) is original
    result, runner = traced["ci_small_clean"]
    tracer = tracing.Tracer()
    runner.tracer = tracer  # active during the request, but nothing is wrapped
    try:
        assert runner.request(0) is not None
    finally:
        runner.tracer = None
    assert len(tracer.start) == 0


def test_report_checks_catch_bad_reports(traced):
    _, runner = traced["ci_small_clean"]
    suite = runner.cli.load_suite(runner.paths[0])
    report = runner.orchestrator.run_suite(suite)
    text = runner.orchestrator.format_report(report, "text")
    record = report.records[0]
    broken = dataclasses.replace(
        report,
        records=(dataclasses.replace(record, result=dataclasses.replace(
            record.result, probability=1.5)),) + report.records[1:],
    )
    before = len(runner.problems)
    runner._check(0, broken, text)
    runner._check(0, dataclasses.replace(report, records=report.records[1:]), text)
    runner._check(0, report, text + "\n")
    found = runner.problems[before:]
    del runner.problems[before:]
    assert any("outside [0, 1]" in p for p in found)
    assert any("records for" in p for p in found)
    assert any("differs between runs" in p for p in found)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(generate.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in generate.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tomo_noisy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
