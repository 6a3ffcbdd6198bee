"""Seeded suite-document generator for the three benchmark workloads.

Every run draws a fresh pool of suite documents from its ``--seed``; the same
seed always gives byte-identical documents.  Each case is either planted
correct (its expected values describe its own circuit) or planted mutated:
the circuit is changed while the expected values stay those of the correct
circuit, and the change is resampled until it differs clearly from the
correct circuit (total-variation distance >= 0.2 between the asserted
distributions, ideal fidelity <= 0.8 for a state or a channel).  Expected
values come from :mod:`reference`, never from quassert.

The properties that set a suite's cost (register size, depth, shots, type of
assertion and, for proj, how widely the output state spreads) are stratified
rather than drawn independently, and the pool is ordered so that every
prefix has the pool's mix.  Which gates land where is
random.  That keeps the work in a run close to the same across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# The parameters of quassert's ``default`` noise preset, written out so the
# documents do not depend on the preset's definition.
DEFAULT_NOISE = {
    "depolarizing_1q": 0.001,
    "depolarizing_2q": 0.01,
    "amplitude_damping": 0.001,
    "readout_flip": 0.02,
}

MIN_TVD = 0.2
MAX_FIDELITY = 0.8
# Mutated state and channel cases are spread evenly over these bands of
# ideal fidelity to the correct circuit.
FIDELITY_BANDS = ((0.0, 0.4), (0.4, MAX_FIDELITY))
_ATTEMPTS_PER_CIRCUIT = 200

_GATES_1Q = ref.ONE_QUBIT_GATES + ref.ROTATION_GATES
_GATES_ALL = _GATES_1Q + ref.TWO_QUBIT_GATES


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: int  # suites generated per run
    trace_suites: int  # leading suites of the pool run in the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ci_small_clean",
            "CI-like suites of 4-8 small noiseless cases: decode, orchestration, chi2 "
            "and tiny-matrix gates dominate; noise bypassed, tomography a minority",
            pool=240,
            trace_suites=60,
        ),
        Workload(
            "proj_wide_noisy",
            "one noisy proj assertion on 5-7 qubits: gate kernel, noise channels and "
            "DensityMatrix eigen-validation on 32-128 wide matrices; no tomography",
            pool=100,
            trace_suites=24,
        ),
        Workload(
            "tomo_noisy",
            "one noisy state (2-4 qubits) or process (1-2 qubits) tomography assertion: "
            "settings loop, inversion, PSD projection, eigensolver and fidelity dominate",
            pool=108,
            trace_suites=36,
        ),
    )
}


def _spread(rng: np.random.Generator, values, count: int) -> list:
    """``count`` items cycling evenly through ``values``, in random order."""
    items = [values[i % len(values)] for i in range(count)]
    return [items[i] for i in rng.permutation(count)]


def _even(rng: np.random.Generator, lo: float, hi: float, count: int, geometric=False) -> list:
    """``count`` values evenly covering [lo, hi], in random order."""
    grid = np.geomspace(lo, hi, count) if geometric else np.linspace(lo, hi, count)
    return [grid[i] for i in rng.permutation(count)]


def _interleave(rng: np.random.Generator, strata: list[list[dict]]) -> list[dict]:
    """Merge the strata so that every prefix holds each in proportion."""
    keyed = []
    for stratum in strata:
        offsets = rng.random(len(stratum))
        for k, item in enumerate(stratum):
            keyed.append(((k + offsets[k]) / len(stratum), len(keyed), item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def _random_gate(rng: np.random.Generator, n: int) -> dict:
    names = _GATES_ALL if n > 1 else _GATES_1Q
    name = names[int(rng.integers(len(names)))]
    if name in ref.TWO_QUBIT_GATES:
        a, b = rng.choice(n, size=2, replace=False)
        return {"gate": name, "qubits": [int(a), int(b)]}
    op = {"gate": name, "qubits": [int(rng.integers(n))]}
    if name in ref.ROTATION_GATES:
        op["angle"] = round(float(rng.uniform(0.0, 2.0 * math.pi)), 4)
    return op


def _random_circuit(rng: np.random.Generator, n: int, depth: int) -> list[dict]:
    return [_random_gate(rng, n) for _ in range(depth)]


def _mutate(rng: np.random.Generator, circuit: list[dict], n: int, edits: int) -> list[dict]:
    ops = [dict(op) for op in circuit]
    for _ in range(edits):
        kind = int(rng.integers(4))
        i = int(rng.integers(len(ops)))
        if kind == 0:  # replace a gate
            ops[i] = _random_gate(rng, n)
        elif kind == 1:  # insert a gate
            ops.insert(i, _random_gate(rng, n))
        elif kind == 2 and len(ops) > 1:  # delete a gate
            del ops[i]
        else:  # swap two neighbouring gates, or retarget one
            if i + 1 < len(ops):
                ops[i], ops[i + 1] = ops[i + 1], ops[i]
            else:
                ops[i] = _random_gate(rng, n)
    return ops


class _Case:
    """Expected values of one correct circuit, and tests for a mutation."""

    def __init__(self, circuit: list[dict], n: int, types: list[str], noise: dict | None):
        self.circuit, self.n, self.types, self.noise = circuit, n, types, noise
        self.dist = ref.distribution(circuit, n, noise) if "distribution" in types else None

    def accepts(self, mutant: list[dict], band: tuple[float, float] | None) -> bool:
        fidelities = []
        for kind in self.types:
            if kind == "distribution":
                tvd = ref.total_variation(self.dist, ref.distribution(mutant, self.n, self.noise))
                if tvd < MIN_TVD:
                    return False
            elif kind == "state":
                fidelities.append(ref.state_overlap(self.circuit, mutant, self.n))
            else:
                fidelities.append(ref.channel_overlap(self.circuit, mutant, self.n))
        lo, hi = band if band is not None else (0.0, MAX_FIDELITY)
        return all(lo <= f <= hi and f <= MAX_FIDELITY for f in fidelities)

    def assertion(self, kind: str) -> dict:
        if kind == "distribution":
            value = [float(p) for p in self.dist]
        elif kind == "state":
            mat = ref.pure_state(self.circuit, self.n)
            value = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
        else:
            value = self.circuit
        return {"type": "process_ref" if kind == "process" else kind, "value": value}


def _pick_circuit(
    rng: np.random.Generator, n: int, depth: int, support: int | None
) -> tuple[int, list[dict]]:
    """(miss, circuit): a random circuit whose ideal output spreads over
    2^support basis states, or after ``_ATTEMPTS_PER_CIRCUIT`` misses the
    nearest one seen; ``miss`` is its distance from ``support``."""
    best = None
    for _ in range(_ATTEMPTS_PER_CIRCUIT):
        circuit = _random_circuit(rng, n, depth)
        miss = 0 if support is None else abs(ref.support_bits(circuit, n) - support)
        if best is None or miss < best[0]:
            best = (miss, circuit)
        if miss == 0:
            break
    return best


def _make_case(
    rng: np.random.Generator,
    n: int,
    depth: int,
    types: list[str],
    correct: bool,
    noise: dict | None,
    band: tuple[float, float] | None = None,
    support: int | None = None,
) -> tuple[list[dict], list[dict]]:
    """(subject circuit, assertions) of one planted-correct or mutated case.

    With ``support``, the subject's ideal output spreads over 2^support basis
    states, so that the cost of simulating it is as planned.
    """
    while True:
        miss, circuit = _pick_circuit(rng, n, depth, support)
        case = _Case(circuit, n, types, noise)
        if correct:
            return circuit, [case.assertion(kind) for kind in types]
        for attempt in range(_ATTEMPTS_PER_CIRCUIT):
            mutant = _mutate(rng, circuit, n, 1 + attempt // 50)
            if miss == 0 and support is not None and ref.support_bits(mutant, n) != support:
                continue
            if case.accepts(mutant, band):
                return mutant, [case.assertion(kind) for kind in types]


def _suite_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode(), "little") % (2**32)
    return np.random.default_rng([seed, tag, index])


def _document(name: str, n: int, shots: int, seed: int, noise, cases: list) -> dict:
    return {
        "name": name,
        "n_qubits": n,
        "defaults": {"shots": int(shots), "seed": int(seed), "noise": noise},
        "cases": [
            {"name": f"c{i}", "circuit": circuit, "assertions": assertions}
            for i, (circuit, assertions) in enumerate(cases)
        ],
    }


# Assertion-type mix of ci_small_clean by register size: state needs n <= 2
# and process_ref n = 1, and the overall mix is 80 / 15 / 5 percent.
_CI_TYPES = {
    1: (("distribution", "state", "process"), (0.625, 0.225, 0.15)),
    2: (("distribution", "state"), (0.775, 0.225)),
    3: (("distribution",), (1.0,)),
}


def _plan_ci(rng: np.random.Generator, pool: int) -> list[dict]:
    plans = [
        {"n": n, "cases": c, "shots": s}
        for n, c, s in zip(
            _spread(rng, [1, 2, 3], pool),
            _spread(rng, [4, 5, 6, 7, 8], pool),
            _spread(rng, [1000, 1500, 2000, 2500, 3000], pool),
        )
    ]
    return _interleave(rng, [[p for p in plans if p["n"] == n] for n in (1, 2, 3)])


def _build_ci(rng: np.random.Generator, plan: dict) -> tuple[list, list[dict]]:
    n = plan["n"]
    kinds, weights = _CI_TYPES[n]
    cases, labels = [], []
    for _ in range(plan["cases"]):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        correct = bool(rng.random() < 2.0 / 3.0)
        depth = int(rng.integers(3, 13))
        cases.append(_make_case(rng, n, depth, [kind], correct, None))
        labels.append({"type": kind, "correct": correct})
    return cases, labels


# Every proj subject spreads its ideal output over 2^(n-2) basis states, the
# most common spread for random circuits of this gate set and depth.
# quassert's eigen-validation of a state costs several times more for each
# doubling of the spread, so with the natural mix of spreads the percentiles
# of a 100-suite pool swung by 20 % from seed to seed.
def _plan_proj(rng: np.random.Generator, pool: int) -> list[dict]:
    strata = []
    for n, share in ((5, 0.4), (6, 0.4), (7, 0.2)):
        count = round(pool * share)
        strata.append(
            [
                {"n": n, "depth": round(d), "support": n - 2, "shots": round(s, -2),
                 "correct": c, "kind": "distribution"}
                for d, s, c in zip(
                    _even(rng, 3 * n, 6 * n, count),
                    _even(rng, 1000, 10000, count, geometric=True),
                    _spread(rng, [True] * 4 + [False], count),
                )
            ]
        )
    return _interleave(rng, strata)


def _plan_tomo(rng: np.random.Generator, pool: int) -> list[dict]:
    strata = []
    for kind, n, share in (
        ("state", 2, 2 / 9),
        ("state", 3, 2 / 9),
        ("state", 4, 2 / 9),
        ("process", 1, 1 / 6),
        ("process", 2, 1 / 6),
    ):
        count = round(pool * share)
        correct = _spread(rng, [True, False], count)
        bands = iter(_spread(rng, list(FIDELITY_BANDS), correct.count(False)))
        strata.append(
            [
                {
                    "n": n,
                    "depth": round(d),
                    "shots": round(s, -1),
                    "correct": c,
                    "kind": kind,
                    "band": None if c else next(bands),
                }
                for d, s, c in zip(
                    _even(rng, 3 * n, 6 * n, count),
                    _even(rng, 100, 3000, count, geometric=True),
                    correct,
                )
            ]
        )
    return _interleave(rng, strata)


def _build_single(rng: np.random.Generator, plan: dict) -> tuple[list, list[dict]]:
    case = _make_case(
        rng, plan["n"], plan["depth"], [plan["kind"]], plan["correct"], DEFAULT_NOISE,
        plan.get("band"), plan.get("support"),
    )
    return [case], [{"type": plan["kind"], "correct": plan["correct"]}]


_PLANNERS = {
    "ci_small_clean": (_plan_ci, _build_ci, None),
    "proj_wide_noisy": (_plan_proj, _build_single, DEFAULT_NOISE),
    "tomo_noisy": (_plan_tomo, _build_single, DEFAULT_NOISE),
}


def generate(workload: str, seed: int, pool: int | None = None) -> tuple[list[dict], dict]:
    """The pool's suite documents and a manifest holding the planted labels."""
    spec = WORKLOADS[workload]
    pool = spec.pool if pool is None else pool
    plan_fn, build_fn, noise = _PLANNERS[workload]
    plans = plan_fn(np.random.default_rng([seed, 0]), pool)
    documents, suites = [], []
    for index, plan in enumerate(plans):
        rng = _suite_rng(seed, workload, index)
        cases, labels = build_fn(rng, plan)
        suite_seed = int(rng.integers(2**31))
        documents.append(
            _document(f"{workload}-{index:04d}", plan["n"], plan["shots"], suite_seed, noise, cases)
        )
        gates = sum(len(circuit) for circuit, _ in cases)
        suites.append({"file": f"suite_{index:04d}.json", "assertions": labels,
                       "cost": [plan["n"], gates]})
    cheapest: dict[int, int] = {}
    for i, entry in enumerate(suites):
        n = entry["cost"][0]
        if n not in cheapest or entry["cost"] < suites[cheapest[n]]["cost"]:
            cheapest[n] = i
    manifest = {
        "workload": workload,
        "seed": seed,
        "suites": suites,
        "warmup": sorted(cheapest.values()),
        "trace_suites": min(spec.trace_suites, len(suites)),
    }
    return documents, manifest


def write_pool(workload: str, seed: int, out_dir: Path, pool: int | None = None) -> dict:
    """Write the pool's documents and ``manifest.json`` into ``out_dir``."""
    documents, manifest = generate(workload, seed, pool)
    out_dir.mkdir(parents=True, exist_ok=True)
    for doc, entry in zip(documents, manifest["suites"]):
        (out_dir / entry["file"]).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    (out_dir / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return manifest
