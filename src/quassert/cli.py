"""Command-line front end: run suites, run Youden-J shot sweeps.

Suite and sweep documents are JSON.  Complex matrix entries are encoded as
[re, im] pairs; distributions are probability arrays in little-endian index
order.  Exit codes: 0 all cases passed, 1 some assertion failed, 2 parse or
validation failure, 3 numeric failure or an allocation numpy refused.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

from quassert.orchestrator import (
    Assertion,
    SuiteValidationError,
    TestCase,
    TestSuite,
    _check_type,
    format_report,
    run_suite,
)
from quassert.protocols import ProcessRef, RunConfig, protocol_for, run_protocol
from quassert.qcore import ChoiMatrix, Circuit, DensityMatrix, GateOp, OutcomeDistribution, _as_int
from quassert.qmath import DegenerateInputError, NumericError
from quassert.simulator import (
    DEFAULT_NOISE,
    NoiseModel,
    check_noise,
    check_seed,
    check_shots,
    derive_seed,
)

DEFAULT_SHOT_GRID = (10, 30, 100, 300, 1000, 3000, 10000)
DEFAULT_TRIALS = 20
SWEEP_PASS_THRESHOLD = 0.05

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3

# An n-qubit expected value holds 2^n numbers or more, so no document can
# describe more qubits; the bound keeps every 2**n_qubits cheap to form.
MAX_DOCUMENT_QUBITS = 64


@dataclass(frozen=True)
class SweepConfig:
    """A correct/mutated subroutine pair swept over shot counts.

    Each case holds one assertion with no overrides: the grid sets its shots,
    and the sweep averages probabilities instead of applying a threshold.
    """

    name: str
    positive_case: TestCase
    negative_case: TestCase
    shot_grid: tuple[int, ...] = DEFAULT_SHOT_GRID
    trials_per_point: int = DEFAULT_TRIALS
    noise: NoiseModel | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_type(self.name, str, "sweep name")
        _check_type(self.positive_case, TestCase, "positive_case")
        _check_type(self.negative_case, TestCase, "negative_case")
        for case in (self.positive_case, self.negative_case):
            first = case.assertions[0]
            if len(case.assertions) != 1 or first.shots is not None or first.threshold is not None:
                raise ValueError(f"sweep case {case.name!r} must hold exactly one assertion, "
                                 "with no shots or threshold override")
        proto_pos = protocol_for(self.positive_case.assertions[0].expected)
        proto_neg = protocol_for(self.negative_case.assertions[0].expected)
        if proto_pos != proto_neg:
            raise ValueError(
                f"positive and negative cases use different assertion types "
                f"({proto_pos} vs {proto_neg})"
            )
        grid = tuple(check_shots(shots, "shot_grid entries") for shots in self.shot_grid)
        if not grid or list(grid) != sorted(grid):
            raise ValueError("shot_grid must be non-empty and ascending")
        object.__setattr__(self, "shot_grid", grid)
        trials = _as_int(self.trials_per_point, "trials_per_point")
        if trials < 1:
            raise ValueError(f"trials_per_point must be >= 1, got {trials}")
        object.__setattr__(self, "trials_per_point", trials)
        object.__setattr__(self, "seed", check_seed(self.seed))
        check_noise(self.noise)


# Document decoding: every field is checked once, as it is read, and every
# rejection names its location (``cases[1].circuit[0].qubits[0]``).  Value
# rules belong to the types built from the fields; their ValueErrors are
# reported at the location of the value.

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number"}
_NOISE_FIELDS = tuple(f.name for f in fields(NoiseModel))
_DEFAULTS_FIELDS = tuple(f.name for f in fields(RunConfig))
_GATE_KEYS = frozenset(("gate", "qubits", "angle"))


def _fail(where: str, message: str) -> NoReturn:
    raise SuiteValidationError(f"{where}: {message}" if where else message)


def _build(where: str, factory, *args, **kwargs):
    """Call ``factory``, reporting the ValueError of a value rule at ``where``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        _fail(where, str(exc))


def _expect(value, where: str, kind: type, nonempty: bool = False):
    """``value`` if it has the JSON type ``kind``; ``float`` means any number
    that fits a float.

    An integral float such as ``3.0`` reads as the integer ``3``.
    """
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not kind and not (kind is float and type(value) is int):
        got = type(value) in (dict, list) and _JSON_TYPES[type(value)]
        _fail(where, f"expected {_JSON_TYPES[kind]}, got {got or json.dumps(value, default=repr)}")
    if kind is float and type(value) is int and abs(value) > sys.float_info.max:
        _fail(where, "expected a number, got an integer too large for a float")
    if nonempty and not value:
        _fail(where, "must not be empty")
    return value


def _field(obj: dict, key: str, where: str, kind: type, default=None):
    """The optional field ``key`` of ``obj``, or ``default`` when it is absent."""
    return _expect(obj[key], f"{where}.{key}" if where else key, kind) if key in obj else default


def _object(value, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for key in _expect(value, where, dict):
        if key not in required and key not in optional:
            _fail(where, f"unknown key {key!r}")
    for key in required:
        if key not in value:
            _fail(where, f"missing required key {key!r}")
    return value


def _numbers(value, where: str, depth: int) -> None:
    """Reject ``value`` at its first entry that breaks "an array nested
    ``depth`` deep with numbers at the bottom"."""
    for i, item in enumerate(_expect(value, where, list)):
        if depth > 1:
            _numbers(item, f"{where}[{i}]", depth - 1)
        else:
            _expect(item, f"{where}[{i}]", float)


def _number_array(value, where: str, depth: int) -> np.ndarray | None:
    """``value``, checked to be an array nested ``depth`` deep with numbers at
    the bottom, as a float64 array; None if its numbers do not stack into one.

    One numpy conversion reads the whole value and one pass checks its leaves'
    types, since numpy reads a boolean, a numeric string or null as a number
    (and an integer just beyond the float range as the largest float).  Only a
    value that fails is walked by :func:`_numbers`, which names its first bad
    entry.
    """
    try:
        arr = np.array(value, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):  # ragged, an object, an integer beyond floats
        arr = None
    if arr is not None and arr.ndim == depth:
        leaves = value
        for _ in range(depth - 1):
            leaves = chain.from_iterable(leaves)
        types = set(map(type, leaves))
        huge = int in types and (abs(arr) >= sys.float_info.max).any()
        if types <= {int, float} and not huge:
            return arr
    _numbers(value, where, depth)
    return arr


def _n_qubits(document: dict) -> int:
    n_qubits = _expect(document["n_qubits"], "n_qubits", int)
    if not 1 <= n_qubits <= MAX_DOCUMENT_QUBITS:
        _fail("n_qubits", f"must be in [1, {MAX_DOCUMENT_QUBITS}], got {n_qubits}")
    return n_qubits


def decode_noise(value, where: str = "noise") -> NoiseModel | None:
    if value is None or value == "none":
        return None
    if value == "default":
        return DEFAULT_NOISE
    if isinstance(value, str):
        _fail(where, f"unknown noise preset {value!r} (use 'default' or 'none')")
    strengths = _object(value, where, (), _NOISE_FIELDS)
    return _build(
        where, NoiseModel, **{k: _expect(v, f"{where}.{k}", float) for k, v in strengths.items()}
    )


def _decode_gate(item, at: str) -> GateOp:
    """The gate item ``item``, checked field by field, each rejection located."""
    _object(item, at, ("gate", "qubits"), ("angle",))
    name = _expect(item["gate"], f"{at}.gate", str)
    qubits = _expect(item["qubits"], f"{at}.qubits", list)
    qubits = tuple(_expect(q, f"{at}.qubits[{k}]", int) for k, q in enumerate(qubits))
    return _build(at, GateOp, name, qubits, _field(item, "angle", at, float))


def _read_gate(item) -> GateOp | None:
    """The gate item ``item`` read in one pass over its exact JSON types, or
    None if a field has another type or :class:`GateOp` rejects the gate."""
    if type(item) is not dict or not item.keys() <= _GATE_KEYS:
        return None
    name, qubits, angle = item.get("gate"), item.get("qubits"), item.get("angle")
    if type(name) is not str or type(qubits) is not list or any(type(q) is not int for q in qubits):
        return None
    if "angle" in item and not (
        type(angle) is float or type(angle) is int and abs(angle) <= sys.float_info.max
    ):
        return None
    try:
        return GateOp(name, tuple(qubits), angle)
    except ValueError:
        return None


def _decode_circuit(items, n_qubits: int, where: str) -> Circuit:
    """A circuit, each gate read by :func:`_read_gate`; only a gate that it
    returns None for is walked by :func:`_decode_gate`, which locates the
    rejection."""
    # A list, then one tuple: tuple() of a generator allocates a fresh tuple and
    # resizes it, which fills the interpreter's tuple free lists (up to 4 MB).
    ops = [
        _read_gate(item) or _decode_gate(item, f"{where}[{i}]")
        for i, item in enumerate(_expect(items, where, list))
    ]
    return _build(where, Circuit, n_qubits, tuple(ops))


def _decode_matrix(value, where: str) -> np.ndarray:
    arr = _number_array(value, where, depth=3)
    if arr is None or not len(arr) or arr.shape != (len(arr), len(arr), 2):
        _fail(where, "expected a square matrix of [re, im] pairs")
    with np.errstate(invalid="ignore"):  # an infinite entry, which the matrix type rejects
        return arr[..., 0] + 1j * arr[..., 1]


def _decode_assertion(
    obj, n_qubits: int, where: str, overrides: tuple[str, ...] = ("shots", "threshold")
) -> Assertion:
    """An assertion whose optional keys are ``overrides``.

    A sweep's assertion takes none: its shots come from ``shot_grid``, and
    the sweep averages probabilities instead of applying a threshold.
    """
    _object(obj, where, ("type", "value"), overrides)
    kind, value, at = obj["type"], obj["value"], f"{where}.value"
    if kind == "distribution":
        expected = _build(where, OutcomeDistribution, n_qubits, _number_array(value, at, 1))
    elif kind == "state":
        expected = _build(where, DensityMatrix, n_qubits, _decode_matrix(value, at))
    elif kind == "process":
        expected = _build(where, ChoiMatrix, n_qubits, _decode_matrix(value, at))
    elif kind == "process_ref":
        expected = ProcessRef(_decode_circuit(value, n_qubits, at))
    else:
        _fail(f"{where}.type", f"unknown assertion type {kind!r}; "
              "use distribution, state, process or process_ref")
    shots, threshold = _field(obj, "shots", where, int), _field(obj, "threshold", where, float)
    return _build(where, Assertion, expected, shots, threshold)


def _decode_case(raw, n_qubits: int, where: str, key: str) -> TestCase:
    """A suite case (``key="assertions"``) or a sweep case (``key="assertion"``)."""
    _object(raw, where, ("name", "circuit", key))
    name = _expect(raw["name"], f"{where}.name", str, nonempty=True)
    subject = _decode_circuit(raw["circuit"], n_qubits, f"{where}.circuit")
    at = f"{where}.{key}"
    if key == "assertion":
        return TestCase(name, subject, (_decode_assertion(raw[key], n_qubits, at, ()),))
    items = _expect(raw[key], at, list, nonempty=True)
    return TestCase(name, subject, tuple(
        _decode_assertion(a, n_qubits, f"{at}[{i}]") for i, a in enumerate(items)
    ))


def _decode_suite(document) -> TestSuite:
    _object(document, "", ("name", "n_qubits", "cases"), ("save_data", "defaults"))
    name = _expect(document["name"], "name", str, nonempty=True)
    n_qubits = _n_qubits(document)
    save_data = _field(document, "save_data", "", bool, False)
    raw = _object(document.get("defaults", {}), "defaults", (), _DEFAULTS_FIELDS)
    defaults = _build(
        "defaults",
        RunConfig,
        shots=_field(raw, "shots", "defaults", int, RunConfig.shots),
        seed=_field(raw, "seed", "defaults", int, RunConfig.seed),
        threshold=_field(raw, "threshold", "defaults", float, RunConfig.threshold),
        noise=decode_noise(raw.get("noise"), "defaults.noise"),
    )
    cases = _expect(document["cases"], "cases", list, nonempty=True)
    cases = tuple(
        _decode_case(case, n_qubits, f"cases[{i}]", "assertions") for i, case in enumerate(cases)
    )
    return TestSuite(name, n_qubits, cases, defaults=defaults, save_data=save_data)


def _decode_sweep(document) -> SweepConfig:
    required = ("name", "n_qubits", "positive_case", "negative_case")
    _object(document, "", required, ("seed", "shot_grid", "trials_per_point", "noise"))
    name = _expect(document["name"], "name", str, nonempty=True)
    n_qubits = _n_qubits(document)
    grid = _field(document, "shot_grid", "", list, DEFAULT_SHOT_GRID)
    grid = tuple(_expect(shots, f"shot_grid[{i}]", int) for i, shots in enumerate(grid))
    cases = {
        key: _decode_case(document[key], n_qubits, key, "assertion")
        for key in ("positive_case", "negative_case")
    }
    return _build(
        "",
        SweepConfig,
        name=name,
        **cases,
        shot_grid=grid,
        trials_per_point=_field(document, "trials_per_point", "", int, DEFAULT_TRIALS),
        noise=decode_noise(document.get("noise"), "noise"),
        seed=_field(document, "seed", "", int, 0),
    )


def _load(path: str | Path, decode):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SuiteValidationError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SuiteValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:  # arrays or objects nested deeper than the parser's stack
        raise SuiteValidationError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer beyond Python's int-string limit
        raise SuiteValidationError(f"{path}: an integer has too many digits to read") from exc
    try:
        return decode(document)
    except SuiteValidationError as exc:
        raise SuiteValidationError(f"{path}: {exc}") from exc


def load_suite(path: str | Path) -> TestSuite:
    """Parse and validate a suite document into a runnable TestSuite."""
    return _load(path, _decode_suite)


def load_sweep(path: str | Path) -> SweepConfig:
    """Parse and validate a sweep document."""
    return _load(path, _decode_sweep)


def run_sweep(config: SweepConfig, rates: bool = False) -> tuple[str, str, float]:
    """Run the sweep; returns (csv text, protocol id, seconds per logical shot).

    alpha/beta are mean probabilities over trials for the positive/negative
    case; J = alpha - beta.  With ``rates``, two extra columns report the
    fraction of trials whose probability clears 0.05.  The seconds are the
    wall time of the whole grid, the loop's own work included.
    """
    protocol = protocol_for(config.positive_case.assertions[0].expected)

    header = "shots,alpha,beta,J"
    if rates:
        header += ",alpha_pass,beta_pass"
    lines = [header]
    start = time.perf_counter()
    for shots in config.shot_grid:
        buckets: dict[str, list[float]] = {"pos": [], "neg": []}
        for trial in range(config.trials_per_point):
            for tag, case in (("pos", config.positive_case), ("neg", config.negative_case)):
                seed = derive_seed(config.seed, case.name, shots, trial)
                run_config = RunConfig(shots=shots, seed=seed, noise=config.noise)
                result = run_protocol(case.subject, case.assertions[0].expected, run_config)
                buckets[tag].append(result.probability)
        alpha = float(np.mean(buckets["pos"]))
        beta = float(np.mean(buckets["neg"]))
        row = f"{shots},{alpha:.6f},{beta:.6f},{alpha - beta:.6f}"
        if rates:
            alpha_pass = float(np.mean([p >= SWEEP_PASS_THRESHOLD for p in buckets["pos"]]))
            beta_pass = float(np.mean([p >= SWEEP_PASS_THRESHOLD for p in buckets["neg"]]))
            row += f",{alpha_pass:.6f},{beta_pass:.6f}"
        lines.append(row)
    logical_shots = 2 * config.trials_per_point * sum(config.shot_grid)
    per_shot = (time.perf_counter() - start) / logical_shots
    return "\n".join(lines) + "\n", protocol, per_shot


def cmd_run(args: argparse.Namespace) -> int:
    suite = load_suite(args.suite)
    defaults = suite.defaults
    for key in ("shots", "seed", "threshold"):
        if getattr(args, key) is not None:
            defaults = _build(f"--{key}", replace, defaults, **{key: getattr(args, key)})
    if args.noise is not None:
        defaults = replace(defaults, noise=_noise_from_flag(args.noise))
    save_data = suite.save_data or args.save_data is not None
    suite = replace(suite, defaults=defaults, save_data=save_data)
    if args.save_data is not None:
        # Made before the run, so an unusable DIR fails before anything executes.
        Path(args.save_data).mkdir(parents=True, exist_ok=True)

    report = run_suite(suite)
    sys.stdout.write(format_report(report, args.format))

    if args.save_data is not None:
        report_path = Path(args.save_data) / "report.json"
        report_path.write_text(format_report(report, "json"), encoding="utf-8")
    return EXIT_OK if report.all_passed else EXIT_FAILURES


def _noise_from_flag(flag: str) -> NoiseModel | None:
    if flag in ("default", "none"):
        return decode_noise(flag, "--noise")
    return _load(flag, decode_noise)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_sweep(args.sweep)
    if args.seed is not None:
        config = _build("--seed", replace, config, seed=args.seed)
    if args.trials is not None:
        config = _build("--trials", replace, config, trials_per_point=args.trials)
    if args.noise is not None:
        config = replace(config, noise=_noise_from_flag(args.noise))

    csv_text, protocol, per_shot = run_sweep(config, rates=args.rates)
    sys.stdout.write(csv_text)
    if args.timing:
        print(
            f"timing: protocol={protocol} seconds_per_logical_shot={per_shot:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quassert",
        description="Unit testing for quantum subroutines on an embedded density-matrix simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a test suite document")
    run_p.add_argument("suite", help="path to a suite JSON document")
    run_p.add_argument("--shots", type=int, help="override default shots")
    run_p.add_argument("--seed", type=int, help="override master seed")
    run_p.add_argument("--threshold", type=float, help="override confidence threshold")
    run_p.add_argument("--noise", help="noise preset name ('default'/'none') or JSON file")
    run_p.add_argument("--save-data", metavar="DIR", help="store the full report with artifacts")
    run_p.add_argument("--format", choices=("text", "json"), default="text")

    sweep_p = sub.add_parser("sweep", help="run a Youden-J shot sweep, CSV to stdout")
    sweep_p.add_argument("sweep", help="path to a sweep JSON document")
    sweep_p.add_argument("--seed", type=int, help="override master seed")
    sweep_p.add_argument("--trials", type=int, help="override trials per grid point")
    sweep_p.add_argument("--noise", help="noise preset name ('default'/'none') or JSON file")
    sweep_p.add_argument(
        "--rates", action="store_true", help="append pass-rate columns (threshold 0.05)"
    )
    sweep_p.add_argument(
        "--timing", action="store_true", help="report wall time per logical shot on stderr"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_sweep(args)
    except (NumericError, DegenerateInputError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy refused an allocation: a register too large
        print(f"numeric error: out of memory: {str(exc) or 'allocation refused'}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # SuiteValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
