"""Per-layer spans for the traced benchmark run.

:class:`Tracer` wraps quassert's public functions at every place they are
bound: a name pulled in with ``from ... import`` is replaced in the
importing module too (``simulator.expanded_gate_matrix``,
``protocols.chi2_gof`` ...).  Each call made while the tracer is active
records a span: layer name, start, end, parent span, suite id and one
optional amount (gates, shots or settings).  Spans stay in memory until
:meth:`Tracer.write`.  Leaving the ``with`` block restores every original.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

_INIT_SPANS = ("qcore.DensityMatrix.init", "qcore.ChoiMatrix.init")


def _settings(subject) -> int:
    return 3**subject.n_qubits


# (span name, module, attribute, (parameter, transform) of the span's amount)
TARGETS = (
    ("cli.load_suite", "quassert.cli", "load_suite", None),
    ("orchestrator.run_suite", "quassert.orchestrator", "run_suite", None),
    ("orchestrator.format_report", "quassert.orchestrator", "format_report", None),
    # Named per protocol id at call time: protocols.proj, protocols.state_tomo ...
    ("protocols", "quassert.protocols", "run_protocol_detailed", None),
    ("tomography.state_tomography", "quassert.tomography", "state_tomography",
     ("subject", _settings)),
    ("tomography.process_tomography", "quassert.tomography", "process_tomography", None),
    ("simulator.evolve", "quassert.simulator", "evolve", ("c", lambda c: len(c.ops))),
    ("simulator.sample", "quassert.simulator", "sample", ("shots", int)),
    ("qcore.expanded_gate_matrix", "quassert.qcore", "expanded_gate_matrix", None),
    ("qcore.DensityMatrix.init", "quassert.qcore", "DensityMatrix.__init__", None),
    ("qcore.ChoiMatrix.init", "quassert.qcore", "ChoiMatrix.__init__", None),
    ("qcore.state_fidelity", "quassert.qcore", "state_fidelity", None),
    ("qcore.process_fidelity", "quassert.qcore", "process_fidelity", None),
    ("qmath.hermitian_eig", "quassert.qmath", "hermitian_eig", None),
    ("qmath.psd_project", "quassert.qmath", "psd_project", None),
    ("qmath.kron", "quassert.qmath", "kron", None),
    ("stats.chi2_gof", "quassert.stats", "chi2_gof", None),
)

# (metric, span, field, unit, better); field is calls, s (inclusive time),
# self_s (time not covered by child spans) or amount (the span's count).
LAYER_METRICS = (
    ("cli.load_suite.calls", "cli.load_suite", "calls", "count", "lower"),
    ("cli.load_suite.s", "cli.load_suite", "s", "s", "lower"),
    ("orchestrator.run_suite.s", "orchestrator.run_suite", "s", "s", "lower"),
    ("orchestrator.run_suite.self_s", "orchestrator.run_suite", "self_s", "s", "lower"),
    ("orchestrator.format_report.s", "orchestrator.format_report", "s", "s", "lower"),
    ("protocols.proj.calls", "protocols.proj", "calls", "count", "lower"),
    ("protocols.proj.s", "protocols.proj", "s", "s", "lower"),
    ("protocols.state_tomo.calls", "protocols.state_tomo", "calls", "count", "lower"),
    ("protocols.state_tomo.s", "protocols.state_tomo", "s", "s", "lower"),
    ("protocols.process_tomo.calls", "protocols.process_tomo", "calls", "count", "lower"),
    ("protocols.process_tomo.s", "protocols.process_tomo", "s", "s", "lower"),
    ("tomography.state_tomography.calls", "tomography.state_tomography", "calls", "count", "lower"),
    ("tomography.state_tomography.s", "tomography.state_tomography", "s", "s", "lower"),
    ("tomography.state_tomography.self_s", "tomography.state_tomography", "self_s", "s", "lower"),
    ("tomography.process_tomography.calls", "tomography.process_tomography", "calls", "count",
     "lower"),
    ("tomography.process_tomography.s", "tomography.process_tomography", "s", "s", "lower"),
    ("tomography.process_tomography.self_s", "tomography.process_tomography", "self_s", "s",
     "lower"),
    ("tomography.settings", "tomography.state_tomography", "amount", "count", "lower"),
    ("simulator.evolve.calls", "simulator.evolve", "calls", "count", "lower"),
    ("simulator.evolve.gates", "simulator.evolve", "amount", "count", "lower"),
    ("simulator.evolve.s", "simulator.evolve", "s", "s", "lower"),
    ("simulator.sample.calls", "simulator.sample", "calls", "count", "lower"),
    ("simulator.sample.shots", "simulator.sample", "amount", "count", "lower"),
    ("simulator.sample.s", "simulator.sample", "s", "s", "lower"),
    ("qcore.expanded_gate_matrix.calls", "qcore.expanded_gate_matrix", "calls", "count", "lower"),
    ("qcore.expanded_gate_matrix.s", "qcore.expanded_gate_matrix", "s", "s", "lower"),
    ("qcore.DensityMatrix.init.calls", "qcore.DensityMatrix.init", "calls", "count", "lower"),
    ("qcore.DensityMatrix.init.s", "qcore.DensityMatrix.init", "s", "s", "lower"),
    ("qcore.ChoiMatrix.init.calls", "qcore.ChoiMatrix.init", "calls", "count", "lower"),
    ("qcore.ChoiMatrix.init.s", "qcore.ChoiMatrix.init", "s", "s", "lower"),
    ("qcore.state_fidelity.s", "qcore.state_fidelity", "s", "s", "lower"),
    ("qcore.process_fidelity.s", "qcore.process_fidelity", "s", "s", "lower"),
    ("qmath.hermitian_eig.calls", "qmath.hermitian_eig", "calls", "count", "lower"),
    ("qmath.hermitian_eig.s", "qmath.hermitian_eig", "s", "s", "lower"),
    ("qmath.psd_project.calls", "qmath.psd_project", "calls", "count", "lower"),
    ("qmath.psd_project.s", "qmath.psd_project", "s", "s", "lower"),
    ("qmath.kron.calls", "qmath.kron", "calls", "count", "lower"),
    ("qmath.kron.s", "qmath.kron", "s", "s", "lower"),
    ("stats.chi2_gof.calls", "stats.chi2_gof", "calls", "count", "lower"),
    ("stats.chi2_gof.s", "stats.chi2_gof", "s", "s", "lower"),
)
# Derived metrics: the first two from Tracer.metrics, the last two from the
# traced run itself.
DERIVED_METRICS = (
    ("simulator.evolve.us_per_gate", "us", "lower"),
    ("qmath.hermitian_eig.validation_share", "ratio", "lower"),
    ("trace.suites", "count", "higher"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


def _resolve(module: str, attribute: str):
    owner = sys.modules[module]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _bindings(original):
    """Every (quassert module, attribute) bound to ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "quassert":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


class Tracer:
    """Records spans of quassert calls while :attr:`active` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.suite_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.suite = -1
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, amount):
        tracer = self
        fixed_id = self._id(name) if name != "protocols" else None
        if fixed_id is None:
            from quassert.protocols import protocol_for

            def span_name(args, kwargs) -> str:
                pinned = args[3] if len(args) > 3 else kwargs.get("protocol_id")
                expected = args[1] if len(args) > 1 else kwargs["expected"]
                return "protocols." + (pinned if pinned is not None else protocol_for(expected))

        pick = None
        if amount is not None:
            param, transform = amount
            index = list(inspect.signature(fn).parameters).index(param)

            def pick(args, kwargs):
                return transform(args[index] if len(args) > index else kwargs[param])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if fixed_id is None:
                tracer.name_id.append(tracer._id(span_name(args, kwargs)))
            else:
                tracer.name_id.append(fixed_id)
            idx = len(tracer.start)
            tracer.parent.append(tracer._stack[-1])
            tracer.suite_id.append(tracer.suite)
            tracer.amount.append(0.0 if pick is None else pick(args, kwargs))
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()

        return wrapper

    def install(self) -> None:
        for name, module, attribute, amount in TARGETS:
            owner, attr = _resolve(module, attribute)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, amount)
            sites = [(owner, attr)] if "." in attribute else list(_bindings(original))
            for site, site_attr in sites:
                self._patches.append((site, site_attr, original))
                setattr(site, site_attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)
        self.active = False

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "suite_id": np.frombuffer(self.suite_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span at once, as arrays indexed by span."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.spans())

    def metrics(self) -> dict[str, float]:
        """Per-layer totals; self time is the span minus its direct children."""
        s = self.spans()
        width = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        children = np.bincount(
            s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        fields = {
            "calls": np.bincount(s["name_id"], minlength=width).astype(float),
            "s": np.bincount(s["name_id"], weights=dur, minlength=width),
            "self_s": np.bincount(s["name_id"], weights=dur - children, minlength=width),
            "amount": np.bincount(s["name_id"], weights=s["amount"], minlength=width),
        }

        def field(span: str, name: str) -> float:
            return float(fields[name][self._ids[span]]) if span in self._ids else 0.0

        out = {metric: field(span, name) for metric, span, name, _, _ in LAYER_METRICS}
        gates = out["simulator.evolve.gates"]
        out["simulator.evolve.us_per_gate"] = (
            out["simulator.evolve.s"] / gates * 1e6 if gates else 0.0
        )
        eig = s["name_id"] == self._ids.get("qmath.hermitian_eig", -1)
        in_init = _within(s["name_id"], s["parent"], [self._ids.get(n, -1) for n in _INIT_SPANS])
        eig_s = float(dur[eig].sum())
        out["qmath.hermitian_eig.validation_share"] = (
            float(dur[eig & in_init].sum()) / eig_s if eig_s else 0.0
        )
        return out


def _within(name_id: np.ndarray, parent: np.ndarray, ancestors: list[int]) -> np.ndarray:
    """True for spans that have a span named in ``ancestors`` above them."""
    marked = np.isin(name_id, ancestors)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    below = np.zeros(name_id.size, dtype=bool)
    while True:
        # A span is below a marked span if its parent is marked or below one.
        step = has_parent & (marked[safe_parent] | below[safe_parent])
        if np.array_equal(step, below):
            return below
        below = step
