"""Machine-speed probe used to put timings on a common scale.

On a shared machine the speed available to one process drifts by up to
1.5x over minutes, which would swamp the differences the benchmark exists to
show.  The benchmark therefore runs a fixed probe (interpreter work and
small numpy calls, about 4 ms, no quassert code) next to what it times:
between requests in the worker, and after the import in each set-up
measurement.  Each timing is scaled by ``REFERENCE_S / probe time``, using
the probes nearest to it, so it reads as on a machine where the probe takes
``REFERENCE_S``.  A change to quassert moves a scaled time exactly as it
moves the raw wall time.  Raw times are printed next to the scaled ones.

The probe runs while the process is busy, as the timed work does: right
after a pause the processor runs the probe up to 1.5x slower.  Set-up time
is an import in a fresh interpreter, which the interpreter probe does not
track, so it is scaled by the time the same interpreter takes to import
numpy, which is about 60 % of ``import quassert.cli`` and varies with it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Typical probe time on the reference machine: 2 vCPUs of an Intel Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4.
REFERENCE_S = 0.0045
PROBE_EVERY_S = 0.25

# Typical time to import numpy in a fresh interpreter on the reference machine.
NUMPY_IMPORT_REFERENCE_S = 0.165

# Small enough that OpenBLAS stays on one thread: on 2 vCPUs its second
# thread can take 10-20 ms to join a product, which would measure the
# scheduler rather than the speed of the processor.
_SMALL = (np.arange(256).reshape(16, 16) / 256.0).astype(complex)


def probe() -> float:
    """Seconds taken by a fixed piece of work."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    table: dict[int, int] = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i
    words = [str(i) for i in range(2000)]
    ",".join(sorted(words)).split(",")
    for _ in range(60):
        np.kron(_SMALL[:4, :4], _SMALL[:4, :4])
        np.abs(_SMALL @ _SMALL).max()
        _SMALL.conj().T.copy()
    return time.perf_counter() - start


class SpeedLog:
    """Probe times with their timestamps; scale factors looked up by time."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def maybe_probe(self) -> None:
        """Probe unless the last probe is younger than ``PROBE_EVERY_S``."""
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.times.append(now)

    def scale(self, at: float) -> float:
        """``REFERENCE_S`` over the median of the three probes nearest ``at``."""
        i = bisect.bisect_left(self.times, at)
        near = sorted(range(max(i - 3, 0), min(i + 3, len(self.times))),
                      key=lambda k: abs(self.times[k] - at))[:3]
        return REFERENCE_S / statistics.median(self.probes[k] for k in near)
