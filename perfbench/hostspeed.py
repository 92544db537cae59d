"""A fixed probe of the host's speed, to take a shared host's slow spells out of throughputs.

On a small shared host the speed of a core changes as neighbours come and go,
from one step to the next and for whole runs at a time. The same code can
take twice as long in a slow spell, and no estimator over a run's own
samples can tell that from a slower program. So the workloads time this
probe between the timed stages, and scale each stage's time by how much
slower than `REFERENCE_S` the probe ran next to it.

The probe belongs to the benchmark, not to skeltext, so no change to the
program changes it. It mimics the program's mix: small float64 matrix
products and element-wise ops, a tape of closures walked backwards, and
small Python objects. Garbage collection is off while it runs, so that the
program's garbage is collected in the program's time.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# The probe's time on a 2-core x86 host (Xeon, numpy 2.4.6, one BLAS thread)
# in a quiet spell. A corrected time is what the stage would have taken on
# that host at that speed.
REFERENCE_S = 0.74e-3
_REPEATS = 3  # the fastest of a few repeats, so that one interrupt does not count
_LAYERS = 24
_NODES = 750


class _Node:
    __slots__ = ("value", "parents", "meta")

    def __init__(self, value, parents, meta):
        self.value = value
        self.parents = parents
        self.meta = meta


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((16, 64))
        self._w = rng.standard_normal((64, 64)) / 8.0
        self.samples: list[float] = []  # seconds per probe
        self.spent_s = 0.0  # wall time spent probing, repeats included

    def _once(self) -> float:
        tape = []
        x, w = self._x, self._w
        for i in range(_LAYERS):
            y = np.tanh(x @ w)
            tape.append((y, {"layer": i, "sum": float(y.sum())}, lambda g, y=y: g * (1.0 - y * y)))
            x = y
        g = np.ones_like(x)
        for _, _, backward in reversed(tape):
            g = backward(g) @ w.T
        # Interpreter work with no arrays, like the program's bookkeeping.
        # A slow spell slows it more than array work.
        total = 0
        for i in range(_NODES):
            node = _Node(i, (i, i + 1), {"index": i})
            total += node.meta["index"] + node.parents[1]
        return float(g[0, 0]) + total

    def measure(self) -> float:
        """Time the probe; returns and records seconds per run."""
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(_REPEATS):
                t = perf_counter()
                self._once()
                best = min(best, perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(best)
        self.spent_s += perf_counter() - start
        return best


def corrected(seconds: float, probe_before: float, probe_after: float) -> float:
    """A stage's time scaled to the reference speed, from the probes on either side of it."""
    return seconds * REFERENCE_S / (0.5 * (probe_before + probe_after))
