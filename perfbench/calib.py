"""Calibrated seconds: wall time corrected for the machine's current speed.

On a shared machine the same code runs faster or slower for tens of seconds
at a time as neighbours come and go; process CPU time follows wall time, so
the slowdown is the processor's, not time stolen from the process.  A run
therefore samples a fixed reference kernel every half second between the
timed ops and reports each timing as

    wall seconds * REF_S / (median of the five reference samples nearest in time)

that is, in seconds at the speed at which the kernel takes ``REF_S``.  A
machine-wide speed change moves the kernel and the op alike and cancels; a
change to gluesat moves the op alone and shows one for one.  The kernel is
the benchmark's own code and never calls gluesat.  It mixes the two kinds of
work gluesat does: an interpreter-bound loop over lists of small lists (like
the CDCL loop) and small dense numpy products and element-wise ops (like a
network forward).
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

REF_S = 0.025           # nominal kernel time: about its time on a quiet 2-vCPU VM
REF_EVERY = 0.5         # seconds between samples during a run
NEAREST = 5             # samples whose median calibrates one timing


class Reference:
    def __init__(self):
        rng = random.Random(0)
        self.values = [rng.choice((-1, 0, 1)) for _ in range(1001)]
        self.clauses = [[rng.randrange(1, 1001) for _ in range(3)] for _ in range(20000)]
        nrng = np.random.default_rng(0)
        self.mats = [nrng.standard_normal((300, 64)) for _ in range(4)]
        self.weight = nrng.standard_normal((64, 64)) / 8
        self.samples: list[tuple[float, float]] = []       # (middle, seconds)
        self.last = float("-inf")

    def _kernel(self):
        values, unsat = self.values, 0
        for _ in range(3):
            for c in self.clauses:
                if values[c[0]] > 0 or values[c[1]] > 0:
                    continue
                if values[c[2]] >= 0:
                    unsat -= 1
                else:
                    unsat += c[2] & 1
        for _ in range(20):
            for m in self.mats:
                z = m @ self.weight
                z = np.where(z > 0, z, 0.01 * z)
                z -= z.mean(axis=1, keepdims=True)
        return unsat

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.last = t1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= REF_EVERY

    def calibrate(self, seconds: float, at: float) -> float:
        """``seconds`` of wall time measured around time ``at``, in
        calibrated seconds."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:NEAREST]
        return seconds * REF_S / statistics.median(d for _, d in near)
