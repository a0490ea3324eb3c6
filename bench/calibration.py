"""Calibration of the machine's speed, for scaling measured times.

On a shared host the machine's speed drifts by tens of percent over tens
of seconds, and the drift slows most code alike. A fixed task that uses no
gridmorph code is timed right before and right after each measured call;
the call's wall time times ``REFERENCE_S / c``, with ``c`` the mean of the
two, is its time at the reference speed.
"""

from __future__ import annotations

import json
import time

import numpy as np


class Calibration:
    """The fixed task: a Python loop, float formatting, JSON and a numpy sort.

    REFERENCE_S is its time on a quiet machine. Calling an instance runs the
    task once and returns its wall time.
    """

    REFERENCE_S = 0.03

    def __init__(self):
        self.numbers = np.random.default_rng(0).random(50_000)
        self.sample = self.numbers[:5_000].tolist()
        self.last: float | None = None

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(4):
            " ".join([f"{x:.6g}" for x in self.sample])
            json.loads(json.dumps(self.sample))
        for _ in range(6):
            np.sort(self.numbers)
        return time.perf_counter() - start

    def scaled(self, measure) -> tuple[float, float, object]:
        """Run measure() between two calibrations.

        Returns its wall time, its time at the reference speed and its
        result. The calibration after one measurement is the one before the
        next.
        """
        before = self.last if self.last is not None else self()
        start = time.perf_counter()
        result = measure()
        elapsed = time.perf_counter() - start
        self.last = self()
        return elapsed, elapsed * self.REFERENCE_S * 2 / (before + self.last), result
