"""Host-speed calibration shared by the benchmark runner and the
candidates12 worker.

The host is shared, and its speed drifts by a quarter and more over
minutes.  A fixed mix of interpreter and numpy work, timed next to the
measured work, tracks that drift; dividing measured times by the median
sample keeps one run comparable with the next.
"""

from __future__ import annotations

import statistics
import time

#: Nominal time of one calibration sample.  Times are reported at this nominal
#: speed: raw time * CALIBRATION_S / (median calibration sample of the run).
CALIBRATION_S = 0.05
MIN_CALIBRATION_SAMPLES = 10


class Calibration:
    """A fixed mix of interpreter and numpy work, timed between measurements."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 20, 1 << 11)
        self.index = rng.integers(0, 1 << 11, 1 << 20)
        self.samples: list[float] = []

    def work(self) -> None:
        acc = 0
        for i in range(300_000):
            acc += i * i ^ (i >> 3)
        int((self.table[self.index] + self.table[self.index ^ 5]).sum())

    def sample(self, clock=time.perf_counter) -> None:
        """Time the work once.  A sample taken while a measured child shares
        the vCPU uses ``time.thread_time``, which the sharing does not inflate."""
        t0 = clock()
        self.work()
        self.samples.append(clock() - t0)

    def factor(self) -> float:
        """Multiply a measured time by this to get it at nominal speed."""
        while len(self.samples) < MIN_CALIBRATION_SAMPLES:
            self.sample()
        return CALIBRATION_S / statistics.median(self.samples)


class ModularCalibration(Calibration):
    """Row updates modulo a prime on an int64 block, the kind of work the
    modular rank spends its time on.

    On this host interpreter work drifts about twice as much as numpy
    modular work (coefficient of variation of 1.6 s medians over 90 s: 0.16
    against 0.08), so the mix above over-corrects a rank-bound run.
    """

    P = 2147483629

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.block = rng.integers(0, self.P, (512, 1981))
        self.col = rng.integers(0, self.P, 512)
        self.row = rng.integers(0, self.P, 1981)
        self.samples = []

    def work(self) -> None:
        for _ in range(8):
            self.block -= self.np.outer(self.col, self.row)
            self.block %= self.P
