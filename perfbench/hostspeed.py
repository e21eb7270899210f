"""Host speed reference for the benchmark's times.

The shared host the benchmark was defined on switches, from seconds to
minutes apart, between speed modes: the same code takes up to twice the CPU
time in one mode as in the other, hilldraw's ops and a fixed loop alike.
Raw times of one run then mostly tell which mode the run fell in.

So a run samples a fixed reference kernel, which uses no hilldraw code,
through its measured phase, and divides the CPU times it reports by the
host factor: the kernel's mean CPU time over ``REF_NOMINAL_S``.  A change
to hilldraw shows in the scaled times in full; a change of host mode
mostly cancels.  The kernel mixes pure-Python work with small numpy calls,
as hilldraw's ops do.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import clock

# The kernel's CPU time when the host runs at full speed (2-vCPU Intel Xeon
# VM), so scaled times read as times at full speed.
REF_NOMINAL_S = 0.012

# A run samples the kernel once per this much CPU time, 3% to 6% overhead.
SAMPLE_EVERY_S = 0.4

_A = np.random.default_rng(0).normal(size=(400, 3))


def _kernel() -> float:
    s = 0
    for i in range(50_000):
        s += i * i
    d = {}
    for i in range(12_500):
        d[i] = (i, str(i))
    t = 0.0
    for _ in range(150):
        x = np.cross(_A, _A[::-1])
        t += float(np.einsum("ij,ij->i", x, x).sum())
    return s + len(d) + t


class HostSpeed:
    """Samples of the reference kernel's CPU time within one run."""

    def __init__(self):
        self.samples: list[float] = []
        _kernel()  # the first call pays numpy's one-time costs
        self._last = clock()

    def sample(self) -> None:
        start = clock()
        _kernel()
        self._last = clock()
        self.samples.append(self._last - start)

    def sample_if_due(self) -> None:
        if clock() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Mean kernel CPU time over its nominal time: 1 at full speed,
        above 1 when the host runs slower."""
        return statistics.fmean(self.samples) / REF_NOMINAL_S
