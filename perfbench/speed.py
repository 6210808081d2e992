"""Host-speed correction of CPU times.

On a shared virtual host the same work takes a changing amount of CPU
time: a busy neighbour on the same physical core or memory bus slows every
instruction, in phases of seconds to minutes and by up to 2x.  Medians over
one run's reps cannot remove a phase that lasts the whole run.

A :class:`SpeedGauge` cuts a rep into blocks of about ``block_s`` CPU
seconds and, between blocks, times a fixed *yardstick* (small numpy
solves in a Python loop plus a JSON round trip, the same kind of work as
the solver and the store).  Each block's CPU time is divided by the
host's slowdown at that moment, the yardstick's time over
:data:`YARDSTICK_S`.  The yardstick's own CPU time is left out of the
rep.  Work of another kind than the yardstick's (kernel time of file
writes, say) is corrected only as far as it slows down with it.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable

import numpy as np

#: CPU seconds of one :func:`yardstick` on the reference host (2-vCPU
#: Intel Xeon, numpy 2.4) when no neighbour slows it: the host's fast phase
YARDSTICK_S = 4.3e-4

_MATRIX = np.eye(6) * 4.0 + np.linspace(0.0, 1.0, 36).reshape(6, 6)
_RECORD = {f"k{i}": [i, i * 0.5, "abcdefgh"] for i in range(24)}


def yardstick() -> float:
    """CPU seconds of one fixed piece of solver- and store-like work."""
    t0 = time.process_time()
    x = np.ones(6)
    for _ in range(40):
        x = np.linalg.solve(_MATRIX, x)
        x = x / np.max(np.abs(x)) + 0.5
    for _ in range(2):
        json.loads(json.dumps(_RECORD, sort_keys=True))
    return time.process_time() - t0


def slowdown(probes: int = 7) -> float:
    """The host's current slowdown: median yardstick time / :data:`YARDSTICK_S`."""
    yardstick()  # warm-up: the first one runs on caches the work has just cooled
    return statistics.median(yardstick() for _ in range(probes)) / YARDSTICK_S


class SpeedGauge:
    """CPU time of one stretch of work, raw and corrected for host speed.

    Call :meth:`start`, then call the gauge itself often during the work
    (the untraced runs pass it to :class:`meter.Meter` as ``mark``, so it
    runs at every counted solver call), then :meth:`stop`.  Between
    blocks the gauge measures :func:`slowdown`; a block's corrected time
    is its CPU time over the mean slowdown at its two ends.
    """

    def __init__(
        self,
        block_s: float = 0.25,
        clock: Callable[[], float] = time.process_time,
        gauge: Callable[[], float] = slowdown,
    ) -> None:
        self.block_s = block_s
        self.clock = clock
        self.gauge = gauge
        self.raw_s = 0.0
        self.corrected_s = 0.0
        self.probe_wall_s = 0.0  # wall time of the probes between start and stop
        self.blocks = 0
        self._running = False
        self._t0 = 0.0
        self._slow0 = 1.0

    def _measure(self) -> float:
        t0 = time.perf_counter()
        slow = self.gauge()
        self.probe_wall_s += time.perf_counter() - t0
        return slow

    def start(self) -> None:
        self.raw_s = self.corrected_s = 0.0
        self.blocks = 0
        self._slow0 = self._measure()
        self.probe_wall_s = 0.0
        self._running = True
        self._t0 = self.clock()

    def _close_block(self, now: float) -> None:
        slow = self._measure()
        cpu = now - self._t0
        self.raw_s += cpu
        self.corrected_s += cpu / ((self._slow0 + slow) / 2.0)
        self.blocks += 1
        self._slow0 = slow
        self._t0 = self.clock()  # the yardsticks stay out of the work's time

    def __call__(self) -> None:
        if self._running:
            now = self.clock()
            if now - self._t0 >= self.block_s:
                self._close_block(now)

    def stop(self) -> tuple[float, float]:
        """Close the last block; returns ``(raw CPU s, corrected CPU s)``."""
        probes = self.probe_wall_s
        self._close_block(self.clock())
        self.probe_wall_s = probes
        self._running = False
        return self.raw_s, self.corrected_s
