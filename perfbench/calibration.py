"""A fixed calibration kernel that measures how fast the machine is right now.

The VMs this benchmark runs on change speed by up to 2x within seconds
(measured on a 2-vCPU VM: the same closed-loop repetition took 0.45 s and
0.95 s a few seconds apart, with a fixed kernel slowing down in step).  A
run therefore times this kernel just before and just after every
repetition, and scales the repetition's rates and latencies to the speed of
the reference VM: ``rate * kernel_seconds / REFERENCE_S``.  The kernel is
the benchmark's own code, so a change to ``repro`` cannot move it.

It runs small-array NumPy operations from a Python loop, the mix the
engine step and the control loop run, and allocates no objects the garbage
collector tracks, so the heap a workload leaves behind cannot slow it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Kernel seconds on the reference VM in its common (slower) state.
REFERENCE_S = 0.0350
ITERATIONS = 400

_rng = np.random.default_rng(0)
_values = _rng.random((1000, 10))
_edges = np.cumsum(_rng.random(64))
_rows = np.arange(1000)
_out = np.empty_like(_values)
_mask = np.empty(_values.shape, dtype=bool)

#: Nanoseconds that the kernel runs of :class:`SpeedSampler` have taken.
_paused_ns = 0


def machine_speed() -> float:
    """The machine's speed now relative to the reference VM (> 1 is faster)."""
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        np.multiply(_values, 0.9, out=_out)
        np.greater(_values, 0.5, out=_mask)
        np.add(_out, _mask, out=_out)
        index = np.searchsorted(_edges, _out[:, 0])
        _out[_rows, index % 10] += 1.0
        _out.sum(axis=1)
    return REFERENCE_S / (time.perf_counter() - start)


def clock() -> int:
    """``time.perf_counter_ns()`` less the time :class:`SpeedSampler` took,
    so that a sample taken inside a timed window does not count towards it."""
    return time.perf_counter_ns() - _paused_ns


class SpeedSampler:
    """Runs the kernel every ``interval_s`` seconds while active and keeps
    the speeds.

    Two kernel runs bracket a repetition only at its ends, and the machine's
    speed changes within a second.  The samples are taken from a
    ``SIGALRM`` handler, so in the main thread between two bytecodes of the
    code being timed; :func:`clock` leaves their time out.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.speeds: list[float] = []

    def __enter__(self) -> SpeedSampler:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        global _paused_ns
        start = time.perf_counter_ns()
        self.speeds.append(machine_speed())
        _paused_ns += time.perf_counter_ns() - start
