"""Machine-speed calibration, sampled every 0.1 s of wall time during a pass.

On a shared machine the speed of one core drifts by tens of percent within
seconds, and CPU time drifts with wall time, so a wall-clock median moves
with the neighbours rather than with the program.  A fixed pure-Python
kernel, close in kind to the program's hot loops (outward-rounded products
on a slotted interval class, a bounded heap), is timed from a SIGALRM
handler every ``PERIOD_S`` while a pass runs, so long and short ops are
sampled alike.  Ops, passes and spans are timed on `Sampler.clock`, which
leaves out the handler's own time; a pass's time divided by its slowdown
(see `slowdown`) is the time the pass would take at the reference speed.
The kernel is the benchmark's own code, so a change to the program does not
move it.
"""

from __future__ import annotations

import heapq
import math
import signal
import time

#: median sample time on the machine the baseline was recorded on, unloaded
REFERENCE_S = 0.0015
PERIOD_S = 0.1
#: samples this close to an op rescale its latency
WINDOW_S = 0.15
_ROUNDS = 300
_SPLITTER = 134217729.0


def _product(x: float, y: float) -> tuple[float, float]:
    p = x * y
    cx = _SPLITTER * x
    xh = cx - (cx - x)
    cy = _SPLITTER * y
    yh = cy - (cy - y)
    return p, ((xh * yh - p) + xh * (y - yh) + (x - xh) * yh) + (x - xh) * (y - yh)


def _down(x: float, y: float) -> float:
    p, err = _product(x, y)
    return math.nextafter(p, -math.inf) if err < 0.0 else p


def _up(x: float, y: float) -> float:
    p, err = _product(x, y)
    return math.nextafter(p, math.inf) if err > 0.0 else p


class _Range:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if lo > hi:
            raise ValueError("empty range")
        self.lo = lo
        self.hi = hi

    def __add__(self, other: _Range) -> _Range:
        return _Range(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: _Range) -> _Range:
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        return _Range(min(_down(a, c), _down(a, d), _down(b, c), _down(b, d)),
                      max(_up(a, c), _up(a, d), _up(b, c), _up(b, d)))


def _kernel(rounds: int) -> float:
    heap: list[tuple[float, int]] = []
    total = _Range(0.0, 0.0)
    for i in range(rounds):
        x = _Range(0.25 + i * 1e-7, 0.5 + i * 1e-7)
        y = x * x + x
        total = total + y
        heapq.heappush(heap, (-y.hi, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total.hi


def slowdown(samples: list[float]) -> float:
    """Wall time over reference-speed time, for samples taken uniformly in wall time.

    Work done in a stretch of wall time is proportional to the speed then, so
    the time at reference speed is the wall time times the mean of
    REFERENCE_S / sample.  The speed often switches between two levels, and a
    median of the samples would pick one of them.
    """
    return len(samples) / sum(REFERENCE_S / s for s in samples)


def local_slowdown(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Slowdown from the (clock, seconds) samples within WINDOW_S of [start, end].

    The speed switches within seconds, so a short op is rescaled by the
    samples around it rather than by the whole pass.
    """
    near = [s for t, s in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    if not near:
        near = [min(samples, key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))[1]]
    return slowdown(near)


def sample() -> float:
    """Seconds taken by one fixed run of the kernel."""
    start = time.perf_counter()
    _kernel(_ROUNDS)
    return time.perf_counter() - start


class Sampler:
    """Calibration samples from a wall-clock interval timer, while in a `with` block.

    `samples` holds (clock at the sample, seconds) pairs.  `spent` is the
    wall time taken by the handler so far.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        at = time.perf_counter() - self.spent
        seconds = sample()
        self.samples.append((at, seconds))
        self.spent += seconds

    def clock(self) -> float:
        """perf_counter less the handler's time so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one period
            self._sample()
