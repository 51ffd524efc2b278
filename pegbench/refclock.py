"""A host clock normalised against an interleaved reference kernel.

On a shared host the speed of one core swings by up to 2x within a second,
so raw `perf_counter_ns` readings of identical work spread too widely to
compare two commits.  `RefClock` times a small fixed kernel every
`PERIOD_NS` of host time, keeps the median of its last few timings as the
current cost of the kernel, and advances its own reading by raw elapsed
time divided by that cost.  Readings are nanoseconds at the kernel's
nominal cost in `KERNELS`: on a quiet core they are close to raw host
nanoseconds, and when a neighbour slows the core down the kernel slows
with it and the reading does not.  The kernel should do the kind of work
the measured code does: interpreter-bound Python for most workloads, and
Python plus scrypt where scrypt PoW digests take most of the time but the
typical step is still Python.

Calibration runs only inside `now()` and `calibrate()`, which leave its
own time uncounted, and the kernel touches no simulator state.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

PERIOD_NS = 10_000_000  # recalibrate after 10 ms of host time
WINDOW = 5  # median over this many recent kernel timings


def _python_kernel() -> int:
    """Interpreter-bound work of the simulator's mix: dicts, tuples, hashing, JSON."""
    table = {}
    digest = b""
    for i in range(150):
        table[i] = ((i * 7919) % 1013, str(i))
        digest = hashlib.sha256(digest + i.to_bytes(8, "big")).digest()
    return len(json.dumps(sorted(table.items()))) + digest[0]


def _scrypt_kernel() -> int:
    """Two scrypt digests with the simulator's reduced PoW parameters."""
    out = 0
    for data in (b"pegbench/0", b"pegbench/1"):
        out += hashlib.scrypt(data, salt=b"pegbench", n=1024, r=1, p=1, dklen=32)[0]
    return out


def _mixed_kernel() -> int:
    return _python_kernel() + _scrypt_kernel()


# kernel name -> (kernel, its cost in ns on a quiet core of a 2-core Xeon host)
KERNELS = {
    "python": (_python_kernel, 350_000),
    "mixed": (_mixed_kernel, 1_100_000),
}


class RefClock:
    def __init__(self, kernel: str = "python") -> None:
        self._kernel, self._nominal_ns = KERNELS[kernel]
        self._samples: list = []
        self._cost = 0.0
        for _ in range(WINDOW):
            self._calibrate()
        self._norm = 0.0
        self._last = time.perf_counter_ns()

    def calibrate(self) -> None:
        """Time the kernel now; the next reading uses this fresh estimate."""
        self.now()
        self._calibrate()
        self._last = time.perf_counter_ns()

    def _calibrate(self) -> None:
        t0 = time.perf_counter_ns()
        self._kernel()
        t1 = time.perf_counter_ns()
        self._samples.append(t1 - t0)
        if len(self._samples) > WINDOW:
            del self._samples[0]
        self._cost = statistics.median(self._samples) / self._nominal_ns
        self._cal_at = t1

    def now(self) -> float:
        """Normalised nanoseconds since construction."""
        t = time.perf_counter_ns()
        self._norm += (t - self._last) / self._cost
        if t - self._cal_at >= PERIOD_NS:
            self._calibrate()
            t = time.perf_counter_ns()
        self._last = t
        return self._norm

    def speed(self) -> float:
        """Current host speed relative to the nominal one (1.0 = quiet core)."""
        return 1.0 / self._cost
