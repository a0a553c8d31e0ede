"""Machine-speed sampling, so that times can be read at one reference speed.

The machine the benchmark was built on changes speed by up to 2x in spells
of seconds to minutes, the same for all code on a CPU at a given moment.
A sampler interrupts the program every ``INTERVAL_S`` of CPU time and times
a fixed pure-Python calibration kernel.  The kernel's duration measured
next to the program's work tracks the machine's speed at that moment; a
pass's time divided by the median kernel time of the samples taken during
the pass, times ``REFERENCE_S``, is the pass's time at reference speed.

The time spent in the sampler is taken off the program's clock
(``clock()``), so span durations exclude it.  A subprocess runs under the
same sampler through ``sampled.py`` and hands back its samples and the
time they took (``absorb``).

The kernel is pure Python and imports nothing beyond the standard library,
so that it neither loads modules the program would load itself nor
depends on the program.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time
from pathlib import Path

INTERVAL_S = 0.025
# The calibration kernel's duration at the reference speed: about its
# median inside the workloads on the build machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7), so that times at reference speed read close to the
# walls measured there.  Fixed: changing it rescales every reported time.
REFERENCE_S = 0.5e-3


def calibration_kernel() -> float:
    """A fixed mix of interpreter work: float arithmetic, calls, lists, dicts."""
    acc = 0.0
    table = {}
    for i in range(1800):
        acc += math.sqrt(i) * 0.5 + (i % 7)
        if i % 3 == 0:
            table[i] = [acc, i * 2]
    return acc + len(table)


class Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def sample_now(self, n: int = 5):
        """Take ``n`` samples directly (for a stretch the timer missed)."""
        for _ in range(n):
            self._tick(None, None)

    def absorb(self, path: Path):
        """Add the samples a subprocess wrote to ``path``, and the time they
        took, as if they had been taken here."""
        data = json.loads(path.read_text(encoding="utf-8"))
        self.samples.extend(data["samples"])
        self.spent += data["spent"]

    def dump(self, path: Path):
        path.write_text(json.dumps({"samples": self.samples, "spent": self.spent}),
                        encoding="utf-8")


SAMPLER = Sampler()


def clock() -> float:
    """``perf_counter`` less the time spent sampling: the program's clock."""
    return time.perf_counter() - SAMPLER.spent


def kernel_time(samples: list[float]) -> float:
    """The machine's speed over a stretch, as the median kernel time."""
    return statistics.median(samples)
