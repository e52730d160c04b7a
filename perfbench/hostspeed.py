"""How fast the host runs right now, from a fixed reference computation.

The benchmark shares a few cores of a host with other work, and the same
op on the same inputs can run 20-40% slower for seconds to minutes at a
time.  A run cannot average that away, so the timed metrics are reported
at a reference host speed: each timing is divided by the host's speed
factor at that moment, the median time of a fixed reference computation
run just before and after it, over that computation's time on the
machine that took the first baseline.

There are three reference computations, and none belongs to the
package, so a change to the package cannot change their time; the host's
state does.  Each is matched to how the work it stands for uses the host:

- ``loop``, for single-threaded ops in the benchmark's process, in three
  parts of about equal time: a pure-Python RK4 loop on scalars (as the
  ODE solvers of ``hjb`` and ``moments`` are written), many short numpy
  calls on arrays of 8192 points, and complex exponentials over arrays of
  16384 points, whose time is arithmetic throughput rather than call
  overhead (as in the blocks of the ``charfun`` quadrature).  A busy host
  slows each kind of work by a different amount.  The arrays are small
  (under 1 MiB), so that the computation does not raise the peak RSS
  that ``peak_rss_mb`` reports.
- ``pool``, for Monte Carlo ops, which run ``os.cpu_count()`` worker
  threads (the library's default): the same computation in that many
  threads at once.  A host that slows one CPU slows the single loop more
  than the threaded simulation.
- ``process``, for times that start a process (set-up, ``mfg-moments``
  commands): a fresh ``python -c "import numpy"``.  Such times are mostly
  interpreter start and imports, which slow down about half as much as
  the loop when the host is busy.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

WINDOW = 5          # samples taken on each side of a timed interval, by default

_X = np.linspace(0.0, 1.0, 8192)
_W = np.linspace(0.0, 1.0, 16384)


def _reference() -> float:
    y, yp, h = 1.0, 0.0, 1e-3
    for _ in range(15000):
        k1y, k1p = yp, -y
        k2y, k2p = yp + 0.5 * h * k1p, -(y + 0.5 * h * k1y)
        k3y, k3p = yp + 0.5 * h * k2p, -(y + 0.5 * h * k2y)
        k4y, k4p = yp + h * k3p, -(y + h * k3y)
        y += h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        yp += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    x, acc = _X, 0.0
    for _ in range(60):
        x = np.cos(x) * 0.5 + np.exp(-x * x)
        acc += float(np.sum(np.fft.rfft(x).real))
    for _ in range(32):
        acc += float((np.exp(1j * _W) * (1.0 + 0.5j)).real.sum())
    return y + acc


def _reference_pool() -> None:
    workers = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda _: _reference(), range(workers)))


def _reference_process() -> None:
    # wait() without a timeout blocks in waitpid; with one, it polls in
    # sleeps of up to 50 ms, which would round the time up to that step.
    proc = subprocess.Popen([sys.executable, "-c", "import numpy"])
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise RuntimeError(f"reference process failed (exit code {code})")


# Each reference and its median time on the machine that took the first
# baseline (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, one OpenBLAS
# thread).  Metrics "at reference speed" are the times that machine would
# have shown; the constants only set the scale.
REFERENCES = {
    "loop": (_reference, 0.030),
    "pool": (_reference_pool, 0.060),
    "process": (_reference_process, 0.120),
}


class SpeedLog:
    """Reference-computation times taken between the timed intervals of a run.

    Call ``sample`` before each timed interval and once after the last;
    interval ``k`` then lies between samples ``k`` and ``k + 1``, and its
    factor is the median of the ``window`` samples on each side of it.
    ``reference`` is a key of ``REFERENCES``.
    """

    def __init__(self, reference: str, window: int = WINDOW):
        self.reference, self.window = reference, window
        self.run, self.nominal = REFERENCES[reference]
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.run()
        self.samples.append(time.perf_counter() - start)

    def factor(self, k: int) -> float:
        """Host slowness around interval ``k``: 1.0 at reference speed, 1.3 when 30% slower."""
        window = self.samples[max(0, k + 1 - self.window): k + 1 + self.window]
        return statistics.median(window) / self.nominal

    def overall(self) -> float:
        """Host slowness over the whole run."""
        return statistics.median(self.samples) / self.nominal
