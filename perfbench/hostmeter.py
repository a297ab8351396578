"""Host-speed meter: puts the run's timings on one reference speed.

The benchmark runs on shared machines whose speed drifts with the load
of other tenants, by up to 1.5x for stretches of seconds to minutes, so
a whole run can fall in a slow stretch.  Steal time stays near zero:
the process holds its CPU but each instruction takes longer, and CPU
time stretches as much as wall time.  No choice of passes inside one
run can undo that, so the meter measures the drift instead.

Every ``interval_s`` of wall time a ``SIGALRM`` handler times one call
of a fixed probe.  Python runs the handler between two bytecodes of
whatever the main thread is doing, so the probes sample the machine's
speed all through the timed library calls.  For a window of the run,

    factor = probe.ref_s / median probe duration in the window

and a time measured in the window, times the factor, is in seconds at
the reference speed: the speed at which one probe takes ``ref_s``.  A
slower program still reads slower by the same share; a slower machine
slows the probes alike and cancels out.  The probes' own time is
subtracted from every timed interval they land in (``spent``), so they
never count as library time.

The drift slows interpreted Python more than compiled solvers, so each
workload names the probe that is the same kind of work as its own:
``PythonProbe`` for the pure-Python layers, ``LpProbe`` for the HiGHS
LPs.  In one ``lp_mix`` run the Python probe's factor moved by 1.38x
between passes whose LP time moved by 1.17x.
"""

from __future__ import annotations

import signal
import statistics
import time

# ref_s of each probe: its median duration on an undisturbed 2-vCPU
# Intel Xeon VM at 2.0 GHz (Python 3.11); only the ratio to it matters


class PythonProbe:
    """Dict lookups, tuple compares and int sums on a fixed table.

    It allocates no container, so it never starts a garbage collection
    that would scan the program's heap.
    """

    ref_s = 0.00045
    interval_s = 0.02

    def __init__(self):
        self.keys = tuple((i % 7, i) for i in range(64))
        self.table = dict.fromkeys(self.keys, 1)

    def __call__(self) -> None:
        keys, table = self.keys, self.table
        s = 0
        for _ in range(40):
            for k in keys:
                s += table[k] + (k < (3, 30))


class LpProbe:
    """One fixed 24x16 packing LP through ``scipy.optimize.linprog`` (HiGHS)."""

    ref_s = 0.0024
    interval_s = 0.05

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(7)
        self.linprog = linprog
        self.c = -rng.uniform(0, 1, 16)
        self.A = rng.uniform(0, 1, (24, 16))
        self.b = self.A.sum(axis=1) * 0.3

    def __call__(self) -> None:
        self.linprog(self.c, A_ub=self.A, b_ub=self.b, bounds=(0, 1), method="highs")


class HostMeter:
    def __init__(self, probe):
        self.probe = probe
        self.durations: list[float] = []
        self.spent = 0.0  # total probe time so far

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probe()
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        self.spent += dt

    def start(self, probe=None):
        """Start probing, or go on with another probe from the next tick."""
        if probe is not None:
            self.probe = probe
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.probe.interval_s, self.probe.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.durations)

    def factor(self, since: int) -> float:
        """The factor over the probes from ``since`` on (1 without probes)."""
        window = self.durations[since:]
        return self.probe.ref_s / statistics.median(window) if window else 1.0
