"""Calibration of timings against the host's drifting CPU speed.

The benchmark runs on a few cores of a shared host whose speed for the same
single-threaded Python work wanders by up to 2x, switching every second or
so and staying slow or fast for minutes.  Raw wall times then measure the
neighbours as much as the program.  So while operations run, a fixed probe
(exact rational arithmetic in pure Python, like the program's own) is timed
every PROBE_INTERVAL_S of CPU time from a SIGPROF handler, also in the
middle of a long operation.  An operation's time is its wall time minus the
probes that ran inside it, scaled by PROBE_REF_S over the mean probe time
around it: seconds on a CPU that runs the probe in exactly PROBE_REF_S.
Set-up times are scaled the same way against a reference set-up in a fresh
interpreter.  The probe, the reference set-up and the two constants never
change between the commits being compared.

The host's cores drift independently (at one moment the probe took 3 ms on
one of two cores and 5 ms on the other), so a run keeps itself and its child
processes on one core: a probe then speaks for the core the program ran on."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_ITERATIONS = 1000
PROBE_REF_S = 0.0026     # the probe's time in the host's fast state (2-core x86 VM)
PROBE_INTERVAL_S = 0.1
SETUP_REF_S = 0.05       # reference_setup's time in that state
REFERENCE_SETUP = """\
import time
t0 = time.perf_counter()
import email.parser, http.client, xml.dom.minidom, logging, unittest, json
text = json.dumps([{"i": i, "terms": [[str(i), "1/2"]] * 20} for i in range(300)])
print(time.perf_counter() - t0)
"""
WINDOW_S = 0.5           # probes this close to an operation calibrate it


def probe() -> int:
    """Fixed interpreter work like the program's own: exact rational sums,
    whose numerators and denominators grow to a few hundred bits."""
    from fractions import Fraction

    total = Fraction(0)
    for i in range(PROBE_ITERATIONS):
        total += Fraction(1, i % 97 + 1)
    return total.numerator.bit_length()


def pin_to_one_cpu() -> int | None:
    """Restrict this process, and the processes it starts, to the highest
    numbered CPU it may use; returns that CPU, or None where the platform
    has no affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_setup() -> float:
    """Seconds a fresh interpreter takes for a fixed stand-in of a set-up:
    importing some stdlib modules and rendering some JSON.
    Imports slow down with the host differently from the probe, so set-up
    times are calibrated against this instead.  It writes no files, because
    file creation times vary with the file system, not with the CPU."""
    proc = subprocess.run([sys.executable, "-c", REFERENCE_SETUP], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


class Calibrator:
    """Probes on a CPU-time timer; query afterwards per time interval."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Time the probes took inside [t0, t1]."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean probe time within WINDOW_S of [t0, t1];
        widens the window until it holds at least three probes.  Each probe
        is capped at three times the window's median, because a stall of the
        whole process (the host descheduling it) lengthens a short probe
        many times over but an operation only by the stall itself."""
        window = WINDOW_S
        while True:
            lo = bisect_left(self.starts, t0 - window)
            hi = bisect_right(self.starts, t1 + window)
            if hi - lo >= 3 or (lo == 0 and hi == len(self.starts)):
                break
            window *= 2
        chosen = self.durations[lo:hi]
        if not chosen:
            return 1.0
        cap = 3 * statistics.median(chosen)
        return PROBE_REF_S / (sum(min(d, cap) for d in chosen) / len(chosen))
