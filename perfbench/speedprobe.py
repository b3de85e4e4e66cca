"""Samples how fast the host runs Python while a timed call runs.

On a shared host one core's speed changes by up to half from one second
to the next and drifts over minutes, as other tenants come and go, and
CPU time slows as much as wall time.  So while a timed call runs, a
timer interrupts it every few milliseconds and times a fixed
micro-kernel right there, on the same core at the same moment.  The
benchmark reports times scaled to a host on which that kernel takes
`REFERENCE_S`:

    scaled = (measured - time spent in probes) * REFERENCE_S / mean probe time

The kernel is plain bytecode and uses nothing from poumetrics, so a
change to the program cannot change the yardstick.  On a 2-vCPU Xeon VM,
over 40 analyses of one corpus whose wall times varied by 18%
(coefficient of variation), the mean probe time tracked the wall time
with a correlation of 0.975 and the scaled times varied by 4%.
"""

import signal
import time

# Scaled times are seconds on a host where one probe takes this long:
# about its time inside an analysis on an uncontended core of that VM,
# so scaled times read close to that host's quiet wall times.
REFERENCE_S = 2.2e-05
LOOPS = 400


class SpeedProbe:
    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.probes = 0
        self.probe_s = 0.0

    def tick(self, *_) -> None:
        clock = time.perf_counter
        start = clock()
        acc = 0
        for i in range(LOOPS):
            acc += i * i % 7
        self.probe_s += clock() - start
        self.probes += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        if not self.probes:  # a call shorter than one interval
            self.tick()
        return {"probes": self.probes, "probe_s": self.probe_s}


def scale(measured_s: float, probe: dict) -> float:
    """`measured_s` as seconds on the reference host."""
    return (measured_s - probe["probe_s"]) * REFERENCE_S * probe["probes"] / probe["probe_s"]
