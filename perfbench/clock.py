"""Lap timing with a host-speed reference.

The benchmark host is a shared virtual machine whose speed drifts: a fixed
pure-Python loop takes 5.9 ms in some seconds and 8.9 ms in others, and a
slow stretch can last longer than a whole run. Raw step times therefore
spread by about 25% from run to run. Each timed lap (the set-up, then every
step) is paired with a short calibration loop run just before it, and the
lap's time is scaled to a host on which that loop takes ``REFERENCE_S``.
The loop mixes the two idioms of amrfem's topology code, integer
arithmetic in Python and scalar reads from numpy arrays; on recorded
episodes it tracked the workloads' slowdowns better than a streaming numpy
kernel or small vector operations. The raw times are kept and printed
beside the scaled ones.
"""
from __future__ import annotations

import bisect
import itertools
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3  # calibration loop time on the reference host
WINDOW_S = 0.25  # reach of the calibrations that scale one lap
_ARITHMETIC = 7500  # with _READS, about 1 ms on a 2-vCPU Xeon VM
_READS = np.arange(3000, dtype=np.int64)


def calibrate() -> float:
    """Wall time of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ARITHMETIC):
        acc += i * i
    for i in range(len(_READS)):
        acc += int(_READS[i])
    return time.perf_counter() - t0


def scaled(lap_s, calib_s) -> list:
    """Lap times scaled to the reference host.

    Calibration k runs just before lap k. A lap is scaled by the median of
    the calibrations taken during it, at its ends, or within ``WINDOW_S`` of
    them, so short laps share several calibrations and one interrupted
    calibration loop does not distort its lap.
    """
    starts = list(itertools.accumulate(lap_s, initial=0.0))
    out = []
    for k, t in enumerate(lap_s):
        lo = bisect.bisect_left(starts, starts[k] - WINDOW_S, 0, len(calib_s))
        hi = bisect.bisect_right(starts, starts[k + 1] + WINDOW_S, 0, len(calib_s))
        out.append(t * REFERENCE_S / statistics.median(calib_s[lo:hi]))
    return out


class Laps:
    """Consecutive laps, each timed after its own calibration loop.

    ``lap()`` ends the running lap, if any, calibrates and starts the next;
    ``stop()`` ends the running lap. Calibration time is in no lap.
    """

    def __init__(self):
        self.lap_s = []
        self.calib_s = []
        self._t0 = None

    def lap(self):
        self.stop()
        self.calib_s.append(calibrate())
        self._t0 = time.perf_counter()

    def stop(self):
        if self._t0 is not None:
            self.lap_s.append(time.perf_counter() - self._t0)
            self._t0 = None

    def close(self):
        """End the running lap and calibrate once more after it."""
        self.stop()
        self.calib_s.append(calibrate())


class FirstStep(Exception):
    """Ends a run at its first step call, when only its set-up is timed."""


class StepLaps:
    """Starts a new lap at every call of one step function.

    Times single timesteps inside ``run_mms`` and ``run_spinodal``: the
    first lap, started on entry, is the run's own set-up, up to its first
    step call. With ``setup_only`` that call raises ``FirstStep`` instead,
    which ends the run and the ``with`` block after the set-up. The stamp
    is a plain function around the step, installed for the ``with`` block
    only; it opens no span.
    """

    def __init__(self, module, attr, setup_only=False):
        self.laps = Laps()
        self._module, self._attr = module, attr
        self._original = getattr(module, attr)
        self._setup_only = setup_only

    def __enter__(self) -> Laps:
        original, laps, setup_only = self._original, self.laps, self._setup_only

        def stamped(*args, **kwargs):
            if setup_only:
                raise FirstStep
            laps.lap()
            return original(*args, **kwargs)

        setattr(self._module, self._attr, stamped)
        laps.lap()
        return laps

    def __exit__(self, exc_type, exc, tb):
        self.laps.close()
        setattr(self._module, self._attr, self._original)
        return exc_type is FirstStep
