"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
10-30% over seconds to minutes as other tenants load it: a fixed job then
slows down together with the operations timed next to it. Each timed
operation is therefore bracketed by a probe, a fresh interpreter that
imports a fixed set of standard-library modules, and its seconds are scaled
by ``REFERENCE_S / mean(probe before, probe after)``. The result is the
operation's time on a host where the probe takes ``REFERENCE_S``. The probe
never imports ``mbm`` or its dependencies, so no change to the package
under test can move it; raw seconds and probe times go to the run's info
line next to the calibrated figures.
"""

from __future__ import annotations

import time

PROBE_ARGS = ["-c", "import json, csv, decimal, fractions, statistics, email.parser, http.client, argparse"]
#: The probe's typical time on an unloaded 2-CPU host of the kind the
#: benchmark was written on (Python 3.11); it fixes the scale, not the spread.
REFERENCE_S = 0.1
#: A probe that ended less than this long before an operation starts is
#: reused as that operation's "before" probe.
REUSE_S = 0.05


class Calibrator:
    """Brackets operations with probes; ``probe()`` runs one and returns its seconds."""

    def __init__(self, probe):
        self._probe = probe
        self.samples: list[float] = []
        self._last: tuple[float, float] | None = None  # (seconds, ended at)

    def probe(self) -> float:
        seconds = self._probe()
        self.samples.append(seconds)
        self._last = (seconds, time.perf_counter())
        return seconds

    def measure(self, fn):
        """Run ``fn()`` between two probes; returns its result and the scale factor."""
        if self._last is not None and time.perf_counter() - self._last[1] < REUSE_S:
            before = self._last[0]
        else:
            before = self.probe()
        out = fn()
        after = self.probe()
        return out, REFERENCE_S / ((before + after) / 2)


def uncalibrated(fn):
    """``Calibrator.measure`` for runs that report raw seconds."""
    return fn(), 1.0
