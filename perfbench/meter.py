"""Host time corrected for the speed of a shared machine.

On a small shared host the CPU speed available to one process drifts by
10-20 % within seconds, which is more than the changes this benchmark
must resolve.  :class:`Meter` therefore measures a pass in short segments
and runs a fixed reference kernel (:func:`probe`, independent of the
program) between them.  Each segment's host time is scaled by
``REFERENCE_PROBE_S`` over the mean probe time at its two ends, so the
reported seconds are seconds on a machine where the probe takes
``REFERENCE_PROBE_S``: a program change moves them, a drift in machine
speed largely does not.  Probe time is excluded from every measurement,
latency samples and the tracer's spans included (:func:`host_clock`).
"""

from __future__ import annotations

import json
import time

#: the probe's duration on the reference machine, in seconds
REFERENCE_PROBE_S = 0.01
#: host seconds per segment, at least
SEGMENT_S = 0.2

#: the probe's fixed inputs: a JSON document and a key set of a few MB
_DOCUMENT = [
    {"id": f"r{i:05d}", "values": [i * 0.5, i * 1.5, i * 2.5], "name": "x" * 10}
    for i in range(600)
]
_KEYS = [f"key{i}" for i in range(40000)]

#: host seconds this process has spent in the probes of :meth:`Meter.lap`
_probe_total_s = 0.0


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work: arithmetic,
    JSON round trips and a dictionary larger than the CPU's private caches.

    The workloads are interpreter-bound.  On the host this was tuned on,
    scaling by this mix cut the spread of pass times within one process
    from 13-18 % to under 3 %.  Arithmetic alone, or numpy work, tracked the
    workloads' slow-downs less well under load.
    """
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    json.loads(json.dumps(_DOCUMENT, sort_keys=True))
    table = {key: i for i, key in enumerate(_KEYS)}
    for key in _KEYS[::7]:
        total += table[key]
    return time.perf_counter() - start


def host_clock() -> float:
    """Host seconds with the time of every :meth:`Meter.lap` probe taken out."""
    return time.perf_counter() - _probe_total_s


class Meter:
    """Speed-corrected host time of one pass, and its latency samples."""

    def __init__(self) -> None:
        #: latency samples, in corrected seconds
        self.samples: list[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._last_probe = probe()
        self._start = host_clock()

    def now(self) -> float:
        """Corrected seconds since the pass began.  Inside a segment the
        speed factor is estimated from the probe that opened it."""
        return self.scaled_s + (host_clock() - self._start) * (
            REFERENCE_PROBE_S / self._last_probe
        )

    def poll(self) -> None:
        """End the segment if it is long enough; call at safe points."""
        if host_clock() - self._start >= SEGMENT_S:
            self.lap()

    def lap(self) -> None:
        """End the segment: probe, and add its time scaled by the mean
        probe time at its two ends."""
        global _probe_total_s
        elapsed = host_clock() - self._start
        before = time.perf_counter()
        current = probe()
        _probe_total_s += time.perf_counter() - before
        self.raw_s += elapsed
        self.scaled_s += elapsed * REFERENCE_PROBE_S / (
            0.5 * (self._last_probe + current)
        )
        self._last_probe = current
        self._start = host_clock()
