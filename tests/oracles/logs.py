"""The windowed daily-log sizer: the log meter's equivalence oracle.

Stations used to size their daily logfile with a trace query over the
window since the last staged log, ``trace.byte_size(source=station,
start=last, end=now)``.  That walks every record in the window from every
station.  The shipping :class:`~repro.sim.trace.LogMeter` keeps the same
count as records are emitted; ``tests/core/test_log_meter_equivalence.py``
pins the two equal on every staged log.
"""

from __future__ import annotations

from repro.sim.trace import Trace


class WindowedLogSizer:
    """A :class:`~repro.sim.trace.LogMeter` stand-in that queries the trace."""

    def __init__(self, trace: Trace, source: str) -> None:
        self.trace = trace
        self.source = source
        self._last = 0.0

    def take(self, now: float) -> int:
        """Bytes ``source`` logged in ``[last take, now)``."""
        size = self.trace.byte_size(source=self.source, start=self._last, end=now)
        self._last = now
        return size
