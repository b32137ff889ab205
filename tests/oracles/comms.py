"""Per-chunk and per-packet comms loops: the exact engines' oracles.

- :class:`ChunkedSendMixin` is the original modem transfer engine: one
  kernel timeout per ``chunk_s``, and at each chunk boundary a Bernoulli
  draw against ``1 - (1 - hazard)**step``.  A year of daily 1 MB uploads
  at 5000 bps is ~20k kernel events of pure polling.  Its per-chunk drop
  probabilities equal those of the shipping single-draw engine, so the
  two agree in distribution, not bitwise.
- :class:`ChunkedProbeRadioLink` sends a packet burst as one timeout per
  packet.  It draws the identical rolls the shipping burst path draws, so
  the two agree bitwise.
"""

from __future__ import annotations

from typing import Optional

from repro.comms.gprs import GprsModem
from repro.comms.probe_radio import ProbeRadioLink


class ChunkedSendMixin:
    """Mix in before a :class:`~repro.comms.link.Modem` subclass to send
    with the per-chunk Bernoulli loop instead of one drop-time draw."""

    def _transfer(self, total_s: float, label: str):
        remaining_s = total_s
        rng = self._drop_rng
        chunk = self.chunk_s
        while remaining_s > 0:
            step = min(chunk, remaining_s)
            yield self.sim.timeout(step)
            remaining_s -= step
            hazard = self.drop_hazard_per_s(self.sim.now)
            if hazard > 0 and rng.random() < 1.0 - (1.0 - hazard) ** step:
                self._record_drop(label)


class ChunkedGprsModem(ChunkedSendMixin, GprsModem):
    """The station GPRS modem on the per-chunk transfer loop."""


class ChunkedProbeRadioLink(ProbeRadioLink):
    """A probe radio link that spends one kernel timeout per packet."""

    def transmit_sequence(self, payload_bytes: int, count: int,
                          deadline: Optional[float] = None):
        outcomes = []
        for _ in range(count):
            if deadline is not None and self.sim.now >= deadline:
                break
            outcome = yield from self.transmit_detailed(payload_bytes)
            outcomes.append(outcome)
        return outcomes
