"""The eager probe sampler: deferred sampling's equivalence oracle.

The original scheme spends one kernel event per sample: a process wakes
every ``sampling_interval_s``, reads the sensor suite and appends a
reading.  The shipping :class:`~repro.probes.probe.Probe` synthesises the
same readings lazily, at zero events; ``tests/probes`` pins the two
bitwise equal.
"""

from __future__ import annotations

from repro.probes.probe import Probe
from repro.protocol.framing import Reading


class EagerProbe(Probe):
    """A :class:`Probe` that samples with one kernel event per reading."""

    def __init__(self, sim, probe_id, sensors, **kwargs) -> None:
        super().__init__(sim, probe_id, sensors, **kwargs)
        sim.process(self._sampler(), name=f"probe.{probe_id}.sampler")

    def _sampler(self):
        while True:
            yield self.sim.timeout(self._sampling_interval_s)
            if not self.is_alive:
                return
            channels = {sensor.name: sensor.sample(self.sim.now) for sensor in self.sensors}
            self._buffer.append(
                Reading(probe_id=self.probe_id, seq=-1, time=self.believed_time(),
                        channels=channels)
            )
            self._readings_taken += 1

    def _materialise(self, up_to: float) -> None:
        # The sampler process has already buffered every due reading.
        return
