"""The fixed-step power bus: the adaptive integrator's equivalence oracle.

The original integration scheme.  A background process samples the
sources every ``step_s`` seconds (right-rectangle integration).  Every
load switch triggers an exact sub-step integration first, so per-load
energy accounting is exact for piecewise-constant loads, and every
terminal-voltage read is a sample point.  ``tests/energy`` runs it
against the shipping :class:`~repro.energy.bus.PowerBus`.
"""

from __future__ import annotations

from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.sim.kernel import Simulation


class FixedStepBus(PowerBus):
    """A :class:`PowerBus` that integrates on a fixed ``step_s`` tick.

    Voltage watches still flag edges (edge detection only; nothing is
    planned), which keeps A/B comparisons symmetrical.
    """

    def __init__(self, sim: Simulation, battery: Battery, name: str = "power",
                 step_s: float = 300.0) -> None:
        if step_s <= 0:
            raise ValueError("step_s must be > 0")
        self.step_s = step_s
        super().__init__(sim, battery, name=name)

    def terminal_voltage(self, settled: bool = False) -> float:
        """Sync first (a read is a sample point), then read the battery."""
        self.sync(reason="read")
        load_w = self.settled_load_w() if settled else self.load_power()
        return self.battery.terminal_voltage(self.source_power() - load_w)

    def _integrate(self, now: float, dt: float) -> float:
        exhausted_before = self.battery.is_exhausted
        load_w = self.loads.total_power()
        source_w = self.source_power(now)
        self.battery.apply(dt, load_w=load_w, source_w=source_w)
        for source in self.sources:
            source.delivered_j += source.power_w(now) * dt
        if not exhausted_before:
            for load in self.loads:
                load.energy_j += load.current_power() * dt
        return source_w - load_w

    def _account_loads(self, now: float) -> None:
        # Every load switch syncs, so there is never a deferred segment.
        return

    def _on_load_switch(self, _load) -> None:
        now = self.sim.now
        if now != self._tick_t:
            self._tick_t = now
            self._tick_load_w = self.loads.total_power()
        self.sync(reason="load_switch")

    def _run(self):
        while True:
            yield self.sim.timeout(self.step_s)
            self.sync(reason="tick")
