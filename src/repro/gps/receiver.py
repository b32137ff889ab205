"""The dGPS receiver: recording, internal storage, serial fetch, time fixes."""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.energy.bus import PowerBus
from repro.energy.components import GPS_RECEIVER
from repro.environment.weather import _block_noise, _smooth_noise
from repro.gps.files import GpsReading, reading_file_name, reading_size_bytes
from repro.hardware.storage import CompactFlashCard
from repro.sim.kernel import Simulation


class TimeFixFailed(Exception):
    """Raised when the receiver cannot acquire enough satellites for time."""


class GpsReceiver:
    """A power-switched dGPS unit with its own compact-flash store.

    The unit is configured "to automatically start taking a reading whenever
    it is turned on" (Section II), so the MSP430 can schedule dGPS work with
    no Gumstix involvement.

    Parameters
    ----------
    sim, bus:
        Kernel and station power bus (registers a 3.6 W load).
    name:
        Trace prefix, e.g. ``"base.gps"``.
    position_fn:
        Ground-truth along-flow position of the antenna, metres
        (``glacier.surface_position_m`` on the ice; a constant at the
        reference station).
    acquisition_s:
        Cold-start time to first fix.
    serial_bytes_per_s:
        Effective RS-232 rate for pulling files to the Gumstix.  The
        5760 B/s default is back-derived from Section VI: ~21 days of
        state-3 readings (252 x 165 KB) is exactly what 2 hours can move.
    """

    #: Raw (undifferenced) GPS error scale, metres.
    RAW_ERROR_M = 3.0
    #: Residual receiver-local error after differencing, metres.
    PRIVATE_ERROR_M = 0.008
    #: Correlation block for the shared atmospheric error, seconds.
    COMMON_ERROR_BLOCK_S = 1800.0

    def __init__(
        self,
        sim: Simulation,
        bus: PowerBus,
        name: str,
        position_fn: Callable[[float], float],
        acquisition_s: float = 45.0,
        power_w: float = GPS_RECEIVER.power_w,
        seed: int = 0,
        serial_bytes_per_s: float = 5760.0,
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.name = name
        self.position_fn = position_fn
        self.acquisition_s = acquisition_s
        self.seed = seed
        self.serial_bytes_per_s = serial_bytes_per_s
        self.load = bus.add_load(name, power_w)
        self.card = CompactFlashCard(capacity_bytes=2_000_000_000, name=f"{name}.cf")
        self.readings_taken = 0
        #: Intermittent RS-232 fault: probability that one fetch attempt
        #: fails mid-transfer (Section VI names "an intermittent RS232
        #: cable or dGPS unit" as the only plausible cause of the
        #: oversized-file livelock).
        self.rs232_fault_probability = 0.0
        self.fetch_failures = 0

    # ------------------------------------------------------------------
    # Sky model
    # ------------------------------------------------------------------
    def satellites_visible(self, time: float) -> int:
        """Visible satellite count (5-12, deterministic in time)."""
        noise = _smooth_noise(self.seed, f"{self.name}:sats", time)
        return 5 + int(round(noise * 7))

    def _common_error_m(self, time: float) -> float:
        """Atmospheric/orbit error shared by all receivers observing now."""
        block = int(time // self.COMMON_ERROR_BLOCK_S)
        # Seed 0 on purpose: *every* receiver sees the same common error.
        return self.RAW_ERROR_M * (2.0 * _block_noise(0, "gps_common", block) - 1.0)

    def _private_error_m(self, time: float) -> float:
        block = int(time // 60.0)
        return self.PRIVATE_ERROR_M * (
            2.0 * _block_noise(self.seed, f"{self.name}:private", block) - 1.0
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def take_reading(self, duration_s: float):
        """Process: power on, record for ``duration_s``, store the file, power off.

        Yields the stored :class:`GpsReading` as the process return value.
        """
        start = self.sim.now
        self.bus.loads.switch_on(self.name)
        try:
            yield self.sim.timeout(duration_s)
            mid = start + duration_s / 2.0
            satellites = self.satellites_visible(mid)
            reading = GpsReading(
                station=self.name,
                start_time=start,
                duration_s=duration_s,
                satellites=satellites,
                size_bytes=reading_size_bytes(satellites),
                observed_position_m=(
                    self.position_fn(mid) + self._common_error_m(mid) + self._private_error_m(mid)
                ),
                common_error_m=self._common_error_m(mid),
                private_error_m=self._private_error_m(mid),
            )
            file_name = reading_file_name(self.name, start)
            self.card.write(
                file_name,
                reading.size_bytes,
                created=start,
                payload=reading,
            )
            self.readings_taken += 1
            self.sim.trace.emit(
                self.name,
                "gps_reading",
                size_bytes=reading.size_bytes,
                satellites=satellites,
                duration_s=duration_s,
            )
            # Provenance birth of the observation file ("prov" source
            # feeds no station's log meter, so this is inert to simulated
            # behaviour).
            self.sim.trace.emit(
                "prov", "created", cls="gps",
                artifact=f"gps:{file_name}", bytes=reading.size_bytes,
            )
            return reading
        finally:
            self.bus.loads.switch_off(self.name)

    # ------------------------------------------------------------------
    # Time service (Section IV recovery)
    # ------------------------------------------------------------------
    def time_fix(self):
        """Process: acquire satellites and return the true UTC time.

        Raises :class:`TimeFixFailed` when fewer than four satellites are
        visible after acquisition (heavy storm / antenna icing); the
        recovery logic then "sleeps for a day and tries again".
        """
        self.bus.loads.switch_on(self.name)
        try:
            yield self.sim.timeout(self.acquisition_s)
            if self.satellites_visible(self.sim.now) < 4:
                self.sim.trace.emit(self.name, "time_fix_failed")
                raise TimeFixFailed(f"{self.name}: insufficient satellites")
            self.sim.trace.emit(self.name, "time_fix_ok")
            return self.sim.utcnow()
        finally:
            self.bus.loads.switch_off(self.name)

    # ------------------------------------------------------------------
    # Serial fetch to the Gumstix
    # ------------------------------------------------------------------
    def pending_files(self) -> List:
        """Files on the internal card, oldest first."""
        return self.card.list_files(prefix="gps/")

    def fetch_time_s(self, size_bytes: int) -> float:
        """RS-232 transfer time for one file of ``size_bytes``."""
        return size_bytes / self.serial_bytes_per_s

    def fetch_file(self, name: str):
        """Process: pull one file off the receiver (receiver powered during).

        Returns the :class:`~repro.hardware.storage.StoredFile` and deletes
        it from the internal card.  With an intermittent RS-232 fault the
        transfer can abort partway — time and power spent, file retained —
        which is how multi-day backlogs (and eventually an over-window
        file) build up on the receiver.
        """
        stored = self.card.read(name)
        self.bus.loads.switch_on(self.name)
        try:
            if self.rs232_fault_probability > 0.0:
                roll = float(self.sim.rng.stream(f"{self.name}.rs232").random())
                if roll < self.rs232_fault_probability:
                    # Fails partway through: half the airtime wasted.
                    yield self.sim.timeout(self.fetch_time_s(stored.size_bytes) / 2.0)
                    self.fetch_failures += 1
                    self.sim.trace.emit(self.name, "rs232_fetch_failed", file=name)
                    raise IOError(f"{self.name}: RS-232 transfer failed for {name}")
            yield self.sim.timeout(self.fetch_time_s(stored.size_bytes))
            self.card.delete(name)
            self.sim.trace.emit("prov", "stored", cls="gps",
                                artifact=f"gps:{name}")
            return stored
        finally:
            self.bus.loads.switch_off(self.name)

    # ------------------------------------------------------------------
    # Continuous recording (the ref [12] regime)
    # ------------------------------------------------------------------
    #: Bytes produced per second of continuous recording: a nominal
    #: reading's worth per nominal reading duration (~536 B/s).
    CONTINUOUS_BYTES_PER_S = 165_000 / 307.7

    def continuous_file_name(self) -> str:
        """The single ever-growing file of continuous-recording mode."""
        return f"gps/{self.name}/continuous.obs"

    def record_continuous(self, duration_s: float):
        """Process: leave the receiver recording into ONE growing file.

        Some researchers "leave their dGPS recording full-time in order to
        obtain high precision" (ref [12]); Section III rejects that for
        power and data-volume reasons.  Repeated calls grow the same file,
        which is also how a single file comes to exceed a transfer window.
        """
        self.bus.loads.switch_on(self.name)
        try:
            yield self.sim.timeout(duration_s)
            new_bytes = int(duration_s * self.CONTINUOUS_BYTES_PER_S)
            name = self.continuous_file_name()
            existing = self.card.read(name).size_bytes if self.card.exists(name) else 0
            self.card.write(name, existing + new_bytes, created=self.sim.now)
            self.sim.trace.emit(self.name, "continuous_recorded",
                                total_bytes=existing + new_bytes)
            return existing + new_bytes
        finally:
            self.bus.loads.switch_off(self.name)
