"""Chunked-vs-exact transfer engine equivalence: the A/B oracle suite.

The shipping (exact) engine replaces the per-chunk Bernoulli loop — kept
as the oracle in ``tests/oracles/comms.py`` — with one inverse-CDF
drop-time draw (``Modem._sample_drop_delay``).  The two
engines burn different numbers of uniforms, so they cannot be bitwise
equal — the contract is *distributional*: per-chunk drop probabilities
are identical, so drop fractions and drop-time distributions must agree
within sampling noise, against the analytic values where a closed form
exists.  The probe radio's burst path *is* bitwise equal (same draws,
same order) and is pinned as such.
"""

import math

import pytest

from repro.comms.link import LinkDown, Modem
from repro.comms.probe_radio import ProbeRadioLink
from repro.energy.battery import Battery
from repro.energy.bus import PowerBus
from repro.energy.components import GPRS_MODEM
from repro.lint.determinism import lines_digest, record_canonical
from repro.lint.tie_replay import check_tie_robustness, normalize_tie_order
from repro.sim import Simulation
from tests.oracles import ChunkedProbeRadioLink, ChunkedSendMixin, oracle_arms

#: The oracle and the shipping engine.
COMMS_MODES = ("chunked", "exact")


def engine(modem_cls, mode):
    """``modem_cls`` as shipped, or on the chunked oracle loop."""
    if mode == "exact":
        return modem_cls
    return type(f"Chunked{modem_cls.__name__}", (ChunkedSendMixin, modem_cls), {})


class ConstantHazardModem(Modem):
    """Closed-form path: a GPRS-like modem with a flat drop hazard."""

    hazard_constant = True
    hazard = 0.002

    def drop_hazard_per_s(self, time):
        return self.hazard


class DiurnalHazardModem(Modem):
    """Chunk-walk path: hazard varies within a single transfer."""

    hazard_constant = False

    def drop_hazard_per_s(self, time):
        return 0.003 + 0.002 * math.sin(time / 600.0)


#: Transfer sized to 10 hazard chunks at the GPRS rate (300 s airtime).
TEN_CHUNK_BYTES = 187_500
TRIALS = 600


def run_send_trials(modem_cls, mode, trials=TRIALS, nbytes=TEN_CHUNK_BYTES,
                    seed=17):
    """``trials`` independent sends; returns (survived, drop_delays, modem)."""
    sim = Simulation(seed=seed)
    bus = PowerBus(sim, Battery(soc=0.95), name="t.power")
    modem = engine(modem_cls, mode)(sim, bus, "t.modem", GPRS_MODEM)
    survived = [0]
    drop_delays = []

    def driver(sim):
        for _ in range(trials):
            modem.connected = True
            started = sim.now
            try:
                yield from modem.send(nbytes)
                survived[0] += 1
            except LinkDown:
                drop_delays.append(sim.now - started)

    sim.process(driver(sim))
    # The power bus keeps housekeeping events alive forever; a generous
    # horizon (600 trials x 300 s airtime) bounds the run instead.
    sim.run(until=trials * 400.0 + 10_000.0)
    return survived[0], drop_delays, modem


class TestConstantHazardClosedForm:
    """The ``hazard_constant`` inversion against the analytic law."""

    def analytic_survival(self, total_s=300.0):
        return (1.0 - ConstantHazardModem.hazard) ** total_s

    @pytest.mark.parametrize("mode", COMMS_MODES)
    def test_survival_fraction_matches_analytic(self, mode):
        survived, _drops, _modem = run_send_trials(ConstantHazardModem, mode)
        p = self.analytic_survival()
        sigma = math.sqrt(p * (1.0 - p) / TRIALS)
        assert abs(survived / TRIALS - p) < 4.0 * sigma

    def test_drop_delay_distributions_agree(self):
        _, drops_chunked, _ = run_send_trials(ConstantHazardModem, "chunked")
        _, drops_exact, _ = run_send_trials(ConstantHazardModem, "exact")
        mean_c = sum(drops_chunked) / len(drops_chunked)
        mean_e = sum(drops_exact) / len(drops_exact)
        # Conditional drop-time std is < 90 s here; 4 sigma of the
        # difference of means is well under one 30 s chunk.
        assert abs(mean_c - mean_e) < 30.0

    def test_exact_drops_land_on_chunk_boundaries(self):
        _, drops, modem = run_send_trials(ConstantHazardModem, "exact")
        assert drops  # h=0.002 over 300 s drops ~45% of transfers
        chunk = modem.chunk_s
        for delay in drops:
            remainder = delay % chunk
            assert min(remainder, chunk - remainder) < 1e-6

    def test_first_chunk_drop_fraction_matches_analytic(self):
        """The sharpest slice: P(drop in chunk 1) = 1 - (1-h)**30."""
        p_first = 1.0 - (1.0 - ConstantHazardModem.hazard) ** 30.0
        sigma = math.sqrt(p_first * (1.0 - p_first) / TRIALS)
        for mode in COMMS_MODES:
            _, drops, _ = run_send_trials(ConstantHazardModem, mode)
            first = sum(1 for d in drops if d <= 30.0 + 1e-6)
            assert abs(first / TRIALS - p_first) < 4.0 * sigma


class TestVariableHazardChunkWalk:
    """The log-survival walk against the chunked oracle (no closed form)."""

    def test_drop_fraction_and_delay_agree(self):
        surv_c, drops_c, _ = run_send_trials(DiurnalHazardModem, "chunked")
        surv_e, drops_e, _ = run_send_trials(DiurnalHazardModem, "exact")
        # Two independent estimates of the same drop probability.
        p = (len(drops_c) + len(drops_e)) / (2.0 * TRIALS)
        sigma_diff = math.sqrt(2.0 * p * (1.0 - p) / TRIALS)
        assert abs(len(drops_c) - len(drops_e)) / TRIALS < 4.0 * sigma_diff
        mean_c = sum(drops_c) / len(drops_c)
        mean_e = sum(drops_e) / len(drops_e)
        assert abs(mean_c - mean_e) < 30.0

    def test_exact_walk_evaluates_hazard_at_chunk_ends(self):
        """A hazard spike confined to one chunk must be seen by both engines."""

        class SpikeModem(Modem):
            def drop_hazard_per_s(self, time):
                return 1.0 if 60.0 <= time <= 90.0 else 0.0

        for mode in COMMS_MODES:
            sim = Simulation(seed=3)
            bus = PowerBus(sim, Battery(soc=0.95), name="t.power")
            modem = engine(SpikeModem, mode)(sim, bus, "t.modem", GPRS_MODEM)
            dropped_at = []

            def driver(sim):
                modem.connected = True
                try:
                    yield from modem.send(TEN_CHUNK_BYTES)
                except LinkDown:
                    dropped_at.append(sim.now)

            sim.process(driver(sim))
            sim.run(until=10_000.0)
            # Hazard 1.0 first seen at the t=60 chunk end: certain drop,
            # same instant in both engines.
            assert dropped_at == [60.0]


class TestEventReduction:
    """The point of the exercise: one timeout instead of one per chunk."""

    def test_exact_send_is_at_least_ten_times_fewer_events(self):
        counts = {}
        for mode, send in (("chunked", True), ("exact", True), ("idle", False)):
            sim = Simulation(seed=11)
            bus = PowerBus(sim, Battery(soc=0.95), name="t.power")
            modem = engine(ConstantHazardModem, mode if send else "exact")(
                sim, bus, "t.modem", GPRS_MODEM)
            modem.hazard = 0.0  # survive: count the full transfer's events

            def driver(sim):
                modem.connected = True
                yield from modem.send(TEN_CHUNK_BYTES * 10)  # 100 chunks

            if send:
                sim.process(driver(sim))
            sim.run(until=100_000.0)
            counts[mode] = sim.events_processed
        # Housekeeping (bus sync, process starts) is mode-independent;
        # compare the transfer's own event cost.
        chunked_cost = counts["chunked"] - counts["idle"]
        exact_cost = counts["exact"] - counts["idle"]
        assert 1 <= exact_cost <= 3
        assert chunked_cost >= 10 * exact_cost

    def test_exact_draws_counter(self):
        _, _, modem = run_send_trials(ConstantHazardModem, "exact", trials=50)
        counter = modem.sim.obs.metrics.counter("comms_exact_draws_total",
                                                modem="t.modem")
        assert counter.value == 50.0
        _, _, chunked_modem = run_send_trials(ConstantHazardModem, "chunked",
                                              trials=50)
        counter = chunked_modem.sim.obs.metrics.counter(
            "comms_exact_draws_total", modem="t.modem")
        assert counter.value == 0.0


def run_burst(mode, seed=5, count=400, deadline=None, payload=120):
    sim = Simulation(seed=seed)
    link_cls = ChunkedProbeRadioLink if mode == "chunked" else ProbeRadioLink
    link = link_cls(
        sim,
        loss_fn=lambda t: 0.10 + 0.08 * math.sin(t / 50.0),
        corruption_probability=0.05,
    )
    out = {}

    def driver(sim):
        outcomes = yield sim.process(
            link.transmit_sequence(payload, count, deadline))
        out["outcomes"] = outcomes
        out["done_at"] = sim.now

    sim.process(driver(sim))
    sim.run()
    out["link"] = link
    out["events"] = sim.events_processed
    return out


class TestProbeRadioBitwise:
    """The burst path draws the identical rolls: bitwise, not statistical."""

    def test_burst_outcomes_identical(self):
        chunked = run_burst("chunked")
        exact = run_burst("exact")
        assert chunked["outcomes"] == exact["outcomes"]
        assert len(exact["outcomes"]) == 400
        for field in ("packets_sent", "packets_lost", "packets_broken"):
            assert getattr(chunked["link"], field) == getattr(exact["link"], field)
        # One summed timeout vs 400 chained ones: equal to float rounding.
        assert chunked["done_at"] == pytest.approx(exact["done_at"], rel=1e-12)
        assert chunked["events"] >= 10 * exact["events"]

    def test_deadline_cuts_identically(self):
        # packet_time ~= 0.1567 s; a 20 s deadline admits ~128 of 400.
        chunked = run_burst("chunked", deadline=20.0)
        exact = run_burst("exact", deadline=20.0)
        assert 0 < len(exact["outcomes"]) < 400
        assert chunked["outcomes"] == exact["outcomes"]

    def test_empty_burst_costs_nothing(self):
        exact = run_burst("exact", count=0)
        assert exact["outcomes"] == []
        assert exact["link"].packets_sent == 0


class TestDeploymentDigests:
    """Exact mode at deployment level: replayable and tie-order robust."""

    def test_same_seed_replay_is_byte_identical(self):
        from repro.lint.determinism import run_mission

        digest_a, _ = run_mission(seed=0, days=3.0)
        digest_b, _ = run_mission(seed=0, days=3.0)
        assert digest_a == digest_b

    def test_exact_mode_tie_normalized_digest_robust_across_policies(self):
        report = check_tie_robustness(
            seed=0, days=3.0, policies=("fifo", "shuffle:1", "lifo"))
        assert report.robust, report.format()
        digests = {run.normalized_digest for run in report.runs}
        assert len(digests) == 1

    def test_chunked_oracle_same_normalized_story_shape(self):
        """Chunked and exact runs of the same seed tell statistically the
        same mission: equal day count, drop counts within noise."""
        from repro.core import Deployment, DeploymentConfig

        stats = {}
        for mode in COMMS_MODES:
            with oracle_arms(chunked_comms=mode == "chunked"):
                deployment = Deployment(DeploymentConfig(seed=4))
            deployment.run_days(20.0)
            stats[mode] = (
                deployment.base.modem.connect_attempts,
                deployment.base.modem.drops + deployment.reference.modem.drops,
                deployment.base.modem.bytes_sent_total
                + deployment.reference.modem.bytes_sent_total,
            )
        attempts_c, drops_c, bytes_c = stats["chunked"]
        attempts_e, drops_e, bytes_e = stats["exact"]
        # Drop outcomes are distributionally (not per-seed) equal, and a
        # drop triggers a reconnect, so both counts carry Bernoulli noise.
        assert abs(attempts_c - attempts_e) <= 6
        assert abs(drops_c - drops_e) <= 6
        if bytes_c and bytes_e:
            assert 0.5 < bytes_c / bytes_e < 2.0

    def test_trace_normalization_helper_stable(self):
        """normalize_tie_order on a real exact-mode trace is idempotent."""
        from repro.faults import build_mission

        deployment, _ = build_mission(1)
        deployment.run_days(1.0)
        lines = [record_canonical(r) for r in deployment.sim.trace.records]
        normalized = normalize_tie_order(lines)
        assert normalize_tie_order(normalized) == normalized
        assert lines_digest(normalized) == lines_digest(
            normalize_tie_order(lines))
