"""Regression: same-seed missions replay bit-for-bit; different seeds don't.

A same-seed replay is :func:`check_replay` with the baseline policy
repeated (``fifo,fifo``): the two runs are compared byte for byte, not
after tie normalisation.
"""

from repro.cli import main as cli_main
from repro.lint.replay import (
    ReplayDivergence,
    ReplayReport,
    check_replay,
    record_canonical,
    run_mission,
    trace_digest,
)
from repro.sim import Simulation
from repro.sim.trace import TraceRecord

#: Short but non-trivial: covers an MSP430 sampling cycle and sensor reads.
DAYS = 0.15

SAME_SEED = ("fifo", "fifo")


class TestDigest:
    def test_canonical_sorts_detail_keys(self):
        a = TraceRecord(time=1.0, source="s", kind="k", detail={"b": 2, "a": 1})
        b = TraceRecord(time=1.0, source="s", kind="k", detail={"a": 1, "b": 2})
        assert record_canonical(a) == record_canonical(b)

    def test_digest_sensitive_to_order_and_content(self):
        r1 = TraceRecord(time=1.0, source="s", kind="k", detail={"v": 1})
        r2 = TraceRecord(time=2.0, source="s", kind="k", detail={"v": 1})
        assert trace_digest([r1, r2]) != trace_digest([r2, r1])
        assert trace_digest([r1]) != trace_digest([r2])
        assert trace_digest([]) != trace_digest([r1])


class TestHarness:
    def test_same_seed_identical(self):
        report = check_replay(seed=0, days=DAYS, policies=SAME_SEED)
        assert report.robust, report.format()
        assert report.runs[0].digest == report.runs[1].digest
        assert report.divergences == ()
        assert report.findings == ()
        assert "tie replay OK" in report.format()

    def test_run_mission_produces_records(self):
        digest, lines = run_mission(seed=0, days=DAYS)
        assert len(digest) == 64
        assert lines, "a mission this long must emit trace records"

    def test_different_seeds_diverge(self):
        """Sanity: the digest actually reflects the randomness, not just time."""
        digest_a, _ = run_mission(seed=0, days=DAYS)
        digest_b, _ = run_mission(seed=1, days=DAYS)
        assert digest_a != digest_b

    def test_main_exit_codes(self, capsys):
        assert cli_main(["races", "--seed", "0", "--days", str(DAYS),
                         "--policies", "fifo,fifo", "--paths"]) == 0
        out = capsys.readouterr().out
        assert "tie replay OK" in out
        digest, _ = run_mission(seed=0, days=DAYS)
        assert f"digest {digest[:16]}…" in out


def _reordering_factory():
    """Toy missions whose two fifo runs emit one instant's records in
    opposite orders: same record set, different bytes."""
    built = []

    class Mission:
        def __init__(self, policy):
            self.sim = Simulation(seed=0, tie_break=policy)
            built.append(self)
            self.labels = ("a", "b") if len(built) % 2 else ("b", "a")

        def run_days(self, days):
            sim = self.sim
            for label in self.labels:
                sim.call_at(10.0, lambda label=label: sim.trace.emit(
                    "toy", "ping", label=label))
            sim.run(until=days * 86400.0)

    return Mission


class TestSamePolicyIsByteForByte:
    def test_reordered_instant_is_a_divergence(self):
        report = check_replay(days=0.01, policies=SAME_SEED,
                              mission_factory=_reordering_factory())
        assert not report.robust
        base, replay = report.runs
        assert base.normalized_digest == replay.normalized_digest
        assert base.digest != replay.digest
        (divergence,) = report.divergences
        assert divergence.exact
        assert divergence.index == 0 and divergence.time == 10.0
        assert "label='a'" in divergence.baseline_line
        assert "label='b'" in divergence.replay_line
        # A callsite flip cannot explain a same-policy divergence: no
        # tie diagnostics are run and no tie-order findings are raised.
        assert report.findings == ()
        text = report.format()
        assert "FAILED" in text and "same-seed replay" in text

    def test_other_policy_still_normalises_the_order(self):
        report = check_replay(days=0.01, policies=("fifo", "lifo"),
                              mission_factory=_reordering_factory())
        assert report.robust, report.format()


class TestDivergenceReporting:
    def test_summary_pinpoints_first_divergence(self):
        report = check_replay(seed=0, days=DAYS, policies=SAME_SEED)
        # Forge a diverged report from the real one to exercise the renderer.
        forged = ReplayReport(
            seed=0, days=DAYS, policies=SAME_SEED, runs=report.runs,
            divergences=(ReplayDivergence(
                policy="fifo", index=3, time=1.0,
                baseline_line="A-line", replay_line="B-line", exact=True),),
        )
        text = forged.format()
        assert "FAILED" in text and "record 3" in text
        assert "A-line" in text and "B-line" in text
        assert forged.to_dict()["divergences"][0]["exact"] is True
