"""Trace regressions: source-boundary selection, unsubscribe, and
subscriber-error resilience."""

import pytest

from repro.sim.simtime import SimClock
from repro.sim.trace import Trace


@pytest.fixture
def trace():
    return Trace(SimClock())


class TestSelectSourceBoundary:
    def test_exact_and_dotted_children_match(self, trace):
        trace.emit("base", "tick")
        trace.emit("base.gumstix", "tick")
        trace.emit("base.gumstix.job", "tick")
        sources = [r.source for r in trace.select(source="base")]
        assert sources == ["base", "base.gumstix", "base.gumstix.job"]

    def test_sibling_prefix_does_not_match(self, trace):
        # The historical bug: plain startswith("base") matched "base2".
        trace.emit("base", "tick")
        trace.emit("base2", "tick")
        trace.emit("basement.heater", "tick")
        assert [r.source for r in trace.select(source="base")] == ["base"]

    def test_intermediate_source_selects_its_subtree(self, trace):
        trace.emit("base.gumstix", "tick")
        trace.emit("base.gumstix2", "tick")
        assert [r.source for r in trace.select(source="base.gumstix")] == [
            "base.gumstix"
        ]


class TestSubscribers:
    def test_unsubscribe_stops_delivery(self, trace):
        seen = []
        trace.subscribe(seen.append)
        trace.emit("a", "one")
        trace.unsubscribe(seen.append)
        trace.emit("a", "two")
        assert [r.kind for r in seen] == ["one"]

    def test_unsubscribe_unknown_callback_is_noop(self, trace):
        trace.unsubscribe(lambda record: None)
        assert len(trace) == 0

    def test_raising_subscriber_does_not_break_emit(self, trace):
        def bad(record):
            raise ValueError("kaboom")

        seen = []
        trace.subscribe(bad)
        trace.subscribe(seen.append)
        record = trace.emit("base", "tick")
        # The emit survived, later subscribers still ran...
        assert record.kind == "tick"
        assert seen == [record]
        # ...and the failure itself is on the record stream.
        errors = trace.select(source="trace", kind="subscriber_error")
        assert len(errors) == 1
        assert errors[0].detail["error"] == "ValueError: kaboom"
        assert errors[0].detail["record_kind"] == "tick"
        assert "bad" in errors[0].detail["subscriber"]

    def test_error_record_not_delivered_to_failing_subscriber_loop(self, trace):
        # A subscriber that always raises must produce exactly one error
        # record per emit, not recurse on its own error record.
        def always_raises(record):
            raise RuntimeError("nope")

        trace.subscribe(always_raises)
        trace.emit("base", "tick")
        assert len(trace) == 2  # the tick + one subscriber_error


class TestLogMeter:
    """The per-source byte meter the stations size their daily log from."""

    @staticmethod
    def window(trace, source, start, end):
        return trace.byte_size(source=source, start=start, end=end)

    def test_take_matches_the_windowed_query(self, trace):
        meter = trace.log_meter("base")
        trace.emit("base", "tick", n=1)
        trace.clock.advance_to(10.0)
        trace.emit("base.gumstix", "boot", volts=12.5)
        trace.clock.advance_to(20.0)
        assert meter.take(20.0) == self.window(trace, "base", 0.0, 20.0) > 0
        trace.emit("base", "tick", n=2)
        trace.clock.advance_to(30.0)
        assert meter.take(30.0) == self.window(trace, "base", 20.0, 30.0) > 0
        assert meter.take(30.0) == 0

    def test_records_stamped_now_roll_into_the_next_window(self, trace):
        meter = trace.log_meter("base")
        trace.emit("base", "early")
        trace.clock.advance_to(5.0)
        stamped_now = trace.emit("base", "just_before_staging")
        assert meter.take(5.0) == self.window(trace, "base", 0.0, 5.0)
        late = trace.emit("base", "just_after_staging")
        trace.clock.advance_to(9.0)
        expected = stamped_now.byte_size() + late.byte_size()
        assert self.window(trace, "base", 5.0, 9.0) == expected
        assert meter.take(9.0) == expected

    def test_dotted_children_count_toward_the_parent(self, trace):
        base = trace.log_meter("base")
        gumstix = trace.log_meter("base.gumstix")
        records = [trace.emit("base.gumstix", "boot"),
                   trace.emit("base.gumstix.job", "run")]
        trace.clock.advance_to(1.0)
        total = sum(record.byte_size() for record in records)
        assert base.take(1.0) == total
        assert gumstix.take(1.0) == total

    def test_sibling_prefix_does_not_count(self, trace):
        meter = trace.log_meter("base")
        trace.emit("base2", "tick")
        trace.emit("basement.heater", "tick")
        trace.clock.advance_to(1.0)
        assert meter.take(1.0) == 0

    def test_prov_and_subscriber_errors_are_never_metered(self, trace):
        def bad(record):
            raise ValueError("kaboom")

        meter = trace.log_meter("base")
        trace.emit("prov", "queued", station="base", file="outbox/logs/000001")
        trace.subscribe(bad)
        tick = trace.emit("base", "tick")
        trace.clock.advance_to(1.0)
        assert trace.select(source="trace", kind="subscriber_error")
        assert meter.take(1.0) == tick.byte_size()

    def test_meter_registered_after_earlier_emits_starts_at_zero(self, trace):
        trace.emit("base", "before")
        trace.clock.advance_to(1.0)
        meter = trace.log_meter("base")
        trace.clock.advance_to(2.0)
        assert meter.take(2.0) == 0
        after = trace.emit("base", "after")
        trace.clock.advance_to(3.0)
        assert meter.take(3.0) == after.byte_size()

    def test_meters_run_with_the_trace_disabled(self, trace):
        meter = trace.log_meter("base")
        expected = trace.emit("base", "tick", n=1).byte_size()
        trace.enabled = False
        assert trace.emit("base", "tick", n=1) is None
        trace.clock.advance_to(1.0)
        assert meter.take(1.0) == 2 * expected
        assert len(trace) == 1
