"""Tests for the kernel tie-break policy hook (fifo / lifo / shuffle).

Same-timestamp events have no *contractual* order; the ``tie_break``
policy makes the accidental order explicit and perturbable so the replay
harness (:mod:`repro.lint.replay`) can shake out code that silently
depends on it.  These tests pin the policy semantics themselves: what
each policy does, that every policy is deterministic, and that nothing
but within-instant order ever changes.
"""

import pytest

from repro.sim import Simulation

POLICIES = ("fifo", "lifo", "shuffle:1")


def fired_labels(policy, labels, when=5.0, until=None):
    """Schedule one callback per label at the same instant; return fire order."""
    sim = Simulation(seed=1, tie_break=policy)
    fired = []
    for label in labels:
        sim.call_at(when, lambda label=label: fired.append(label))
    sim.run(until=until)
    return fired


class TestPolicies:
    def test_fifo_is_schedule_order(self):
        assert fired_labels("fifo", "abcde") == list("abcde")

    def test_default_policy_is_fifo(self):
        sim = Simulation(seed=1)
        assert sim.tie_break == "fifo"

    def test_lifo_reverses_within_instant(self):
        assert fired_labels("lifo", "abcde") == list("edcba")

    def test_shuffle_permutes(self):
        # A 12-element group: the identity permutation under a random
        # 64-bit key per event is vanishingly unlikely, and seed 1 is
        # pinned anyway — this doubles as a regression pin.
        labels = "abcdefghijkl"
        shuffled = fired_labels("shuffle:1", labels)
        assert sorted(shuffled) == list(labels)
        assert shuffled != list(labels)

    def test_shuffle_deterministic_per_seed(self):
        first = fired_labels("shuffle:7", "abcdefgh")
        second = fired_labels("shuffle:7", "abcdefgh")
        assert first == second

    def test_shuffle_seeds_differ(self):
        labels = "abcdefghijkl"
        orders = {tuple(fired_labels(f"shuffle:{s}", labels)) for s in range(6)}
        assert len(orders) > 1

    def test_cross_timestamp_order_preserved(self):
        for policy in POLICIES:
            sim = Simulation(seed=1, tie_break=policy)
            fired = []
            for when in (30.0, 10.0, 20.0):
                sim.call_at(when, lambda when=when: fired.append(when))
            sim.run()
            assert fired == [10.0, 20.0, 30.0], policy

    def test_policy_only_permutes_within_instant(self):
        # Two groups at different instants: each group is a permutation of
        # itself, and the groups never interleave.
        for policy in POLICIES:
            sim = Simulation(seed=1, tie_break=policy)
            fired = []
            for label in "abc":
                sim.call_at(10.0, lambda label=label: fired.append(("t10", label)))
            for label in "xyz":
                sim.call_at(20.0, lambda label=label: fired.append(("t20", label)))
            sim.run()
            assert [tag for tag, _ in fired] == ["t10"] * 3 + ["t20"] * 3, policy
            assert sorted(label for tag, label in fired if tag == "t10") == list("abc")
            assert sorted(label for tag, label in fired if tag == "t20") == list("xyz")

    @pytest.mark.parametrize("spec", ["shuffle", "shuffle:", "shuffle:x",
                                      "fifo:1", "lifo:2", "random", ""])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            Simulation(seed=1, tie_break=spec)

    def test_negative_shuffle_seed_accepted(self):
        assert sorted(fired_labels("shuffle:-3", "abcd")) == list("abcd")


class TestAccounting:
    """The public counters are policy-independent."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_events_scheduled_counts_all_policies(self, policy):
        sim = Simulation(seed=1, tie_break=policy)
        for _ in range(4):
            sim.timeout(5.0)
        sim.schedule_many([1.0, 2.0, 3.0])
        assert sim.events_scheduled == 7
        assert sim.queue_depth == 7
        sim.run()
        assert sim.queue_depth == 0
        assert sim.events_processed == 7


class TestRunUntilBoundary:
    """Same-timestamp groups landing exactly on ``run(until=...)``."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_whole_group_at_until_fires(self, policy):
        fired = fired_labels(policy, "abcde", when=50.0, until=50.0)
        assert sorted(fired) == list("abcde"), policy

    @pytest.mark.parametrize("policy", POLICIES)
    def test_group_past_until_does_not_fire(self, policy):
        fired = fired_labels(policy, "abcde", when=50.0000001, until=50.0)
        assert fired == [], policy

    @pytest.mark.parametrize("policy", POLICIES)
    def test_clock_lands_exactly_on_until(self, policy):
        sim = Simulation(seed=1, tie_break=policy)
        sim.call_at(50.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_resume_does_not_refire_boundary_group(self, policy):
        sim = Simulation(seed=1, tie_break=policy)
        fired = []
        for label in "abc":
            sim.call_at(50.0, lambda label=label: fired.append(label))
        sim.call_at(60.0, lambda: fired.append("late"))
        sim.run(until=50.0)
        boundary = list(fired)
        assert sorted(boundary) == list("abc")
        sim.run()
        assert fired == boundary + ["late"]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_split_runs_match_single_run(self, policy):
        # Stopping exactly on a tie group and resuming must produce the
        # same within-group order as running straight through.
        def orders(until_first):
            sim = Simulation(seed=1, tie_break=policy)
            fired = []
            for label in "abcd":
                sim.call_at(50.0, lambda label=label: fired.append(label))
            if until_first is not None:
                sim.run(until=until_first)
            sim.run()
            return fired

        assert orders(50.0) == orders(None)


class TestScheduleManyContract:
    """``schedule_many`` sequence-number semantics, pinned.

    The batch form must be indistinguishable from interleaved single
    ``timeout()`` calls: each timeout consumes the next sequence number in
    list order, so same-timestamp ties between batch members (and against
    surrounding single schedules) resolve identically under every policy.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    def test_batch_matches_interleaved_singles(self, policy):
        delays = [5.0, 5.0, 2.0, 5.0, 2.0]

        def run_one(batch):
            sim = Simulation(seed=1, tie_break=policy)
            fired = []
            if batch:
                timeouts = sim.schedule_many(delays)
            else:
                timeouts = [sim.timeout(d) for d in delays]
            for index, timeout in enumerate(timeouts):
                timeout.callbacks.append(
                    lambda _evt, index=index: fired.append(index))
            sim.run()
            return fired

        assert run_one(batch=True) == run_one(batch=False), policy

    @pytest.mark.parametrize("policy", POLICIES)
    def test_batch_ties_against_single_schedules(self, policy):
        # single, batch, single — all at the same instant.  The tie must
        # resolve as if the batch were unrolled in place.
        def run_one(batch):
            sim = Simulation(seed=1, tie_break=policy)
            fired = []

            def tag(label):
                return lambda _evt: fired.append(label)

            sim.timeout(5.0).callbacks.append(tag("pre"))
            if batch:
                middle = sim.schedule_many([5.0, 5.0])
            else:
                middle = [sim.timeout(5.0), sim.timeout(5.0)]
            for index, timeout in enumerate(middle):
                timeout.callbacks.append(tag(f"mid{index}"))
            sim.timeout(5.0).callbacks.append(tag("post"))
            sim.run()
            return fired

        assert run_one(batch=True) == run_one(batch=False), policy

    def test_batch_sequence_numbers_are_consecutive(self):
        sim = Simulation(seed=1)
        before = sim.events_scheduled
        sim.schedule_many([1.0, 2.0, 3.0])
        assert sim.events_scheduled == before + 3


class TestTieDiagnostics:
    def test_dispatch_log_records_sites_in_order(self):
        sim = Simulation(seed=1, tie_break="lifo")
        log = sim.enable_tie_diagnostics()
        sim.call_at(5.0, lambda: None)
        first_line = _lineno(-1)
        sim.call_at(5.0, lambda: None)
        second_line = _lineno(-1)
        sim.run()
        assert len(log) == 2
        times = [entry[0] for entry in log]
        assert times == [5.0, 5.0]
        sites = [entry[1] for entry in log]
        # lifo: the later callsite dispatches first.
        assert [line for _path, line in sites] == [second_line, first_line]
        assert all(path.endswith("test_tie_break.py") for path, _line in sites)

    def test_diagnostics_survive_policy_fast_path(self):
        # fifo normally keeps the inlined fast path; diagnostics must
        # still capture sites when enabled on a fifo kernel.
        sim = Simulation(seed=1, tie_break="fifo")
        log = sim.enable_tie_diagnostics()
        sim.timeout(1.0)
        sim.run()
        assert len(log) == 1
        path, line = log[0][1]
        assert path.endswith("test_tie_break.py") and line > 0


def _lineno(offset=0):
    import inspect

    return inspect.currentframe().f_back.f_lineno + offset
