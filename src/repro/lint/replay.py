"""Mission replay: the runtime half of the determinism gate.

The static rules catch the *causes* of nondeterminism; this module checks
the *effect*.  It replays one mission once per tie-break policy, renders
every trace record canonically (:func:`record_canonical`), digests the
lines and compares each run against the first (baseline) policy:

- **Same policy as the baseline** (``fifo,fifo``): a same-seed replay.
  The raw digests must be byte-identical; a divergence is reported at
  the first differing record and needs no tie diagnostics, since no
  callsite flip can explain it.
- **Any other policy**: a perturbed-tie replay.  Same-timestamp events
  have no defined order — the kernel's seq counter is an implementation
  detail — so within one instant the *set* of trace records is the
  contract but their relative order is presentation.  Traces are
  compared after :func:`normalize_tie_order` (sort the canonical lines
  within each equal-timestamp group, then digest).  On divergence the
  harness bisects to the first diverging normalized record, re-runs the
  two policies with kernel tie diagnostics switched on
  (:meth:`repro.sim.kernel.Simulation.enable_tie_diagnostics`), and
  diffs the dispatch order at the diverging instant to name the pair of
  schedule callsites whose relative order flipped — reported as
  structured :class:`~repro.lint.findings.Finding` objects under the
  ``tie-order-divergence`` rule id.

Run it as ``repro-sim races``, which also runs the static race rules
(``--paths`` with no values gives the replay alone)::

    repro-sim races --seed 0 --days 0.5 --policies fifo,fifo --paths
    repro-sim races --seed 0 --days 10 --paths
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding, Severity
from repro.sim.trace import TraceRecord

#: Rule id carried by tie-order divergence findings.
DIVERGENCE_RULE = "tie-order-divergence"

#: Default policy set: the kernel default plus one deterministic shuffle.
DEFAULT_POLICIES = ("fifo", "shuffle:1")

_END_OF_TRACE = "<end of trace>"


def record_canonical(record: TraceRecord) -> str:
    """A stable one-line rendering of a trace record for digesting.

    Detail dicts are rendered with sorted keys so digest equality never
    depends on insertion order.
    """
    detail = ",".join(f"{k}={record.detail[k]!r}" for k in sorted(record.detail))
    return f"{record.time:.9f}|{record.source}|{record.kind}|{detail}"


def lines_digest(lines: Iterable[str]) -> str:
    """SHA-256 over pre-rendered canonical lines, in order."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 over the canonical rendering of every record, in order."""
    return lines_digest(record_canonical(record) for record in records)


def normalize_tie_order(lines: Sequence[str]) -> List[str]:
    """Canonical trace lines with same-timestamp groups internally sorted.

    The time prefix (everything before the first ``|``) is rendered with
    fixed precision by :func:`record_canonical`, so string equality of the
    prefix is instant equality.  Cross-instant order is preserved — only
    within-instant order, which legitimately varies with the tie-break
    policy, is normalised away.
    """
    normalized: List[str] = []
    group: List[str] = []
    open_key: Optional[str] = None
    for line in lines:
        time_key = line.split("|", 1)[0]
        if time_key != open_key:
            normalized.extend(sorted(group))
            group = []
            open_key = time_key
        group.append(line)
    normalized.extend(sorted(group))
    return normalized


#: Builds a runnable mission for one tie-break policy.  Must return an
#: object with ``.sim`` (the :class:`~repro.sim.kernel.Simulation`) and
#: ``.run_days(days)`` — :class:`~repro.core.deployment.Deployment`
#: satisfies this, and tests substitute toy missions.
MissionFactory = Callable[[str], Any]


def _build_mission(seed: int, fault_plan: Optional[dict],
                   overrides: Optional[dict], tie_break: str):
    """The default mission: :func:`repro.faults.build_mission` with a policy."""
    from repro.faults.harness import build_mission

    deployment, _ = build_mission(seed, {**(overrides or {}),
                                         "tie_break": tie_break},
                                  fault_plan=fault_plan)
    return deployment


def _trace_lines(mission: Any, days: float) -> List[str]:
    """Run ``mission`` for ``days`` and render its trace canonically."""
    mission.run_days(days)
    return [record_canonical(record) for record in mission.sim.trace.records]


def run_mission(seed: int, days: float,
                fault_plan: Optional[dict] = None,
                tie_break: str = "fifo",
                overrides: Optional[dict] = None) -> Tuple[str, List[str]]:
    """Run one short deployment; return (trace digest, canonical lines).

    ``fault_plan`` (a :class:`repro.faults.FaultPlan` dict form) is armed
    before the run, so the replay comparison covers fault scheduling,
    injection edges and every recovery path the plan provokes.
    ``tie_break`` selects the kernel's same-timestamp ordering policy;
    ``overrides`` are :func:`repro.faults.harness.build_mission`
    overrides (fleet shape, station settings).
    """
    lines = _trace_lines(
        _build_mission(seed, fault_plan, overrides, tie_break), days)
    return lines_digest(lines), lines


@dataclass(frozen=True)
class PolicyRun:
    """One mission replay under one tie-break policy."""

    policy: str
    digest: str
    normalized_digest: str
    records: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "digest": self.digest,
            "normalized_digest": self.normalized_digest,
            "records": self.records,
        }


@dataclass(frozen=True)
class ReplayDivergence:
    """First trace divergence between the baseline and one replayed run."""

    policy: str
    #: Index into the raw line sequence when ``exact``, else into the
    #: tie-normalized one.
    index: int
    #: Simulated time of the diverging record (seconds).
    time: float
    baseline_line: str
    replay_line: str
    #: True for a same-policy replay, compared byte for byte.
    exact: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "index": self.index,
            "time": self.time,
            "baseline_line": self.baseline_line,
            "replay_line": self.replay_line,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of a replay comparison against the baseline policy."""

    seed: int
    days: float
    policies: Tuple[str, ...]
    runs: Tuple[PolicyRun, ...]
    divergences: Tuple[ReplayDivergence, ...]
    findings: Tuple[Finding, ...] = field(default=())

    @property
    def robust(self) -> bool:
        """True when every run reproduced the baseline (see :func:`check_replay`)."""
        return not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the ``replay`` section of ``races --format json``)."""
        return {
            "seed": self.seed,
            "days": self.days,
            "policies": list(self.policies),
            "robust": self.robust,
            "runs": [run.to_dict() for run in self.runs],
            "divergences": [div.to_dict() for div in self.divergences],
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def format(self) -> str:
        """Human-readable verdict, including the first divergence on failure."""
        lines = [
            f"tie replay: seed={self.seed} days={self.days:g} "
            f"policies={','.join(self.policies)}"
        ]
        for run in self.runs:
            lines.append(
                f"  {run.policy}: {run.records} records, "
                f"digest {run.digest[:16]}…, "
                f"normalized digest {run.normalized_digest[:16]}…"
            )
        if self.robust:
            lines.append("tie replay OK: all policies agree")
            return "\n".join(lines)
        lines.append("tie replay FAILED: trace differs from the baseline")
        for div in self.divergences:
            if div.exact:
                lines.append(
                    f"  {div.policy}: same-seed replay, first divergence at "
                    f"record {div.index} (t={div.time:.9f})"
                )
            else:
                lines.append(
                    f"  {div.policy}: tie order, first divergence at "
                    f"normalized record {div.index} (t={div.time:.9f})"
                )
            lines.append(f"    baseline: {div.baseline_line}")
            lines.append(f"    replay:   {div.replay_line}")
        for finding in self.findings:
            lines.append("  " + finding.render())
        return "\n".join(lines)


def _run_policy(factory: MissionFactory, policy: str,
                days: float) -> Tuple[PolicyRun, List[str]]:
    lines = _trace_lines(factory(policy), days)
    return PolicyRun(
        policy=policy,
        digest=lines_digest(lines),
        normalized_digest=lines_digest(normalize_tie_order(lines)),
        records=len(lines),
    ), lines


def _first_divergence(policy: str, base_lines: List[str],
                      other_lines: List[str], exact: bool) -> ReplayDivergence:
    """The first differing line: raw when ``exact``, else tie-normalized."""
    if not exact:
        base_lines = normalize_tie_order(base_lines)
        other_lines = normalize_tie_order(other_lines)
    index = next((i for i, (a, b) in enumerate(zip(base_lines, other_lines))
                  if a != b), min(len(base_lines), len(other_lines)))
    base = base_lines[index] if index < len(base_lines) else _END_OF_TRACE
    other = other_lines[index] if index < len(other_lines) else _END_OF_TRACE
    timed = base_lines[index] if index < len(base_lines) else other
    return ReplayDivergence(
        policy=policy, index=index, time=float(timed.split("|", 1)[0]),
        baseline_line=base, replay_line=other, exact=exact,
    )


def _dispatch_sites_at(factory: MissionFactory, policy: str, days: float,
                       time_key: str) -> List[Tuple[str, int]]:
    """Dispatch-ordered schedule callsites at the instant rendered ``time_key``.

    Re-runs the mission with kernel tie diagnostics enabled and keeps the
    enqueue callsite of every event dispatched at that instant, in
    dispatch order.  The instant is matched on the canonical ``%.9f``
    rendering, the same key the normalized trace groups by.
    """
    mission = factory(policy)
    log = mission.sim.enable_tie_diagnostics()
    mission.run_days(days)
    # String equality of the fixed-precision renderings is deliberate:
    # the ``%.9f`` key *is* the grouping key the normalized trace uses,
    # so matching on it reproduces the exact group membership.
    return [site for when, site, _type, _name in log
            if f"{when:.9f}" == time_key]  # repro-lint: disable=float-equality


def _order_flips(base_sites: List[Tuple[str, int]],
                 other_sites: List[Tuple[str, int]]) -> List[
                     Tuple[Tuple[str, int], Tuple[str, int]]]:
    """Callsite pairs whose relative dispatch order differs between runs.

    Compares first occurrences of each distinct site, so a site firing
    repeatedly within the instant (a self-rescheduling process) counts
    once.  Pairs come out ordered by baseline dispatch position — the
    first flip is the natural suspect.
    """
    base_rank: Dict[Tuple[str, int], int] = {}
    for position, site in enumerate(base_sites):
        base_rank.setdefault(site, position)
    other_rank: Dict[Tuple[str, int], int] = {}
    for position, site in enumerate(other_sites):
        other_rank.setdefault(site, position)
    common = [site for site in base_rank if site in other_rank]
    common.sort(key=base_rank.__getitem__)
    flips = []
    for i, early in enumerate(common):
        for late in common[i + 1:]:
            if other_rank[early] > other_rank[late]:
                flips.append((early, late))
    return flips


def _divergence_findings(divergence: ReplayDivergence,
                         factory: MissionFactory,
                         days: float,
                         baseline: str) -> List[Finding]:
    """Findings naming the callsite pair(s) behind one divergence.

    Two diagnostic re-runs (baseline and perturbed policy) reconstruct the
    dispatch order at the diverging instant; every order flip among the
    callsites active there becomes a pair of findings, one per callsite,
    each pointing at its partner.
    """
    time_key = f"{divergence.time:.9f}"
    base_sites = _dispatch_sites_at(factory, baseline, days, time_key)
    other_sites = _dispatch_sites_at(factory, divergence.policy, days, time_key)
    flips = _order_flips(base_sites, other_sites)
    findings: List[Finding] = []
    context = (
        f"trace diverges at t={time_key} "
        f"({baseline} vs {divergence.policy}): "
        f"{divergence.baseline_line!r} != {divergence.replay_line!r}"
    )
    if not flips:
        # Different event *sets* at the instant (an earlier flip cascaded)
        # or no common sites: report the instant itself at the first
        # baseline site so the finding still lands somewhere actionable.
        path, line = base_sites[0] if base_sites else ("<unknown>", 0)
        findings.append(Finding(
            rule=DIVERGENCE_RULE, path=path, line=line, col=0,
            severity=Severity.ERROR,
            message=f"{context}; dispatched event sets differ at this instant",
        ))
        return findings
    for early, late in flips:
        findings.append(Finding(
            rule=DIVERGENCE_RULE, path=early[0], line=early[1], col=0,
            severity=Severity.ERROR,
            message=(
                f"{context}; this schedule callsite races "
                f"{late[0]}:{late[1]} — their same-timestamp dispatch "
                f"order flipped between policies"
            ),
        ))
        findings.append(Finding(
            rule=DIVERGENCE_RULE, path=late[0], line=late[1], col=0,
            severity=Severity.ERROR,
            message=(
                f"{context}; this schedule callsite races "
                f"{early[0]}:{early[1]} — their same-timestamp dispatch "
                f"order flipped between policies"
            ),
        ))
    return findings


def check_replay(
    seed: int = 0,
    days: float = 45.0,
    policies: Sequence[str] = DEFAULT_POLICIES,
    fault_plan: Optional[dict] = None,
    mission_factory: Optional[MissionFactory] = None,
    overrides: Optional[dict] = None,
) -> ReplayReport:
    """Replay one mission under each policy and compare it with the first.

    ``policies[0]`` is the baseline.  A policy equal to the baseline is a
    same-seed replay: its raw digest must match, and a divergence is
    located on the raw lines with no diagnostic re-runs.  Any other policy
    is compared on normalized digests; a divergence there carries the
    bisected first diverging record and ``tie-order-divergence`` findings
    at the offending schedule callsites (diagnosed from two further runs
    with kernel tie diagnostics enabled).
    """
    if len(policies) < 2:
        raise ValueError("need at least two policies (baseline + replay)")
    if mission_factory is None:
        mission_factory = functools.partial(_build_mission, seed, fault_plan,
                                            overrides)
    baseline_policy = policies[0]
    baseline_run, baseline_lines = _run_policy(mission_factory, baseline_policy, days)
    runs: List[PolicyRun] = [baseline_run]
    divergences: List[ReplayDivergence] = []
    findings: List[Finding] = []
    for policy in policies[1:]:
        run, lines = _run_policy(mission_factory, policy, days)
        runs.append(run)
        exact = policy == baseline_policy
        if exact:
            agrees = run.digest == baseline_run.digest
        else:
            agrees = run.normalized_digest == baseline_run.normalized_digest
        if agrees:
            continue
        divergence = _first_divergence(policy, baseline_lines, lines, exact)
        divergences.append(divergence)
        if not exact:
            findings.extend(_divergence_findings(
                divergence, mission_factory, days, baseline_policy))
    findings.sort(key=Finding.sort_key)
    return ReplayReport(
        seed=seed, days=days, policies=tuple(policies),
        runs=tuple(runs), divergences=tuple(divergences),
        findings=tuple(findings),
    )
