"""Runtime determinism harness: the dynamic half of the lint gate.

The static rules catch the *causes* of nondeterminism; this module checks
the *effect*: two missions built from the same seed must produce
byte-identical traces.  It runs a short deployment twice, digests every
trace record, and reports the first divergence if the digests differ.

Run directly::

    python -m repro.lint.determinism --seed 0 --days 0.5

or via ``repro-lint --check-determinism``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.sim.trace import TraceRecord


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
    from repro.faults.harness import build_mission

    deployment, _ = build_mission(seed, {**(overrides or {}),
                                         "tie_break": tie_break},
                                  fault_plan=fault_plan)
    deployment.run_days(days)
    lines = [record_canonical(r) for r in deployment.sim.trace.records]
    return lines_digest(lines), lines


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a same-seed replay comparison."""

    seed: int
    days: float
    digest_a: str
    digest_b: str
    #: First (line number, run-A line, run-B line) divergence, if any.
    first_divergence: Optional[Tuple[int, str, str]]

    @property
    def identical(self) -> bool:
        return self.digest_a == self.digest_b

    def summary(self) -> str:
        """Human-readable verdict, including the first divergence on failure."""
        if self.identical:
            return (
                f"determinism OK: seed={self.seed} days={self.days:g} "
                f"digest={self.digest_a[:16]}…"
            )
        lines = [
            f"determinism FAILED: seed={self.seed} days={self.days:g}",
            f"  run A digest: {self.digest_a}",
            f"  run B digest: {self.digest_b}",
        ]
        if self.first_divergence is not None:
            index, a, b = self.first_divergence
            lines.append(f"  first divergence at trace record {index}:")
            lines.append(f"    A: {a}")
            lines.append(f"    B: {b}")
        return "\n".join(lines)


def check_determinism(seed: int = 0, days: float = 0.5,
                      fault_plan: Optional[dict] = None,
                      overrides: Optional[dict] = None) -> DeterminismReport:
    """Run the same mission twice and diff the trace digests."""
    digest_a, lines_a = run_mission(seed, days, fault_plan=fault_plan,
                                    overrides=overrides)
    digest_b, lines_b = run_mission(seed, days, fault_plan=fault_plan,
                                    overrides=overrides)
    divergence: Optional[Tuple[int, str, str]] = None
    if digest_a != digest_b:
        for index, (a, b) in enumerate(zip(lines_a, lines_b)):
            if a != b:
                divergence = (index, a, b)
                break
        else:
            index = min(len(lines_a), len(lines_b))
            next_a = lines_a[index] if index < len(lines_a) else "<end of trace>"
            next_b = lines_b[index] if index < len(lines_b) else "<end of trace>"
            divergence = (index, next_a, next_b)
    return DeterminismReport(
        seed=seed, days=days, digest_a=digest_a, digest_b=digest_b,
        first_divergence=divergence,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: exit 0 iff the replay is bit-identical."""
    from repro.faults.harness import (
        add_mission_args,
        load_fault_plan,
        mission_overrides,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.determinism",
        description="Replay a short mission twice and diff trace digests.",
    )
    parser.add_argument("--days", type=float, default=0.5,
                        help="mission length in simulated days")
    add_mission_args(parser)
    args = parser.parse_args(argv)
    report = check_determinism(seed=args.seed, days=args.days,
                               fault_plan=load_fault_plan(args.faults),
                               overrides=mission_overrides(args))
    # This module doubles as a CLI entry point; stdout is its interface.
    print(report.summary())  # repro-lint: disable=no-print
    return 0 if report.identical else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
