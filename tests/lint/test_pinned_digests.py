"""Pinned trace digests: a refactor that shifts simulated behaviour fails here.

``docs/determinism.md`` quotes both digests.  A change that moves either one
is a behaviour change and must re-pin them here and there together, with a
CHANGES.md note.  The chaos mission exercises every shipping path at once:
the adaptive power bus, exact-interval GPRS sends, exact probe bursts and
deferred probe sampling.
"""

import json
from pathlib import Path

from repro.lint.replay import run_mission

CHAOS_PLAN = (Path(__file__).resolve().parents[2]
              / "examples" / "faults" / "canonical_chaos.json")


def test_default_mission_digest():
    digest, _ = run_mission(0, 0.5)
    assert digest == (
        "024caf07a0855c84de64d034b162c242bb7dfa77183bdf75886fcb04f17d5dc9")


def test_canonical_chaos_mission_digest():
    plan = json.loads(CHAOS_PLAN.read_text())
    digest, _ = run_mission(42, 45.0, fault_plan=plan)
    assert digest == (
        "ac2c9fddbbf15d8ba6039a727acf2044b0036db393df481367699f37dd5c3fd1")
