"""Data-provenance ledger: per-artifact lifecycle accounting.

The paper's operational story is *accountability under scarcity* — every
probe reading and dGPS observation file must eventually reach the
Southampton server despite watchdog-bounded comms windows and multi-day
backlog drains.  The ledger makes that accountable: every science
artifact gets a deterministic causal ID at creation, lifecycle edges are
derived purely from trace records, and mission close runs the
conservation check

    created == archived + in_flight + lost

with ``lost`` attributed to the injected fault that destroyed the data.

Artifact ID scheme (all components are simulated identifiers, never host
state, so IDs are byte-stable across replays and tie-break policies):

- ``reading:{probe_id}:{task_id}:{seq}`` — one probe sensor record, born
  when its task snapshot freezes a sequence number onto it;
- ``gps:{filename}`` — one dGPS observation file on a receiver card
  (e.g. ``gps:gps/base.gps/000001234.obs``);
- ``file:{station}:{name}`` — one staged outbox file on a station card
  (e.g. ``file:base:outbox/logs/000001``).

A staged file may *contain* readings or a gps artifact (its children);
archiving the file archives its children, losing it loses them — unless
a child already reached the server through another copy.

Stage model (ranks; edges never move an artifact backwards):

    created(0) -> stored(1) -> queued(2) -> transferred(3) -> archived(4)
                                                   `-> lost (terminal)

``transferred`` may repeat (a server-side ingest failure makes the comms
layer re-send the file) — that is idempotent, not an anomaly.  A second
``archived`` for the same artifact, or any edge after ``lost``, is an
anomaly: it means the simulation double-ingested or resurrected data,
and the conservation report flags it.

The ledger is a pure trace subscriber: it never emits records and never
touches the RNG, so attaching it cannot perturb the mission.  Station log
volume is not read from the trace at all: each station's
:class:`~repro.sim.trace.LogMeter` is fed by ``Trace.emit`` before its
``enabled`` gate, and the provenance records use the dedicated ``"prov"``
source, which feeds no station's meter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Trace sources the ledger consumes.
PROV_SOURCE = "prov"
FAULT_SOURCE = "faults"
BULK_SOURCE = "protocol.bulk"
STOPWAIT_SOURCE = "protocol.stopwait"

#: Stage ranks; ``lost`` is terminal and handled out-of-band.
STAGES: Tuple[str, ...] = ("created", "stored", "queued", "transferred", "archived")
_RANK: Dict[str, int] = {stage: rank for rank, stage in enumerate(STAGES)}

#: Sim-time latency buckets: 1 min, 10 min, 1 h, 6 h, 1 d, 2 d, 7 d, 30 d.
LATENCY_BUCKETS: Tuple[float, ...] = (
    60.0, 600.0, 3600.0, 21600.0, 86400.0, 172800.0, 604800.0, 2592000.0,
)


class _Artifact:
    """Mutable per-artifact ledger row (internal)."""

    __slots__ = ("artifact_id", "cls", "stage", "stage_time", "created_time",
                 "lost_cause", "archived", "container")

    def __init__(self, artifact_id: str, cls: str, now: float) -> None:
        self.artifact_id = artifact_id
        self.cls = cls
        self.stage = "created"
        self.stage_time = now
        self.created_time = now
        self.lost_cause: Optional[str] = None
        self.archived = False
        #: The ``file:`` artifact currently carrying this one, if any.
        self.container: Optional[str] = None


class ConservationReport:
    """Mission-close accounting: created == archived + in_flight + lost."""

    def __init__(self, created: int, archived: int, in_flight: int, lost: int,
                 lost_by_cause: Dict[str, int],
                 by_class: Dict[str, Dict[str, int]],
                 anomalies: List[str]) -> None:
        self.created = created
        self.archived = archived
        self.in_flight = in_flight
        self.lost = lost
        self.lost_by_cause = lost_by_cause
        self.by_class = by_class
        self.anomalies = anomalies

    @property
    def conserved(self) -> bool:
        """Does the conservation identity hold?"""
        return self.created == self.archived + self.in_flight + self.lost

    @property
    def ok(self) -> bool:
        """Conservation holds and no anomalous edges were seen."""
        return self.conserved and not self.anomalies

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (canonical key order left to the serialiser)."""
        return {
            "created": self.created,
            "archived": self.archived,
            "in_flight": self.in_flight,
            "lost": self.lost,
            "lost_by_cause": dict(sorted(self.lost_by_cause.items())),
            "by_class": {cls: dict(sorted(stages.items()))
                         for cls, stages in sorted(self.by_class.items())},
            "anomalies": list(self.anomalies),
            "conserved": self.conserved,
            "ok": self.ok,
        }

    def format(self) -> str:
        """Human-readable block for mission reports and the CLI."""
        verdict = "OK" if self.ok else "VIOLATED"
        lines = [
            f"conservation: {verdict} "
            f"(created={self.created} = archived={self.archived} "
            f"+ in_flight={self.in_flight} + lost={self.lost})",
        ]
        for cls, stages in sorted(self.by_class.items()):
            detail = ", ".join(f"{stage}={count}"
                               for stage, count in sorted(stages.items()))
            lines.append(f"  {cls}: {detail}")
        for cause, count in sorted(self.lost_by_cause.items()):
            lines.append(f"  lost[{cause}]: {count}")
        for anomaly in self.anomalies:
            lines.append(f"  anomaly: {anomaly}")
        return "\n".join(lines)


class ProvenanceLedger:
    """Trace-fed artifact lifecycle tracker with a conservation close-out.

    Attach with :meth:`attach` (done by :class:`~repro.obs.observability.
    Observability` when provenance is enabled); call :meth:`finish` at
    mission close for the :class:`ConservationReport`.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._artifacts: Dict[str, _Artifact] = {}
        #: ``file:`` artifact id -> child artifact ids it carries.
        self._children: Dict[str, List[str]] = {}
        self._anomalies: List[str] = []
        self._trace = None
        self._report: Optional[ConservationReport] = None
        # Cached metric handles: every reading pays an edge counter and a
        # latency histogram per stage, so re-resolving name+labels through
        # the registry each time dominates the ledger's cost (the <10%
        # overhead budget is the constraint here, not clarity).
        self._edge_counters: Dict[Tuple[str, str], object] = {}
        self._latency_hists: Dict[Tuple[str, str], object] = {}
        self._anomaly_counter = self.metrics.counter("provenance_anomalies_total")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, trace) -> None:
        """Subscribe to a :class:`~repro.sim.trace.Trace`."""
        self._trace = trace
        trace.subscribe(self.observe)

    def detach(self) -> None:
        """Unsubscribe (used by the provenance-off benchmark arm)."""
        if self._trace is not None:
            self._trace.unsubscribe(self.observe)
            self._trace = None

    # ------------------------------------------------------------------
    # Record dispatch
    # ------------------------------------------------------------------
    def observe(self, record) -> None:
        """Consume one trace record (the subscriber entry point)."""
        source = record.source
        if source == PROV_SOURCE:
            self._on_prov(record)
        elif source == FAULT_SOURCE:
            self._on_fault(record)
        elif source == BULK_SOURCE or source == STOPWAIT_SOURCE:
            self._on_fetch(record)

    def _on_prov(self, record) -> None:
        kind = record.kind
        detail = record.detail
        now = record.time
        if kind == "created":
            cls = detail.get("cls", "")
            if cls == "reading":
                probe = detail["probe"]
                task = detail["task"]
                for seq in range(detail["first_seq"],
                                 detail["first_seq"] + detail["count"]):
                    self._create(f"reading:{probe}:{task}:{seq}", "reading", now)
            elif cls == "gps":
                self._create(detail["artifact"], "gps", now)
        elif kind == "stored":
            self._advance(detail["artifact"], "stored", now)
        elif kind == "queued":
            self._on_queued(record)
        elif kind == "transferred":
            file_id = f"file:{detail['station']}:{detail['file']}"
            self._advance(file_id, "transferred", now, cascade=True)
        elif kind == "archived":
            file_id = f"file:{detail['station']}:{detail['file']}"
            self._advance(file_id, "archived", now, cascade=True)

    def _on_queued(self, record) -> None:
        detail = record.detail
        now = record.time
        file_id = f"file:{detail['station']}:{detail['file']}"
        self._create(file_id, "file", now)
        self._advance(file_id, "queued", now)
        children = self._children.setdefault(file_id, [])
        artifact = detail.get("artifact")
        if artifact is not None:
            children.append(artifact)
        probe = detail.get("probe")
        if probe is not None:
            task = detail["task"]
            children.extend(f"reading:{probe}:{task}:{seq}"
                            for seq in detail.get("seqs", ()))
        for child_id in children:
            child = self._artifacts.get(child_id)
            if child is not None:
                child.container = file_id
            self._advance(child_id, "queued", now)

    def _on_fetch(self, record) -> None:
        """Protocol fetch completion: delivered readings reach ``stored``."""
        if record.kind != "fetch_done":
            return
        detail = record.detail
        probe = detail.get("probe")
        task = detail.get("task")
        if probe is None or task is None:
            return
        now = record.time
        seqs = detail.get("new_seqs", detail.get("delivered_seqs", ()))
        for seq in seqs:
            self._advance(f"reading:{probe}:{task}:{seq}", "stored", now)
        rerequested = detail.get("rerequested", 0)
        if rerequested:
            self.metrics.inc("provenance_edges_total", amount=rerequested,
                             stage="rerequested", cls="reading")

    def _on_fault(self, record) -> None:
        if record.kind != "fault_injected":
            return
        detail = record.detail
        files = detail.get("files")
        if not files:
            return
        station = detail.get("station", "")
        cause = detail.get("fault", "fault")
        now = record.time
        for name in files:
            file_id = f"file:{station}:{name}"
            if file_id in self._artifacts:
                self._lose(file_id, cause, now)

    # ------------------------------------------------------------------
    # Ledger mutations
    # ------------------------------------------------------------------
    def _create(self, artifact_id: str, cls: str, now: float) -> None:
        if artifact_id in self._artifacts:
            if cls != "file":
                self._anomaly(f"duplicate create for {artifact_id}")
            return
        self._artifacts[artifact_id] = _Artifact(artifact_id, cls, now)
        self._edge("created", cls)

    def _advance(self, artifact_id: str, stage: str, now: float,
                 cascade: bool = False) -> None:
        artifact = self._artifacts.get(artifact_id)
        if artifact is None:
            # A trace record referenced data the ledger never saw created
            # (possible in unit rigs exercising one subsystem in isolation).
            self._anomaly(f"{stage} edge for unknown artifact {artifact_id}")
            return
        if artifact.lost_cause is not None:
            self._anomaly(f"{stage} edge for lost artifact {artifact_id}")
            return
        rank = _RANK[stage]
        prior = _RANK[artifact.stage]
        if stage == "archived":
            if artifact.archived:
                self._anomaly(f"duplicate archive of {artifact_id}")
                return
            artifact.archived = True
        elif rank < prior or (rank == prior and stage != "transferred"):
            # Re-transfer after a failed ingest is idempotent; everything
            # else repeating or regressing means the edge feed is broken.
            if rank < prior:
                if stage == "transferred" and artifact.archived:
                    # The station's post-upload delete failed, so it sent a
                    # file the server already archived: data is safe, the
                    # airtime was wasted.  Counted, not an anomaly.
                    self.metrics.inc("provenance_edges_total",
                                     stage="retransferred", cls=artifact.cls)
                    return
                self._anomaly(
                    f"backwards edge {artifact.stage}->{stage} for {artifact_id}")
            return
        self._latency(artifact, stage, now)
        artifact.stage = stage
        artifact.stage_time = now
        self._edge(stage, artifact.cls)
        if cascade:
            for child_id in self._children.get(artifact_id, ()):
                child = self._artifacts.get(child_id)
                # Cascade only to children still riding *this* copy — a
                # reading re-fetched into a newer file belongs to that one.
                if child is not None and child.container == artifact_id:
                    self._advance(child_id, stage, now)

    def _lose(self, artifact_id: str, cause: str, now: float) -> None:
        artifact = self._artifacts.get(artifact_id)
        if artifact is None or artifact.lost_cause is not None:
            return
        if artifact.archived:
            # The server already has it; destroying the local copy is not
            # data loss.
            return
        artifact.lost_cause = cause
        self._edge("lost", artifact.cls)
        self.metrics.inc("provenance_lost_total", cls=artifact.cls, cause=cause)
        for child_id in self._children.get(artifact_id, ()):
            child = self._artifacts.get(child_id)
            if child is not None and child.container == artifact_id:
                self._lose(child_id, cause, now)

    def _edge(self, stage: str, cls: str) -> None:
        counter = self._edge_counters.get((stage, cls))
        if counter is None:
            counter = self.metrics.counter("provenance_edges_total",
                                           stage=stage, cls=cls)
            self._edge_counters[(stage, cls)] = counter
        counter.inc()

    def _latency(self, artifact: _Artifact, stage: str, now: float) -> None:
        hist = self._latency_hists.get((stage, artifact.cls))
        if hist is None:
            hist = self.metrics.histogram("provenance_stage_latency_seconds",
                                          buckets=LATENCY_BUCKETS,
                                          stage=stage, cls=artifact.cls)
            self._latency_hists[(stage, artifact.cls)] = hist
        hist.observe(now - artifact.stage_time)

    def _anomaly(self, message: str) -> None:
        self._anomalies.append(message)
        self._anomaly_counter.inc()

    # ------------------------------------------------------------------
    # Close-out
    # ------------------------------------------------------------------
    def finish(self, now: float) -> ConservationReport:
        """Run the conservation check and pin the result into the metrics.

        Idempotent: the first call computes and caches the report; later
        calls return the same object, so report sections and CLI exports
        can both close the ledger without double-counting.
        """
        if self._report is not None:
            return self._report
        created = len(self._artifacts)
        archived = in_flight = lost = 0
        lost_by_cause: Dict[str, int] = {}
        by_class: Dict[str, Dict[str, int]] = {}
        for artifact in self._artifacts.values():
            stages = by_class.setdefault(artifact.cls, {})
            if artifact.lost_cause is not None:
                lost += 1
                lost_by_cause[artifact.lost_cause] = (
                    lost_by_cause.get(artifact.lost_cause, 0) + 1)
                stages["lost"] = stages.get("lost", 0) + 1
            elif artifact.archived:
                archived += 1
                stages["archived"] = stages.get("archived", 0) + 1
            else:
                in_flight += 1
                stages[artifact.stage] = stages.get(artifact.stage, 0) + 1
        report = ConservationReport(
            created, archived, in_flight, lost, lost_by_cause, by_class,
            list(self._anomalies))
        self.metrics.set_gauge("provenance_created", float(created))
        self.metrics.set_gauge("provenance_archived", float(archived))
        self.metrics.set_gauge("provenance_in_flight", float(in_flight))
        self.metrics.set_gauge("provenance_lost", float(lost))
        self.metrics.set_gauge("provenance_conserved",
                               1.0 if report.conserved else 0.0)
        for cls, stages in sorted(by_class.items()):
            for stage, count in sorted(stages.items()):
                self.metrics.set_gauge("provenance_artifacts", float(count),
                                       cls=cls, stage=stage)
        self._report = report
        return report
