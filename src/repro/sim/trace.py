"""Structured tracing: the simulated analogue of the stations' logfiles.

The paper stresses that "all messages or errors are redirected to a standard
logfile which is sent back daily with the data", and that log volume itself
became an operational problem (a reconnected probe could emit >1 MB of log).
:class:`Trace` records structured events with their simulated timestamps.
Log *volume* is accounted separately, by :class:`LogMeter`: each station
registers one, :meth:`Trace.emit` feeds it every record the station's
components emit, and the daily logfile is sized from it in O(1).  The
meter runs whether or not the trace keeps records, so the model never
reads the observability stream.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.simtime import SimClock


def _rendered_size(time: float, source: str, kind: str, detail: Dict[str, Any]) -> int:
    """Byte size of one record rendered as a log line."""
    return len(f"{time:.1f} {source} {kind} {detail!r}\n".encode())


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Simulated time in seconds since the epoch.
    source:
        Component that emitted the record (e.g. ``"base.gumstix"``).
    kind:
        Machine-readable record type (e.g. ``"power_state"``).
    detail:
        Free-form payload fields.
    """

    time: float
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def byte_size(self) -> int:
        """Approximate size of this record rendered as a log line."""
        return _rendered_size(self.time, self.source, self.kind, self.detail)


class LogMeter:
    """Running byte count of one source's log lines, cut into windows.

    :meth:`Trace.emit` adds the rendered size of every record whose source
    is the meter's source or a dotted child of it (the :meth:`Trace.select`
    rule), so ``take(now)`` equals ``trace.byte_size(source=..., start=last,
    end=now)`` without walking any records.  Bytes stamped at the latest
    timestamp are kept apart from earlier ones: a record stamped ``now``
    is outside the ``[last, now)`` window even when it was emitted before
    the take, so it rolls into the next one.
    """

    __slots__ = ("source", "_settled", "_pending", "_latest")

    def __init__(self, source: str) -> None:
        self.source = source
        #: Bytes of records stamped before ``_latest``.
        self._settled = 0
        #: Bytes of records stamped exactly ``_latest``.
        self._pending = 0
        self._latest = float("-inf")

    def _add(self, time: float, nbytes: int) -> None:
        if time > self._latest:
            self._settled += self._pending
            self._pending = nbytes
            self._latest = time
        else:
            self._pending += nbytes

    def take(self, now: float) -> int:
        """Bytes stamped before ``now`` since the last take; starts a new window."""
        taken = self._settled
        self._settled = 0
        if now > self._latest:
            taken += self._pending
            self._pending = 0
        return taken


class Trace:
    """Append-only list of :class:`TraceRecord` with query helpers.

    ``enabled`` is the cached emit gate: hot callers may read it once and
    skip building keyword payloads entirely, and :meth:`emit` itself
    short-circuits before constructing a record.  Log meters
    (:meth:`log_meter`) are fed before the gate, so turning the trace off
    changes only what is recorded, never what the simulated stations do.
    The query helpers (:meth:`select`, :meth:`series`, :meth:`byte_size`)
    are for analysis; model code must not call them (the ``trace-read``
    lint rule).
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock
        self.records: List[TraceRecord] = []
        #: Cached emit gate — only what is recorded depends on it.
        self.enabled = True
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        #: Immutable snapshot iterated per emit; rebuilt on (un)subscribe so
        #: the hot path never copies the subscriber list.
        self._subscriber_snapshot: tuple = ()
        self._meters: Dict[str, List[LogMeter]] = {}
        #: Source string -> every meter it feeds; cleared on registration.
        self._meters_by_source: Dict[str, Tuple[LogMeter, ...]] = {}

    def log_meter(self, source: str) -> LogMeter:
        """A new :class:`LogMeter` fed by ``source`` and its dotted children.

        The meter counts records emitted from now on only.  Records the
        trace writes about itself (``trace.subscriber_error``) are never
        metered.
        """
        meter = LogMeter(source)
        self._meters.setdefault(source, []).append(meter)
        self._meters_by_source.clear()
        return meter

    def _resolve_meters(self, source: str) -> Tuple[LogMeter, ...]:
        found: List[LogMeter] = []
        name = source
        while True:
            found.extend(self._meters.get(name, ()))
            cut = name.rfind(".")
            if cut < 0:
                break
            name = name[:cut]
        meters = self._meters_by_source[source] = tuple(found)
        return meters

    def emit(self, source: str, kind: str, **detail: Any) -> Optional[TraceRecord]:
        """Append a record stamped with the current simulated time.

        The record's rendered size feeds the log meters of its source
        first, whether or not the trace is enabled.  Returns ``None``
        without recording anything when the trace is disabled.  A
        subscriber that raises does not corrupt the run: the exception is
        captured as a ``trace.subscriber_error`` record (the metrics layer
        subscribes here — a bad callback must not kill a mission).
        """
        clock = self.clock
        time = clock._now if clock is not None else 0.0
        meters = self._meters_by_source.get(source)
        if meters is None:
            meters = self._resolve_meters(source)
        if meters:
            nbytes = _rendered_size(time, source, kind, detail)
            for meter in meters:
                meter._add(time, nbytes)
        if not self.enabled:
            return None
        record = TraceRecord(time, source, kind, detail)
        self.records.append(record)
        for subscriber in self._subscriber_snapshot:
            try:
                subscriber(record)
            except Exception as exc:
                # Deterministic identification only: qualnames, not reprs
                # of closures (those embed host memory addresses).
                self.records.append(
                    TraceRecord(
                        time=time,
                        source="trace",
                        kind="subscriber_error",
                        detail={
                            "subscriber": getattr(subscriber, "__qualname__",
                                                  type(subscriber).__name__),
                            "error": f"{type(exc).__name__}: {exc}",
                            "record_source": source,
                            "record_kind": kind,
                        },
                    )
                )
        return record

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Call ``callback`` for every future record."""
        self._subscribers.append(callback)
        self._subscriber_snapshot = tuple(self._subscribers)

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Stop calling ``callback``; unknown callbacks are ignored."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass
        self._subscriber_snapshot = tuple(self._subscribers)

    def select(
        self,
        source: Optional[str] = None,
        kind: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records matching every given filter.

        ``source`` matches the exact component name or any dotted child
        (``"base"`` matches ``"base"`` and ``"base.gumstix"`` but never a
        sibling like ``"base2"``).
        """
        return list(self.iter_select(source=source, kind=kind, start=start, end=end))

    def iter_select(
        self,
        source: Optional[str] = None,
        kind: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Iterator[TraceRecord]:
        """Iterator variant of :meth:`select`.

        Records carry nondecreasing timestamps (the simulated clock never
        runs backwards), so a ``start`` bound is located by bisection and
        an ``end`` bound terminates the scan.  The scan still visits every
        record in the window, from every source: this is an analysis
        query, and per-source accounting that must stay cheap as a fleet
        grows belongs in a :class:`LogMeter`.
        """
        child_prefix = source + "." if source is not None else None
        records = self.records
        lo = 0
        if start is not None:
            lo = bisect_left(records, start, key=attrgetter("time"))
        for index in range(lo, len(records)):
            record = records[index]
            if end is not None and record.time >= end:
                break
            if source is not None and record.source != source and not (
                child_prefix is not None and record.source.startswith(child_prefix)
            ):
                continue
            if kind is not None and record.kind != kind:
                continue
            yield record

    def series(self, kind: str, key: str, source: Optional[str] = None) -> List[tuple]:
        """``(time, detail[key])`` pairs for every matching record."""
        return [
            (record.time, record.detail[key])
            for record in self.iter_select(source=source, kind=kind)
            if key in record.detail
        ]

    def byte_size(self, **filters: Any) -> int:
        """Total rendered byte size of records matching ``filters``."""
        return sum(record.byte_size() for record in self.iter_select(**filters))

    def __len__(self) -> int:
        return len(self.records)
