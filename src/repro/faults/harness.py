"""The fault engine and the one mission front end.

``build_mission(seed, overrides, fault_plan=...)`` is the one builder
every entry point uses (the CLI run commands, ``repro-sim races``, fleet
sweep jobs, the determinism replay harness): it splits a flat override
dict into base-station and deployment settings, constructs the
``Deployment`` and arms the fault plan.  :func:`add_mission_args`,
:func:`mission_overrides` and :func:`load_fault_plan` turn the shared
command-line flags into its arguments, so every front end speaks one
flag vocabulary.

``apply_fault_plan(deployment, plan)`` arms a plan: it resolves the
plan's schedule (seeded stochastic windows included), groups window
faults per target, installs the injectors from
:mod:`repro.faults.injectors`, and optionally attaches an
:class:`~repro.faults.invariants.InvariantChecker`.

Layering note: ``repro.faults`` sits *above* ``repro.core`` — the engine
imports the deployment, never the reverse.  Plans reach a deployment
only as an argument here; ``DeploymentConfig`` carries no plan.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.config import DeploymentConfig, StationConfig
from repro.core.deployment import Deployment
from repro.core.targets import POLICIES

from repro.faults.injectors import (
    GprsOutageInjector,
    ProbeLossInjector,
    ServerOutageInjector,
    inject_battery_drain,
    inject_rtc_fault,
    inject_storage_corruption,
)
from repro.faults.invariants import InvariantChecker, InvariantReport
from repro.faults.plan import FaultPlan, ResolvedFault


class FaultEngine:
    """A plan armed against one deployment.

    Holds the installed injectors (keeping their wrapped originals alive)
    and the optional invariant checker; :meth:`finish` returns the
    checker's report after the run.
    """

    def __init__(self, deployment: Deployment, plan: FaultPlan,
                 check_invariants: bool = True) -> None:
        self.deployment = deployment
        self.plan = plan
        self.resolved: List[ResolvedFault] = plan.resolve(deployment.sim.rng)
        self.injectors: List[object] = []
        self.checker: Optional[InvariantChecker] = (
            InvariantChecker(deployment.sim) if check_invariants else None
        )
        self._arm()

    # ------------------------------------------------------------------
    def _station(self, name: str):
        for station in self.deployment.stations:
            if station.name == name:
                return station
        raise ValueError(
            f"fault plan {self.plan.name!r} targets unknown station {name!r}"
        )

    def _arm(self) -> None:
        sim = self.deployment.sim

        gprs_windows: Dict[str, List[Tuple[float, float]]] = {}
        probe_windows: Dict[str, List[Tuple[float, float, float]]] = {}
        #: shard index (None = whole server side) -> windows
        server_windows: Dict[Optional[int], List[Tuple[float, float]]] = {}

        for fault in self.resolved:
            if fault.kind == "gprs-outage":
                self._station(fault.station)  # validate early
                gprs_windows.setdefault(fault.station, []).append(
                    (fault.start_s, fault.end_s))
            elif fault.kind == "probe-loss-spike":
                station = self._station(fault.station)
                if not getattr(station, "probe_links", None):
                    raise ValueError(
                        f"probe-loss-spike targets {fault.station!r},"
                        f" which has no probe links")
                probe_windows.setdefault(fault.station, []).append(
                    (fault.start_s, fault.end_s, fault.spec.loss))
            elif fault.kind == "server-outage":
                shard = fault.spec.server
                if shard is not None:
                    fleet = getattr(self.deployment, "fleet", None)
                    if fleet is None or shard >= len(fleet.shards):
                        raise ValueError(
                            f"fault plan {self.plan.name!r} targets server"
                            f" shard {shard}, but the deployment has"
                            f" {len(fleet.shards) if fleet else 1} server(s)")
                server_windows.setdefault(shard, []).append(
                    (fault.start_s, fault.end_s))
            elif fault.kind == "rtc-reset":
                station = self._station(fault.station)
                inject_rtc_fault(sim, fault.station, station.msp.rtc,
                                 fault.start_s, skew_s=fault.spec.skew_s)
            elif fault.kind == "battery-drain":
                station = self._station(fault.station)
                inject_battery_drain(sim, fault.station, station.bus,
                                     fault.start_s, fault.spec.energy_j)
            elif fault.kind == "storage-corruption":
                station = self._station(fault.station)
                inject_storage_corruption(
                    sim, fault.station, station.card, fault.start_s,
                    files=fault.spec.files,
                    recover_after_s=fault.spec.recover_after_s)

        for name, windows in sorted(gprs_windows.items()):
            station = self._station(name)
            self.injectors.append(
                GprsOutageInjector(sim, name, station.modem, windows))
        for name, windows in sorted(probe_windows.items()):
            station = self._station(name)
            self.injectors.append(
                ProbeLossInjector(sim, name, station.probe_links.values(),
                                  windows))
        fleet = getattr(self.deployment, "fleet", None)
        for shard, windows in sorted(
            server_windows.items(), key=lambda item: (item[0] is not None, item[0] or 0)
        ):
            if shard is not None:
                # Per-shard outage: wrap that shard only, labelled by name.
                target = fleet.shards[shard]
                self.injectors.append(
                    ServerOutageInjector(sim, target, windows,
                                         station=target.name))
            elif fleet is not None:
                # Whole-server-side outage against a fleet: every shard
                # goes dark on the shared windows, announced once.
                self.injectors.append(
                    ServerOutageInjector(sim, fleet.shards, windows))
            else:
                self.injectors.append(
                    ServerOutageInjector(sim, self.deployment.server, windows))

    # ------------------------------------------------------------------
    def finish(self) -> Optional[InvariantReport]:
        """Detach and report the invariant checker (None if disabled)."""
        if self.checker is None:
            return None
        return self.checker.finish()


def apply_fault_plan(
    deployment: Deployment,
    plan: Union[FaultPlan, dict, None] = None,
    check_invariants: bool = True,
) -> Optional[FaultEngine]:
    """Arm a fault plan against a deployment; the standard entry point.

    ``plan`` may be a :class:`FaultPlan` or its dict form; with ``None``
    nothing is armed and ``None`` is returned.  Call this *before*
    ``run_days`` so scheduled faults land inside the run.
    """
    if plan is None:
        return None
    if isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    return FaultEngine(deployment, plan, check_invariants=check_invariants)


# ----------------------------------------------------------------------
# The mission front end
# ----------------------------------------------------------------------
#: Override keys that configure the base station; the extra stations
#: derive from it.
STATION_FIELDS = frozenset(f.name for f in dataclasses.fields(StationConfig))

#: Override keys that configure the deployment: its plain fields (fleet
#: shape, policies, tenancy, tie-break...).  The structured fields
#: (station configs, weather, glacier) and the seed have their own
#: channels.
DEPLOYMENT_FIELDS = frozenset(
    f.name for f in dataclasses.fields(DeploymentConfig)
) - {"seed", "base", "reference", "weather", "glacier"}


def build_mission(
    seed: int,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    fault_plan: Union[FaultPlan, dict, None] = None,
    check_invariants: bool = False,
) -> Tuple[Deployment, Optional[FaultEngine]]:
    """A ready-to-run mission and its armed fault engine (None without a plan).

    ``overrides`` is one flat dict: :data:`STATION_FIELDS` keys apply to
    the base station, :data:`DEPLOYMENT_FIELDS` keys to the deployment
    config; any other key raises ``ValueError`` naming it.
    """
    station: Dict[str, Any] = {}
    config: Dict[str, Any] = {}
    for name, value in (overrides or {}).items():
        if name in STATION_FIELDS:
            station[name] = value
        elif name in DEPLOYMENT_FIELDS:
            config[name] = value
        else:
            raise ValueError(
                f"unknown StationConfig/DeploymentConfig field {name!r}"
                f" in mission overrides")
    deployment = Deployment(DeploymentConfig(
        seed=seed, base=StationConfig(**station), **config))
    engine = apply_fault_plan(deployment, fault_plan,
                              check_invariants=check_invariants)
    return deployment, engine


def add_mission_args(parser) -> None:
    """Add the mission flags every front end shares to an argparse parser.

    ``--seed``, ``--faults``, ``--stations``, ``--servers`` and
    ``--server-policy``; :func:`load_fault_plan` and
    :func:`mission_overrides` turn the parsed values into
    :func:`build_mission` arguments.
    """
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="fault plan to arm before the run (JSON; see "
                             "repro.faults) — same seed + same plan replays "
                             "byte-identically")
    parser.add_argument("--stations", type=int, default=None, metavar="N",
                        help="total station count (>= 2: base + reference + "
                             "solar-only extras)")
    parser.add_argument("--servers", type=int, default=None, metavar="N",
                        help="server fleet size (default 1 = the classic "
                             "single Southampton server)")
    parser.add_argument("--server-policy", choices=POLICIES, default=None,
                        help="station upload-target policy against a multi-"
                             "server fleet (default: static)")


def extra_station_count(stations: int) -> int:
    """``--stations N`` as the count of stations beyond base + reference."""
    if stations < 2:
        raise SystemExit("repro-sim: --stations must be >= 2 "
                         "(base + reference)")
    return stations - 2


#: Flags whose parsed value is an override under the same name.
_VALUE_FLAGS = ("servers", "server_policy", "tenant_size", "solar_w")


def mission_overrides(args) -> Dict[str, Any]:
    """Parsed mission flags as :func:`build_mission` overrides.

    Reads the :func:`add_mission_args` group plus whichever of
    ``--tenant-size``, ``--batched-sync``, ``--no-wind`` and
    ``--solar-w`` the front end's parser also has.
    """
    overrides: Dict[str, Any] = {}
    if args.stations is not None:
        overrides["extra_stations"] = extra_station_count(args.stations)
    for name in _VALUE_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "batched_sync", False):
        overrides["batched_sync"] = True
    if getattr(args, "no_wind", False):
        overrides["wind_w"] = 0.0
    return overrides


def load_fault_plan(path: Optional[str]) -> Optional[dict]:
    """A ``--faults`` plan file as its dict form (None without a path).

    A missing or malformed file prints ``repro-sim: cannot load fault
    plan: <reason>`` and exits 2 — the status an unwritable output path
    gets — so a bad input file never reads as a run verdict (an
    invariant violation, a race, a determinism failure).
    """
    if not path:
        return None
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        # A command-line input error: stderr is the only channel.
        print(f"repro-sim: cannot load fault plan: {exc}",  # repro-lint: disable=no-print
              file=sys.stderr)
        raise SystemExit(2)
