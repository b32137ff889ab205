"""The lint rules: one class per simulation invariant.

Each rule is an AST inspector registered in :data:`RULE_REGISTRY` under a
stable id.  Rules receive a parsed module plus file metadata and yield
:class:`~repro.lint.findings.Finding` objects; they never read the
filesystem themselves, so they are trivially unit-testable on snippets.

To add a rule: subclass :class:`Rule`, set ``id``/``description``, implement
:meth:`Rule.check`, and decorate with :func:`register`.  See
``docs/determinism.md`` for the contract each shipped rule protects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.lint.findings import Finding, Severity


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may look at for one file."""

    path: str
    #: ``path`` normalised to forward slashes, for exemption suffix matching.
    posix_path: str
    source: str
    tree: ast.AST


class Rule:
    """Base class for lint rules."""

    id: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    #: Posix path suffixes this rule never applies to (e.g. the rng module
    #: itself is allowed to call ``np.random.default_rng``).
    exempt_path_suffixes: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx``'s file at all."""
        return not any(ctx.posix_path.endswith(sfx) for sfx in self.exempt_path_suffixes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield a :class:`Finding` for every violation in the file."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``'s source position."""
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
        )


#: All registered rule classes, keyed by rule id.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def default_rules(
    select: Optional[List[str]] = None, disable: Optional[List[str]] = None
) -> List[Rule]:
    """Instantiate the registered rules, honouring select/disable lists."""
    ids = list(RULE_REGISTRY)
    if select:
        unknown = set(select) - set(ids)
        if unknown:
            raise KeyError(f"unknown rule id(s): {sorted(unknown)}")
        ids = [rid for rid in ids if rid in set(select)]
    if disable:
        unknown = set(disable) - set(RULE_REGISTRY)
        if unknown:
            raise KeyError(f"unknown rule id(s): {sorted(unknown)}")
        ids = [rid for rid in ids if rid not in set(disable)]
    return [RULE_REGISTRY[rid]() for rid in ids]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``, or None if not a pure name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def repro_package(ctx: FileContext) -> Optional[str]:
    """The repro sub-package (or top-level module) ``ctx``'s file is in."""
    parts = ctx.posix_path.split("/")
    try:
        idx = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    if idx + 1 >= len(parts):
        return None
    head = parts[idx + 1]
    if head.endswith(".py"):
        head = head[:-3]  # top-level module, e.g. repro/cli.py
    return head


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


# ----------------------------------------------------------------------
# Rule 1: wall-clock ban
# ----------------------------------------------------------------------
@register
class WallClockRule(Rule):
    """Sim-facing code must read time from ``SimClock``, never the host.

    A single ``datetime.now()`` makes two same-seed runs diverge (trace
    timestamps, schedule decisions), silently breaking replayability.
    """

    id = "wall-clock"
    description = "host wall-clock reads (datetime.now/time.time) — use SimClock"

    _DATETIME_ATTRS = {"now", "today", "utcnow"}
    _TIME_CALLS = {
        ("time", "time"),
        ("time", "monotonic"),
        ("time", "perf_counter"),
        ("time", "time_ns"),
        ("time", "monotonic_ns"),
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_parts(node.func)
            if not parts or len(parts) < 2:
                continue
            tail = tuple(parts[-2:])
            if tail in self._TIME_CALLS:
                yield self.finding(
                    ctx, node,
                    f"call to {'.'.join(parts)}() reads the host clock; "
                    "use SimClock/Simulation.now instead",
                )
            elif parts[-1] in self._DATETIME_ATTRS and parts[-2] in ("datetime", "date"):
                yield self.finding(
                    ctx, node,
                    f"call to {'.'.join(parts)}() reads the host clock; "
                    "use SimClock.utcnow()/simtime.to_datetime instead",
                )


# ----------------------------------------------------------------------
# Rule 2: RNG discipline
# ----------------------------------------------------------------------
@register
class RngDisciplineRule(Rule):
    """All randomness must flow through ``RngRegistry`` named streams.

    Direct ``np.random.default_rng``/``random.*`` calls create generators
    whose sequences are not derived from the master seed, so changing one
    component's draw count perturbs others and ablations stop being
    comparable (see ``repro.sim.rng``'s module docstring).
    """

    id = "rng-discipline"
    description = "ad-hoc RNG construction — use RngRegistry.stream / generator_from_seed"
    exempt_path_suffixes = ("sim/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_parts(node.func)
            if not parts:
                continue
            if len(parts) == 2 and parts[0] == "random":
                yield self.finding(
                    ctx, node,
                    f"stdlib random.{parts[1]}() bypasses the seeded registry; "
                    "draw from RngRegistry.stream(name) instead",
                )
            elif len(parts) >= 2 and tuple(parts[-2:]) in (
                ("random", "default_rng"),
                ("random", "seed"),
                ("random", "RandomState"),
            ):
                yield self.finding(
                    ctx, node,
                    f"direct {'.'.join(parts)}() constructs an unregistered stream; "
                    "use RngRegistry.stream(name) or repro.sim.rng.generator_from_seed",
                )


# ----------------------------------------------------------------------
# Rule 3: float equality
# ----------------------------------------------------------------------
@register
class FloatEqualityRule(Rule):
    """``==``/``!=`` between float quantities (volts, SoC, energy) is a bug.

    Voltages and energies are accumulated floats; exact comparison makes
    behaviour depend on summation order, which event-queue refactors change.
    Compare against thresholds or use ``math.isclose``.
    """

    id = "float-equality"
    description = "==/!= between float expressions — compare with tolerance/thresholds"

    #: Substrings anywhere in a name that mark it as a float quantity.
    _FLOATY_NAME_HINTS = (
        "volt", "soc", "energy", "power", "watt", "joule", "charge",
        "current", "amp",
    )
    #: Suffixes (units) that mark a name as a float quantity.
    _FLOATY_NAME_SUFFIXES = ("_w", "_v", "_j", "_wh", "_kwh")

    def _is_floatish(self, node: ast.AST) -> bool:
        if _is_float_literal(node):
            return True
        if isinstance(node, ast.BinOp):
            return self._is_floatish(node.left) or self._is_floatish(node.right)
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            lowered = name.lower()
            return any(hint in lowered for hint in self._FLOATY_NAME_HINTS) or any(
                lowered.endswith(sfx) for sfx in self._FLOATY_NAME_SUFFIXES
            )
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_floatish(left) or self._is_floatish(right):
                    yield self.finding(
                        ctx, node,
                        "exact ==/!= on a float quantity; use a threshold "
                        "or math.isclose",
                    )


# ----------------------------------------------------------------------
# Rule 4: mutable default arguments
# ----------------------------------------------------------------------
@register
class MutableDefaultRule(Rule):
    """Mutable default arguments leak state between calls.

    In a simulator that is rebuilt per seed, a shared default list carries
    draws/records from one run into the next — a classic determinism leak.
    """

    id = "mutable-default"
    description = "mutable default argument (list/dict/set) — use None sentinel"

    _MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter"}

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            parts = dotted_parts(node.func)
            return bool(parts) and parts[-1] in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default in {node.name}(); default to None and "
                        "construct inside the function",
                    )


# ----------------------------------------------------------------------
# Rule 5: bare / swallowed exceptions
# ----------------------------------------------------------------------
@register
class SilentExceptRule(Rule):
    """Errors must not pass silently — the kernel's core contract.

    A swallowed exception in a process generator turns a crashed station
    model into one that silently stops emitting trace records, which looks
    exactly like the paper's dead-station failure mode but is a bug.
    """

    id = "silent-except"
    description = "bare except / except-pass swallows errors — handle or re-raise"

    _BROAD = {"Exception", "BaseException"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                    "hides kernel errors; name the exception",
                )
                continue
            parts = dotted_parts(node.type)
            broad = bool(parts) and parts[-1] in self._BROAD
            swallows = all(isinstance(stmt, ast.Pass) for stmt in node.body)
            if broad and swallows:
                yield self.finding(
                    ctx, node,
                    "'except Exception: pass' swallows every error; log to the "
                    "Trace or re-raise",
                )


# ----------------------------------------------------------------------
# Rule 6: yield discipline
# ----------------------------------------------------------------------
@register
class YieldDisciplineRule(Rule):
    """Process generators must yield events, not raw values.

    ``yield 5`` inside a process raises at runtime ("processes must yield
    Event objects") — but only when that branch executes, which for rare
    recovery paths can be deep into a long mission.  Catch it statically.
    """

    id = "yield-discipline"
    description = "yield of a literal/number in a generator — processes yield Events"

    def _is_literal_yield(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Constant):
            # Bare ``yield`` (value None) is the make-this-a-generator idiom;
            # only concrete literals are certainly wrong.
            return value.value is not None
        if isinstance(value, ast.UnaryOp) and isinstance(value.operand, ast.Constant):
            return True
        if isinstance(value, (ast.List, ast.Tuple, ast.Dict, ast.Set)):
            return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Yield):
                continue
            if node.value is not None and self._is_literal_yield(node.value):
                yield self.finding(
                    ctx, node,
                    "yields a plain literal; process generators must yield "
                    "Event objects (timeout(), event(), process())",
                )


# ----------------------------------------------------------------------
# Rule 7: no print in library code
# ----------------------------------------------------------------------
@register
class NoPrintRule(Rule):
    """Library code must report through the Trace or metrics, not stdout.

    A stray ``print()`` in a subsystem bypasses the observability layer:
    it cannot be selected, counted, exported, or digest-checked, and it
    corrupts machine-readable CLI output (CSV/JSON/Prometheus dumps).
    CLI entry points and the analysis/report formatters are the only
    places whose *job* is writing to stdout.
    """

    id = "no-print"
    description = "print() in library code — emit to Trace/metrics, not stdout"
    exempt_path_suffixes = ("/cli.py",)

    def applies_to(self, ctx: FileContext) -> bool:
        """Also skip the analysis/ package — its output *is* text."""
        if "/analysis/" in ctx.posix_path:
            return False
        return super().applies_to(ctx)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.finding(
                    ctx, node,
                    "print() in library code; emit a Trace record or metric "
                    "(or move the output into a CLI/analysis module)",
                )


# ----------------------------------------------------------------------
# Rule 8: energy conservation
# ----------------------------------------------------------------------
@register
class EnergyConservationRule(Rule):
    """Battery mutation belongs to the PowerBus sync bracket, nowhere else.

    The adaptive integrator's whole contract is that the battery's stored
    state is only advanced inside ``PowerBus.sync()`` (and the bus's own
    ``drain_j`` helper, which syncs around the withdrawal).  A subsystem
    that calls ``battery.apply(...)`` or ``battery.drain_j(...)`` directly
    injects or removes energy the bus never integrated: the books stop
    balancing, crossing predictions are computed from a state the planner
    never saw, and fixed-vs-adaptive A/B runs diverge.  Route every
    withdrawal through ``PowerBus.drain_j`` and every flow through a
    registered source or load.
    """

    id = "energy-conservation"
    description = "direct battery.apply()/battery.drain_j() — only PowerBus.sync() may move energy"
    #: The bus implements the bracket; the battery's own module and tests
    #: exercising the model directly are the sanctioned callers.
    exempt_path_suffixes = ("energy/bus.py", "energy/battery.py")

    _MUTATORS = {"apply", "drain_j"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in self._MUTATORS:
                continue
            parts = dotted_parts(func)
            if not parts:
                continue
            # Only battery receivers: ``bus.drain_j(...)`` is the sanctioned
            # API and must stay clean, so the receiver chain has to name a
            # battery (``battery.apply``, ``self.battery.drain_j``, ...).
            receiver = parts[:-1]
            if not any("battery" in part.lower() for part in receiver):
                continue
            yield self.finding(
                ctx, node,
                f"direct {'.'.join(parts)}() mutates battery state outside "
                "the PowerBus sync bracket; go through PowerBus.drain_j or "
                "a registered source/load",
            )


# ----------------------------------------------------------------------
# Rule 9: no allocations in the kernel hot path
# ----------------------------------------------------------------------
@register
class NoHotPathAllocRule(Rule):
    """The kernel's per-event code must not allocate containers or closures.

    ``Simulation.run``/``step``/``schedule`` execute once per event —
    millions of times per sweep.  A dict/list/set literal, a comprehension
    or a ``lambda`` there costs an allocation per event and silently undoes
    the batched fast path (docs/performance.md).  Batch APIs such as
    ``schedule_many`` amortise one allocation over many events, so they are
    outside the hot set.
    """

    id = "no-hot-path-alloc"
    description = "container literal/comprehension/lambda in a kernel hot-path function"

    #: Functions that run per processed/scheduled event.
    _HOT_FUNCTIONS = frozenset(
        {"run", "step", "schedule", "_schedule_now", "peek", "_run_callbacks"}
    )
    _ALLOC_NODES = (
        ast.Dict, ast.List, ast.Set,
        ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
        ast.Lambda,
    )
    _ALLOC_LABEL = {
        ast.Dict: "dict literal",
        ast.List: "list literal",
        ast.Set: "set literal",
        ast.ListComp: "list comprehension",
        ast.SetComp: "set comprehension",
        ast.DictComp: "dict comprehension",
        ast.GeneratorExp: "generator expression",
        ast.Lambda: "lambda",
    }

    def applies_to(self, ctx: FileContext) -> bool:
        """Only the kernel module has per-event functions to police."""
        return ctx.posix_path.endswith("sim/kernel.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in self._HOT_FUNCTIONS:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, self._ALLOC_NODES):
                    label = self._ALLOC_LABEL[type(inner)]
                    yield self.finding(
                        ctx, inner,
                        f"{label} inside hot-path function {node.name}(); "
                        "hoist it out of the per-event path or move the work "
                        "to a batch API (docs/performance.md)",
                    )


# ----------------------------------------------------------------------
# Rule 10: no per-chunk polling loops
# ----------------------------------------------------------------------
@register
class NoPollingLoopRule(Rule):
    """Fixed-cadence polling with a per-iteration RNG draw must be inverted.

    A ``while`` loop that yields a fixed-delay ``timeout(...)`` and draws
    from an RNG each iteration is sampling a survival process one chunk at
    a time: thousands of kernel events to answer "when does the first
    failure land?".  The drop instant can be drawn *once* up front by
    inverse-CDF (see ``Modem._sample_drop_delay`` and
    docs/performance.md) and the loop replaced with a single timeout.
    One sanctioned exception: the antenna damage check in
    ``environment/damage.py`` runs at day cadence (365 events/year — not a
    hot path) with mutable repair state folded into the loop.
    """

    id = "no-polling-loop"
    description = "while loop yielding a fixed timeout() with a per-iteration RNG draw — draw the event time once by inverse-CDF"
    exempt_path_suffixes = ("environment/damage.py",)

    #: RNG draw methods whose presence marks the loop as a sampler.
    _DRAW_METHODS = frozenset(
        {"random", "uniform", "normal", "integers", "choice",
         "exponential", "poisson", "weibull"}
    )

    def _is_fixed_delay(self, node: ast.AST) -> bool:
        """A delay the loop does not recompute: a literal, name or attribute."""
        return isinstance(node, (ast.Constant, ast.Name, ast.Attribute))

    def _yields_fixed_timeout(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Yield) or not isinstance(node.value, ast.Call):
            return False
        call = node.value
        parts = dotted_parts(call.func)
        if not parts or parts[-1] != "timeout":
            return False
        return bool(call.args) and self._is_fixed_delay(call.args[0])

    def _is_rng_draw(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr not in self._DRAW_METHODS:
            return False
        parts = dotted_parts(node.func)
        # The receiver must name an rng (``rng.random()``,
        # ``self._drop_rng.uniform()``); ``random.random()`` is rule 2's.
        return bool(parts) and any("rng" in part.lower() for part in parts[:-1])

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            body = [inner for stmt in node.body for inner in ast.walk(stmt)]
            if any(self._yields_fixed_timeout(inner) for inner in body) and any(
                self._is_rng_draw(inner) for inner in body
            ):
                yield self.finding(
                    ctx, node,
                    "polling loop: yields a fixed timeout and draws from an "
                    "RNG every iteration; sample the event time once by "
                    "inverse-CDF and schedule a single timeout "
                    "(docs/performance.md)",
                )


# ----------------------------------------------------------------------
# Rule 11: imports point strictly downwards (architecture.md §7)
# ----------------------------------------------------------------------
@register
class LayeringRule(Rule):
    """Package imports must follow the §7 layer diagram, strictly downwards.

    The reproduction is a tower: sim at the bottom, energy/environment on
    it, then hardware and the comms stack, core tying the paper together,
    and the tooling layers (faults, analysis, fleet, lint, cli) on top.
    An upward import — ``core`` reaching into ``faults``, a hardware
    module importing ``core`` — couples a lower layer to its consumers,
    makes the lower layer untestable in isolation, and (for the fault
    layer specifically) would let production code depend on its own chaos
    harness.  ``TYPE_CHECKING``-guarded imports are exempt: they express
    a type-level reference, not a runtime dependency (the obs↔sim cycle
    is broken exactly that way).  ``repro.obs`` is additionally
    reachable only from the kernel and the CLI — every other subsystem
    must use its ``sim.obs`` handle.
    """

    id = "layering"
    description = "upward cross-package import (architecture.md §7: imports point strictly downwards)"

    #: architecture.md §7, as numbers: an import is legal iff the imported
    #: package's layer is strictly below the importer's (same package is
    #: always fine).  Equal-layer packages are siblings and must not
    #: import each other either (energy/environment talk through the
    #: structural WeatherProvider protocol, not imports).
    LAYERS = {
        "obs": 0,
        "sim": 1,
        "energy": 2,
        "environment": 2,
        "hardware": 3,
        "sensors": 3,
        "comms": 4,
        "gps": 4,
        "protocol": 5,
        "probes": 6,
        "server": 6,
        "core": 7,
        "faults": 8,
        "analysis": 9,
        "fleet": 9,
        "lint": 9,
        "cli": 10,
    }

    #: Packages with an explicit import allow-list overriding the layer
    #: numbers: ``repro.obs`` sits below everything so that the kernel can
    #: build the hub, but only the kernel (and the CLI's exporter calls,
    #: the fleet runner's rollup fold, and the analysis layer's report
    #: rendering) may *import* it — subsystems go through their
    #: ``sim.obs`` handle.
    RESTRICTED_IMPORTERS = {"obs": frozenset({"sim", "cli", "fleet", "analysis"})}

    @staticmethod
    def _type_checking_lines(tree: ast.AST) -> set:
        """Line numbers inside ``if TYPE_CHECKING:`` bodies."""
        lines: set = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            name = test.id if isinstance(test, ast.Name) else (
                test.attr if isinstance(test, ast.Attribute) else None)
            if name != "TYPE_CHECKING":
                continue
            for stmt in node.body:
                lines.update(range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1))
        return lines

    def _imported_packages(self, node: ast.AST) -> List[str]:
        """repro sub-packages named by one import statement."""
        modules: List[str] = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
        out: List[str] = []
        for module in modules:
            parts = module.split(".")
            if len(parts) >= 2 and parts[0] == "repro" and parts[1] in self.LAYERS:
                out.append(parts[1])
        return out

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        importer = repro_package(ctx)
        if importer not in self.LAYERS:
            return
        importer_layer = self.LAYERS[importer]
        guarded = self._type_checking_lines(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node.lineno in guarded:
                continue
            for imported in self._imported_packages(node):
                if imported == importer:
                    continue
                allowed = self.RESTRICTED_IMPORTERS.get(imported)
                if allowed is not None:
                    if importer not in allowed:
                        yield self.finding(
                            ctx, node,
                            f"repro.{imported} may only be imported by "
                            f"{sorted(allowed)} (use the sim.{imported} "
                            "handle instead); see architecture.md §7",
                        )
                    continue
                if self.LAYERS[imported] >= importer_layer:
                    yield self.finding(
                        ctx, node,
                        f"repro.{importer} (layer {importer_layer}) must not "
                        f"import repro.{imported} (layer "
                        f"{self.LAYERS[imported]}): imports point strictly "
                        "downwards (architecture.md §7)",
                    )


# ----------------------------------------------------------------------
# Rule 12: model code never reads the trace
# ----------------------------------------------------------------------
@register
class TraceReadRule(Rule):
    """Model packages write the trace; they never query it.

    The trace is an output.  A station that sizes its daily log with
    ``trace.byte_size(...)`` couples simulated outcomes to whether the
    trace is recording, and walks every station's records to do it — a
    cost quadratic in fleet size.  Model state the simulation needs (the
    daily log's byte count) is kept by the model itself, or by a
    :class:`~repro.sim.trace.LogMeter` that ``Trace.emit`` feeds before
    its ``enabled`` gate.  The rule flags ``select``, ``iter_select``,
    ``byte_size``, ``series`` and ``records`` on a receiver named like a
    trace (``trace``, ``sim.trace``, ``self._trace``) in the model
    packages.  ``Deployment``'s public ``*_series`` accessors are analysis
    helpers for examples and benches, and the one allowed site.
    """

    id = "trace-read"
    description = "model package queries the trace (select/iter_select/byte_size/series/records) — the trace is an output"

    MODEL_PACKAGES = frozenset({
        "core", "energy", "comms", "hardware", "probes", "protocol",
        "sensors", "gps", "environment", "server",
    })
    _QUERIES = frozenset({"select", "iter_select", "byte_size", "series", "records"})

    def applies_to(self, ctx: FileContext) -> bool:
        return repro_package(ctx) in self.MODEL_PACKAGES and super().applies_to(ctx)

    @staticmethod
    def _allowed_lines(ctx: FileContext) -> set:
        """Lines of ``Deployment``'s ``*_series`` accessors."""
        if not ctx.posix_path.endswith("core/deployment.py"):
            return set()
        lines: set = set()
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == "Deployment"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.endswith("_series"):
                    lines.update(range(item.lineno, (item.end_lineno or item.lineno) + 1))
        return lines

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = self._allowed_lines(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute) or node.attr not in self._QUERIES:
                continue
            receiver = dotted_parts(node.value)
            if not receiver or not receiver[-1].lstrip("_").endswith("trace"):
                continue
            if node.lineno in allowed:
                continue
            yield self.finding(
                ctx, node,
                f"{'.'.join(receiver)}.{node.attr} reads the trace from model "
                "code; keep the state in the model or feed it from "
                "Trace.emit (a LogMeter) so results do not depend on "
                "observability",
            )
