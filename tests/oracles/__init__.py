"""Test-only reference implementations: the slow A/B arms.

Each subsystem ships one path in ``src/``.  The arms it replaced live
here, logic unchanged, because the equivalence suites and the A/B
benchmarks still need them as oracles:

- :class:`FixedStepBus` — fixed-step power-bus integration
  (``tests/energy/test_adaptive_equivalence.py``, ``tests/energy/test_bus.py``,
  ``benchmarks/test_endurance.py``);
- :class:`ChunkedSendMixin`, :class:`ChunkedGprsModem` and
  :class:`ChunkedProbeRadioLink` — per-chunk and per-packet comms loops
  (``tests/comms/test_exact_equivalence.py``,
  ``benchmarks/test_throughput.py``);
- :class:`EagerProbe` — one kernel event per probe sample
  (``tests/probes/test_deferred_sampling.py``,
  ``benchmarks/test_throughput.py``);
- :func:`run_sweep_legacy` — the one-future-per-job sweep engine
  (``benchmarks/test_sweep_scale.py``).

:func:`oracle_arms` runs whole deployments on these arms.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterator, Optional

import repro.core.deployment as deployment_module
import repro.core.station as station_module
from tests.oracles.comms import (
    ChunkedGprsModem,
    ChunkedProbeRadioLink,
    ChunkedSendMixin,
)
from tests.oracles.energy import FixedStepBus
from tests.oracles.probes import EagerProbe
from tests.oracles.sweep import run_sweep_legacy

__all__ = [
    "ChunkedGprsModem",
    "ChunkedProbeRadioLink",
    "ChunkedSendMixin",
    "EagerProbe",
    "FixedStepBus",
    "oracle_arms",
    "run_sweep_legacy",
]


@contextmanager
def oracle_arms(*, fixed_step_s: Optional[float] = None,
                chunked_comms: bool = False,
                eager_probes: bool = False) -> Iterator[None]:
    """Build deployments on oracle arms inside this block.

    Swaps the oracle classes into the ``repro.core.station`` and
    ``repro.core.deployment`` module globals that construct them, and
    restores the shipping classes on exit.  Only construction happens
    through those names, so a deployment built inside the block keeps its
    oracle parts when it runs after the block.

    - ``fixed_step_s``: every station bus is a :class:`FixedStepBus` with
      this step;
    - ``chunked_comms``: GPRS modems send chunk by chunk and probe links
      packet by packet;
    - ``eager_probes``: probes sample with one kernel event per reading.
    """
    swaps = []
    if fixed_step_s is not None:
        swaps.append((station_module, "PowerBus",
                      functools.partial(FixedStepBus, step_s=fixed_step_s)))
    if chunked_comms:
        swaps.append((station_module, "GprsModem", ChunkedGprsModem))
        swaps.append((station_module, "ProbeRadioLink", ChunkedProbeRadioLink))
    if eager_probes:
        swaps.append((deployment_module, "Probe", EagerProbe))
    saved = [(module, name, getattr(module, name)) for module, name, _ in swaps]
    try:
        for module, name, oracle in swaps:
            setattr(module, name, oracle)
        yield
    finally:
        for module, name, shipping in saved:
            setattr(module, name, shipping)
