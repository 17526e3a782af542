"""Streaming stateful inference and micro-batching model serving.

This package turns the repo from an offline batch runner into a resident
model server — the serving analogue of SpikeHard's always-on accelerator:
a trained :class:`~repro.core.network.SpikingNetwork` stays loaded while
live spike streams from many clients flow through it in chunks.

The pieces, bottom-up:

* :class:`~repro.core.engine.StreamState` (in :mod:`repro.core`) — the
  per-stream carry state that makes chunked inference bitwise-equal to a
  one-shot run;
* :mod:`repro.serve.session` — a :class:`Session` owns one client's
  stream state and bookkeeping on a served model;
* :mod:`repro.serve.batcher` — the :class:`MicroBatcher` coalesces
  pending chunks from many sessions into one fused batch per tick under
  ``max_batch`` / ``max_wait_ms`` caps, FIFO-fair, with a bounded queue
  that rejects (:class:`~repro.common.errors.CapacityError`) when full;
* :mod:`repro.serve.server` — the :class:`ModelServer` front-end:
  sessions, ticks (gather states -> one padded fused run -> scatter),
  offline bulk evaluation (optionally sharded over a
  :class:`~repro.runtime.pool.WorkerPool`);
* :mod:`repro.serve.registry` — a versioned on-disk
  :class:`ModelRegistry` of checkpoints *and hardware profiles* the
  server cold-starts from;
* :mod:`repro.serve.loadgen` — a synthetic open-loop arrival process and
  latency/throughput accounting (the ``serving`` harness preset), plus
  the multi-tenant mix (:func:`open_loop_fleet`) that measures a fleet;
* :mod:`repro.serve.fleet` — the :class:`Fleet` front door: N
  ``ModelServer`` replicas, session-sticky least-loaded routing,
  per-tenant token-bucket quotas (:class:`TenantQuota`), and weighted
  canary rollout between registry generations with generation-fenced
  drains (``docs/fleet.md``).

The server can also put the paper's *hardware* in the loop
(``hardware=`` / ``from_registry(..., hardware_profile=...)``): ticks
then stream the crossbars' achieved (quantized + variation-noisy)
weights through the same fused path, ``shadow=True`` canaries a hardware
realization against the ideal model on live traffic, and
``evaluate_variation`` runs Fig. 8-scale sweeps over a
:class:`~repro.runtime.pool.WorkerPool` as a serving workload.

See ``docs/serving.md`` and ``docs/hardware.md`` for the architecture
and measured numbers.
"""

from .batcher import MicroBatcher, StreamRequest, Ticket
from .fleet import Fleet, TenantQuota
from .loadgen import (
    FleetReport,
    ServingReport,
    TenantLoad,
    open_loop,
    open_loop_fleet,
)
from .registry import ModelRegistry
from .server import ModelServer
from .session import Session
from .workloads import (
    DVSWorkload,
    GlyphWorkload,
    SpeechWorkload,
    SyntheticWorkload,
    Workload,
    WorkloadMix,
    make_workload,
)

__all__ = [
    "Fleet",
    "FleetReport",
    "MicroBatcher",
    "ModelRegistry",
    "ModelServer",
    "ServingReport",
    "Session",
    "StreamRequest",
    "TenantLoad",
    "TenantQuota",
    "Ticket",
    "open_loop",
    "open_loop_fleet",
    "Workload",
    "SyntheticWorkload",
    "SpeechWorkload",
    "DVSWorkload",
    "GlyphWorkload",
    "WorkloadMix",
    "make_workload",
]
