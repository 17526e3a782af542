"""Parallel runtime: worker pools, data-parallel training, buffer arenas.

This package scales the fused simulation kernels across processes:

* :mod:`repro.runtime.workspace` — reusable buffer arenas that remove the
  kernels' per-batch allocations in steady-state training;
* :mod:`repro.runtime.pool` — a persistent worker pool holding the network
  weights in shared memory, executing forward chunks, gradient shards,
  Fig. 8 device-noise seeds and generic sweep tasks;
* :mod:`repro.runtime.parallel` — the deterministic shard split and
  fixed-order reduction shared by the serial and pooled paths (the basis
  of the bitwise parallel == serial equivalence tests);
* :mod:`repro.runtime.supervisor` — the restart policy behind the pool's
  self-healing: dead/hung workers are respawned from the original spec
  and their in-flight shards requeued, bitwise-transparently.

Everything is opt-in: ``workers=0`` (the default everywhere, including
``TrainerConfig``) keeps the serial in-process behavior bit-for-bit.  Set
``workers=N`` — or the ``REPRO_WORKERS`` environment variable — to fan
training batches, inference shards and sweep grid points across ``N``
processes.
"""

from .parallel import (
    combine_shard_results,
    data_parallel_grads,
    parallel_map,
    resolve_workers,
    shard_grads,
    shard_slices,
)
from .pool import PoolCache, PoolTransportError, WorkerError, WorkerPool
from .supervisor import RestartPolicy, WorkerSupervisor
from .workspace import Workspace

__all__ = [
    "PoolCache",
    "PoolTransportError",
    "RestartPolicy",
    "WorkerSupervisor",
    "Workspace",
    "WorkerError",
    "WorkerPool",
    "combine_shard_results",
    "data_parallel_grads",
    "parallel_map",
    "resolve_workers",
    "shard_grads",
    "shard_slices",
]
