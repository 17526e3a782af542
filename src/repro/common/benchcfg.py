"""Canonical benchmark shapes — one definition for every throughput bench.

``benchmarks/bench_throughput.py`` (the pytest-benchmark suite) and the
scenario harness (``python -m repro.experiments harness``) must measure
the *same* workload for their numbers to be comparable with each other
and with the tables in ``docs/performance.md``.  Both import their
network/input construction from here instead of duplicating the magic
constants.

The workload is the paper-scale MLP at the repo's standard bench point:
700-128-128-20 adaptive network, T = 100, ~3 % input spike density,
weights boosted so the stack actually fires.
"""

from __future__ import annotations

import numpy as np

from .rng import RandomState

__all__ = [
    "BENCH_SIZES",
    "BENCH_STEPS",
    "BENCH_FORWARD_BATCH",
    "BENCH_TRAIN_BATCH",
    "BENCH_SPIKE_DENSITY",
    "BENCH_WEIGHT_BOOST",
    "bench_network",
    "bench_inputs",
]

BENCH_SIZES = (700, 128, 128, 20)
BENCH_STEPS = 100
BENCH_FORWARD_BATCH = 32
BENCH_TRAIN_BATCH = 64
BENCH_SPIKE_DENSITY = 0.03
BENCH_WEIGHT_BOOST = 6.0


def bench_network(sizes: tuple = BENCH_SIZES, seed: int = 0):
    """The standard benchmark network (boosted weights, adaptive kind)."""
    from ..core.network import SpikingNetwork

    network = SpikingNetwork(sizes, rng=seed)
    for layer in network.layers:
        layer.weight *= BENCH_WEIGHT_BOOST
    return network


def bench_inputs(batch: int, seed: int = 1, n_in: int = BENCH_SIZES[0],
                 steps: int = BENCH_STEPS) -> np.ndarray:
    """A ``(batch, steps, n_in)`` spike batch at the standard density."""
    rng = RandomState(seed)
    return (rng.random((batch, steps, n_in))
            < BENCH_SPIKE_DENSITY).astype(np.float64)
