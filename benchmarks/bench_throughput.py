"""Engineering throughput benchmarks for the core kernels.

These are conventional pytest-benchmark microbenchmarks (multiple rounds)
for the kernels everything else is built from: network forward, exact
BPTT backward, crossbar analog product, cochlea encoding, and the MNA
transient solver.  They guard against performance regressions and give a
cost model for scaling the experiments.

The forward/backward benchmarks cover both simulation engines: the fused
vectorized engine (the default everywhere, ``repro.core.engine``) and the
step-wise reference loop it replaced.  The train-step benchmarks cover the
parallel runtime: the serial fused trainer (with its workspace arenas)
against the data-parallel worker pool at 2 workers.  Measured ratios are
recorded in ``docs/performance.md``; ``make bench-table`` measures the same
quantities into ``run_table.csv``.
"""

import numpy as np
import pytest

from repro.common.benchcfg import (
    BENCH_FORWARD_BATCH,
    BENCH_SIZES,
    BENCH_TRAIN_BATCH,
    bench_inputs,
    bench_network,
)
from repro.common.rng import RandomState
from repro.core import (
    CrossEntropyRateLoss,
    Trainer,
    TrainerConfig,
    backward,
)
from repro.data.cochlea import Cochlea, CochleaConfig
from repro.data.speech import synthesize_digit
from repro.hardware.crossbar import DifferentialCrossbar
from repro.hardware.devices import RRAMDeviceConfig
from repro.hardware.neuron_circuit import NeuronCircuitConfig, simulate_neuron


@pytest.fixture(scope="module")
def forward_setup():
    """Canonical forward bench point (see repro.common.benchcfg)."""
    return bench_network(), bench_inputs(BENCH_FORWARD_BATCH)


def test_forward_throughput(benchmark, forward_setup):
    """Default path: the fused vectorized engine."""
    net, x = forward_setup
    out, _ = benchmark(lambda: net.run(x))
    assert out.shape == (32, 100, 20)


def test_forward_throughput_step_reference(benchmark, forward_setup):
    """The step-wise reference loop the fused engine is measured against."""
    net, x = forward_setup
    out, _ = benchmark(lambda: net.run(x, engine="step"))
    assert out.shape == (32, 100, 20)


def test_forward_throughput_float32(benchmark, forward_setup):
    net, x = forward_setup
    out, _ = benchmark(lambda: net.run(x, precision="float32"))
    assert out.dtype == np.float32


def test_backward_throughput(benchmark, forward_setup):
    """Default path: the fused BPTT kernels."""
    net, x = forward_setup
    labels = np.arange(BENCH_FORWARD_BATCH) % BENCH_SIZES[-1]
    loss = CrossEntropyRateLoss()
    out, record = net.run(x, record=True)
    _, grad_out = loss.value_and_grad(out, labels)

    result = benchmark(lambda: backward(net, record, grad_out))
    assert all(np.all(np.isfinite(g)) for g in result.weight_grads)


def test_backward_throughput_reference(benchmark, forward_setup):
    """The per-step adjoint loops the fused backward is measured against."""
    net, x = forward_setup
    labels = np.arange(BENCH_FORWARD_BATCH) % BENCH_SIZES[-1]
    loss = CrossEntropyRateLoss()
    out, record = net.run(x, record=True)
    _, grad_out = loss.value_and_grad(out, labels)

    result = benchmark(
        lambda: backward(net, record, grad_out, engine="reference"))
    assert all(np.all(np.isfinite(g)) for g in result.weight_grads)


@pytest.fixture
def train_setup():
    """Paper-shape training step: batch 64, T=100, 700-128-128-20 MLP.

    Function-scoped on purpose: train-step benchmarks mutate the weights
    every round, so the serial and parallel variants must each start from
    the same pristine initialisation to be comparable.
    """
    net = bench_network()
    x = bench_inputs(BENCH_TRAIN_BATCH, seed=3)
    labels = np.arange(BENCH_TRAIN_BATCH) % BENCH_SIZES[-1]
    return net, x, labels


def _make_trainer(net, workers, hardware=None):
    return Trainer(net, CrossEntropyRateLoss(), TrainerConfig(
        epochs=1, batch_size=BENCH_TRAIN_BATCH, learning_rate=1e-4,
        optimizer="adamw", workers=workers, hardware=hardware))


def test_train_step_throughput(benchmark, train_setup):
    """Serial fused forward+BPTT+update (workspace arenas active)."""
    net, x, labels = train_setup
    trainer = _make_trainer(net, workers=0)
    loss = benchmark(lambda: trainer.train_batch(x, labels))
    assert np.isfinite(loss)


def test_train_step_throughput_workers2(benchmark, train_setup):
    """Data-parallel training step over a 2-worker shared-memory pool.

    The interesting number on a multi-core machine; on a single core it
    measures the runtime's dispatch overhead instead.
    """
    net, x, labels = train_setup
    trainer = _make_trainer(net, workers=2)
    try:
        loss = benchmark(lambda: trainer.train_batch(x, labels))
        assert np.isfinite(loss)
    finally:
        trainer.close()


def test_train_step_throughput_hardware_aware(benchmark, train_setup):
    """Hardware-aware (quantize-in-the-loop) train step, no device noise.

    Measures the straight-through-estimator overhead: one fake-quant pass
    over the master weights per step plus the weight-override forward/
    backward.  Compare against ``test_train_step_throughput``.
    """
    from repro.hardware import HardwareProfile

    net, x, labels = train_setup
    trainer = _make_trainer(
        net, workers=0,
        hardware=HardwareProfile.create(bits=4, variation=0.0, seed=13))
    loss = benchmark(lambda: trainer.train_batch(x, labels))
    assert np.isfinite(loss)


def test_train_step_throughput_hardware_aware_noise(benchmark, train_setup):
    """Hardware-aware train step with per-step programming-noise draws.

    Adds the lognormal variation sampling (two draws per layer, the
    crossbar noise model) on top of the quantize path — the full Fig. 8
    operating-point training cost (4-bit, 10 % variation).
    """
    from repro.hardware import HardwareProfile

    net, x, labels = train_setup
    trainer = _make_trainer(
        net, workers=0,
        hardware=HardwareProfile.create(bits=4, variation=0.1, seed=13))
    loss = benchmark(lambda: trainer.train_batch(x, labels))
    assert np.isfinite(loss)


def test_crossbar_matvec_throughput(benchmark):
    rng = RandomState(2)
    weights = rng.normal(0, 0.1, (128, 700))
    xbar = DifferentialCrossbar(
        weights, RRAMDeviceConfig(levels=16, variation=0.1), rng=3)
    x = rng.random((64, 700))

    out = benchmark(lambda: xbar.matvec(x))
    assert out.shape == (64, 128)


def test_cochlea_encode_throughput(benchmark):
    wave = synthesize_digit("english", 3, rng=0)
    cochlea = Cochlea(CochleaConfig())

    spikes = benchmark(lambda: cochlea.encode(wave, steps=100, rng=0))
    assert spikes.shape == (100, 700)


def test_circuit_transient_throughput(benchmark):
    config = NeuronCircuitConfig()

    result = benchmark.pedantic(
        lambda: simulate_neuron([50, 70, 90], config=config,
                                duration_ns=400),
        rounds=3, iterations=1,
    )
    assert result.output_spike_count() >= 0
