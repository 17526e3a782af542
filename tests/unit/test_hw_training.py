"""Hardware-aware training: shared quantization grids, the engine weight
override, the straight-through estimator, and the co-trained
checkpoint+profile registry round-trip.

The load-bearing guarantees pinned here:

* train-time fake-quant and map-time crossbar programming share ONE grid
  (bitwise, by construction — both run the same conductance pipeline);
* an all-zero layer round-trips bitwise through every quantization path
  (regression: the naive ``max(|w|)`` scale divided by zero and silently
  propagated NaN into the conductances);
* ``run(weights=)`` / ``backward(weights=)`` are transparent when the
  override equals the installed weights, and equivalent to installing the
  override on a clone otherwise;
* hardware-aware training is bitwise-identical between the serial path
  and the shared-memory worker pool, deterministic under its profile
  seed, and measurably improves post-mapping accuracy over post-hoc
  mapping on a small SHD slice (pinned seeds);
* ``ModelRegistry.save_pair`` + ``ModelServer.from_registry(
  hardware_profile=True)`` cold-start exactly the co-trained pair.
"""

import numpy as np
import pytest

from repro.common.errors import ConfigError, ShapeError
from repro.common.rng import RandomState
from repro.core import (
    CrossEntropyRateLoss,
    SpikingNetwork,
    Trainer,
    TrainerConfig,
    backward,
)
from repro.data import SyntheticSHDConfig, generate_shd
from repro.hardware import (
    DifferentialCrossbar,
    HardwareProfile,
    RRAMDeviceConfig,
    accuracy_under_variation,
    fake_quantize,
    quantize_weights,
    resolve_weight_scale,
    sample_programmed_weights,
    weights_to_conductances,
)
from repro.hardware.quantization import QuantizationConfig, \
    conductances_to_weights


def _spikes(shape, density=0.08, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.float64)


# ---------------------------------------------------------------------------
# Shared train-time / map-time grid
# ---------------------------------------------------------------------------
class TestSharedGrid:
    @pytest.mark.parametrize("bits", [2, 4, 5, 8])
    def test_fake_quantize_is_bitwise_the_crossbar_grid(self, bits):
        """fake_quantize == a noise-free crossbar's achieved weights."""
        rng = np.random.default_rng(bits)
        weights = rng.normal(0, 0.2, (9, 13))
        device = RRAMDeviceConfig(levels=2 ** bits)
        crossbar = DifferentialCrossbar(weights, device, rng=1)
        np.testing.assert_array_equal(
            fake_quantize(weights, device),
            np.asarray(crossbar.effective_weights()))

    def test_fake_quantize_idempotent(self):
        rng = np.random.default_rng(3)
        weights = rng.normal(0, 0.2, (6, 6))
        device = RRAMDeviceConfig(levels=16)
        once = fake_quantize(weights, device)
        scale = resolve_weight_scale(weights)
        np.testing.assert_allclose(
            fake_quantize(once, device, scale=scale), once, atol=1e-15)

    def test_sampled_programming_matches_crossbar_draw(self):
        """Same root seed -> the trainer's noise draw IS the crossbar's
        first programming (variation and stuck-at included)."""
        rng = np.random.default_rng(7)
        weights = rng.normal(0, 0.2, (8, 5))
        device = RRAMDeviceConfig(levels=16, variation=0.15,
                                  stuck_at_rate=0.05)
        crossbar = DifferentialCrossbar(weights, device, rng=42)
        np.testing.assert_array_equal(
            sample_programmed_weights(weights, device, rng=42),
            np.asarray(crossbar.effective_weights()))

    def test_sampled_programming_matches_crossbar_read_noise(self):
        """With read noise the draw matches the crossbar's first *read*
        (programming then read, per polarity stream) — so training under
        a read-noise profile sees exactly the serving noise model."""
        rng = np.random.default_rng(9)
        weights = rng.normal(0, 0.2, (7, 6))
        device = RRAMDeviceConfig(levels=16, variation=0.1,
                                  read_noise=0.05)
        crossbar = DifferentialCrossbar(weights, device, rng=21)
        np.testing.assert_array_equal(
            sample_programmed_weights(weights, device, rng=21),
            np.asarray(crossbar.effective_weights()))

    def test_trainer_noise_path_covers_read_noise(self):
        """A read-noise-only profile must not silently degrade to the
        deterministic quantize path (regression)."""
        profile = HardwareProfile.create(bits=4, variation=0.0,
                                         read_noise=0.05, seed=3)
        network = SpikingNetwork((10, 8, 4), rng=0)
        trainer = Trainer(network, CrossEntropyRateLoss(),
                          TrainerConfig(epochs=1, hardware=profile), rng=0)
        first = trainer.hardware_weights()
        second = trainer.hardware_weights()
        assert any(not np.array_equal(a, b)
                   for a, b in zip(first, second))

    def test_sampled_programming_varies_with_rng(self):
        weights = np.random.default_rng(1).normal(0, 0.2, (8, 5))
        device = RRAMDeviceConfig(levels=16, variation=0.1)
        a = sample_programmed_weights(weights, device, rng=0)
        b = sample_programmed_weights(weights, device, rng=1)
        assert not np.array_equal(a, b)

    def test_sampled_programming_without_noise_is_fake_quantize(self):
        weights = np.random.default_rng(2).normal(0, 0.2, (4, 6))
        device = RRAMDeviceConfig(levels=16)
        np.testing.assert_array_equal(
            sample_programmed_weights(weights, device, rng=5),
            fake_quantize(weights, device))


# ---------------------------------------------------------------------------
# Zero-layer regression (ISSUE: max(|w|) scale divided by zero -> NaN)
# ---------------------------------------------------------------------------
class TestZeroLayerRegression:
    def test_resolve_weight_scale_guards_zero(self):
        assert resolve_weight_scale(np.zeros((3, 4))) == 1.0
        assert resolve_weight_scale(np.zeros((3, 4)), scale=0.0) == 1.0
        assert resolve_weight_scale(np.ones((2, 2)), scale=0.5) == 0.5
        assert resolve_weight_scale(np.full((2, 2), 3.0)) == 3.0

    def test_zero_layer_conductances_are_finite(self):
        device = RRAMDeviceConfig(levels=16)
        g_plus, g_minus, scale = weights_to_conductances(
            np.zeros((4, 5)), device)
        assert scale == 1.0
        assert np.all(np.isfinite(g_plus)) and np.all(np.isfinite(g_minus))
        np.testing.assert_array_equal(g_plus, device.g_min)
        np.testing.assert_array_equal(g_minus, device.g_min)

    def test_zero_layer_roundtrips_bitwise(self):
        """zeros -> conductances -> weights is exactly zeros, on every
        software path and on a real crossbar."""
        zeros = np.zeros((4, 5))
        device = RRAMDeviceConfig(levels=16)
        np.testing.assert_array_equal(fake_quantize(zeros, device), zeros)
        np.testing.assert_array_equal(
            quantize_weights(zeros, QuantizationConfig(bits=4)), zeros)
        g_plus, g_minus, scale = weights_to_conductances(zeros, device)
        np.testing.assert_array_equal(
            conductances_to_weights(g_plus, g_minus, device, scale), zeros)
        crossbar = DifferentialCrossbar(zeros, device, rng=0)
        np.testing.assert_array_equal(
            np.asarray(crossbar.effective_weights()), zeros)

    def test_zero_layer_inside_network_mapping(self):
        """A network with one pruned (all-zero) layer maps NaN-free.

        With device variation the pair of ``g_min`` devices legitimately
        jitters (real physics, small and finite); without it the layer
        must come back exactly zero."""
        from repro.hardware.mapped_network import HardwareMappedNetwork

        network = SpikingNetwork((10, 8, 4), rng=0)
        network.layers[-1].weight[:] = 0.0
        noisy = HardwareMappedNetwork(
            network, RRAMDeviceConfig(levels=16, variation=0.1), rng=1)
        for achieved in noisy.weight_list():
            assert np.all(np.isfinite(achieved))
        clean = HardwareMappedNetwork(
            network, RRAMDeviceConfig(levels=16), rng=1)
        assert np.all(np.isfinite(clean.weight_list()[0]))
        np.testing.assert_array_equal(clean.weight_list()[-1], 0.0)


# ---------------------------------------------------------------------------
# Engine weight override (forward + backward)
# ---------------------------------------------------------------------------
class TestWeightOverride:
    def setup_method(self):
        self.network = SpikingNetwork((20, 12, 5), rng=1)
        self.x = _spikes((4, 30, 20))
        self.labels = np.arange(4) % 5
        self.loss = CrossEntropyRateLoss()

    def test_identity_override_is_bitwise_transparent(self):
        override = [w.copy() for w in self.network.weights]
        base_out, base_rec = self.network.run(self.x, record=True)
        out, rec = self.network.run(self.x, record=True, weights=override)
        np.testing.assert_array_equal(base_out, out)
        _, grad_out = self.loss.value_and_grad(base_out, self.labels)
        base = backward(self.network, base_rec, grad_out)
        result = backward(self.network, rec, grad_out, weights=override)
        for a, b in zip(base.weight_grads, result.weight_grads):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(base.input_grad, result.input_grad)

    def test_override_equals_installed_weights(self):
        override = [0.5 * w for w in self.network.weights]
        clone = SpikingNetwork((20, 12, 5), rng=1)
        clone.set_weights(override)
        a, rec_a = self.network.run(self.x, record=True, weights=override)
        b, rec_b = clone.run(self.x, record=True)
        np.testing.assert_array_equal(a, b)
        _, grad_out = self.loss.value_and_grad(a, self.labels)
        ga = backward(self.network, rec_a, grad_out, weights=override)
        gb = backward(clone, rec_b, grad_out)
        for x, y in zip(ga.weight_grads, gb.weight_grads):
            np.testing.assert_array_equal(x, y)

    def test_override_hard_reset_kind(self):
        network = SpikingNetwork((20, 12, 5), neuron_kind="hard_reset",
                                 rng=1)
        override = [0.5 * w for w in network.weights]
        clone = SpikingNetwork((20, 12, 5), neuron_kind="hard_reset", rng=1)
        clone.set_weights(override)
        a, _ = network.run(self.x, weights=override)
        b, _ = clone.run(self.x)
        np.testing.assert_array_equal(a, b)

    def test_step_engine_rejects_override(self):
        with pytest.raises(ValueError):
            self.network.run(self.x, engine="step",
                             weights=list(self.network.weights))

    def test_reference_backward_rejects_override(self):
        out, rec = self.network.run(self.x, record=True)
        _, grad_out = self.loss.value_and_grad(out, self.labels)
        with pytest.raises(ValueError):
            backward(self.network, rec, grad_out, engine="reference",
                     weights=list(self.network.weights))

    def test_override_shape_validation(self):
        with pytest.raises(ShapeError):
            self.network.run(self.x, weights=[self.network.weights[0]])
        bad = [np.zeros((3, 3)) for _ in self.network.weights]
        with pytest.raises(ShapeError):
            self.network.run(self.x, weights=bad)


# ---------------------------------------------------------------------------
# The hardware-aware trainer (straight-through estimator)
# ---------------------------------------------------------------------------
def _aware_trainer(network, profile, workers=0, lr=1e-3):
    config = TrainerConfig(epochs=1, batch_size=16, learning_rate=lr,
                           workers=workers, hardware=profile)
    return Trainer(network, CrossEntropyRateLoss(), config, rng=2)


class TestHardwareAwareTrainer:
    def setup_method(self):
        self.x = _spikes((16, 40, 30), seed=3)
        self.labels = np.arange(16) % 5

    def _network(self):
        return SpikingNetwork((30, 16, 5), rng=1)

    def test_config_requires_profile_and_fused(self):
        profile = HardwareProfile.create(bits=4)
        with pytest.raises(ConfigError):
            TrainerConfig(hardware="not-a-profile")
        TrainerConfig(hardware=profile)  # valid

    def test_hardware_weights_quantize_only_is_fake_quantize(self):
        profile = HardwareProfile.create(bits=4, variation=0.0, seed=7)
        network = self._network()
        trainer = _aware_trainer(network, profile)
        override = trainer.hardware_weights()
        for got, layer in zip(override, network.layers):
            np.testing.assert_array_equal(
                got, fake_quantize(layer.weight, profile.device))
        # Deterministic: no noise stream is consumed.
        for a, b in zip(override, trainer.hardware_weights()):
            np.testing.assert_array_equal(a, b)

    def test_hardware_weights_noise_draws_advance(self):
        profile = HardwareProfile.create(bits=4, variation=0.1, seed=7)
        trainer = _aware_trainer(self._network(), profile)
        first = trainer.hardware_weights()
        second = trainer.hardware_weights()
        assert any(not np.array_equal(a, b)
                   for a, b in zip(first, second))

    def test_ideal_trainer_returns_none(self):
        network = self._network()
        trainer = Trainer(network, CrossEntropyRateLoss(),
                          TrainerConfig(epochs=1), rng=0)
        assert trainer.hardware_weights() is None

    def test_noise_stream_reproducible(self):
        """Two aware trainers with the same profile produce identical
        weights after identical batches (the profile seed pins the
        per-step draws)."""
        profile = HardwareProfile.create(bits=4, variation=0.1, seed=11)
        results = []
        for _ in range(2):
            network = self._network()
            trainer = _aware_trainer(network, profile)
            trainer.train_batch(self.x, self.labels)
            trainer.train_batch(self.x, self.labels)
            results.append([w.copy() for w in network.weights])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pooled_aware_training_matches_serial_shards(self, workers):
        """The pooled STE step == the serial execution of the same shard
        split, bitwise (the override rides the shared-memory weight
        block)."""
        from repro.runtime.parallel import data_parallel_grads

        profile = HardwareProfile.create(bits=4, variation=0.1, seed=5)
        network = self._network()
        serial_net = self._network()
        trainer = _aware_trainer(network, profile, workers=workers)
        serial = _aware_trainer(serial_net, profile, workers=0)
        try:
            trainer.train_batch(self.x, self.labels)
        finally:
            trainer.close()
        # Replay the same step serially on the same shard split.
        override = serial.hardware_weights()
        loss_value, grads = data_parallel_grads(
            serial_net, serial.loss, self.x, self.labels,
            n_shards=workers, weights=override)
        serial.optimizer.step(grads)
        for a, b in zip(network.weights, serial_net.weights):
            np.testing.assert_array_equal(a, b)

    def test_high_bits_ste_matches_ideal_gradients(self):
        """With enough bits the quantizer is (numerically) the identity:
        one aware step lands within float tolerance of the ideal step."""
        profile = HardwareProfile.create(bits=16, variation=0.0, seed=0)
        ideal_net = self._network()
        aware_net = self._network()
        ideal = Trainer(ideal_net, CrossEntropyRateLoss(),
                        TrainerConfig(epochs=1, batch_size=16,
                                      learning_rate=1e-3), rng=2)
        aware = _aware_trainer(aware_net, profile)
        ideal.train_batch(self.x, self.labels)
        aware.train_batch(self.x, self.labels)
        for a, b in zip(ideal_net.weights, aware_net.weights):
            np.testing.assert_allclose(a, b, atol=5e-5)

    def test_exact_identity_when_weights_on_grid(self):
        """Weights already on the 16-bit grid quantize to themselves, so
        the aware step is bitwise the ideal step."""
        profile = HardwareProfile.create(bits=16, variation=0.0, seed=0)
        nets = [self._network(), self._network()]
        for network in nets:
            network.set_weights([fake_quantize(w, profile.device)
                                 for w in network.weights])
        # Quantizing grid points must reproduce them exactly, else this
        # test cannot pin bitwise equality.
        for w in nets[0].weights:
            scale = resolve_weight_scale(w)
            np.testing.assert_array_equal(
                fake_quantize(w, profile.device, scale=scale), w)


# ---------------------------------------------------------------------------
# End to end: QAT recovers post-mapping accuracy on an SHD slice
# ---------------------------------------------------------------------------
class TestQATRecovery:
    def test_aware_finetune_beats_posthoc_mapping(self):
        """Hardware-aware fine-tuning measurably improves post-mapping
        accuracy over post-hoc mapping of the ideal model (pinned
        seeds; reduced SHD slice, the acceptance point of ISSUE 5)."""
        dataset = generate_shd(
            SyntheticSHDConfig(n_per_class=12, steps=80), rng=0)
        train, test = dataset.split(0.75, rng=1)
        network = SpikingNetwork((700, 64, 20), rng=2)
        from repro.core.calibration import calibrate_firing

        calibrate_firing(network, train.inputs[:32], target_rate=0.08)
        trainer = Trainer(network, CrossEntropyRateLoss(), TrainerConfig(
            epochs=12, batch_size=32, learning_rate=1e-3,
            optimizer="adamw"), rng=3)
        trainer.fit(train.inputs, train.targets)

        profile = HardwareProfile.create(bits=4, variation=0.1, seed=13)
        posthoc, _ = accuracy_under_variation(
            network, test.inputs, test.targets, bits=4, variation=0.1,
            n_seeds=3, rng=11, device=profile.device)

        aware_net = SpikingNetwork((700, 64, 20), rng=2)
        aware_net.set_weights(network.weights)
        aware = Trainer(aware_net, CrossEntropyRateLoss(), TrainerConfig(
            epochs=5, batch_size=32, learning_rate=3e-4,
            optimizer="adamw", hardware=profile), rng=3)
        aware.fit(train.inputs, train.targets)
        recovered, _ = accuracy_under_variation(
            aware_net, test.inputs, test.targets, bits=4, variation=0.1,
            n_seeds=3, rng=11, device=profile.device)

        assert recovered > posthoc, (
            f"hardware-aware fine-tune did not recover accuracy: "
            f"post-hoc {posthoc:.4f} vs aware {recovered:.4f}")


# ---------------------------------------------------------------------------
# Co-trained pair through the registry into the server
# ---------------------------------------------------------------------------
class TestCoTrainedPairServing:
    def test_save_pair_cold_starts_the_pair(self, tmp_path):
        from repro.serve import ModelRegistry, ModelServer

        registry = ModelRegistry(str(tmp_path))
        profile = HardwareProfile.create(bits=4, variation=0.1, seed=13)
        network = SpikingNetwork((12, 8, 4), rng=0)
        version, profile_id = registry.save_pair(
            "aware", network, profile, meta={"mode": "hardware-aware"})
        assert (version, profile_id) == ("v0001", "hw0001")
        # A newer, unrelated profile must not shadow the co-saved one.
        registry.save_profile(
            "aware", HardwareProfile.create(bits=5, variation=0.0, seed=1))

        server = ModelServer.from_registry(registry, "aware",
                                           hardware_profile=True)
        assert server.model_version == version
        assert server.model_profile == profile_id
        assert server.hardware is not None
        assert server.hardware.device.levels == profile.device.levels
        # The served realization is the profile's own programming draw.
        expected = profile.build(network)
        for a, b in zip(server.hardware.weight_list(),
                        expected.weight_list()):
            np.testing.assert_array_equal(a, b)

    def test_explicit_profile_id_still_wins(self, tmp_path):
        from repro.serve import ModelRegistry, ModelServer

        registry = ModelRegistry(str(tmp_path))
        network = SpikingNetwork((12, 8, 4), rng=0)
        registry.save_pair("m", network,
                           HardwareProfile.create(bits=4, seed=2))
        registry.save_profile("m", HardwareProfile.create(bits=5, seed=3))
        server = ModelServer.from_registry(registry, "m",
                                           hardware_profile="hw0002")
        assert server.model_profile == "hw0002"
        assert server.hardware.device.levels == 32
