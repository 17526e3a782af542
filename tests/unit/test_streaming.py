"""Streaming equivalence: chunked ``run_stream`` == one-shot ``run``.

The load-bearing guarantee of the serving layer: a T-step sequence fed in
chunks of any sizes — at either precision — produces *bitwise-identical*
output spikes to the one-shot run, and a padded heterogeneous batch leaves
every stream exactly where its own data ended.

The guarantee rests on the CSR spike product computing output rows
independently (dense GEMM does not: BLAS picks different summation splits
for different row counts).  The streaming path forces CSR; the one-shot
probe picks it when the input is large and sparse enough — the equivalence
shapes here sit above that threshold and
``test_shapes_exercise_the_sparse_path`` pins the fact.
"""

import numpy as np
import pytest

from repro.common.errors import ShapeError
from repro.core import SpikingNetwork, StreamState, exp_scan
from repro.core import engine as engine_mod

#: Above the one-shot sparse-probe threshold at every layer:
#: 8*48*48 = 18432 and 8*48*44 = 16896, both >= _SPARSE_MIN_SIZE.
SIZES = (48, 44, 40)
BATCH, STEPS = 8, 48
DENSITY = 0.08


def make_net(kind="adaptive", seed=1):
    net = SpikingNetwork(SIZES, neuron_kind=kind, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_inputs(batch=BATCH, steps=STEPS, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((batch, steps, SIZES[0])) < DENSITY).astype(np.float64)


def stream_in_chunks(net, x, chunk, precision):
    state = None
    outs = []
    for start in range(0, x.shape[1], chunk):
        out, state = net.run_stream(x[:, start:start + chunk], state,
                                    precision=precision)
        outs.append(out)
    return np.concatenate(outs, axis=1), state


class TestChunkedEquivalence:
    def test_shapes_exercise_the_sparse_path(self):
        """The one-shot fused probe must pick CSR at every layer for the
        bitwise guarantee to be a theorem rather than luck."""
        net = make_net()
        x = make_inputs()
        _, record = net.run(x, record=True)
        layer_inputs = [x] + [rec.spikes for rec in record.layers[:-1]]
        for index, arr in enumerate(layer_inputs):
            flat = arr.reshape(-1, arr.shape[2])
            assert flat.size >= engine_mod._SPARSE_MIN_SIZE, index
            density = np.count_nonzero(flat) / flat.size
            assert 0 < density <= engine_mod.SPARSE_DENSITY_THRESHOLD, (
                index, density)

    @pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
    @pytest.mark.parametrize("engine", ["fused"])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("chunk", [1, 7, STEPS])
    def test_chunked_equals_one_shot(self, kind, engine, precision, chunk):
        net = make_net(kind)
        x = make_inputs()
        full, _ = net.run(x, engine=engine, precision=precision)
        got, state = stream_in_chunks(net, x, chunk, precision)
        assert got.dtype == full.dtype
        assert np.array_equal(full, got)
        assert state.steps.tolist() == [STEPS] * BATCH

    @pytest.mark.parametrize("engine", ["fused"])
    def test_irregular_chunk_boundaries(self, engine):
        net = make_net()
        x = make_inputs()
        full, _ = net.run(x, engine=engine)
        state = None
        outs = []
        bounds = [0, 1, 6, 7, 20, 43, STEPS]
        for a, b in zip(bounds[:-1], bounds[1:]):
            out, state = net.run_stream(x[:, a:b], state)
            outs.append(out)
        assert np.array_equal(full, np.concatenate(outs, axis=1))

    def test_empty_chunk_is_a_noop(self):
        net = make_net()
        x = make_inputs()
        state = None
        out, state = net.run_stream(x[:, :7], state)
        before = state.clone()
        empty, state = net.run_stream(x[:, :0], state)
        assert empty.shape == (BATCH, 0, SIZES[-1])
        for a, b in zip(state.layers, before.layers):
            for key in a:
                assert np.array_equal(a[key], b[key])
        assert state.steps.tolist() == before.steps.tolist()


class TestPaddedHeterogeneousBatch:
    """The micro-batcher primitive: gathered rows + per-row lengths."""

    def test_padded_batch_matches_solo_streams(self):
        net = make_net()
        rng = np.random.default_rng(3)
        lengths = np.array([5, 17, STEPS, 1, 29])
        count = len(lengths)
        data = [(rng.random((1, STEPS, SIZES[0])) < DENSITY)
                .astype(np.float64) for _ in range(count)]
        xs = np.zeros((count, STEPS, SIZES[0]))
        for i, length in enumerate(lengths):
            xs[i, :length] = data[i][0, :length]
        batched = StreamState.for_network(net, count)
        out, _ = net.run_stream(xs, batched, lengths=lengths)
        follow = (rng.random((1, 6, SIZES[0])) < DENSITY).astype(np.float64)
        for i, length in enumerate(lengths):
            solo_out, solo_state = net.run_stream(data[i][:, :length])
            assert np.array_equal(solo_out[0], out[i, :length])
            # captured state must continue identically to the solo stream
            cont_ref, _ = net.run_stream(follow, solo_state)
            scattered = StreamState.for_network(net, 1)
            scattered.copy_row(0, batched, i)
            cont_got, _ = net.run_stream(follow, scattered)
            assert np.array_equal(cont_ref, cont_got)
        assert batched.steps.tolist() == lengths.tolist()

    def test_length_validation(self):
        net = make_net()
        x = make_inputs(batch=3, steps=10)
        state = StreamState.for_network(net, 3)
        with pytest.raises(ShapeError):
            net.run_stream(x, state, lengths=np.array([1, 2]))
        with pytest.raises(ShapeError):
            net.run_stream(x, state, lengths=np.array([0, 5, 5]))
        with pytest.raises(ShapeError):
            net.run_stream(x, state, lengths=np.array([1, 5, 11]))


class TestStateContract:
    def test_precision_is_sticky(self):
        net = make_net()
        x = make_inputs(batch=2, steps=4)
        _, state = net.run_stream(x, precision="float32")
        with pytest.raises(ValueError):
            net.run_stream(x, state, precision="float64")
        # matching values pass
        net.run_stream(x, state, precision="float32")

    def test_batch_and_architecture_mismatch(self):
        net = make_net()
        x = make_inputs(batch=2, steps=4)
        _, state = net.run_stream(x)
        with pytest.raises(ShapeError):
            net.run_stream(make_inputs(batch=3, steps=4), state)
        other = SpikingNetwork((48, 30, 40), rng=0)
        with pytest.raises(ShapeError):
            other.run_stream(x, state)
        swapped = make_net("hard_reset")
        with pytest.raises(ShapeError):
            swapped.run_stream(x, state)

    def test_copy_row_rejects_foreign_states(self):
        adaptive = StreamState.for_network(make_net(), 1)
        hard_reset = StreamState.for_network(make_net("hard_reset"), 1)
        with pytest.raises(ValueError):
            adaptive.copy_row(0, hard_reset, 0)

    def test_clone_is_independent(self):
        net = make_net()
        x = make_inputs(batch=2, steps=6)
        _, state = net.run_stream(x)
        twin = state.clone()
        net.run_stream(x, state)
        assert state.steps.tolist() == [12, 12]
        assert twin.steps.tolist() == [6, 6]

    def test_fused_streaming_leaves_network_scratch_alone(self):
        net = make_net()
        x = make_inputs()
        net.run(x)  # deposits per-run scratch on layers/neurons
        k_before = [layer.k.copy() for layer in net.layers]
        h_before = [layer.neuron.h.copy() for layer in net.layers]
        net.run_stream(x[:, :9])
        for layer, k, h in zip(net.layers, k_before, h_before):
            assert np.array_equal(layer.k, k)
            assert np.array_equal(layer.neuron.h, h)


def continuous_drive_scans(net, x):
    """Per layer, the continuous scan ``exp_scan(W x, alpha)`` of the
    layer's crossbar drive over the whole of ``x`` (one-shot run)."""
    _, record = net.run(x, record=True)
    batch, steps, _ = x.shape
    scans = []
    for index, layer in enumerate(net.layers):
        flat = record.layer_input(index).reshape(batch * steps, layer.n_in)
        drive = engine_mod.spike_matmul(flat, layer.weight.T.copy(),
                                        csr=engine_mod._spike_csr(flat))
        scans.append(exp_scan(drive.reshape(batch, steps, layer.n_out),
                              layer.alpha))
    return scans


class TestExpScanCarry:
    """The kernels fold the synapse scan into their pass over time; the
    filtered drive they carry between chunks must still be exactly the
    continuous scan."""

    def test_carry_matches_continuous_scan(self):
        net = make_net()
        x = make_inputs()
        scans = continuous_drive_scans(net, x)
        rng = np.random.default_rng(3)
        state, start = None, 0
        while start < STEPS:
            stop = min(STEPS, start + int(rng.integers(1, 12)))
            _, state = net.run_stream(x[:, start:stop], state)
            for carry, scan in zip(state.layers, scans):
                np.testing.assert_array_equal(
                    carry["g"].view(np.uint8), scan[:, stop - 1].view(np.uint8))
            start = stop

    def test_carry_non_aliased_output(self):
        """Padded rows carry the scan at their own final valid step."""
        net = make_net()
        x = make_inputs()
        scans = continuous_drive_scans(net, x)
        lengths = np.random.default_rng(4).integers(1, STEPS + 1, size=BATCH)
        _, state = net.run_stream(x, lengths=lengths)
        rows = np.arange(BATCH)
        for carry, scan in zip(state.layers, scans):
            np.testing.assert_array_equal(
                carry["g"].view(np.uint8),
                scan[rows, lengths - 1].view(np.uint8))
