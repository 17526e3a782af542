"""Tests for the parallel runtime: workspace arenas, shard math, worker pool.

The load-bearing guarantees:

* a :class:`~repro.runtime.workspace.Workspace` is bitwise-transparent —
  fused runs/backwards through a (reused, shape-changing) workspace equal
  fresh-allocation runs exactly;
* the pooled execution of any sharded computation is bitwise-equal to the
  serial execution of the *same* shard split (gradients, inference chunks,
  Fig. 8 seeds), and ``workers=1`` is bitwise-equal to the plain serial
  trainer;
* ``workers=0`` changes nothing (it is the plain serial path).
"""

import numpy as np
import pytest

from repro.core import (
    CrossEntropyRateLoss,
    SpikingNetwork,
    StreamState,
    Trainer,
    TrainerConfig,
    backward,
)
from repro.core.calibration import calibrate_firing
from repro.core.trainer import run_in_batches
from repro.hardware import accuracy_under_variation
from repro.runtime import (
    WorkerPool,
    Workspace,
    combine_shard_results,
    data_parallel_grads,
    parallel_map,
    resolve_workers,
    shard_slices,
)


def make_task(n=48, steps=20, channels=10, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, steps, channels)) < 0.2).astype(np.float64)
    y = np.arange(n) % classes
    return x, y


def make_net(sizes=(10, 14, 3), seed=0, x=None):
    net = SpikingNetwork(sizes, rng=seed)
    if x is not None:
        calibrate_firing(net, x[:16], target_rate=0.15)
    else:
        for layer in net.layers:
            layer.weight *= 6.0
    return net


# ---------------------------------------------------------------------------
# Workspace
# ---------------------------------------------------------------------------
class TestWorkspace:
    def test_release_then_reuse_returns_same_buffer(self):
        ws = Workspace()
        a = ws.empty((4, 5), np.float64)
        ws.release(a)
        b = ws.empty((4, 5), np.float64)
        assert b is a
        assert ws.hits == 1 and ws.misses == 1

    def test_shape_and_dtype_are_exact_keys(self):
        ws = Workspace()
        a = ws.empty((4, 5), np.float64)
        ws.release(a)
        assert ws.empty((5, 4), np.float64) is not a
        assert ws.empty((4, 5), np.float32) is not a

    def test_foreign_and_double_release_ignored(self):
        ws = Workspace()
        foreign = np.zeros((3, 3))
        ws.release(foreign, None)
        assert ws.idle_bytes == 0
        a = ws.empty((3, 3))
        ws.release(a)
        ws.release(a)  # second release: no duplicate pooling
        assert ws.empty((3, 3)) is a
        assert ws.empty((3, 3)) is not a

    def test_zeros(self):
        ws = Workspace()
        a = ws.empty((8,))
        a[:] = 7.0
        ws.release(a)
        b = ws.zeros((8,))
        assert b is a and np.all(b == 0.0)

    def test_eviction_cap(self):
        ws = Workspace(max_bytes=1024)
        big = [ws.empty((64,), np.float64) for _ in range(4)]  # 512 B each
        ws.release(*big)
        assert ws.idle_bytes <= 1024

    def test_eviction_queue_stays_bounded(self):
        # One queue entry per *idle* buffer: steady-state checkout/release
        # cycles must not accumulate stale entries (a long training run
        # would otherwise leak memory and evict the wrong buffers).
        ws = Workspace()
        for _ in range(100):
            a = ws.empty((8, 8))
            b = ws.empty((4, 4))
            ws.release(a, b)
        assert len(ws._fifo) == 2
        assert ws.idle_bytes == a.nbytes + b.nbytes

    def test_lent_buffers_are_kept_alive(self):
        # The strong reference prevents id-reuse corruption: a checked-out
        # buffer must never be collectable while the workspace thinks it
        # is lent.
        ws = Workspace()
        ws.empty((16,))
        assert ws.lent_count == 1
        ws.reclaim()
        assert ws.lent_count == 0

    def test_memory_stays_bounded_over_varied_tick_shapes(self):
        # A long-lived server's workspace sees a new ``count x t_max`` tick
        # shape all the time.  Everything it retains — idle buffers and
        # any cached scratch — must stay under its cap, not grow with the
        # number of distinct shapes seen.
        net = SpikingNetwork((40, 24, 10), rng=0)
        ws = Workspace(max_bytes=1 << 16)
        rng = np.random.default_rng(0)
        for _ in range(80):
            count = int(rng.integers(1, 9))
            t_max = int(rng.integers(1, 17))
            chunk = ws.empty((count, t_max, 40))
            chunk[...] = rng.random(chunk.shape) < 0.2
            state = StreamState.for_network(net, count, ws=ws)
            lengths = rng.integers(1, t_max + 1, size=count)
            out, _ = net.run_stream(chunk, state, workspace=ws,
                                    lengths=lengths)
            state.release_to(ws)
            ws.release(chunk, out)
            assert ws.lent_count == 0
            assert _retained_bytes(ws) <= ws.max_bytes


def _retained_bytes(ws) -> int:
    """Bytes of every distinct array reachable from ``ws``'s attributes."""
    seen, total, pending = set(), 0, list(vars(ws).values())
    while pending:
        item = pending.pop()
        if isinstance(item, np.ndarray):
            if id(item) not in seen:
                seen.add(id(item))
                total += item.nbytes
        elif isinstance(item, dict):
            pending.extend(item.keys())
            pending.extend(item.values())
        elif isinstance(item, (list, tuple, set)) or hasattr(item, "popleft"):
            pending.extend(item)
    return total


class TestWorkspaceEquivalence:
    """With-workspace results must equal fresh-allocation results bitwise,
    including across consecutive calls with differing shapes (the arena
    then serves a mix of reused and new buffers)."""

    @pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
    def test_forward_backward_across_differing_shapes(self, kind):
        net = SpikingNetwork((10, 12, 4), rng=3, neuron_kind=kind)
        for layer in net.layers:
            layer.weight *= 6.0
        rng = np.random.default_rng(4)
        shapes = [(6, 15), (9, 11), (6, 15)]   # third call reuses the first's
        batches = [(rng.random((b, t, 10)) < 0.2).astype(np.float64)
                   for b, t in shapes]
        ws = Workspace()
        for x in batches:
            out_ws, rec_ws = net.run(x, record=True, workspace=ws)
            out_ref, rec_ref = net.run(x, record=True)
            np.testing.assert_array_equal(out_ws, out_ref)
            grad_out = np.ones_like(out_ws) / out_ws.size
            res_ws = backward(net, rec_ws, grad_out, workspace=ws)
            res_ref = backward(net, rec_ref, grad_out)
            for g_ws, g_ref in zip(res_ws.weight_grads, res_ref.weight_grads):
                np.testing.assert_array_equal(g_ws, g_ref)
            np.testing.assert_array_equal(res_ws.input_grad,
                                          res_ref.input_grad)
            for lr in rec_ws.layers:
                ws.release(lr.v, lr.spikes)
            ws.release(out_ws)
        assert ws.hits > 0  # the arena actually got reused

    def test_trainer_steady_state_reuses_buffers(self):
        x, y = make_task()
        net = make_net(x=x)
        trainer = Trainer(net, CrossEntropyRateLoss(),
                          TrainerConfig(epochs=1, batch_size=16,
                                        learning_rate=1e-2), rng=1)
        trainer.train_batch(x[:16], y[:16])
        misses_after_warmup = trainer._workspace.misses
        trainer.train_batch(x[16:32], y[16:32])
        # Steady state: the second identical-shape batch allocates nothing
        # and every buffer has been handed back.
        assert trainer._workspace.misses == misses_after_warmup
        assert trainer._workspace.lent_count == 0

    def test_backward_without_input_grad_matches(self):
        x, y = make_task(n=16)
        net = make_net(x=x)
        loss = CrossEntropyRateLoss()
        outputs, record = net.run(x, record=True)
        _, grad_out = loss.value_and_grad(outputs, y)
        full = backward(net, record, grad_out)
        lean = backward(net, record, grad_out, need_input_grad=False)
        for a, b in zip(full.weight_grads, lean.weight_grads):
            np.testing.assert_array_equal(a, b)
        assert lean.input_grad is None
        assert full.input_grad is not None


# ---------------------------------------------------------------------------
# Shard math
# ---------------------------------------------------------------------------
class TestShardHelpers:
    def test_shard_slices_cover_and_are_contiguous(self):
        for n, shards in [(10, 3), (8, 2), (5, 8), (64, 4)]:
            slices = shard_slices(n, shards)
            covered = []
            for sl in slices:
                covered.extend(range(sl.start, sl.stop))
            assert covered == list(range(n))
            sizes = [sl.stop - sl.start for sl in slices]
            assert max(sizes) - min(sizes) <= 1

    def test_combine_preserves_full_batch_semantics(self):
        # Equal shards with weight 1/2 each reconstruct the batch mean.
        g_a, g_b = np.full((2, 2), 4.0), np.full((2, 2), 8.0)
        loss, grads = combine_shard_results(
            [(1.0, 8, [g_a]), (3.0, 8, [g_b])], 16)
        assert loss == 2.0
        np.testing.assert_array_equal(grads[0], np.full((2, 2), 6.0))

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 0
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestDataParallelSerial:
    def test_two_shards_match_full_batch_to_rounding(self):
        x, y = make_task()
        net = make_net(x=x)
        loss = CrossEntropyRateLoss()
        l1, g1 = data_parallel_grads(net, loss, x, y, n_shards=1)
        l2, g2 = data_parallel_grads(net, loss, x, y, n_shards=2)
        assert l2 == pytest.approx(l1, rel=1e-12)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-13)

    def test_sharded_grads_are_reproducible_bitwise(self):
        x, y = make_task()
        net = make_net(x=x)
        loss = CrossEntropyRateLoss()
        la, ga = data_parallel_grads(net, loss, x, y, n_shards=3)
        lb, gb = data_parallel_grads(net, loss, x, y, n_shards=3)
        assert la == lb
        for a, b in zip(ga, gb):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Worker pool (spawns real processes; kept tiny)
# ---------------------------------------------------------------------------
def _double(value):
    return 2 * value


def _fail_on_two(value):
    if value == 2:
        raise ValueError("boom")
    return 10 * value


def _raise_broken_pipe(value):
    raise BrokenPipeError("user-task pipe error")


def _echo(value):
    return value


class TestWorkerPool:
    def test_run_sharded_bitwise_equals_serial(self):
        x, _ = make_task()
        net = make_net(x=x)
        serial = run_in_batches(net, x, batch_size=16)
        with WorkerPool(net, workers=2) as pool:
            parallel = pool.run_sharded(x, batch_size=16)
            np.testing.assert_array_equal(serial, parallel)
            # run_in_batches(workers=...) routes through a pool too
            np.testing.assert_array_equal(
                serial, run_in_batches(net, x, batch_size=16, pool=pool))

    def test_grad_shards_bitwise_equal_serial_shards(self):
        x, y = make_task()
        net = make_net(x=x)
        loss = CrossEntropyRateLoss()
        loss_s, grads_s = data_parallel_grads(net, loss, x, y, n_shards=2)
        with WorkerPool(net, workers=2, loss=loss) as pool:
            loss_p, grads_p = data_parallel_grads(net, loss, x, y,
                                                  n_shards=2, pool=pool)
        assert loss_p == loss_s
        for a, b in zip(grads_s, grads_p):
            np.testing.assert_array_equal(a, b)

    def test_trainer_one_worker_bitwise_equals_serial(self):
        x, y = make_task()
        loss = CrossEntropyRateLoss()
        serial = Trainer(make_net(x=x), loss, TrainerConfig(
            epochs=2, batch_size=16, learning_rate=1e-2), rng=1)
        serial.fit(x, y)
        with Trainer(make_net(x=x), loss, TrainerConfig(
                epochs=2, batch_size=16, learning_rate=1e-2,
                workers=1), rng=1) as parallel:
            parallel.fit(x, y)
            for a, b in zip(serial.network.weights,
                            parallel.network.weights):
                np.testing.assert_array_equal(a, b)

    def test_trainer_two_workers_trains_equivalently(self):
        x, y = make_task()
        loss = CrossEntropyRateLoss()
        serial = Trainer(make_net(x=x), loss, TrainerConfig(
            epochs=2, batch_size=16, learning_rate=1e-2), rng=1)
        serial.fit(x, y)
        with Trainer(make_net(x=x), loss, TrainerConfig(
                epochs=2, batch_size=16, learning_rate=1e-2,
                workers=2), rng=1) as parallel:
            parallel.fit(x, y)
            for a, b in zip(serial.network.weights,
                            parallel.network.weights):
                np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-11)
            # The sharded eval path returns the identical metrics.
            assert parallel.evaluate(x, y) == serial.evaluate(x, y)

    def test_pool_serves_neuron_kind_swap(self):
        x, y = make_task()
        loss = CrossEntropyRateLoss()
        with Trainer(make_net(x=x), loss, TrainerConfig(
                epochs=1, batch_size=16, learning_rate=1e-2,
                workers=2), rng=1) as trainer:
            trainer.fit(x, y)
            hr = trainer.network.with_neuron_kind("hard_reset")
            pooled = trainer.evaluate(x, y, network=hr)
        serial = run_in_batches(hr, x, batch_size=16)
        expected = loss.metrics(serial, y)
        assert pooled == expected

    def test_large_dispatch_does_not_deadlock(self):
        # Commands and replies together far exceed the OS pipe buffers;
        # a send-everything-then-receive protocol deadlocks here (master
        # blocked in send, worker blocked in reply send).  The windowed
        # dispatch must stream through.
        payload = b"x" * 1024
        items = [(index, payload) for index in range(1000)]
        with WorkerPool(workers=2, timeout=60) as pool:
            assert pool.map(_echo, items) == items

    def test_oversized_payloads_do_not_deadlock(self):
        # Individual commands AND replies each exceed the 64 KiB pipe
        # buffer; they may only be in flight to an idle (draining) worker.
        payload = b"y" * (100 * 1024)
        items = [(index, payload) for index in range(12)]
        with WorkerPool(workers=2, timeout=60) as pool:
            assert pool.map(_echo, items) == items

    def test_windowed_staging_matches_serial(self, monkeypatch):
        # With the arena cap forced tiny, inference is staged in bounded
        # windows; chunk boundaries (and outputs) must stay identical.
        x, _ = make_task()
        net = make_net(x=x)
        serial = run_in_batches(net, x, batch_size=8)
        with WorkerPool(net, workers=2) as pool:
            monkeypatch.setattr(type(pool), "ARENA_CAP_BYTES", 1)
            np.testing.assert_array_equal(
                serial, pool.run_sharded(x, batch_size=8))

    def test_pool_survives_arena_growth(self):
        # Growing dispatch sizes replace the shm arenas (new segments);
        # workers must re-attach and prune superseded blocks without
        # disturbing results.
        rng = np.random.default_rng(5)
        net = make_net()
        with WorkerPool(net, workers=2) as pool:
            for n in (8, 40, 120, 16):
                x = (rng.random((n, 12, 10)) < 0.2).astype(np.float64)
                np.testing.assert_array_equal(
                    pool.run_sharded(x, batch_size=8),
                    run_in_batches(net, x, batch_size=8))

    def test_pool_reuse_tracks_weight_updates(self):
        # A pool handed around via pool= must compute with the master's
        # *current* weights, not the ones captured at construction.
        x, _ = make_task()
        net = make_net(x=x)
        with WorkerPool(net, workers=2) as pool:
            before = pool.run_sharded(x, batch_size=16)
            for layer in net.layers:
                layer.weight *= 0.5
            after = pool.run_sharded(x, batch_size=16)
            np.testing.assert_array_equal(
                after, run_in_batches(net, x, batch_size=16))
            assert not np.array_equal(before, after)

    def test_fig8_point_identical_for_fixed_seeds(self):
        x, y = make_task()
        net = make_net(x=x)
        serial = accuracy_under_variation(net, x, y, bits=4, variation=0.3,
                                          n_seeds=4, rng=7)
        parallel = accuracy_under_variation(net, x, y, bits=4, variation=0.3,
                                            n_seeds=4, rng=7, workers=2)
        assert serial == parallel  # mean AND std, exactly

    def test_fig8_point_windowed_staging_identical(self, monkeypatch):
        # With a tiny arena cap the eval set is staged in sample windows
        # and per-task correct counts are summed; the seed fully
        # determines each programming draw, so the result is unchanged.
        x, y = make_task()
        net = make_net(x=x)
        serial = accuracy_under_variation(net, x, y, bits=4, variation=0.3,
                                          n_seeds=3, rng=7,
                                          batch_size=16)
        with WorkerPool(net, workers=2) as pool:
            monkeypatch.setattr(type(pool), "ARENA_CAP_BYTES", 1)
            parallel = accuracy_under_variation(net, x, y, bits=4,
                                                variation=0.3, n_seeds=3,
                                                rng=7, batch_size=16,
                                                pool=pool)
        assert serial == parallel

    def test_map_and_parallel_map(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
            assert parallel_map(_double, [5, 6], pool=pool) == [10, 12]
        assert parallel_map(_double, [5, 6], workers=0) == [10, 12]

    def test_worker_error_propagates(self):
        x, _ = make_task()
        net = make_net(x=x)
        with WorkerPool(net, workers=1) as pool:
            with pytest.raises(RuntimeError, match="worker 0 raised"):
                pool.run_sharded(np.zeros((4, 5, 99)), batch_size=4)

    def test_task_raising_broken_pipe_is_a_worker_error(self):
        # A user task raising BrokenPipeError must be reported like any
        # other task exception — not mistaken for a dead reply pipe
        # (which would silently kill the worker and degrade the pool).
        from repro.runtime import WorkerError

        with WorkerPool(workers=1) as pool:
            with pytest.raises(WorkerError, match="user-task pipe error"):
                pool.map(_raise_broken_pipe, [1])
            assert pool.map(_double, [7]) == [14]

    def test_pool_survives_worker_error_without_desync(self):
        # A failed dispatch must drain the in-flight replies; otherwise a
        # later dispatch reads the previous dispatch's replies as its own
        # and silently returns misattributed results.
        with WorkerPool(workers=2) as pool:
            with pytest.raises(RuntimeError, match="worker"):
                pool.map(_fail_on_two, [1, 2, 3, 4, 5, 6])
            assert pool.map(_double, [10, 20, 30, 40]) == [20, 40, 60, 80]

    def test_grad_dispatch_with_single_shard_uses_the_pool(self, monkeypatch):
        # workers=1 documents "the serial gradients, just in another
        # process" — the single shard must actually reach the worker.
        x, y = make_task()
        net = make_net(x=x)
        loss = CrossEntropyRateLoss()
        loss_s, grads_s = data_parallel_grads(net, loss, x, y, n_shards=1)
        with WorkerPool(net, workers=1, loss=loss) as pool:
            # Break the master-side fallback: a result can now only come
            # from the worker process (which holds its own module copy).
            import repro.runtime.parallel as parallel_module

            def boom(*args, **kwargs):
                raise AssertionError("shard computed in master")

            monkeypatch.setattr(parallel_module, "shard_grads", boom)
            loss_p, grads_p = data_parallel_grads(net, loss, x, y,
                                                  n_shards=1, pool=pool)
            assert loss_p == loss_s
            for a, b in zip(grads_s, grads_p):
                np.testing.assert_array_equal(a, b)

    def test_close_is_idempotent_and_rejects_use(self):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_double, [1])

    def test_dead_worker_heals_and_close_stays_quiet(self):
        # A worker killed out-of-band no longer dooms the pool: the
        # dispatch respawns it, requeues its shards, and returns the
        # fault-free results.  close() afterwards must neither raise nor
        # warn — it is the path __del__ and the atexit hook take, where
        # any exception becomes stderr noise the user cannot act on.
        import warnings

        from repro.runtime import RestartPolicy

        pool = WorkerPool(workers=2,
                          restart_policy=RestartPolicy(backoff_s=0.01))
        pool._procs[0].kill()
        pool._procs[0].join()
        assert pool.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert pool.stats["restarts"] == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool.close()
            pool.close()
        del pool  # __del__ on the closed pool must also stay silent

    def test_interpreter_exit_with_busy_pool_is_quiet(self):
        # A daemon thread frozen mid-dispatch keeps the pool referenced
        # at interpreter exit, so __del__ alone never runs; the atexit
        # hook must still close it, or the resource tracker prints a
        # "leaked shared_memory objects" warning and workers spray
        # BrokenPipeError tracebacks.
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent("""
            import threading, time
            import numpy as np
            from repro import SpikingNetwork, WorkerPool

            net = SpikingNetwork((10, 8, 3), rng=0)
            pool = WorkerPool(net, workers=2)
            thread = threading.Thread(
                target=lambda: pool.map(time.sleep, [0.4] * 4))
            thread.daemon = True
            thread.start()
            time.sleep(0.1)
            print("exiting busy")   # exit with the dispatch in flight
        """)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 0, result.stderr
        assert "exiting busy" in result.stdout
        assert result.stderr.strip() == "", result.stderr


# ---------------------------------------------------------------------------
# run_in_batches parameter unification
# ---------------------------------------------------------------------------
class TestRunInBatchesUnified:
    def test_precision_and_legacy_dtype_agree(self):
        x, _ = make_task(n=10)
        net = make_net(x=x)
        via_precision = run_in_batches(net, x, 4, precision="float32")
        via_dtype = run_in_batches(net, x, 4, dtype=np.float32)
        assert via_precision.dtype == np.float32
        np.testing.assert_array_equal(via_precision, via_dtype)

    def test_precision_wins_over_dtype(self):
        x, _ = make_task(n=8)
        net = make_net(x=x)
        out = run_in_batches(net, x, 4, dtype=np.float32,
                             precision="float64")
        assert out.dtype == np.float64

    def test_workspace_serial_path_identical(self):
        x, _ = make_task(n=12)
        net = make_net(x=x)
        ws = Workspace()
        np.testing.assert_array_equal(
            run_in_batches(net, x, 5),
            run_in_batches(net, x, 5, workspace=ws))
