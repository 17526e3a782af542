"""The benchmark's workloads: set-up, timed loop and correctness check.

Every workload uses the paper MLP (``benchcfg.bench_network``:
700-128-128-20, adaptive neurons, float64, ideal weights) and spike
inputs at ~3 % density drawn from the run's seed before any timing
starts.  The program receives only those generated arrays.

* ``stream-steady`` -- an open loop: arrivals of a Poisson process at a
  fixed rate that keeps the server about half busy, spread over 32
  sessions, into ``ModelServer`` in wall-clock time.  The latency-SLO case: the 5 ms
  coalescing window sets p50, and per-request serve overhead is a large
  share of the small batches it forms.
* ``stream-saturate`` -- a closed loop of 64 sessions, each submitting its
  next chunk as soon as the previous one is answered, so every tick runs
  a full batch of 16: bound by the streaming kernel.  Closed, not open,
  because an open-loop overload spends its time generating and rejecting
  requests instead of measuring capacity.
* ``train-bptt`` -- serial ``Trainer.train_batch`` (AdamW, exact BPTT) on
  a fixed labelled synthetic set: the batch forward, fused backward,
  loss and optimizer, with no serving code involved.

A workload is a class with ``prepare(seed, seconds)`` (everything before
the first timed operation; the runner repeats it to time set-up),
``measure(seconds, tracer)`` and ``check()``.  With a tracer the
measurement alternates untraced and traced blocks of ``BLOCK_S`` seconds
(shorter in runs under four blocks), so the per-layer numbers and the
tracing overhead come from one run.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

from repro.common.benchcfg import BENCH_SPIKE_DENSITY, bench_network
from repro.common.errors import CapacityError
from repro.core import backprop, engine
from repro.core.engine import StreamState
from repro.core.loss import CrossEntropyRateLoss
from repro.core.network import SpikingNetwork
from repro.core.optim import AdamW
from repro.core.trainer import Trainer, TrainerConfig
from repro.runtime.workspace import Workspace
from repro.serve.server import ModelServer
from spans import summarize

CHUNK_STEPS = 10
MAX_BATCH = 16
MAX_WAIT_MS = 5.0
QUEUE_LIMIT = 128
#: Per-chunk latency limit of ``slo_ratio``: four coalescing windows.
SLO_MS = 20.0
STEADY_SESSIONS = 32
#: Offered rate of ``stream-steady``.  It keeps the server about half busy
#: on a 2-core x86 VM (a ~2.5 ms tick every ~5 ms window) with margin
#: below the rate at which a 20 % slower machine builds a backlog.
STEADY_RATE = 1500.0
SATURATE_SESSIONS = 64
#: Distinct pregenerated chunks; each session streams a seeded sequence of
#: them, which keeps input memory small.  Nothing in the program caches
#: by input, and session state differs, so repeats save no work.
CHUNK_POOL = 256
#: Sessions whose served outputs are replayed alone and compared bitwise.
CHECK_SESSIONS = 4
WARMUP_TICKS = 20
TRAIN_BATCH = 64
TRAIN_STEPS = 100
TRAIN_SET_BATCHES = 2
WARMUP_TRAIN_STEPS = 2
#: Per-step latency limit of ``slo_ratio`` on ``train-bptt``.
TRAIN_SLO_MS = 400.0
#: Tolerance the tier-1 tests pin for fused against reference gradients.
GRAD_RTOL, GRAD_ATOL = 1e-8, 1e-12
#: Length of each untraced / traced block of a traced run.
BLOCK_S = 1.0
#: Width of the windows the rates are computed over, and the wider one
#: that holds enough training steps for a stable mean.
WINDOW_S = 1.0
TRAIN_WINDOW_S = 2.5
#: Width of the windows the streaming percentiles are taken over.  The
#: shared host preempts the process for ~10 ms a few times a second (a
#: slow tick then shows ~12 ms of wall time for ~3 ms of CPU time), and
#: one such stall delays every chunk in flight.  Over 1 s windows most
#: windows held one, so their p99 measured the host; over 0.1 s windows
#: most hold none.
PERCENTILE_WINDOW_S = 0.1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _spikes(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.random(shape) < BENCH_SPIKE_DENSITY).astype(np.float64)


def percentile(values, q: float) -> float:
    """numpy's linear-interpolation percentile, ``nan`` when empty."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else math.nan


def install_layer_spans(tracer) -> None:
    """Register the wrappers around every layer's public calls."""

    def matmul_attrs(args, kwargs, result):
        csr = kwargs.get("csr", args[2] if len(args) > 2 else None)
        if hasattr(csr, "nnz"):
            rows, cols = csr.shape
            return {"nnz": int(csr.nnz), "cells": int(rows) * int(cols)}
        return None

    tracer.patch(ModelServer, "submit", "serve.submit")
    tracer.patch(ModelServer, "poll", "serve.poll")
    tracer.patch(StreamState, "copy_row", "engine.copy_row")
    tracer.patch(SpikingNetwork, "run_stream", "network.run_stream")
    tracer.patch(SpikingNetwork, "run", "network.run")
    tracer.patch(engine, "spike_matmul", "engine.spike_matmul", matmul_attrs)
    tracer.patch(engine, "exp_scan", "engine.exp_scan")
    tracer.patch(engine, "spike_outer", "engine.spike_outer")
    tracer.patch(engine, "exp_scan_reverse", "engine.exp_scan_reverse")
    tracer.patch(backprop, "backward", "backprop.backward")
    tracer.patch(CrossEntropyRateLoss, "value_and_grad", "loss.value_and_grad")
    tracer.patch(AdamW, "step", "optim.step")
    tracer.patch(Trainer, "train_batch", "trainer.train_batch")
    tracer.watch_workspaces(Workspace)


class Blocks:
    """Alternates untraced and traced blocks of a traced measurement.

    Without a tracer every operation is untraced.  Toggling happens only
    between top-level calls, so no span is ever left open.
    """

    def __init__(self, tracer, start: float, seconds: float):
        self.tracer = tracer
        self.traced_wall = 0.0
        # Short runs still get traced blocks.
        self._block = min(BLOCK_S, seconds / 4)
        self._next = start + self._block
        self._since = start

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.tracer.installed

    def update(self, now: float) -> None:
        if self.tracer is None or now < self._next:
            return
        if self.tracer.installed:
            self.tracer.uninstall()
            self.traced_wall += now - self._since
        else:
            self.tracer.install()
            self._since = now
        self._next = now + self._block

    def finish(self, now: float) -> None:
        if self.traced:
            self.tracer.uninstall()
            self.traced_wall += now - self._since


class Windows:
    """Splits a run of ``seconds`` into equal windows of about ``window``.

    Rates and percentiles are computed per window and reported as the
    median over windows, so a short stall of the shared machine moves one
    window, not the result.  ``offsets`` (seconds from the start) place
    each sample in a window; samples outside the run belong to none.
    """

    def __init__(self, seconds: float, offsets, window: float = WINDOW_S):
        self.count = max(1, int(seconds // window))
        self.width = seconds / self.count
        offsets = np.asarray(offsets, dtype=np.float64)
        index = np.full(offsets.shape, -1)
        inside = (offsets >= 0) & (offsets < seconds)
        index[inside] = np.minimum(offsets[inside] // self.width,
                                   self.count - 1)
        self.index = index

    def each(self, values, fn) -> list[float]:
        """Per window that holds samples, ``fn`` of its values."""
        values = np.asarray(values)
        groups = (values[self.index == w] for w in range(self.count))
        return [float(fn(g)) for g in groups if g.size]

    def rates(self) -> list[float]:
        """Per window, samples per second."""
        counts = np.bincount(self.index[self.index >= 0],
                             minlength=self.count)
        return [count / self.width for count in counts]


class Measurement:
    """What one timed run produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: End-to-end metric values (the runner adds set-up and memory).
        self.e2e: dict[str, float] = {}
        #: Raw samples behind each end-to-end metric, for the report.
        self.samples: dict[str, list] = {}
        #: Per-layer metric values of a traced run.
        self.layers: dict[str, float] = {}


#: Spans whose busy time per tick / step is reported as ``<name>.ms``.
_TIMED = ("serve.submit", "serve.poll", "engine.copy_row",
          "network.run_stream", "engine.spike_matmul", "engine.exp_scan",
          "trainer.train_batch", "network.run", "backprop.backward",
          "engine.spike_outer", "engine.exp_scan_reverse",
          "loss.value_and_grad", "optim.step")
#: Spans whose call count in the traced blocks is ``<name>.calls``.
_COUNTED = ("serve.submit", "serve.poll", "engine.copy_row",
            "network.run_stream", "engine.spike_matmul", "engine.exp_scan")
#: Spans whose self time per tick / step is ``<name>.self_ms``.
_SELF = ("serve.poll", "network.run_stream", "network.run",
         "backprop.backward")


def span_layers(tracer, op_span: str, traced_wall: float,
                workspaces_before: dict, step_ms, traced_mask) -> dict:
    """Per-layer metrics shared by every workload.

    ``op_span`` names the span that marks one tick or step; ``.ms``
    values are per op.  ``step_ms`` / ``traced_mask`` are the per-op wall
    times and whether each ran traced, for ``trace.overhead_ratio``.
    """
    stats = summarize(tracer)
    empty = {"calls": 0, "busy": 0.0, "self": 0.0}
    ops = stats.get(op_span, empty)["calls"]
    scale = 1e3 / ops if ops else 0.0
    layers = {f"{name}.ms": stats.get(name, empty)["busy"] * scale
              for name in _TIMED}
    layers.update({f"{name}.self_ms": stats.get(name, empty)["self"] * scale
                   for name in _SELF})
    layers.update({f"{name}.calls": float(stats.get(name, empty)["calls"])
                   for name in _COUNTED})
    nnz = cells = 0
    for extra in tracer.attrs.values():
        nnz += extra.get("nnz", 0)
        cells += extra.get("cells", 0)
    layers["engine.spike_matmul.density"] = nnz / cells if cells else 0.0
    layers["trace.coverage_ratio"] = (stats["<root>"]["busy"] / traced_wall
                                      if traced_wall else 0.0)
    hits = checkouts = 0
    for key, (h, m) in tracer.workspace_counts().items():
        h0, m0 = workspaces_before.get(key, (0, 0))
        hits += h - h0
        checkouts += (h - h0) + (m - m0)
    layers["workspace.hit_ratio"] = hits / checkouts if checkouts else 0.0
    step_ms = np.asarray(step_ms)
    mask = np.asarray(traced_mask, dtype=bool)
    layers["trace.overhead_ratio"] = (percentile(step_ms[mask], 50)
                                      / percentile(step_ms[~mask], 50))
    return layers


# -- streaming ---------------------------------------------------------------

class _StreamWorkload:
    sessions = 0

    def prepare(self, seed: int, seconds: float) -> None:
        self.network = bench_network()
        self.pool = _spikes(_rng(seed, 1),
                            (CHUNK_POOL, CHUNK_STEPS, self.network.sizes[0]))
        self.server = ModelServer(self.network, max_batch=MAX_BATCH,
                                  max_wait_ms=MAX_WAIT_MS,
                                  queue_limit=QUEUE_LIMIT)
        self._warm_up()
        self.sids = [self.server.open_session()
                     for _ in range(self.sessions)]
        picks = _rng(seed, 2).choice(self.sessions, CHECK_SESSIONS,
                                     replace=False)
        #: Per checked session: accepted pool indices and their tickets.
        self.accepted = {int(row): ([], []) for row in sorted(picks)}
        self._plan(_rng(seed, 3), seconds)

    def _warm_up(self) -> None:
        """Full ticks on throwaway sessions, so the workspace and the
        libraries' lazy set-up are warm before timing."""
        sids = [self.server.open_session() for _ in range(MAX_BATCH)]
        for tick in range(WARMUP_TICKS):
            for row, sid in enumerate(sids):
                self.server.submit(sid, self.pool[(tick + row) % CHUNK_POOL])
            self.server.flush()
        for sid in sids:
            self.server.close_session(sid)

    def _submit(self, row: int, chunk_index: int):
        """Submit one chunk; returns its ticket, or ``None`` if refused."""
        try:
            ticket = self.server.submit(self.sids[row], self.pool[chunk_index])
        except CapacityError:
            return None
        kept = self.accepted.get(row)
        if kept is not None:
            kept[0].append(chunk_index)
            kept[1].append(ticket)
        return ticket

    def check(self) -> list[str]:
        """Replay each checked session's accepted chunks alone, through
        ``run_stream`` on a fresh state, and compare the served outputs
        bitwise; then verify the server's ticket books."""
        problems = []
        for row, (indices, tickets) in self.accepted.items():
            if not tickets:
                continue
            if not all(t.ok for t in tickets):
                problems.append(f"session {row}: an accepted chunk was not "
                                f"answered")
                continue
            served = np.concatenate([t.outputs for t in tickets])
            state = self.network.new_stream_state(1)
            alone = []
            for start in range(0, len(indices), 100):
                chunk = self.pool[indices[start:start + 100]]
                out, state = self.network.run_stream(
                    chunk.reshape(1, -1, chunk.shape[-1]), state)
                alone.append(out[0])
            if not np.array_equal(served, np.concatenate(alone)):
                problems.append(f"session {row}: served outputs differ from "
                                f"the session streamed alone")
        try:
            self.server.check_invariants()
        except Exception as exc:  # the server's own books; report, not crash
            problems.append(f"check_invariants: {exc}")
        return problems

    def _result(self, seconds: float, due, done, late, tick_at, tick_s,
                tick_traced, before: dict, blocks: Blocks, tracer,
                workspaces_before: dict) -> Measurement:
        """Metrics from per-chunk due and answer times and per-tick start
        times (offsets from the start; ``done`` is ``inf`` when a chunk
        was refused or failed) and per-tick wall times."""
        result = Measurement()
        due, done = np.asarray(due), np.asarray(done)
        latency_ms = (done - due) * 1e3
        answered = np.isfinite(done)
        result.attempted = len(due)
        result.failed = len(due) - int(answered.sum())
        tick_ms = np.asarray(tick_s) * 1e3
        untraced = ~np.asarray(tick_traced, dtype=bool)
        rates = Windows(seconds, done).rates()
        per_sample = CHUNK_STEPS / TRAIN_STEPS
        # Percentiles are taken per window (chunks by due time, ticks by
        # start) and the median over windows is reported: a stall of the
        # shared machine fills the tail of one window, not of the run.
        # ``slo_ratio`` still counts every chunk of the run.
        by_due = Windows(seconds, due[answered], PERCENTILE_WINDOW_S)
        by_tick = Windows(seconds, np.asarray(tick_at)[untraced],
                          PERCENTILE_WINDOW_S)
        answered_ms, ticks = latency_ms[answered], tick_ms[untraced]
        result.samples = {
            "latency_p50_ms": by_due.each(answered_ms,
                                          lambda g: percentile(g, 50)),
            "latency_p99_ms": by_due.each(answered_ms,
                                          lambda g: percentile(g, 99)),
            "throughput_cps": rates,
            "train_sps": [rate * per_sample for rate in rates],
            "step_p50_ms": by_tick.each(ticks, lambda g: percentile(g, 50)),
            "step_p90_ms": by_tick.each(ticks, lambda g: percentile(g, 90)),
        }
        result.e2e = {name: float(np.median(values))
                      for name, values in result.samples.items()}
        result.e2e["slo_ratio"] = float(np.mean(latency_ms <= SLO_MS))
        if tracer is not None:
            after = self.server.stats
            served = after["ticks"] - before["ticks"]
            wait = self.server.metrics.histogram("serve.queue_wait_ms")
            result.layers = span_layers(tracer, "serve.poll",
                                        blocks.traced_wall, workspaces_before,
                                        tick_ms, tick_traced)
            result.layers.update({
                "serve.ticks": float(served),
                "serve.batch_mean": (after["completed"] - before["completed"])
                / served,
                "serve.queue_wait_p95_ms": wait.percentile(
                    95, start=MAX_BATCH * WARMUP_TICKS),
                "serve.rejected": float(after["rejected"]
                                        - before["rejected"]),
                "serve.failed": float(after["failed"] - before["failed"]),
                "obs.histogram.samples": float(sum(
                    inst.count for inst in self.server.metrics.instruments()
                    if inst.kind == "histogram")),
                "loadgen.late_p99_ms": percentile(np.asarray(late) * 1e3, 99),
            })
        return result


class StreamSteady(_StreamWorkload):
    """Open loop at ``STEADY_RATE`` from ``STEADY_SESSIONS`` sessions."""

    sessions = STEADY_SESSIONS

    def _plan(self, rng: np.random.Generator, seconds: float) -> None:
        # A Poisson process conditioned on its count: sorted uniform
        # offsets, so every seed offers exactly the same load.
        count = max(1, int(round(STEADY_RATE * seconds)))
        self.offsets = np.sort(rng.uniform(0.0, seconds, count))
        self.rows = rng.integers(0, self.sessions, count).tolist()
        self.chunks = rng.integers(0, CHUNK_POOL, count).tolist()

    def measure(self, seconds: float, tracer=None) -> Measurement:
        server = self.server
        before = server.stats
        workspaces_before = tracer.workspace_counts() if tracer else {}
        clock = time.monotonic
        count = len(self.offsets)
        rows, chunks = self.rows, self.chunks
        start = clock() + 0.01
        due = (start + self.offsets).tolist()
        done = [math.inf] * count
        late = [0.0] * count
        waiting = {}
        tick_at, tick_s, tick_traced = [], [], []
        blocks = Blocks(tracer, start, seconds)
        tick = nxt = 0
        while True:
            now = clock()
            blocks.update(now)
            while nxt < count and due[nxt] <= now:
                late[nxt] = clock() - due[nxt]
                ticket = self._submit(rows[nxt], chunks[nxt])
                if ticket is not None:
                    waiting[nxt] = ticket
                nxt += 1
            if server.ready():
                if tracer is not None:
                    tracer.op = tick
                traced = blocks.traced
                t0 = clock()
                server.poll()
                t1 = clock()
                tick += 1
                tick_at.append(t0 - start)
                tick_s.append(t1 - t0)
                tick_traced.append(traced)
                for index in [i for i, t in waiting.items() if t.done]:
                    if waiting.pop(index).ok:
                        done[index] = t1
                continue
            if nxt >= count and not server.pending:
                break
            wake = due[nxt] if nxt < count else math.inf
            deadline = server.next_deadline()
            if deadline is not None:
                wake = min(wake, deadline)
            # Wait on the clock, not in time.sleep: a sleeping vCPU of a
            # shared VM wakes late and cold by a varying amount, which
            # made tick p90 range 3.2-7.9 ms across runs of one commit.
            while clock() < wake:
                pass
        blocks.finish(clock())
        offsets = np.asarray(due) - start
        return self._result(seconds, offsets, np.asarray(done) - start, late,
                            tick_at, tick_s, tick_traced, before, blocks,
                            tracer, workspaces_before)


class StreamSaturate(_StreamWorkload):
    """Closed loop: ``SATURATE_SESSIONS`` sessions, one chunk in flight each."""

    sessions = SATURATE_SESSIONS

    def _plan(self, rng: np.random.Generator, seconds: float) -> None:
        # Each session's chunk sequence, cycled if a run outlasts it.
        self.sequences = rng.integers(0, CHUNK_POOL,
                                      (self.sessions, 4096)).tolist()

    def measure(self, seconds: float, tracer=None) -> Measurement:
        server = self.server
        before = server.stats
        workspaces_before = tracer.workspace_counts() if tracer else {}
        clock = time.monotonic
        sequences = self.sequences
        sent = [0] * self.sessions
        # Compact per-chunk records: their count, and so their memory,
        # grows with the throughput of the program under test.
        due, done, late = array("d"), array("d"), array("d")
        in_flight = {}
        tick_at, tick_s, tick_traced = [], [], []

        def send(row: int, due_at: float) -> None:
            index = len(due)
            due.append(due_at)
            done.append(math.inf)
            late.append(clock() - due_at)
            sequence = sequences[row]
            ticket = self._submit(row, sequence[sent[row] % len(sequence)])
            sent[row] += 1
            if ticket is not None:
                in_flight[index] = (row, ticket)

        start = clock()
        end = start + seconds
        blocks = Blocks(tracer, start, seconds)
        for row in range(self.sessions):
            send(row, start)
        tick = 0
        while in_flight:
            if tracer is not None:
                tracer.op = tick
            traced = blocks.traced
            t0 = clock()
            ran = server.poll()
            t1 = clock()
            if not ran:
                # Only the drain after ``end`` leaves partial batches; wait
                # on the clock for their deadline, as the open loop does.
                deadline = server.next_deadline() or t1
                while clock() < deadline:
                    pass
                continue
            tick += 1
            tick_at.append(t0 - start)
            tick_s.append(t1 - t0)
            tick_traced.append(traced)
            blocks.update(t1)
            for index in [i for i, (_, t) in in_flight.items() if t.done]:
                row, ticket = in_flight.pop(index)
                if ticket.ok:
                    done[index] = t1
                if t1 < end:
                    send(row, t1)
        blocks.finish(clock())
        # Rate windows cover the timed span only: the drain of the last
        # chunks in flight adds only to the latency and tick samples.
        return self._result(seconds, np.asarray(due) - start,
                            np.asarray(done) - start, late, tick_at, tick_s,
                            tick_traced, before, blocks, tracer,
                            workspaces_before)


# -- training ----------------------------------------------------------------

class TrainBPTT:
    """Serial ``Trainer.train_batch`` over a fixed labelled synthetic set."""

    def prepare(self, seed: int, seconds: float) -> None:
        rng = _rng(seed, 4)
        self.network = bench_network()
        n_in, n_out = self.network.sizes[0], self.network.sizes[-1]
        self.batches = [
            (_spikes(rng, (TRAIN_BATCH, TRAIN_STEPS, n_in)),
             rng.integers(0, n_out, TRAIN_BATCH))
            for _ in range(TRAIN_SET_BATCHES)
        ]
        self.loss = CrossEntropyRateLoss()
        self.trainer = Trainer(self.network, self.loss, TrainerConfig(
            batch_size=TRAIN_BATCH, optimizer="adamw", gradient_mode="exact",
            shuffle=False))
        for step in range(WARMUP_TRAIN_STEPS):
            self.trainer.train_batch(*self.batches[step % TRAIN_SET_BATCHES])
        self.grad_problem = None
        self.losses: list[float] = []

    def _check_gradients(self) -> str | None:
        """Fused against reference BPTT on the first timed batch."""
        inputs, labels = self.batches[0]
        outputs, record = self.network.run(inputs, record=True)
        _, grad_out = self.loss.value_and_grad(outputs, labels)
        fused = backprop.backward(self.network, record, grad_out,
                                  need_input_grad=False)
        ref = backprop.backward(self.network, record, grad_out,
                                engine="reference")
        for index, (a, b) in enumerate(zip(fused.weight_grads,
                                           ref.weight_grads)):
            if not np.allclose(a, b, rtol=GRAD_RTOL, atol=GRAD_ATOL):
                return (f"layer {index}: fused gradients differ from the "
                        f"reference beyond rtol={GRAD_RTOL}, atol={GRAD_ATOL}")
        return None

    def measure(self, seconds: float, tracer=None) -> Measurement:
        self.grad_problem = self._check_gradients()
        workspaces_before = tracer.workspace_counts() if tracer else {}
        clock = time.monotonic
        trainer = self.trainer
        batches = self.batches
        step_start, step_s, step_traced, losses = [], [], [], []
        start = now = clock()
        end = start + seconds
        blocks = Blocks(tracer, start, seconds)
        step = 0
        while now < end:
            if tracer is not None:
                tracer.op = step
            traced = blocks.traced
            inputs, labels = batches[step % TRAIN_SET_BATCHES]
            t0 = clock()
            losses.append(trainer.train_batch(inputs, labels))
            now = clock()
            step_start.append(t0)
            step_s.append(now - t0)
            step_traced.append(traced)
            step += 1
            blocks.update(now)
        blocks.finish(now)
        self.losses = losses
        result = Measurement()
        result.attempted = len(losses)
        result.failed = sum(1 for value in losses if not math.isfinite(value))
        step_ms = np.asarray(step_s) * 1e3
        untraced = ~np.asarray(step_traced, dtype=bool)
        by_step = Windows(seconds, np.asarray(step_start)[untraced] - start,
                          TRAIN_WINDOW_S)
        kept = step_ms[untraced]
        # A few steps per second: each percentile is taken per window and
        # the median over windows is reported, so one slow step moves one
        # window instead of being the run's p99.
        result.samples = {
            name: by_step.each(kept, fn) for name, fn in (
                ("latency_p50_ms", lambda g: percentile(g, 50)),
                ("latency_p99_ms", lambda g: percentile(g, 99)),
                ("throughput_cps", lambda g: TRAIN_BATCH * 1e3 / np.mean(g)),
                ("step_p50_ms", lambda g: percentile(g, 50)),
                ("step_p90_ms", lambda g: percentile(g, 90)),
            )
        }
        result.samples["train_sps"] = result.samples["throughput_cps"]
        result.e2e = {name: float(np.median(values))
                      for name, values in result.samples.items()}
        result.e2e["slo_ratio"] = float(np.mean(step_ms <= TRAIN_SLO_MS))
        if tracer is not None:
            result.layers = span_layers(tracer, "trainer.train_batch",
                                        blocks.traced_wall, workspaces_before,
                                        step_ms, step_traced)
        return result

    def check(self) -> list[str]:
        problems = []
        if self.grad_problem is not None:
            problems.append(self.grad_problem)
        bad = [i for i, value in enumerate(self.losses)
               if not math.isfinite(value)]
        if bad:
            problems.append(f"non-finite loss at steps {bad[:5]}")
        return problems


WORKLOADS = {
    "stream-steady": StreamSteady,
    "stream-saturate": StreamSaturate,
    "train-bptt": TrainBPTT,
}
