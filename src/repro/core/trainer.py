"""Mini-batch training loop tying the forward run, BPTT and optimizer together.

The :class:`Trainer` reproduces the paper's training setup (Table I):
AdamW, batch size 64, learning rate 1e-4 (classification) or 1e-3 (pattern
association).  It operates on in-memory arrays — every dataset in
:mod:`repro.data` materialises to ``(inputs, targets)`` pairs — and records
a per-epoch history of loss and task metrics.

Two runtime knobs scale it beyond a single-core loop:

* ``TrainerConfig(workers=N)`` trains **data-parallel**: each mini-batch is
  split into ``N`` contiguous shards, a persistent
  :class:`~repro.runtime.pool.WorkerPool` (weights in shared memory) runs
  fused forward+BPTT on each shard concurrently, and the shard gradients
  are reduced in fixed order before the single optimizer step.  Evaluation
  passes shard the same way.  ``workers=0`` (default) is the serial
  in-process path, unchanged.
* The serial path itself recycles the fused kernels' ``(batch, T, n)`` buffers
  through a per-trainer :class:`~repro.runtime.workspace.Workspace`, so
  steady-state training performs no large per-batch allocations.

Both knobs preserve results: the workspace is bitwise-transparent, and the
parallel reduction is bitwise-reproducible and pinned against the serial
execution of the same shard split in ``tests/unit/test_runtime.py``.

A third knob closes the paper's codesign loop:
``TrainerConfig(hardware=HardwareProfile(...))`` trains **hardware-aware**
— every forward/backward pass runs through the k-bit quantized (and
optionally variation-noisy) weights the profile's crossbars would realise,
via the fused engine's weight-override hook, while the optimizer updates
full-precision master weights (straight-through estimator).  Train-time
and map-time share one quantization grid by construction
(:mod:`repro.hardware.quantization`), and the pooled data-parallel path
stages the override through shared memory, staying bitwise-equal to the
serial path.  See ``docs/training.md``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..common.config import BaseConfig
from ..common.errors import ShapeError
from ..common.rng import RandomState, as_random_state
from .engine import resolve_precision
from .network import SpikingNetwork
from .optim import clip_grad_norm, make_optimizer

__all__ = ["TrainerConfig", "Trainer", "EpochStats"]


@dataclasses.dataclass(frozen=True)
class TrainerConfig(BaseConfig):
    """Training hyper-parameters (paper Table I defaults).

    Attributes
    ----------
    epochs:
        Number of passes over the training set.
    batch_size:
        Mini-batch size (paper: 64).
    learning_rate:
        Step size (paper: 1e-4 classification, 1e-3 association).
    optimizer:
        ``"adamw"`` (paper), ``"adam"`` or ``"sgd"``.
    weight_decay:
        Decoupled decay for AdamW.
    grad_clip:
        Global-norm gradient clip; 0 disables.
    gradient_mode:
        ``"exact"`` or ``"truncated"`` BPTT (see :mod:`repro.core.backprop`).
    shuffle:
        Reshuffle the training set every epoch.
    precision:
        ``"float64"`` (default) or ``"float32"`` array precision for the
        forward run, recorded traces and gradients.
    workers:
        ``0`` (default): serial in-process training.  ``N >= 1``: a
        persistent ``N``-process :class:`~repro.runtime.pool.WorkerPool`
        runs each mini-batch as ``N`` data-parallel shards (shared-memory
        weights, fixed-order gradient reduction).  ``workers=1`` computes
        exactly the serial full-batch gradients, just in another process.
    eval_train:
        Whether :meth:`Trainer.fit` re-runs the *entire training set*
        forward after every epoch for ``train_metrics``.  Off by default —
        it roughly doubles epoch cost on large sets; the running
        ``train_loss`` is recorded either way.
    hardware:
        ``None`` (default): ideal training.  A
        :class:`~repro.hardware.mapped_network.HardwareProfile` switches
        on **hardware-aware training** — the codesign loop closed: every
        forward (and backward) pass runs through the weights the
        profile's crossbar would actually realise, via the fused kernels'
        weight-override hook, while the optimizer keeps updating the
        full-precision master weights (a straight-through estimator —
        the quantizer is treated as the identity on the backward pass).
        With every device noise source off (``variation``,
        ``stuck_at_rate``, ``read_noise`` all 0) the override is the pure
        :func:`~repro.hardware.quantization.fake_quantize` grid (the
        map-time grid, bitwise); with any of them configured each
        optimizer step samples one fresh programming-and-read draw
        (:func:`~repro.hardware.quantization.sample_programmed_weights`,
        seeded from ``profile.seed`` and the step counter), so the
        learned solution is robust to the distribution of crossbars it
        may be mapped onto.  Evaluation
        (:meth:`Trainer.evaluate`) still reports the ideal model — map
        the trained network under the same profile to measure deployed
        accuracy (see ``docs/training.md``).
    """

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-4
    optimizer: str = "adamw"
    weight_decay: float = 0.0
    grad_clip: float = 0.0
    gradient_mode: str = "exact"
    shuffle: bool = True
    precision: str = "float64"
    workers: int = 0
    eval_train: bool = False
    hardware: object | None = None

    def validate(self) -> None:
        self.require_positive("epochs")
        self.require_positive("batch_size")
        self.require_positive("learning_rate")
        self.require_non_negative("weight_decay")
        self.require_non_negative("grad_clip")
        self.require_non_negative("workers")
        self.require(self.gradient_mode in ("exact", "truncated"),
                     f"gradient_mode must be exact|truncated, "
                     f"got {self.gradient_mode!r}")
        self.require(self.optimizer in ("sgd", "adam", "adamw"),
                     f"optimizer must be sgd|adam|adamw, got {self.optimizer!r}")
        self.require(self.precision in ("float32", "float64"),
                     f"precision must be float32|float64, "
                     f"got {self.precision!r}")
        if self.hardware is not None:
            # Duck-typed (a HardwareProfile) to keep core import-free of
            # the hardware package at module load.
            self.require(
                hasattr(self.hardware, "device")
                and hasattr(self.hardware, "quantization")
                and hasattr(self.hardware, "seed"),
                f"hardware must be a HardwareProfile, "
                f"got {type(self.hardware).__name__}")


@dataclasses.dataclass
class EpochStats:
    """Metrics for one epoch (train loss plus loss-specific metrics)."""

    epoch: int
    train_loss: float
    train_metrics: dict
    test_metrics: dict
    seconds: float

    def summary(self) -> str:
        parts = [f"epoch {self.epoch:3d}", f"loss {self.train_loss:.4f}"]
        parts += [f"train_{k} {v:.4f}" for k, v in self.train_metrics.items()]
        parts += [f"test_{k} {v:.4f}" for k, v in self.test_metrics.items()]
        parts.append(f"[{self.seconds:.1f}s]")
        return "  ".join(parts)


class Trainer:
    """Trains a :class:`~repro.core.network.SpikingNetwork` with BPTT.

    Parameters
    ----------
    network:
        The model to train (its weight arrays are updated in place).
    loss:
        A loss object exposing ``value_and_grad`` and ``metrics``
        (:class:`~repro.core.loss.CrossEntropyRateLoss` or
        :class:`~repro.core.loss.VanRossumLoss`).
    config:
        :class:`TrainerConfig`.
    rng:
        Seed / RandomState used only for epoch shuffling.
    """

    def __init__(self, network: SpikingNetwork, loss, config: TrainerConfig,
                 rng: RandomState | int | None = None):
        self.network = network
        self.loss = loss
        self.config = config
        self.rng = as_random_state(rng)
        extra = {}
        if config.optimizer == "adamw":
            extra["weight_decay"] = config.weight_decay
        self.optimizer = make_optimizer(
            config.optimizer, network.weights, lr=config.learning_rate, **extra
        )
        self.history: list[EpochStats] = []
        # core must not pull the runtime layer at import time (the pool
        # workers themselves import core); runtime pieces load on use.
        from ..runtime.workspace import Workspace

        self._workspace = Workspace()
        self._pool = None
        # Hardware-aware training: the per-step programming-noise stream
        # is keyed by (profile seed, step counter), so a run is exactly
        # reproducible and independent of batch contents.
        self._hw_root = (RandomState(config.hardware.seed)
                         if config.hardware is not None else None)
        self._hw_step = 0

    # -- hardware-aware training --------------------------------------------
    def hardware_weights(self) -> list[np.ndarray] | None:
        """The weight override of the *next* hardware-aware step, or
        ``None`` for ideal training.

        With every device noise source off this is the deterministic
        :func:`~repro.hardware.quantization.fake_quantize` of the current
        master weights — bitwise the map-time grid.  With variation,
        stuck-at faults or read noise configured, each call consumes one
        step of the profile-seeded noise stream and returns a fresh
        simulated programming-and-read
        (:func:`~repro.hardware.quantization.sample_programmed_weights`).
        """
        profile = self.config.hardware
        if profile is None:
            return None
        # Local import: core.trainer is imported by hardware.mapped_network,
        # so a module-level hardware import would be circular.
        from ..hardware.quantization import (
            fake_quantize,
            sample_programmed_weights,
        )

        device = profile.device
        if (device.variation > 0 or device.stuck_at_rate > 0
                or device.read_noise > 0):
            draw = self._hw_root.child(f"train-step{self._hw_step}")
            self._hw_step += 1
            return [
                sample_programmed_weights(layer.weight, device,
                                          rng=draw.child(f"layer{i}"))
                for i, layer in enumerate(self.network.layers)
            ]
        return [fake_quantize(layer.weight, device)
                for layer in self.network.layers]

    # -- parallel runtime ---------------------------------------------------
    def _ensure_pool(self):
        """The trainer's persistent worker pool (created on first use)."""
        if self._pool is None:
            from ..runtime.pool import WorkerPool

            self._pool = WorkerPool(self.network, workers=self.config.workers,
                                    loss=self.loss)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool and drop pooled buffers (idempotent).

        Training can resume afterwards — the pool and workspace are
        re-created on demand."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._workspace.reclaim()

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- single steps ------------------------------------------------------
    def train_batch(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One forward/backward/update on a batch; returns the batch loss.

        With ``config.workers >= 1`` the batch is computed as data-parallel
        shards on the worker pool (one shard per worker, gradients reduced
        in shard order); serially in-process otherwise.  With
        ``config.hardware`` the forward/backward run through that step's
        quantized(+noisy) weight realization (see :meth:`hardware_weights`)
        while the optimizer updates the master weights — the
        straight-through estimator.
        """
        from ..runtime.parallel import data_parallel_grads, shard_grads

        cfg = self.config
        override = self.hardware_weights()
        if cfg.workers >= 1:
            pool = self._ensure_pool()
            loss_value, grads = data_parallel_grads(
                self.network, self.loss, inputs, targets,
                n_shards=cfg.workers, mode=cfg.gradient_mode,
                precision=cfg.precision, pool=pool,
                weights=override,
            )
        else:
            # One shard == the whole batch; shard_grads is the exact unit
            # of work the pool workers execute, so serial and pooled
            # training share every arithmetic operation by construction.
            loss_value, _, grads = shard_grads(
                self.network, self.loss, inputs, targets,
                mode=cfg.gradient_mode,
                precision=cfg.precision, ws=self._workspace,
                weights=override,
            )
        if self.config.grad_clip > 0:
            clip_grad_norm(grads, self.config.grad_clip)
        self.optimizer.step(grads)
        return loss_value

    def train_epoch(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One pass over the data; returns the mean batch loss."""
        n = inputs.shape[0]
        if targets.shape[0] != n:
            raise ShapeError(
                f"{n} inputs but {targets.shape[0]} targets"
            )
        order = np.arange(n)
        if self.config.shuffle:
            self.rng.shuffle(order)
        losses = []
        bs = self.config.batch_size
        for start in range(0, n, bs):
            index = order[start:start + bs]
            losses.append(self.train_batch(inputs[index], targets[index]))
        return float(np.mean(losses))

    # -- evaluation ---------------------------------------------------------
    def _pool_neuron_kind(self, model: SpikingNetwork) -> str | None:
        """The ``neuron_kind`` to evaluate ``model`` under on the pool, or
        ``None`` when the pool (built for ``self.network``) cannot serve it.

        The pool replicas share this trainer's weights, so they can serve
        the trained model itself and any ``with_neuron_kind`` swap (same
        weight arrays, different dynamics) — the paper's Table II 'HR'
        evaluation.  Anything else falls back to the serial path.
        """
        if model is self.network:
            return self.network.neuron_kind
        same_weights = (
            model.sizes == self.network.sizes
            and model.params == self.network.params
            and all(a is b for a, b in zip(model.weights,
                                           self.network.weights))
        )
        return model.neuron_kind if same_weights else None

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray,
                 network: SpikingNetwork | None = None) -> dict:
        """Loss metrics on held-out data (no gradient, batched).

        ``network`` overrides the trained model — used for the paper's
        hard-reset swap evaluation.  With ``config.workers >= 1`` the
        forward pass is sharded over the worker pool (same chunks as the
        serial path, so the outputs are identical).
        """
        model = network if network is not None else self.network
        if self.config.workers >= 1:
            kind = self._pool_neuron_kind(model)
            if kind is not None:
                pool = self._ensure_pool()
                outputs = pool.run_sharded(
                    inputs, self.config.batch_size,
                    precision=self.config.precision, neuron_kind=kind,
                )
                return self.loss.metrics(outputs, targets)
        outputs = run_in_batches(model, inputs, self.config.batch_size,
                                 precision=self.config.precision,
                                 workspace=self._workspace)
        return self.loss.metrics(outputs, targets)

    # -- full loop ----------------------------------------------------------
    def fit(self, train_inputs: np.ndarray, train_targets: np.ndarray,
            test_inputs: np.ndarray | None = None,
            test_targets: np.ndarray | None = None,
            verbose: bool = False,
            timer=time.perf_counter) -> list[EpochStats]:
        """Run the configured number of epochs; returns per-epoch stats.

        ``train_metrics`` are populated only when ``config.eval_train`` is
        set — the extra full-train-set forward pass roughly doubles epoch
        cost on large sets; ``train_loss`` (the running mean of the batch
        losses) is always recorded.  ``timer`` stamps ``seconds`` on each
        epoch and is injectable for deterministic tests.
        """
        for epoch in range(1, self.config.epochs + 1):
            start = timer()
            train_loss = self.train_epoch(train_inputs, train_targets)
            train_metrics = {}
            if self.config.eval_train:
                train_metrics = self.evaluate(train_inputs, train_targets)
            test_metrics = {}
            if test_inputs is not None and test_targets is not None:
                test_metrics = self.evaluate(test_inputs, test_targets)
            stats = EpochStats(
                epoch=epoch, train_loss=train_loss,
                train_metrics=train_metrics, test_metrics=test_metrics,
                seconds=timer() - start,
            )
            self.history.append(stats)
            if verbose:
                print(stats.summary())
        return self.history


def run_in_batches(network: SpikingNetwork, inputs: np.ndarray,
                   batch_size: int, dtype=None,
                   precision: str | None = None, workers: int = 0,
                   pool=None, workspace=None) -> np.ndarray:
    """Forward-only run over a large array, batched to bound memory.

    Parameters
    ----------
    network, inputs, batch_size:
        Model and ``(n, T, n_in)`` spike array; chunks of ``batch_size``
        samples bound peak memory.
    precision:
        ``"float32"`` / ``"float64"`` (or a dtype-like); the single
        precision switch for the run.  Default float64.
    dtype:
        Legacy alias for ``precision`` kept for backwards compatibility;
        ``precision`` wins when both are given.
    workers, pool:
        ``workers >= 1`` distributes the chunks over a
        :class:`~repro.runtime.pool.WorkerPool` — ``pool`` reuses an
        existing one (its network must be ``network``), otherwise a
        transient pool is created for this call.  The chunk boundaries are
        identical to the serial path, so the outputs are bitwise equal.
    workspace:
        Optional :class:`~repro.runtime.workspace.Workspace` for the
        serial path; chunk buffers are recycled after concatenation.
    """
    resolved = resolve_precision(precision if precision is not None else dtype)
    if resolved is None:
        resolved = np.dtype(np.float64)
    if pool is not None:
        if pool.network is not network:
            raise ValueError(
                "pool was built for a different network object; build the "
                "pool from this network (or pass workers= for a transient "
                "one) so the shared-memory replicas match")
        return pool.run_sharded(inputs, batch_size, precision=resolved)
    if workers >= 1:
        from ..runtime.pool import WorkerPool

        with WorkerPool(network, workers=workers) as transient:
            return transient.run_sharded(inputs, batch_size,
                                         precision=resolved)
    chunks = []
    for start in range(0, inputs.shape[0], batch_size):
        outputs, _ = network.run(inputs[start:start + batch_size],
                                 precision=resolved, workspace=workspace)
        chunks.append(outputs)
    result = np.concatenate(chunks, axis=0)
    if workspace is not None:
        workspace.release(*chunks)
    return result
