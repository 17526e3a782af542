"""Reusable buffer arenas for the fused kernels' steady-state hot loop.

Every fused forward/backward pass allocates a handful of large
``(batch, T, n)`` tensors — spike buffers, membrane traces, adjoint scans —
whose shapes repeat identically batch after batch during training.  A
:class:`Workspace` turns those allocations into arena reuse: buffers are
checked out by exact ``(shape, dtype)`` key, handed back once the training
step that used them is finished, and served again on the next batch.  In
steady state (constant batch shape) every large buffer of the kernels' own
comes from the arena — the forward's sparse products write into arena
buffers too; what still allocates per step is the CSR conversion's index
arrays (sized by the spike count) and the weight-gradient contraction.

Design rules that keep this safe:

* A workspace is **single-threaded state** — one per trainer, one per pool
  worker, one per model server (the serving tick's padded gather buffer
  and transient batched stream state recycle through it).  It is never
  shared across processes (each worker process builds its own).
* ``release`` ignores arrays the workspace did not hand out, so callers may
  bulk-release a record's tensors without tracking which of them came from
  the arena (a foreign array is simply skipped).
* Reuse is **opt-in at the call site**: every kernel entry point takes
  ``ws=None`` and behaves exactly as before when no workspace is supplied.
  Buffers that escape to user code (e.g. ``network.run`` outputs outside a
  trainer) are never pooled.

The workspace holds nothing but its buffers: idle bytes stay under
``max_bytes`` however many distinct shapes pass through it, which is what
keeps a long-lived server with varied tick shapes at bounded memory.

Equivalence (with-workspace == without, bitwise) is pinned by
``tests/unit/test_runtime.py``, including across consecutive calls with
differing shapes.
"""

from __future__ import annotations

import collections

import numpy as np

__all__ = ["Workspace"]

#: Default cap on bytes parked in free lists before old buffers are dropped.
DEFAULT_MAX_BYTES = 1 << 29  # 512 MiB


class Workspace:
    """A keyed pool of reusable numpy buffers.

    Parameters
    ----------
    max_bytes:
        Soft cap on the total size of *idle* (released) buffers.  When a
        release would exceed it, the oldest idle buffers are dropped —
        important for sweeps whose shapes change between phases, so stale
        shapes do not pin memory forever.  Checked-out buffers are never
        counted against the cap.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._free: dict[tuple, list[np.ndarray]] = {}
        # id -> (key, array).  The strong reference is load-bearing: if a
        # checked-out buffer were garbage-collected, its id could be reused
        # by an unrelated array, and a later release() would pool that
        # array under the stale key — handing out wrong-shaped memory.
        self._lent: dict[int, tuple[tuple, np.ndarray]] = {}
        self._fifo: collections.deque[tuple] = collections.deque()
        self._free_bytes = 0
        self.hits = 0
        self.misses = 0

    # -- checkout / return --------------------------------------------------
    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised buffer of exactly ``(shape, dtype)``.

        Pops a previously released buffer when one matches, else allocates.
        The caller owns the buffer until it is passed to :meth:`release`.
        """
        key = self._key(shape, dtype)
        stack = self._free.get(key)
        if stack:
            arr = stack.pop()
            self._free_bytes -= arr.nbytes
            # Keep the eviction queue in lockstep with the free lists:
            # one entry per *idle* buffer, so it stays bounded and
            # eviction really drops the oldest idle buffer.
            try:
                self._fifo.remove(key)
            except ValueError:  # pragma: no cover - queues are in lockstep
                pass
            self.hits += 1
        else:
            arr = np.empty(key[0], dtype=np.dtype(key[1]))
            self.misses += 1
        self._lent[id(arr)] = (key, arr)
        return arr

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`empty` but zero-filled."""
        arr = self.empty(shape, dtype)
        arr.fill(0)
        return arr

    def release(self, *arrays) -> None:
        """Hand buffers back to the pool.

        Arrays this workspace did not allocate (or ``None``) are ignored, so
        callers can release whole records without provenance bookkeeping.
        Releasing the same buffer twice in a row is also a no-op (the
        second call sees it as foreign) — but release a buffer **at most
        once per checkout**: the array object itself is the lease token,
        so a stale release issued *after* the buffer has been handed out
        again would return the new owner's live memory to the pool and
        alias two users onto it.  The kernel/trainer integration releases
        only at end-of-step points where no stale references survive.
        """
        for arr in arrays:
            if arr is None:
                continue
            entry = self._lent.pop(id(arr), None)
            if entry is None:
                continue
            key = entry[0]
            self._free.setdefault(key, []).append(arr)
            self._fifo.append(key)
            self._free_bytes += arr.nbytes
        while self._free_bytes > self.max_bytes and self._fifo:
            old_key = self._fifo.popleft()
            stack = self._free.get(old_key)
            if stack:
                dropped = stack.pop(0)
                self._free_bytes -= dropped.nbytes

    # -- maintenance --------------------------------------------------------
    def reclaim(self) -> None:
        """Drop every idle buffer (checked-out buffers stay valid; they
        are simply forgotten when released)."""
        self._free.clear()
        self._fifo.clear()
        self._free_bytes = 0
        self._lent.clear()

    @property
    def idle_bytes(self) -> int:
        """Total bytes currently parked in free lists."""
        return self._free_bytes

    @property
    def lent_count(self) -> int:
        """Number of buffers currently checked out."""
        return len(self._lent)

    def __repr__(self) -> str:
        return (f"Workspace(idle={self._free_bytes >> 20} MiB, "
                f"lent={len(self._lent)}, hits={self.hits}, "
                f"misses={self.misses})")
