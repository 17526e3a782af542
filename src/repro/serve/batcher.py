"""Micro-batching admission queue: coalesce many streams into fused ticks.

One chunk from one session is tiny work — a ``(1, T, n)`` run spends the
streaming kernel on Python overhead.  The :class:`MicroBatcher` holds incoming
chunks briefly and releases them in *ticks* of up to ``max_batch`` chunks,
each tick becoming a single padded fused batch
(:meth:`~repro.serve.server.ModelServer.poll`).  Latency is capped by
``max_wait_ms``: a tick is due as soon as a full batch is waiting **or**
the oldest queued chunk has waited that long.

Scheduling guarantees (property-tested in ``tests/unit/test_serve.py``):

* **FIFO fairness / no starvation** — ticks take eligible chunks strictly
  in arrival order; the oldest queued chunk is always in the next tick.
* **Stream order** — at most one chunk per session per tick (a session's
  second chunk depends on the state its first produces), and a skipped
  chunk keeps its place at the front of the queue.
* **Bounded queue / backpressure** — at most ``queue_limit`` chunks wait;
  further submits raise :class:`~repro.common.errors.CapacityError`
  immediately instead of growing the queue (shed or retry upstream).
"""

from __future__ import annotations

import collections
import math

import numpy as np

from ..common.errors import CapacityError

__all__ = ["Ticket", "StreamRequest", "MicroBatcher"]


class Ticket:
    """Completion handle for one submitted chunk.

    A ticket resolves into exactly one of three terminal states:

    * **completed** (:meth:`complete`) — ``outputs`` holds the
      ``(T_chunk, n_out)`` output spikes for exactly the submitted
      steps;
    * **failed** (:meth:`fail`) — the chunk's computation raised;
      ``error`` carries the message, the session's stream state was
      *not* advanced;
    * **expired** (:meth:`expire`) — the chunk out-waited its
      ``deadline`` in the admission queue and was shed unserved.

    ``done`` is true in any terminal state; ``ok`` only for a completed
    ticket.  On a shadow-mode server ``divergence`` additionally reports
    this chunk's ideal-vs-hardware output disagreement (fraction of
    spike entries that differ); ``degraded`` marks chunks served
    through a fallback (e.g. ideal weights after a hardware read
    failure) and ``retried`` chunks that completed via the per-request
    isolation path after their batched tick failed.
    """

    __slots__ = ("session_id", "arrival", "completed_at", "outputs",
                 "divergence", "deadline", "error", "expired", "degraded",
                 "retried")

    def __init__(self, session_id: str, arrival: float,
                 deadline: float | None = None):
        self.session_id = session_id
        self.arrival = arrival
        self.deadline = deadline
        self.completed_at: float | None = None
        self.outputs: np.ndarray | None = None
        self.divergence: float | None = None
        self.error: str | None = None
        self.expired = False
        self.degraded = False
        self.retried = False

    @property
    def done(self) -> bool:
        """Resolved — completed, failed, or expired."""
        return self.completed_at is not None

    @property
    def ok(self) -> bool:
        """Resolved successfully (outputs are valid)."""
        return (self.completed_at is not None and self.error is None
                and not self.expired)

    @property
    def latency(self) -> float:
        """Seconds from submission to resolution (arrival-to-answer)."""
        if self.completed_at is None:
            raise ValueError("ticket is not completed yet")
        return self.completed_at - self.arrival

    def complete(self, outputs: np.ndarray, now: float) -> None:
        self.outputs = outputs
        self.completed_at = now

    def fail(self, error: str, now: float) -> None:
        self.error = error
        self.completed_at = now

    def expire(self, now: float) -> None:
        self.expired = True
        self.completed_at = now

    def __repr__(self) -> str:
        if not self.done:
            state = "pending"
        elif self.expired:
            state = "expired"
        elif self.error is not None:
            state = "failed"
        else:
            state = f"done, {1e3 * self.latency:.2f} ms"
        return f"Ticket({self.session_id}, {state})"


class StreamRequest:
    """One queued chunk: session + data + arrival + completion ticket."""

    __slots__ = ("seq", "session", "chunk", "ticket")

    def __init__(self, seq: int, session, chunk: np.ndarray, ticket: Ticket):
        self.seq = seq
        self.session = session
        self.chunk = chunk
        self.ticket = ticket

    @property
    def arrival(self) -> float:
        return self.ticket.arrival

    @property
    def steps(self) -> int:
        return self.chunk.shape[0]


class MicroBatcher:
    """FIFO coalescing queue with batch-size and wait-time caps.

    Parameters
    ----------
    max_batch:
        Maximum chunks (— distinct sessions) per tick.
    max_wait_ms:
        Upper bound on how long an admitted chunk may wait before its
        tick is due.  ``0`` means every poll with a non-empty queue runs
        a tick (pure latency, no coalescing beyond what has already
        queued).
    queue_limit:
        Bound on queued chunks; beyond it :meth:`submit` raises
        :class:`~repro.common.errors.CapacityError`.
    """

    def __init__(self, max_batch: int = 8, max_wait_ms: float = 2.0,
                 queue_limit: int = 64):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1e3
        self.queue_limit = int(queue_limit)
        self._queue: collections.deque[StreamRequest] = collections.deque()
        self._per_session = collections.Counter()

    # -- admission -----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Chunks currently queued."""
        return len(self._queue)

    @property
    def sessions_pending(self) -> int:
        """Distinct sessions with at least one queued chunk."""
        return len(self._per_session)

    def session_pending(self, session_id: str) -> int:
        """Chunks queued for one session (0 when none)."""
        return self._per_session.get(session_id, 0)

    def submit(self, request: StreamRequest) -> None:
        """Admit a chunk, or raise :class:`CapacityError` when full."""
        if len(self._queue) >= self.queue_limit:
            raise CapacityError(
                f"serving queue full ({self.queue_limit} chunks pending); "
                f"retry later or raise queue_limit")
        self._queue.append(request)
        self._per_session[request.session.session_id] += 1

    def shed_expired(self, now: float) -> list[StreamRequest]:
        """Remove and return every queued request past its ticket deadline.

        TTL-based load shedding: a request that has already out-waited
        its deadline would be served *late* — past the point its client
        stopped caring — so it is dropped before the next tick instead
        of wasting batch slots.  The caller expires the returned
        tickets.  Requests without a deadline never shed.
        """
        if not self._queue:
            return []
        shed: list[StreamRequest] = []
        kept: collections.deque[StreamRequest] = collections.deque()
        for request in self._queue:
            deadline = request.ticket.deadline
            if deadline is not None and now > deadline:
                shed.append(request)
                sid = request.session.session_id
                self._per_session[sid] -= 1
                if not self._per_session[sid]:
                    del self._per_session[sid]
            else:
                kept.append(request)
        self._queue = kept
        return shed

    # -- scheduling ----------------------------------------------------------
    def oldest_arrival(self) -> float | None:
        return self._queue[0].arrival if self._queue else None

    def next_deadline(self) -> float | None:
        """The time at which the pending work becomes due regardless of
        batch occupancy (oldest arrival + max wait), or ``None`` when
        idle."""
        if not self._queue:
            return None
        return self._queue[0].arrival + self.max_wait

    def ready(self, now: float) -> bool:
        """Whether a tick is due at time ``now``: a full batch of distinct
        sessions is waiting, or the oldest chunk has waited long enough."""
        if not self._queue:
            return False
        if len(self._per_session) >= self.max_batch:
            return True
        return now >= self._queue[0].arrival + self.max_wait

    def collect(self) -> list[StreamRequest]:
        """Dequeue the next tick's chunks: oldest first, at most
        ``max_batch``, at most one per session.

        Chunks skipped because their session already has one in this tick
        keep their queue position, so per-session order is preserved and
        the global order stays FIFO.
        """
        taken: list[StreamRequest] = []
        taken_sessions: set[str] = set()
        skipped: collections.deque[StreamRequest] = collections.deque()
        queue = self._queue
        while queue and len(taken) < self.max_batch:
            request = queue.popleft()
            sid = request.session.session_id
            if sid in taken_sessions:
                skipped.append(request)
                continue
            taken.append(request)
            taken_sessions.add(sid)
            self._per_session[sid] -= 1
            if not self._per_session[sid]:
                del self._per_session[sid]
        skipped.extend(queue)
        self._queue = skipped
        return taken

    def __repr__(self) -> str:
        wait_ms = math.inf if self.max_wait == math.inf else 1e3 * self.max_wait
        return (f"MicroBatcher(pending={len(self._queue)}, "
                f"max_batch={self.max_batch}, max_wait_ms={wait_ms}, "
                f"queue_limit={self.queue_limit})")
