"""Per-client stream sessions on a served model, and the slot table that
carries them.

A :class:`Session` is the unit of statefulness in the serving layer: one
client's live spike stream.  Its carry does not live on the session: it
is one row — a *slot* — of the server's :class:`SlotTable`, a single
:class:`~repro.core.engine.StreamState` whose batch axis holds every
live session.  As in the paper's neuron circuits, state stays put and
only spikes move: each tick gathers the slots it serves with one
``np.take`` per carry array and stores the advanced rows back with one
indexed store per array, so a session never notices whose chunks shared
its batch (the gather/scatter is bitwise-transparent — see
``docs/serving.md``).
"""

from __future__ import annotations

import numpy as np

from ..core import StreamState

__all__ = ["Session", "SlotTable"]


class SlotTable:
    """Server-owned stream carries, one row (slot) per live session.

    ``state`` holds the carries under the server's *primary* weights;
    ``shadow`` (shadow-mode servers only, else ``None``) is a parallel
    table indexed by the same slots, carrying the same input streams
    under the hardware realization.  Each carry array stays its own
    contiguous ``(capacity, n_out)`` array: the kernel's per-step ufuncs
    run on contiguous prefixes of the gather state, never on strided
    column views of a packed table.

    Slots are claimed by :class:`Session` and handed back by
    :meth:`Session.release`.  Freed slots are reused before the table
    grows; when none is free the table grows by a quarter of its
    capacity plus one row, so right after a growth at most 20% of it is
    slack.  ``gather_rows`` (the server's ``max_batch``) sizes both the
    initial table and the one gather state that every tick fills a
    prefix of.
    """

    def __init__(self, network, dtype, gather_rows: int,
                 shadow: bool = False):
        self.state = StreamState.for_network(network, gather_rows,
                                             dtype=dtype)
        self.shadow = (StreamState.for_network(network, gather_rows,
                                               dtype=dtype)
                       if shadow else None)
        self._gather = StreamState.for_network(network, gather_rows,
                                               dtype=dtype)
        self._free = list(range(gather_rows - 1, -1, -1))

    @property
    def capacity(self) -> int:
        """Rows in the table (held + free)."""
        return self.state.batch

    @property
    def held(self) -> int:
        """Slots currently claimed by a session."""
        return self.capacity - len(self._free)

    def _tables(self) -> list[StreamState]:
        return [self.state] if self.shadow is None \
            else [self.state, self.shadow]

    def claim(self) -> int:
        """A zeroed slot for a new stream (growing the table if full)."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        for table in self._tables():
            for arr in table.arrays():
                arr[slot] = 0
            table.steps[slot] = 0
        return slot

    def free(self, slot: int) -> None:
        """Return ``slot`` for reuse (its row is zeroed when claimed)."""
        self._free.append(slot)

    def _grow(self) -> None:
        old = self.capacity
        new = old + old // 4 + 1
        for table in self._tables():
            for layer in table.layers:
                for key, arr in layer.items():
                    grown = np.zeros((new,) + arr.shape[1:], dtype=arr.dtype)
                    grown[:old] = arr
                    layer[key] = grown
            steps = np.zeros(new, dtype=table.steps.dtype)
            steps[:old] = table.steps
            table.steps = steps
            table.batch = new
        self._free.extend(range(new - 1, old - 1, -1))

    def gather(self, slots: np.ndarray, shadow: bool = False) -> StreamState:
        """The carries of ``slots`` (distinct rows), as a prefix of the
        gather state; one ``np.take`` per carry array.

        The gather state is shared: scatter (or drop) one gathered
        state before gathering the next.
        """
        table = self.shadow if shadow else self.state
        gathered = self._gather.prefix(len(slots))
        for source, into in zip(table.arrays(), gathered.arrays()):
            # Slots are in range by construction; "clip" skips the
            # buffered bounds check that "raise" pays with ``out=``.
            np.take(source, slots, axis=0, out=into, mode="clip")
        return gathered

    def scatter(self, slots: np.ndarray, gathered: StreamState,
                lengths: np.ndarray, shadow: bool = False) -> None:
        """Store the advanced rows of ``gathered`` back into ``slots``;
        one indexed store per carry array.  Call it only after the run
        that advanced them returned: a failed run leaves the table as
        it was."""
        table = self.shadow if shadow else self.state
        for into, source in zip(table.arrays(), gathered.arrays()):
            into[slots] = source
        table.steps[slots] += lengths


class Session:
    """One client's resident stream on a served model.

    Attributes
    ----------
    session_id:
        Server-assigned identifier (``"s000001"``-style).
    slot:
        The session's row in the server's :class:`SlotTable` (its carry
        under the primary weights — ideal, or the hardware realization
        in hardware mode — and, on shadow-mode servers, the same row of
        the shadow table).  ``None`` once released: after the session
        was closed or reaped and its last queued chunk drained.
    created_at, last_active:
        Server-clock timestamps of creation and the last completed chunk.
    chunks:
        Number of chunks completed for this session.
    divergence_sum:
        Accumulated per-chunk ideal-vs-hardware output divergence
        (shadow mode only; mean it over ``chunks`` for the session rate).
    """

    __slots__ = ("session_id", "slot", "_table", "_steps", "created_at",
                 "last_active", "chunks", "divergence_sum")

    def __init__(self, session_id: str, table: SlotTable, now: float):
        self.session_id = session_id
        self._table = table
        self.slot: int | None = table.claim()
        self._steps = 0
        self.created_at = now
        self.last_active = now
        self.chunks = 0
        self.divergence_sum = 0.0

    @property
    def steps(self) -> int:
        """Total time steps this stream has consumed (read from its
        slot's row while it holds one)."""
        if self.slot is None:
            return self._steps
        return int(self._table.state.steps[self.slot])

    def release(self) -> None:
        """Hand the slot back to the table, once: after the stream ended
        and none of its chunks is queued."""
        self._steps = self.steps
        self._table.free(self.slot)
        self.slot = None

    def __repr__(self) -> str:
        return (f"Session({self.session_id}, chunks={self.chunks}, "
                f"steps={self.steps})")
