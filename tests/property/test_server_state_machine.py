"""Stateful property test: random interleavings of the serving API.

A hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a
:class:`~repro.serve.ModelServer` through arbitrary sequences of
``open_session`` / ``submit`` (chunks of random length) / ``poll`` and
``flush`` at a random, advancing clock / ``close_session`` (also right
after a submit, so sessions close with chunks still queued).  Every run
opens more sessions than the slot table's initial capacity, so it
crosses at least one table growth.  After every step two laws must hold
(``docs/serving.md``):

* the server's books balance, tickets and slots alike
  (:meth:`~repro.serve.ModelServer.check_invariants`);
* every completed ticket's outputs, concatenated per session, are bitwise
  equal to the same accepted chunks streamed alone through
  :meth:`~repro.core.network.SpikingNetwork.run_stream` from a fresh
  state — however the micro-batcher gathered, padded and scattered them.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.common.errors import CapacityError, StateError
from repro.core import SpikingNetwork
from repro.serve import ModelServer

SIZES = (24, 20, 12)


def make_net(seed=1):
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_chunk(steps, seed, density=0.15):
    rng = np.random.default_rng(seed)
    return (rng.random((steps, SIZES[0])) < density).astype(np.float64)


class ServerMachine(RuleBasedStateMachine):
    sessions = Bundle("sessions")

    @initialize(target=sessions,
                precision=st.sampled_from(["float64", "float32"]),
                max_batch=st.integers(1, 4),
                queue_limit=st.integers(2, 8), extra=st.integers(1, 3))
    def start(self, precision, max_batch, queue_limit, extra):
        self.net = make_net()
        self.precision = precision
        self.server = ModelServer(self.net, precision=precision,
                                  max_batch=max_batch, max_wait_ms=2.0,
                                  queue_limit=queue_limit)
        self.now = 0.0
        self.open = set()
        #: Per session: accepted chunks and their tickets, in order.
        self.accepted = {}
        #: Per session: the solo stream state and how many accepted
        #: chunks it has consumed (checked lazily as tickets complete).
        self.solo = {}
        capacity = self.server._slots.capacity
        sids = [self.open_session() for _ in range(capacity + extra)]
        assert self.server._slots.capacity > capacity   # the table grew
        return multiple(*sids)

    def teardown(self):
        if hasattr(self, "server"):
            self.server.close()

    @rule(target=sessions)
    def open_session(self):
        sid = self.server.open_session(now=self.now)
        self.open.add(sid)
        self.accepted[sid] = []
        self.solo[sid] = (None, 0)
        return sid

    @rule(sid=sessions, steps=st.integers(1, 9), seed=st.integers(0, 999))
    def submit(self, sid, steps, seed):
        chunk = make_chunk(steps, seed)
        if sid not in self.open:
            with pytest.raises(StateError):
                self.server.submit(sid, chunk, now=self.now)
            return
        try:
            ticket = self.server.submit(sid, chunk, now=self.now)
        except CapacityError:
            return
        self.accepted[sid].append((chunk, ticket))

    @rule(dt=st.floats(0.0, 0.005))
    def poll(self, dt):
        self.now += dt
        self.server.poll(now=self.now)

    @rule(dt=st.floats(0.0, 0.005))
    def flush(self, dt):
        self.now += dt
        self.server.flush(now=self.now)
        assert self.server.pending == 0

    @rule(sid=sessions, steps=st.integers(1, 9), seed=st.integers(0, 999))
    def submit_then_close(self, sid, steps, seed):
        self.submit(sid, steps, seed)
        self.close_session(sid)

    @rule(sid=sessions)
    def close_session(self, sid):
        if sid not in self.open:
            with pytest.raises(StateError):
                self.server.close_session(sid)
            return
        self.server.close_session(sid)
        self.open.discard(sid)

    @invariant()
    def books_balance(self):
        self.server.check_invariants()

    @invariant()
    def completed_outputs_equal_solo_stream(self):
        for sid, entries in self.accepted.items():
            done = [ticket.done for _, ticket in entries]
            # A session's chunks resolve in submission order.
            assert done == sorted(done, reverse=True), sid
            completed = entries[:sum(done)]
            assert all(ticket.ok for _, ticket in completed), sid
            state, checked = self.solo[sid]
            if checked == len(completed):
                continue
            fresh = completed[checked:]
            solo, state = self.net.run_stream(
                np.concatenate([chunk for chunk, _ in fresh])[None],
                state, precision=self.precision)
            served = np.concatenate([ticket.outputs for _, ticket in fresh])
            assert served.dtype == solo.dtype
            assert np.array_equal(served, solo[0]), sid
            self.solo[sid] = (state, len(completed))


ServerMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestServerInterleavings = ServerMachine.TestCase
