"""Benchmark-side span tracing around the public calls of each layer.

The program under test carries no tracing of its own here: a
:class:`Tracer` replaces a layer's public function (or method) with a
wrapper that records one span per call and then calls the original.
Each name is patched where its caller looks it up at call time:

* ``SpikingNetwork.run_stream`` / ``SpikingNetwork.run`` on the class,
  because the server and the trainer call them as methods (``network.py``
  binds ``run_streaming`` by name at import, so patching the engine
  function would miss every call);
* ``repro.core.engine.spike_matmul`` / ``exp_scan`` / ``spike_outer`` /
  ``exp_scan_reverse`` as module globals, because the engine's own
  forward and backward passes look them up there;
* ``repro.core.backprop.backward`` as a module global, because
  ``repro.runtime.parallel.shard_grads`` imports it at call time.

Spans live in memory as parallel lists (name, start, end, parent index,
tick or step id) and are written out as JSONL when the run ends.  A
span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children always nest inside their
parent.
"""

from __future__ import annotations

import functools
import json
import time
import weakref

__all__ = ["Tracer", "summarize"]


class Tracer:
    """Records spans from wrappers it installs and removes on demand."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        #: Per-span extra attributes, keyed by span index.
        self.attrs: dict[int, dict] = {}
        #: The tick or step id stamped on new spans; the workload sets it.
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.installed = False
        self._workspaces: list = []

    # -- patching -----------------------------------------------------------
    def patch(self, owner, attr: str, name: str, attrs_fn=None) -> None:
        """Register a wrapper for ``owner.attr``, recorded as ``name``.

        ``attrs_fn(args, kwargs, result)`` optionally returns a dict of
        span attributes; it runs after the span's end time is taken.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original,
                              self._wrap(original, name, attrs_fn)))

    def _wrap(self, fn, name: str, attrs_fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        attrs = self.attrs
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if attrs_fn is not None:
                extra = attrs_fn(args, kwargs, result)
                if extra:
                    attrs[index] = extra
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    def watch_workspaces(self, workspace_cls) -> None:
        """Keep a weak reference to every ``Workspace`` built from now on
        (the hook stays for the life of the process)."""
        init = workspace_cls.__init__
        watched = self._workspaces

        @functools.wraps(init)
        def watching_init(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            watched.append(weakref.ref(instance))

        workspace_cls.__init__ = watching_init

    def workspace_counts(self) -> dict:
        """``{id: (hits, misses)}`` of every live watched workspace."""
        counts = {}
        for ref in self._workspaces:
            ws = ref()
            if ws is not None:
                counts[id(ws)] = (ws.hits, ws.misses)
        return counts

    # -- output -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                record = {"id": index, "name": name,
                          "start": self.starts[index] - origin,
                          "end": self.ends[index] - origin,
                          "parent": self.parents[index],
                          "op": self.ops[index]}
                record.update(self.attrs.get(index, {}))
                out.write(json.dumps(record) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per span name: ``calls``, ``busy`` and ``self`` seconds, and the
    summed duration of the root spans under ``"<root>"``."""
    child = [0.0] * len(tracer.names)
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += tracer.ends[index] - tracer.starts[index]
    stats: dict[str, dict] = {}
    root_busy = 0.0
    for index, name in enumerate(tracer.names):
        duration = tracer.ends[index] - tracer.starts[index]
        entry = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["busy"] += duration
        entry["self"] += duration - child[index]
        if tracer.parents[index] < 0:
            root_busy += duration
    stats["<root>"] = {"calls": 0, "busy": root_busy, "self": root_busy}
    return stats
