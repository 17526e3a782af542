"""Fused, vectorized simulation engine for the core forward/backward loop.

The step-wise reference path (:meth:`SpikingNetwork.run` with
``engine="step"``) advances the whole stack one time step at a time,
dispatching through ``SpikingLinear.step`` -> ``neuron.step`` Python calls
and performing one small ``(batch, n_in) @ (n_in, n_out)`` matmul per layer
per step.  For the typical benchmark shapes (batch 32, T 100) that is
hundreds of tiny BLAS calls plus thousands of Python-level dispatches —
the dominant cost of every experiment in the repo.

This module removes that overhead by restructuring the loop nest.  The
network is feedforward and layer ``l`` at step ``t`` depends only on layer
``l-1`` at steps ``<= t`` (eq. 9 couples same-step outputs, never future
ones), so the time-major loop can be legally reordered layer-major: run
layer 0 over the entire sequence, then layer 1, and so on.  Per layer the
work then splits in two:

* **one sparse product** — the crossbar drive ``W x[t]`` (eq. 7) of the
  raw input spikes for *all* time steps at once:
  ``(batch*T, n_in) @ (n_in, n_out)``.  Spikes are a few percent dense,
  so the product runs over the nonzeros only: one compiled
  ``scipy.sparse`` CSR call on an index structure built straight from a
  ``flatnonzero`` scan (:class:`SpikeCSR`), with no sparse-matrix object
  and no format checks;
* **one fused pass over time** — the synapse filter (eq. 9, moved after
  the product because both are linear) and the spike/threshold
  recurrence (eqs. 6, 8, 10) advance together, one elementwise update of
  ``(batch, n_out)`` slices per step.  The recurrence is inherently
  sequential (the spike at ``t`` feeds the reset filter at ``t+1``), but
  every slice lives in a preallocated buffer: nothing allocates per step.

The kernels index a *time-axis view* ``(T, batch, n)`` of their buffers.
A stream (:func:`run_streaming`) keeps its working buffers time-major, so
their per-step slices are contiguous blocks (only layer 0's drive follows
the batch-major chunk); a batch run (:func:`fused_run`) passes the
transposed view of its batch-major record buffers, which the backward
pass reads.

There is one forward kernel per neuron kind (:func:`_adaptive_forward`,
:func:`_hard_reset_forward`).  Each advances a carried per-layer state —
the :class:`StreamState` of a live stream (:func:`run_streaming`) — and a
batch run (:func:`fused_run`) is simply a stream whose carry starts at
zero.  The step-wise loop and the per-step BPTT adjoints survive only as
test oracles, reachable through ``SpikingNetwork.run(engine="step")`` and
``backprop.backward(engine="reference")``.

The backward pass (:func:`fused_backward`) applies the same split to the
BPTT adjoints of :mod:`repro.core.backprop`: the sequential part is the
elementwise ``delta_v`` recurrence; the weight gradient collapses to one
contraction over ``(batch, T)`` (over the spike nonzeros, reusing the
forward's :class:`SpikeCSR`) and the input gradient to one batched matmul
followed by a reverse scan.

Precision: every entry point accepts ``precision="float32"|"float64"``
(:func:`resolve_precision`); float32 halves memory traffic and is
typically faster, at the cost of spike-level equivalence with the float64
reference (near-threshold membrane values may round across ``v_th``).

Workspace reuse: every entry point also accepts an optional
``ws``/``workspace`` — a :class:`repro.runtime.workspace.Workspace` — from
which the large ``(batch, T, n)`` buffers are checked out instead of
allocated.  The arithmetic is identical either way (buffers are
``np.empty`` equivalents); the caller (the :class:`~repro.core.trainer.
Trainer`, or a pool worker) recycles the recorded tensors once the step is
done, so steady-state training reallocates nothing.  ``ws=None`` (the
default) keeps the original allocate-per-call behavior.

Sparse products call the compiled kernels of :mod:`scipy.sparse` (a
required dependency) directly.

Equivalence with the step-wise reference (same spikes, membrane traces and
gradients to tolerance) is tested in ``tests/unit/test_engine.py``; cost is
measured per phase by ``perfbench/`` (workloads in ``BENCHMARK.json``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools

from ..common.errors import ShapeError

__all__ = [
    "PRECISIONS",
    "resolve_precision",
    "exp_scan",
    "exp_scan_reverse",
    "fused_layer_forward",
    "fused_run",
    "fused_backward",
    "StreamState",
    "run_streaming",
]

#: Supported precision names and their dtypes.
PRECISIONS = {"float32": np.float32, "float64": np.float64}

#: Use the CSR product when the spike density is below this and the input
#: is large enough for the conversion to pay off.
SPARSE_DENSITY_THRESHOLD = 0.2
_SPARSE_MIN_SIZE = 1 << 14


def resolve_precision(precision) -> np.dtype | None:
    """Map ``"float32"``/``"float64"`` (or a dtype-like) to a numpy dtype.

    ``None`` passes through (meaning "caller's default").
    """
    if precision is None:
        return None
    if isinstance(precision, str):
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {sorted(PRECISIONS)}, "
                f"got {precision!r}"
            )
        return np.dtype(PRECISIONS[precision])
    return np.dtype(precision)


# -- scan kernels -----------------------------------------------------------

def exp_scan(xs: np.ndarray, decay: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """Causal first-order scan ``y[t] = decay*y[t-1] + x[t]`` along axis 1.

    ``xs`` has shape ``(batch, T, n)``.  The scan is evaluated in place
    over ``out`` (allocated once when omitted); each step is two fused
    elementwise ops on a ``(batch, n)`` slice.  ``out`` may alias ``xs``.
    The forward kernels fold this scan into their pass over time; it
    serves the lazily computed synapse trace of a recorded run
    (:class:`~repro.core.layers.LayerStepRecord`).
    """
    xs = np.asarray(xs)
    if out is None:
        out = np.empty_like(xs)
    steps = xs.shape[1]
    if steps == 0:
        return out
    if out is xs:
        scratch = np.empty(xs.shape[::2], dtype=xs.dtype)  # (batch, n)
        for t in range(1, steps):
            np.multiply(out[:, t - 1], decay, out=scratch)
            out[:, t] += scratch
    else:
        out[:, 0] = xs[:, 0]
        for t in range(1, steps):
            cur = out[:, t]
            np.multiply(out[:, t - 1], decay, out=cur)
            cur += xs[:, t]
    return out


def _ws_empty(ws, shape, dtype) -> np.ndarray:
    """``np.empty`` routed through a workspace when one is supplied."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.empty(shape, dtype)


def _ws_release(ws, *arrays) -> None:
    if ws is not None:
        ws.release(*arrays)


# -- sparse spike products --------------------------------------------------

class SpikeCSR(NamedTuple):
    """Canonical CSR structure of an ``(m, n)`` spike matrix.

    Built straight from one ``flatnonzero`` scan (:func:`_spike_csr`):
    the nonzero indices come out sorted, so the arrays are canonical CSR
    by construction and go to scipy's compiled kernels as they are — no
    ``scipy.sparse`` matrix is constructed and no format check runs.
    ``nnz``/``shape``/``dtype`` mirror the scipy attributes of the same
    names.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype


def _csr_from_nonzeros(raveled: np.ndarray, idx: np.ndarray, m: int,
                       n: int) -> SpikeCSR:
    """Assemble the CSR of a raveled ``(m, n)`` matrix from its sorted
    nonzero positions ``idx``."""
    indptr = np.searchsorted(idx, np.arange(0, (m + 1) * n, n))
    return SpikeCSR(indptr, idx % n, raveled[idx], (m, n))


def _spike_csr(flat: np.ndarray) -> SpikeCSR:
    """CSR of an ``(m, n)`` spike matrix regardless of size or density.

    The streaming path (:func:`run_streaming`) uses this instead of the
    :func:`_as_csr` probe: the CSR product computes every output row as an
    independent sum over that row's nonzeros in index order, so the result
    for one sample/step is bitwise-independent of which other rows share
    the matrix, and of their order — the property that makes arbitrary
    chunking, the serving micro-batcher's session gathering and the
    stream's time-major rows exact.  The dense GEMM has no such guarantee
    (BLAS picks different kernels for different row counts), which is why
    the probe's economics do not apply here.
    """
    # Explicit bool compare first: flatnonzero on a float array pays an
    # extra full-size temporary and runs ~3x slower.
    raveled = np.ascontiguousarray(flat).reshape(-1)
    return _csr_from_nonzeros(raveled, np.flatnonzero(raveled != 0),
                              *flat.shape)


def _as_csr(flat: np.ndarray) -> SpikeCSR | None:
    """:func:`_spike_csr` of a sparse ``(m, n)`` matrix, or ``None``.

    Returns ``None`` when the matrix is small or the density is too high
    for the sparse product to win over the dense GEMM.
    """
    if flat.size < _SPARSE_MIN_SIZE:
        return None
    raveled = np.ascontiguousarray(flat).reshape(-1)
    idx = np.flatnonzero(raveled != 0)
    if idx.size > SPARSE_DENSITY_THRESHOLD * flat.size:
        return None
    return _csr_from_nonzeros(raveled, idx, *flat.shape)


def _matvecs(kernel, rows: int, cols: int, csr: SpikeCSR,
             dense: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``out = A @ dense`` for the sparse ``A`` stored in ``csr``'s arrays,
    through scipy's compiled ``csr_matvecs``/``csc_matvecs``.

    This is the call ``scipy.sparse``'s ``@`` makes after its checks —
    accumulation into a zeroed ``(rows, n_vecs)`` result, each output row
    summed over its nonzeros in index order — so the result is bitwise
    that of the public product.  ``out`` must be C-contiguous (it is
    written through a flat view); ``None`` allocates it.  The compiled
    kernel trusts every size it is given, so the shapes are checked here.
    """
    if dense.ndim != 2 or dense.shape[0] != cols:
        raise ShapeError(f"sparse ({rows}, {cols}) operand cannot multiply "
                         f"a dense {dense.shape} operand")
    dtype = np.result_type(csr.dtype, dense.dtype)
    n_vecs = dense.shape[1]
    if out is None:
        out = np.zeros((rows, n_vecs), dtype=dtype)
    else:
        if (out.shape != (rows, n_vecs) or out.dtype != dtype
                or not out.flags.c_contiguous):
            raise ShapeError(f"out must be a C-contiguous ({rows}, "
                             f"{n_vecs}) {dtype} array, got {out.shape} "
                             f"{out.dtype}")
        out.fill(0)
    kernel(rows, cols, n_vecs, csr.indptr, csr.indices,
           csr.data.astype(dtype, copy=False),
           np.ravel(dense).astype(dtype, copy=False), out.reshape(-1))
    return out


#: Default for ``spike_matmul``'s ``csr``: "not computed yet, decide here".
_AUTO_CSR = object()


def spike_matmul(flat_x: np.ndarray, w_t: np.ndarray, csr=_AUTO_CSR,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``flat_x @ w_t`` exploiting spike sparsity when profitable.

    ``flat_x`` is a ``(batch*T, n_in)`` spike matrix (typically a few
    percent nonzero), ``w_t`` a dense ``(n_in, n_out)`` weight transpose.
    Falls back to the dense BLAS product when the input is dense or small.
    ``csr`` short-circuits the conversion: pass the :class:`SpikeCSR` the
    caller already holds for ``flat_x``, or ``None`` to assert the input
    is known dense (skipping the conversion probe entirely).  ``out``
    (C-contiguous) receives the product in place.
    """
    if csr is _AUTO_CSR:
        csr = _as_csr(flat_x)
    if csr is None:
        if out is not None:
            return np.matmul(flat_x, w_t, out=out)
        return flat_x @ w_t
    rows, cols = csr.shape
    return _matvecs(_sparsetools.csr_matvecs, rows, cols, csr, w_t, out)


def spike_outer(flat_dv: np.ndarray, flat_x: np.ndarray,
                csr=_AUTO_CSR) -> np.ndarray:
    """``flat_dv.T @ flat_x`` — the BPTT weight gradient contraction.

    ``flat_dv`` is the dense ``(batch*T, n_out)`` membrane adjoint and
    ``flat_x`` the ``(batch*T, n_in)`` presynaptic spikes; when the spikes
    are sparse the contraction runs as ``csr.T @ flat_dv`` over the
    nonzeros only (the CSR arrays read as the CSC of the transpose).
    ``csr`` follows the :func:`spike_matmul` convention: the structure the
    forward pass already built, ``None`` for "probed and dense" (no
    re-probe), or the default to probe here.
    """
    if csr is _AUTO_CSR:
        csr = _as_csr(flat_x)
    if csr is None:
        return flat_dv.T @ flat_x
    rows, cols = csr.shape
    grad_t = _matvecs(_sparsetools.csc_matvecs, cols, rows, csr,
                      flat_dv, None)
    return np.ascontiguousarray(grad_t.T)


def exp_scan_reverse(xs: np.ndarray, decay: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Anti-causal scan ``a[t] = x[t] + decay*a[t+1]`` along axis 1.

    The adjoint of :func:`exp_scan`.  Supports ``out is xs`` (in-place)
    for callers that want the adjoint without a second buffer;
    :func:`fused_backward` itself writes into a distinct buffer (the
    truncated mode still needs the pre-scan ``delta_v`` afterwards, and
    workspace reuse makes the second buffer free in steady state).
    """
    xs = np.asarray(xs)
    if out is None:
        out = np.empty_like(xs)
    steps = xs.shape[1]
    if steps == 0:
        return out
    if out is not xs:
        out[:, steps - 1] = xs[:, steps - 1]
    scratch = np.empty(xs.shape[::2], dtype=xs.dtype)  # (batch, n)
    for t in range(steps - 2, -1, -1):
        np.multiply(out[:, t + 1], decay, out=scratch)
        if out is xs:
            out[:, t] += scratch
        else:
            np.add(xs[:, t], scratch, out=out[:, t])
    return out


# -- forward ----------------------------------------------------------------

def _resolve_weight_override(layer, weight):
    """Validate a per-layer weight override (``None`` = layer's own)."""
    if weight is None:
        return None
    weight = np.asarray(weight)
    if weight.shape != layer.weight.shape:
        raise ShapeError(
            f"{layer.name}: weight override shape {weight.shape} != "
            f"{layer.weight.shape}")
    return weight


def _check_weight_count(network, weights) -> None:
    """A per-layer weight override list must cover every layer."""
    if weights is not None and len(weights) != len(network.layers):
        raise ShapeError(
            f"expected {len(network.layers)} weight overrides, "
            f"got {len(weights)}")


def fused_layer_forward(layer, xs: np.ndarray, _csr=_AUTO_CSR, ws=None,
                        weight=None) -> tuple[np.ndarray, np.ndarray]:
    """Run one :class:`~repro.core.layers.SpikingLinear` over a whole sequence.

    A batch run is a stream whose carry starts at zero: the layer goes
    through the same per-kind kernel :func:`run_streaming` uses, seeded
    with a fresh all-zero carry (zero carries reproduce a cold first step
    exactly, because ``0*decay`` and ``+= 0`` are no-ops on the fresh
    state).

    Parameters
    ----------
    layer:
        The layer to run (state is reinitialised, as in ``layer.run``).
    xs:
        Input spikes, shape ``(batch, T, n_in)``; dtype selects precision.
    ws:
        Optional :class:`~repro.runtime.workspace.Workspace` serving the
        large buffers (identical results; the caller recycles them).
    weight:
        Optional ``(n_out, n_in)`` array substituting the layer's weight
        matrix in the crossbar product (the layer's own parameters are
        untouched) — the weight-override hook hardware-aware training and
        hardware-in-the-loop inference ride.

    Returns
    -------
    (spikes, v):
        Both ``(batch, T, n_out)``.  The synapse-filter trace ``k`` is
        never formed (the filter runs *after* the crossbar product — the
        two commute); a record scans it from ``xs`` if it is read.  The
        layer/neuron incremental state is left at the final step's values,
        matching the step-wise path.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3:
        raise ShapeError(f"{layer.name}: expected (batch, T, n_in), "
                         f"got {xs.shape}")
    if xs.shape[2] != layer.n_in:
        raise ShapeError(f"{layer.name}: expected {layer.n_in} inputs, "
                         f"got {xs.shape[2]}")
    weight = _resolve_weight_override(layer, weight)
    dtype = xs.dtype
    batch, steps, n_in = xs.shape
    adaptive = layer.neuron_kind == "adaptive"
    if steps == 0:
        layer.reset_state(batch, dtype=dtype)
        empty = np.zeros((batch, 0, layer.n_out), dtype=dtype)
        return empty, empty.copy()

    flat_x = xs.reshape(batch * steps, n_in)
    v = _ws_empty(ws, (batch, steps, layer.n_out), dtype)
    _crossbar(layer, weight, flat_x, _csr, v.reshape(batch * steps, -1), ws)
    spikes = _ws_empty(ws, v.shape, dtype)
    carry = _zero_carry(layer, batch, dtype)
    kernel = _adaptive_forward if adaptive else _hard_reset_forward
    # The record buffers stay batch-major (the backward reads them so);
    # the kernel walks their time-axis views.
    kernel(layer, v.transpose(1, 0, 2), spikes.transpose(1, 0, 2), carry, ws)

    # Leave incremental state at the final step, like the step-wise path.
    neuron = layer.neuron
    if not adaptive:
        # The step-wise path's reset_state zeroes the unused synapse
        # filter buffer of hard-reset layers.
        layer.k = np.zeros((batch, n_in), dtype=dtype)
        neuron.v = carry["v"]
        return spikes, v
    # Final filter state without the full trace: k[T-1] is the
    # alpha^(T-1-t)-weighted sum of the inputs.
    decay_powers = layer.alpha ** np.arange(steps - 1, -1, -1,
                                            dtype=np.float64)
    layer.k = np.matmul(decay_powers.astype(dtype), xs)
    neuron.h = carry["h"]
    neuron.last_output = carry["o"]
    return spikes, v


def _zero_carry(layer, batch: int, dtype) -> dict[str, np.ndarray]:
    """A fresh per-layer carry: ``{g, h, o}`` (adaptive) or ``{v}``
    (hard reset), all ``(batch, n_out)`` zeros of ``dtype``."""
    shape = (batch, layer.n_out)
    if layer.neuron_kind == "adaptive":
        return {key: np.zeros(shape, dtype=dtype) for key in ("g", "h", "o")}
    return {"v": np.zeros(shape, dtype=dtype)}


def _crossbar(layer, weight, flat_x, csr, out, ws) -> None:
    """The crossbar product of every row at once: ``out = flat_x @ W^T``.

    ``flat_x`` holds one input row per (sample, step), in any order;
    ``out`` (C-contiguous ``(rows, n_out)``) receives the matching rows.
    ``csr`` follows the :func:`spike_matmul` convention.  Hard-reset
    layers fold their discretisation gain into the weight, so the pass
    over time is pure elementwise work.
    """
    dtype = out.dtype
    w_t = _ws_empty(ws, (layer.n_in, layer.n_out), dtype)
    np.copyto(w_t, (layer.weight if weight is None else weight).T)
    gain = float(getattr(layer.neuron, "input_gain", 1.0))
    if gain != 1.0:
        w_t *= dtype.type(gain)
    spike_matmul(flat_x, w_t, csr=csr, out=out)
    _ws_release(ws, w_t)


def _adaptive_forward(layer, drive, spikes, st, ws, ends=None) -> None:
    """Adaptive-threshold layer: one fused pass over time.

    ``drive`` and ``spikes`` are time-axis views ``(T, batch, n_out)``.
    ``drive`` holds the crossbar product ``(W x)[t]`` of the raw input
    spikes and is rewritten in place into the membrane ``v[t]``;
    ``spikes`` receives ``O[t]``.  The carry ``st = {g, h, o}`` — the
    filtered drive ``g[t]``, the reset filter ``h[t]`` (eq. 8) and the
    last output spikes ``O[t]`` — advances in place.

    The synapse filter (eq. 9) and the crossbar product (eq. 7) are both
    linear, so ``filter(x) @ W^T == filter(x @ W^T)``: the product's input
    stays the raw spikes (a few-percent-dense 0/1 matrix the sparse
    product contracts over nonzeros only), and the filter runs on the
    narrow ``n_out`` axis, in the same pass as the threshold recurrence.
    ``ends`` (see :func:`run_streaming`) captures each row's carry at its
    own final valid step.
    """
    neuron = layer.neuron
    theta = neuron.params.theta
    v_th = neuron.params.v_th
    beta = neuron.beta_r
    alpha = layer.alpha
    g, h = st["g"], st["h"]
    scratch = _ws_empty(ws, g.shape, g.dtype)
    final = None
    if ends is not None:
        final = {key: _ws_empty(ws, g.shape, g.dtype) for key in st}
    o_prev = st["o"]
    for t in range(len(drive)):
        v_t = drive[t]
        g *= alpha
        g += v_t                          # g[t] = alpha*g[t-1] + (W x)[t] (eq. 9)
        h *= beta
        h += o_prev                       # h[t] = beta*h[t-1] + O[t-1] (eq. 8)
        np.multiply(h, theta, out=scratch)
        np.subtract(g, scratch, out=v_t)  # v[t] = g[t] - theta*h[t] (eq. 6)
        o_t = spikes[t]
        o_t[...] = v_t >= v_th            # O[t] = U(v[t] - Vth) (eq. 10/11)
        o_prev = o_t
        if ends is not None:
            rows = ends.get(t)
            if rows is not None:
                final["g"][rows] = g[rows]
                final["h"][rows] = h[rows]
                final["o"][rows] = o_t[rows]
    if ends is None:
        np.copyto(st["o"], spikes[-1])
    else:
        # Padded rows kept evolving the shared working carry past their
        # end; restore every row from its own captured snapshot.
        for key, snapshot in final.items():
            np.copyto(st[key], snapshot)
        _ws_release(ws, *final.values())
    _ws_release(ws, scratch)


def _hard_reset_forward(layer, drive, spikes, st, ws, ends=None) -> None:
    """Hard-reset layer: one leaky-integrate/reset pass over time.

    Same buffer contract as :func:`_adaptive_forward`: ``drive`` (the
    gain-folded crossbar product) is rewritten into the pre-reset
    membrane ``v_pre[t]``, ``spikes`` receives ``O[t]``, and the
    post-reset membrane carry ``st = {v}`` advances in place.
    """
    neuron = layer.neuron
    alpha = neuron.alpha
    v_th = neuron.params.v_th
    v_post = st["v"]
    scratch = _ws_empty(ws, v_post.shape, v_post.dtype)
    v_final = None
    if ends is not None:
        v_final = _ws_empty(ws, v_post.shape, v_post.dtype)
    for t in range(len(drive)):
        v_t = drive[t]
        np.multiply(v_post, alpha, out=scratch)
        v_t += scratch                    # v_pre[t] = alpha*v_post[t-1] + j[t]
        o_t = spikes[t]
        o_t[...] = v_t >= v_th
        np.subtract(1.0, o_t, out=scratch)
        np.multiply(v_t, scratch, out=v_post)   # hard reset (eq. 1b)
        if ends is not None:
            rows = ends.get(t)
            if rows is not None:
                v_final[rows] = v_post[rows]
    if ends is not None:
        np.copyto(st["v"], v_final)
        _ws_release(ws, v_final)
    _ws_release(ws, scratch)


def fused_run(network, inputs: np.ndarray, record: bool = False, ws=None,
              weights=None):
    """Fused forward pass over the whole stack; drop-in for the step loop.

    ``inputs`` must already be a validated ``(batch, T, n_input)`` array of
    the desired precision (``SpikingNetwork.run`` handles coercion).
    Returns ``(outputs, RunRecord | None)`` identical in structure to the
    step-wise path; the per-layer ``v``/``spikes`` tensors come for free,
    and ``k`` is scanned from the layer input only if read.  With a
    workspace and ``record=False`` the intermediate layers' tensors are
    recycled as soon as the next layer has consumed them (the returned
    outputs stay checked out for the caller).

    ``weights`` (optional, one ``(n_out, n_in)`` array per layer)
    substitutes the crossbar product's weight matrices without touching
    the network's parameters — the batch-mode twin of
    :func:`run_streaming`'s override.  Hardware-aware training runs its
    forward pass through the quantized(+noisy) weights this way; a
    following :func:`fused_backward` must be given the *same* list so the
    adjoint matmuls traverse the weights the forward actually used.
    """
    from .layers import LayerStepRecord   # local import: avoids a cycle
    from .network import RunRecord

    _check_weight_count(network, weights)
    x = inputs
    layer_records: list[LayerStepRecord] = []
    input_csrs = []
    spikes = inputs
    for index, layer in enumerate(network.layers):
        csr = _as_csr(x.reshape(-1, layer.n_in))
        input_csrs.append(csr)
        spikes, v = fused_layer_forward(
            layer, x, _csr=csr, ws=ws,
            weight=None if weights is None else weights[index])
        if record:
            layer_records.append(LayerStepRecord(
                k=None, v=v, spikes=spikes, alpha=layer.alpha,
                inputs=x if layer.neuron_kind == "adaptive" else None))
        elif ws is not None:
            ws.release(v)
            if x is not inputs:
                ws.release(x)
        x = spikes
    if not record:
        return spikes, None
    run_record = RunRecord(inputs=inputs, layers=layer_records)
    # Stash the CSR conversions so a following fused_backward on this
    # record reuses them for its weight-gradient contractions.
    run_record._input_csrs = input_csrs
    return spikes, run_record


# -- streaming --------------------------------------------------------------

class StreamState:
    """Carryable per-layer state for chunked (streaming) inference.

    A stream processes a conceptually endless spike sequence in chunks:
    ``outputs, state = network.run_stream(chunk, state)`` consumes one
    ``(batch, T_chunk, n_in)`` chunk and advances the state so the next
    chunk continues exactly where this one stopped.  Splitting a sequence
    at arbitrary boundaries changes no arithmetic — the recurrences are
    first-order, so everything step ``t+1`` needs from the past is a
    single ``(batch, n)`` slice per quantity (pinned bitwise against the
    one-shot :meth:`~repro.core.network.SpikingNetwork.run` in
    ``tests/unit/test_streaming.py``).

    Per adaptive layer the carry is ``{"g", "h", "o"}``: the scanned
    crossbar drive ``g[t]`` (eq. 9 applied after the matmul), the reset
    filter ``h[t]`` (eq. 8) and the last output spikes ``O[t]``; per
    hard-reset layer ``{"v"}``: the post-reset membrane.  All are
    ``(batch, n_out)`` in the stream's dtype.  A batch run
    (:func:`fused_run`) is the same kernel started from a fresh all-zero
    carry.

    Instances are plain data: they never reference the network and the
    network's own layer/neuron scratch state is untouched by streaming
    runs.  ``batch`` may exceed 1, and rows are independent streams: a
    model server keeps every live session as one row (a *slot*) of a
    single table state, and each tick gathers the slots it serves into a
    :meth:`prefix` of a gather state with one ``np.take`` per carry
    array, then stores the advanced rows back by index (see
    :class:`~repro.serve.session.SlotTable`).
    """

    def __init__(self, dtype, batch: int, sizes: tuple, kinds: tuple,
                 layers: list[dict[str, np.ndarray]]):
        self.dtype = np.dtype(dtype)
        self.batch = int(batch)
        self.sizes = tuple(sizes)
        self.kinds = tuple(kinds)
        self.layers = layers
        #: Per-row count of consumed time steps (bookkeeping only).
        self.steps = np.zeros(self.batch, dtype=np.int64)

    @classmethod
    def for_network(cls, network, batch: int, precision=None,
                    dtype=np.float64) -> "StreamState":
        """A fresh (all-zero) state for ``batch`` independent streams."""
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        resolved = resolve_precision(precision) or np.dtype(dtype)
        layers = [_zero_carry(layer, batch, resolved)
                  for layer in network.layers]
        return cls(resolved, batch, network.sizes,
                   tuple(layer.neuron_kind for layer in network.layers),
                   layers)

    def prefix(self, count: int) -> "StreamState":
        """A state over rows ``[:count]`` of this one's carry arrays.

        The carries are views (each still C-contiguous), so advancing
        the prefix advances these rows; ``steps`` is a fresh zero count.
        """
        if not 0 < count <= self.batch:
            raise ValueError(f"count must lie in [1, {self.batch}], "
                             f"got {count}")
        return StreamState(self.dtype, count, self.sizes, self.kinds,
                           [{key: arr[:count] for key, arr in layer.items()}
                            for layer in self.layers])

    def arrays(self) -> list[np.ndarray]:
        """Every carry array, in layer order then key order."""
        return [arr for layer in self.layers for arr in layer.values()]

    def compatible_with(self, network) -> bool:
        """Whether this state was built for ``network``'s architecture."""
        return (self.sizes == tuple(network.sizes)
                and self.kinds == tuple(layer.neuron_kind
                                        for layer in network.layers))

    def copy_row(self, row: int, source: "StreamState",
                 source_row: int) -> None:
        """Copy one stream's state from ``source[source_row]`` into
        ``self[row]`` (e.g. to fork or adopt a single stream)."""
        if source.sizes != self.sizes or source.kinds != self.kinds:
            raise ValueError("cannot copy state rows across stream kinds")
        for mine, theirs in zip(self.layers, source.layers):
            for key, arr in mine.items():
                arr[row] = theirs[key][source_row]
        self.steps[row] = source.steps[source_row]

    def clone(self) -> "StreamState":
        """An independent deep copy (e.g. for forking a stream)."""
        twin = StreamState(
            self.dtype, self.batch, self.sizes, self.kinds,
            [{key: arr.copy() for key, arr in layer.items()}
             for layer in self.layers])
        twin.steps = self.steps.copy()
        return twin

    def __repr__(self) -> str:
        arch = "-".join(str(s) for s in self.sizes)
        return (f"StreamState({arch}, batch={self.batch}, dtype={self.dtype.name}, "
                f"steps={self.steps.tolist()})")


def _resolve_lengths(lengths, batch: int, steps: int):
    """Validate per-row chunk lengths; returns ``(lengths, ends)`` where
    ``ends`` maps a time index to the rows whose stream finishes there.

    ``None`` lengths (or all rows spanning the full chunk) take the
    homogeneous fast path ``(None, None)``.
    """
    if lengths is None:
        return None, None
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,):
        raise ShapeError(
            f"lengths must have shape ({batch},), got {lengths.shape}")
    if steps == 0:
        raise ShapeError("lengths given for an empty chunk")
    if lengths.min() < 1 or lengths.max() > steps:
        raise ShapeError(
            f"lengths must lie in [1, {steps}], got "
            f"[{lengths.min()}, {lengths.max()}]")
    if np.all(lengths == steps):
        return None, None
    ends = {}
    for t in np.unique(lengths - 1):
        ends[int(t)] = np.flatnonzero(lengths - 1 == t)
    return lengths, ends


def run_streaming(network, chunk: np.ndarray, state: StreamState,
                  lengths=None, ws=None, weights=None) -> np.ndarray:
    """Advance a stream by one chunk; returns output spikes.

    ``chunk`` is a validated ``(batch, T_chunk, n_in)`` array in the
    state's dtype (:meth:`~repro.core.network.SpikingNetwork.run_stream`
    handles coercion).  ``state`` is advanced in place.  ``lengths``
    (optional, ``(batch,)`` ints in ``[1, T_chunk]``) marks each row's
    valid prefix in a padded chunk: rows still compute the padded tail
    (rejecting cross-row work would cost more than it saves) but their
    state is captured at their own final valid step, so a padded batched
    run leaves every stream exactly where its own data ended.  Output
    values beyond a row's length are unspecified.

    ``weights`` (optional, one ``(n_out, n_in)`` array per layer)
    substitutes the crossbar product's weight matrices without touching
    the network's own parameters.  This is the hardware-in-the-loop hook:
    :meth:`~repro.hardware.mapped_network.HardwareMappedNetwork.run_stream`
    streams the resident *software* network with the crossbars' achieved
    (quantized + noisy) weights — only the weight values differ, the
    dynamics are byte-for-byte the same code path.

    Each layer runs through the same per-kind kernel as
    :func:`fused_run`, seeded with the carried state.  Every crossbar
    product uses the CSR spike product unconditionally
    (:func:`_spike_csr`): CSR output rows are computed independently in
    fixed index order, which makes the chunked/batched results
    bitwise-equal to a one-shot fused run whose probe also picked CSR.
    The same independence lets the working buffers be time-major
    ``(T, batch, n)``: their per-step slices are contiguous blocks, and
    layers after the first consume their input spike rows in time-major
    order.  Layer 0's drive follows the batch-major chunk (transposing
    the chunk costs more than the strided steps save), and the last
    layer writes straight into the batch-major output.

    Unlike :func:`fused_run`, the network's layer/neuron scratch state is
    left untouched — many concurrent streams share one resident network.
    """
    batch, steps, _ = chunk.shape
    lengths, ends = _resolve_lengths(lengths, batch, steps)
    _check_weight_count(network, weights)
    if steps == 0:
        return np.zeros((batch, 0, network.sizes[-1]), dtype=state.dtype)
    dtype = state.dtype
    last = len(network.layers) - 1
    # Layer 0 reads the chunk's own (batch-major) rows, so its drive
    # buffer follows that order and the kernel walks its time-axis view.
    time_major = False
    x_buf = None
    x = chunk.reshape(batch * steps, network.sizes[0])
    for index, (layer, st) in enumerate(zip(network.layers, state.layers)):
        weight = _resolve_weight_override(
            layer, None if weights is None else weights[index])
        n_out = layer.n_out
        drive = _ws_empty(ws, (steps, batch, n_out) if time_major
                          else (batch, steps, n_out), dtype)
        _crossbar(layer, weight, x, _spike_csr(x),
                  drive.reshape(batch * steps, n_out), ws)
        if index == last:
            out = _ws_empty(ws, (batch, steps, n_out), dtype)
            spikes = out.transpose(1, 0, 2)
        else:
            out = spikes = _ws_empty(ws, (steps, batch, n_out), dtype)
        kernel = (_adaptive_forward if layer.neuron_kind == "adaptive"
                  else _hard_reset_forward)
        kernel(layer, drive if time_major else drive.transpose(1, 0, 2),
               spikes, st, ws, ends)
        _ws_release(ws, drive, x_buf)
        x_buf = out
        x = out.reshape(batch * steps, n_out)
        time_major = True
    if lengths is None:
        state.steps += steps
    else:
        state.steps += lengths
    return x_buf


# -- backward ---------------------------------------------------------------

def fused_backward(network, record, grad_outputs: np.ndarray,
                   mode: str = "exact", precision=None, ws=None,
                   need_input_grad: bool = True, weights=None):
    """Fused BPTT through a recorded run; drop-in for
    :func:`repro.core.backprop.backward`.

    The adjoint recursions of the reference implementation are split the
    same way as the forward pass: the ``delta_v`` recurrence stays a
    sequential elementwise scan over preallocated ``(batch, T, n)``
    buffers, while the weight gradient becomes one ``tensordot`` over
    ``(batch, T)`` and the input gradient one batched matmul plus a
    reverse exponential scan (exact mode's ``alpha``-carry).

    ``precision`` defaults to the record's dtype (so a float32 forward run
    gets a float32 backward); pass ``"float64"`` to upcast.  ``ws`` serves
    and recycles the adjoint buffers; the only buffer that survives the
    call is the one captured by the deferred input-gradient closure, and
    that one is deliberately allocated outside the workspace.  Training
    never reads ``GradientResult.input_grad``, so the trainer/pool path
    passes ``need_input_grad=False`` — the closure (and its captured
    plain buffer + weight snapshot) is then skipped entirely and every
    adjoint buffer returns to the workspace.

    ``weights`` substitutes the per-layer weight matrices of the adjoint
    matmuls — pass the same override list the forward
    (:func:`fused_run` ``weights=``) ran with.  The returned
    ``weight_grads`` are then gradients with respect to the *override*
    weights; the straight-through estimator of hardware-aware training
    applies them unchanged to the full-precision master weights.
    """
    if mode not in ("exact", "truncated"):
        raise ValueError(f"mode must be 'exact' or 'truncated', got {mode!r}")
    from .backprop import GradientResult   # local import: avoids a cycle

    outputs = record.outputs
    if grad_outputs.shape != outputs.shape:
        raise ShapeError(
            f"grad_outputs shape {grad_outputs.shape} != outputs {outputs.shape}"
        )
    dtype = resolve_precision(precision) or outputs.dtype
    _check_weight_count(network, weights)

    grad_spikes = np.asarray(grad_outputs, dtype=dtype)
    cached_csrs = getattr(record, "_input_csrs", None)
    weight_grads: list[np.ndarray] = [None] * len(network.layers)
    input_grad_fn = None
    for index in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[index]
        layer_record = record.layers[index]
        override = _resolve_weight_override(
            layer, None if weights is None else weights[index])
        # Forward-pass conversions are authoritative: a cached CSR is
        # reused, a cached None means the input was probed dense (skip
        # re-probing).  Only a missing/incompatible cache re-probes.
        csr = _AUTO_CSR
        if cached_csrs is not None:
            csr = cached_csrs[index]
            if csr is not None and csr.dtype != dtype:
                csr = _AUTO_CSR
        defer = index == 0 and need_input_grad
        if layer.neuron_kind == "adaptive":
            w_grad, grad_inputs_fn, retained = _fused_backward_adaptive(
                layer, layer_record, record.layer_input(index),
                grad_spikes, mode, dtype, csr, defer, ws, override,
            )
        else:
            w_grad, grad_inputs_fn, retained = _fused_backward_hard_reset(
                layer, layer_record, record.layer_input(index),
                grad_spikes, dtype, csr, defer, ws, override,
            )
        weight_grads[index] = w_grad
        if index == 0:
            if need_input_grad:
                # The network-input gradient is only consumed by
                # sensitivity analyses, never by training — defer its
                # dense matmul until someone actually reads
                # GradientResult.input_grad.
                input_grad_fn = grad_inputs_fn
            else:
                # Closure discarded unused; its buffers recycle now.
                _ws_release(ws, *retained)
            # The last consumed adjoint is dead (a deferred closure
            # captures its own plain-allocated buffers, never this one).
            _ws_release(ws, grad_spikes)
        else:
            upstream = grad_spikes
            grad_spikes = grad_inputs_fn()
            # The consumed adjoint and this layer's scan buffers are dead
            # once the next upstream gradient exists.
            _ws_release(ws, upstream, *retained)
    return GradientResult(weight_grads=weight_grads, input_grad=None,
                          input_grad_fn=input_grad_fn)


def _surrogate_eps(layer, v: np.ndarray, ws) -> np.ndarray:
    """``eps = surrogate'(v - v_th)`` in ``v``'s dtype, in workspace buffers.

    The same elementwise ops in the same order as
    ``derivative(v - v_th).astype(v.dtype)`` — the surrogate computes in
    float64, in place over the centred membrane — so the gradients are
    bitwise those of the allocating form.  The caller releases ``eps``.
    """
    wide = _ws_empty(ws, v.shape, np.float64)
    np.subtract(v, layer.params.v_th, out=wide)
    layer.surrogate.derivative(wide, out=wide)
    if v.dtype == np.float64:
        return wide
    eps = _ws_empty(ws, v.shape, v.dtype)
    np.copyto(eps, wide)
    _ws_release(ws, wide)
    return eps


def _fused_backward_adaptive(layer, layer_record, layer_inputs, grad_spikes,
                             mode, dtype, csr=_AUTO_CSR, defer=False,
                             ws=None, override=None):
    """Adaptive-layer adjoints with the matmuls hoisted out of the time loop.

    Sequential part (elementwise, reverse time)::

        delta_v[t] = (dE/dO[t] + reset_term[t]) * eps[t]
        exact:      reset_term[t] = a_h[t+1],  a_h[t] = beta*a_h[t+1] - theta*delta_v[t]
        truncated:  reset_term[t] = -theta * delta_v[t+1]

    Hoisted part — with ``e = exp_scan_reverse(delta_v, alpha)``, the
    synapse filter's adjoint.  The filter is linear, so it moves off the
    recorded trace ``k`` and onto the adjoint
    (``sum_t delta_v[t]^T k[t] == sum_s e[s]^T x[s]``), and it commutes
    with the weight product (``revscan(delta_v @ W) == e @ W``)::

        dE/dW    = sum_{b,s} e[b,s]^T x[b,s]    (sparse-aware contraction)
        dE/dx[t] = e @ W          (exact)
                 = delta_v @ W    (truncated; eq. 13 drops the alpha-carry)

    Working from the raw presynaptic spikes ``x`` instead of ``k`` lets
    :func:`spike_outer` contract over the spike nonzeros only, and is why
    the record's ``k`` tensor is never touched here.
    """
    theta = layer.params.theta
    beta = layer.neuron.beta_r

    v = np.asarray(layer_record.v, dtype=dtype)
    batch, steps, n_out = v.shape

    eps = _surrogate_eps(layer, v, ws)

    # The buffer the deferred (layer-0) closure captures must outlive this
    # call indefinitely, so it is never taken from the workspace.
    capture_dv = defer and mode == "truncated"
    if capture_dv:
        dv = np.empty((batch, steps, n_out), dtype=dtype)
    else:
        dv = _ws_empty(ws, (batch, steps, n_out), dtype)
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    if mode == "exact":
        a_h = np.zeros((batch, n_out), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            dv_t = dv[:, t]
            np.add(grad_spikes[:, t], a_h, out=dv_t)
            dv_t *= eps[:, t]
            a_h *= beta
            np.multiply(dv_t, theta, out=scratch)
            a_h -= scratch
    else:
        np.multiply(grad_spikes[:, -1], eps[:, -1], out=dv[:, -1])
        for t in range(steps - 2, -1, -1):
            np.multiply(dv[:, t + 1], theta, out=scratch)
            np.subtract(grad_spikes[:, t], scratch, out=dv[:, t])
            dv[:, t] *= eps[:, t]
    _ws_release(ws, scratch, eps)

    if defer and mode == "exact":
        e = exp_scan_reverse(dv, layer.alpha)          # captured: plain
    else:
        e = exp_scan_reverse(dv, layer.alpha,
                             out=_ws_empty(ws, dv.shape, dtype))
    flat_x = np.asarray(layer_inputs, dtype=dtype).reshape(
        batch * steps, layer.n_in
    )
    w_grad = spike_outer(e.reshape(batch * steps, n_out), flat_x, csr=csr)

    # The adjoint matmuls traverse the weights the forward pass used: the
    # layer's own, or the caller's override (hardware-aware training).
    weight = np.asarray(layer.weight if override is None else override,
                        dtype=dtype)
    if defer and weight is layer.weight:
        # The closure may be called after an in-place optimizer step;
        # snapshot the weights the forward pass actually used.
        weight = weight.copy()
    upstream = e if mode == "exact" else dv

    if defer:
        # Recycle whichever scan buffer the closure does not capture.
        _ws_release(ws, dv if mode == "exact" else e)

        def grad_inputs_fn() -> np.ndarray:
            return (upstream.reshape(batch * steps, n_out) @ weight).reshape(
                batch, steps, layer.n_in
            )

        return w_grad, grad_inputs_fn, ()

    def grad_inputs_fn() -> np.ndarray:
        out = _ws_empty(ws, (batch, steps, layer.n_in), dtype)
        np.matmul(upstream.reshape(batch * steps, n_out), weight,
                  out=out.reshape(batch * steps, layer.n_in))
        return out

    return w_grad, grad_inputs_fn, (dv, e)


def _fused_backward_hard_reset(layer, layer_record, layer_inputs,
                               grad_spikes, dtype, csr=_AUTO_CSR,
                               defer=False, ws=None, override=None):
    """Hard-reset adjoints with the matmuls hoisted (reset gate detached)."""
    alpha = layer.neuron.alpha
    input_gain = getattr(layer.neuron, "input_gain", 1.0)

    v_pre = np.asarray(layer_record.v, dtype=dtype)
    spikes = np.asarray(layer_record.spikes, dtype=dtype)
    layer_inputs = np.asarray(layer_inputs, dtype=dtype)
    batch, steps, n_out = v_pre.shape

    eps = _surrogate_eps(layer, v_pre, ws)

    # delta_v[t] = dE/dO[t]*eps[t] + alpha*(1 - O[t])*delta_v[t+1]
    # (``dv`` is what a deferred closure captures, so plain-allocated then).
    if defer:
        dv = np.empty((batch, steps, n_out), dtype=dtype)
    else:
        dv = _ws_empty(ws, (batch, steps, n_out), dtype)
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    np.multiply(grad_spikes[:, -1], eps[:, -1], out=dv[:, -1])
    for t in range(steps - 2, -1, -1):
        dv_t = dv[:, t]
        np.subtract(1.0, spikes[:, t], out=scratch)
        scratch *= dv[:, t + 1]
        scratch *= alpha
        np.multiply(grad_spikes[:, t], eps[:, t], out=dv_t)
        dv_t += scratch
    _ws_release(ws, scratch, eps)

    weight = np.asarray(layer.weight if override is None else override,
                        dtype=dtype)
    if defer and weight is layer.weight:
        # Snapshot: the closure may run after an in-place optimizer step.
        weight = weight.copy()
    flat_x = layer_inputs.reshape(batch * steps, layer.n_in)
    w_grad = spike_outer(dv.reshape(batch * steps, n_out), flat_x, csr=csr)
    if input_gain != 1.0:
        w_grad *= input_gain

    if defer:
        def grad_inputs_fn() -> np.ndarray:
            grad_inputs = (dv.reshape(batch * steps, n_out) @ weight
                           ).reshape(batch, steps, layer.n_in)
            if input_gain != 1.0:
                grad_inputs *= input_gain
            return grad_inputs

        return w_grad, grad_inputs_fn, ()

    def grad_inputs_fn() -> np.ndarray:
        out = _ws_empty(ws, (batch, steps, layer.n_in), dtype)
        np.matmul(dv.reshape(batch * steps, n_out), weight,
                  out=out.reshape(batch * steps, layer.n_in))
        if input_gain != 1.0:
            out *= input_gain
        return out

    return w_grad, grad_inputs_fn, (dv,)
