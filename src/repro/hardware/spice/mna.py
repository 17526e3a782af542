"""Modified nodal analysis (MNA) and backward-Euler transient simulation.

The circuit is assembled into the standard bordered MNA system

.. math::

    \\begin{bmatrix} G & B \\\\ B^T & 0 \\end{bmatrix}
    \\begin{bmatrix} v \\\\ i \\end{bmatrix}
    =
    \\begin{bmatrix} z_I \\\\ z_V \\end{bmatrix}

where ``G`` stamps resistor conductances and capacitor companion
conductances (backward Euler: ``C/dt`` in parallel with a history current
source ``C/dt * v_prev``), ``B`` stamps voltage-source incidence, and the
right-hand side carries source values and capacitor history.

Because every active element is a :class:`~repro.hardware.spice.netlist.BehavioralSource`
(an ideal voltage source whose *value* is updated explicitly between
steps), the system matrix is constant over the whole transient: it is
LU-factorised once and only the right-hand side changes per step — a few
microseconds per step even for hundreds of nodes.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from ...common.errors import CircuitError
from .netlist import (
    GROUND,
    BehavioralSource,
    Capacitor,
    Component,
    Resistor,
    VoltageSource,
)

__all__ = ["Circuit", "TransientResult"]


class TransientResult:
    """Waveforms from a transient run.

    Attributes
    ----------
    time:
        (n_steps,) time points (seconds).
    voltages:
        node name -> (n_steps,) voltage trace.
    source_currents:
        voltage-source name -> (n_steps,) current through the source
        (positive current flows out of the + terminal through the circuit).
    """

    def __init__(self, time: np.ndarray, voltages: dict[str, np.ndarray],
                 source_currents: dict[str, np.ndarray]):
        self.time = time
        self.voltages = voltages
        self.source_currents = source_currents

    def voltage(self, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros_like(self.time)
        try:
            return self.voltages[node]
        except KeyError:
            raise CircuitError(f"no recorded voltage for node {node!r}") from None

    def current(self, source_name: str) -> np.ndarray:
        try:
            return self.source_currents[source_name]
        except KeyError:
            raise CircuitError(
                f"no recorded current for source {source_name!r}"
            ) from None

    @property
    def dt(self) -> float:
        if len(self.time) < 2:
            return 0.0
        return float(self.time[1] - self.time[0])


class Circuit:
    """A netlist plus MNA assembly and transient solving."""

    def __init__(self, title: str = "circuit"):
        self.title = title
        self.components: list[Component] = []
        self._names: set[str] = set()

    # -- construction -----------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Add a component (names must be unique); returns it for chaining."""
        if component.name in self._names:
            raise CircuitError(f"duplicate component name {component.name!r}")
        self._names.add(component.name)
        self.components.append(component)
        return component

    def nodes(self) -> list[str]:
        """All non-ground node names, in first-appearance order."""
        seen: list[str] = []
        for component in self.components:
            for node in component.nodes:
                if node != GROUND and node not in seen:
                    seen.append(node)
        return seen

    # -- assembly ----------------------------------------------------------------
    def _partition(self):
        resistors = [c for c in self.components if isinstance(c, Resistor)]
        capacitors = [c for c in self.components if isinstance(c, Capacitor)]
        v_sources = [c for c in self.components if isinstance(c, VoltageSource)]
        b_sources = [c for c in self.components
                     if isinstance(c, BehavioralSource)]
        known = set(resistors) | set(capacitors) | set(v_sources) | set(b_sources)
        unknown = [c for c in self.components if c not in known]
        if unknown:
            raise CircuitError(
                f"unsupported components: {[c.name for c in unknown]}"
            )
        return resistors, capacitors, v_sources, b_sources

    def transient(self, t_stop: float, dt: float,
                  record_nodes: Sequence[str] | None = None) -> TransientResult:
        """Run a fixed-step backward-Euler transient from t=0 to ``t_stop``.

        Parameters
        ----------
        t_stop, dt:
            Simulation span and step (seconds).  ``dt`` must resolve the
            fastest behavioral-source lag (checked: ``dt <= tau``).
        record_nodes:
            Node subset to record (default: all).

        Returns
        -------
        TransientResult
        """
        # Imported here, by its only user: ``scipy.linalg`` costs ~8 MB of
        # resident memory, which serving processes should not pay.
        from scipy.linalg import lu_factor, lu_solve

        if dt <= 0 or t_stop <= 0:
            raise CircuitError("t_stop and dt must be positive")
        resistors, capacitors, v_sources, b_sources = self._partition()
        for source in b_sources:
            if dt > source.tau:
                raise CircuitError(
                    f"dt={dt:g}s does not resolve {source.name!r} "
                    f"(tau={source.tau:g}s); reduce dt"
                )

        node_names = self.nodes()
        index = {name: i for i, name in enumerate(node_names)}
        n_nodes = len(node_names)
        all_sources = list(v_sources) + list(b_sources)
        n_src = len(all_sources)
        dim = n_nodes + n_src

        def node_id(name: str) -> int | None:
            return None if name == GROUND else index[name]

        # Constant system matrix: conductances + companion + source borders.
        matrix = np.zeros((dim, dim))
        for r in resistors:
            a, b = node_id(r.nodes[0]), node_id(r.nodes[1])
            g = r.conductance
            if a is not None:
                matrix[a, a] += g
            if b is not None:
                matrix[b, b] += g
            if a is not None and b is not None:
                matrix[a, b] -= g
                matrix[b, a] -= g
        companion = []
        for c in capacitors:
            a, b = node_id(c.nodes[0]), node_id(c.nodes[1])
            g = c.capacitance / dt
            companion.append((c, a, b, g))
            if a is not None:
                matrix[a, a] += g
            if b is not None:
                matrix[b, b] += g
            if a is not None and b is not None:
                matrix[a, b] -= g
                matrix[b, a] -= g
        for k, source in enumerate(all_sources):
            row = n_nodes + k
            if isinstance(source, VoltageSource):
                plus, minus = node_id(source.nodes[0]), node_id(source.nodes[1])
            else:
                plus, minus = node_id(source.output), None
            if plus is not None:
                matrix[plus, row] += 1.0
                matrix[row, plus] += 1.0
            if minus is not None:
                matrix[minus, row] -= 1.0
                matrix[row, minus] -= 1.0

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lu = lu_factor(matrix)
        except Exception as exc:  # singular matrix -> floating nodes
            raise CircuitError(
                f"MNA matrix is singular — check for floating nodes "
                f"({exc})"
            ) from exc
        diag = np.abs(np.diag(lu[0]))
        if diag.size and diag.min() < 1e-300:
            raise CircuitError(
                "MNA matrix is singular — check for floating nodes "
                "(zero pivot in LU factorisation)"
            )

        steps = int(round(t_stop / dt))
        time = np.arange(steps) * dt
        recorded = list(record_nodes) if record_nodes else node_names
        for node in recorded:
            if node != GROUND and node not in index:
                raise CircuitError(f"unknown node {node!r}")
        volt_traces = {node: np.zeros(steps) for node in recorded
                       if node != GROUND}
        current_traces = {s.name: np.zeros(steps) for s in all_sources}

        # Initial conditions: capacitor pre-charges and behavioral-source
        # starting levels (so a source's *inputs* see consistent voltages
        # at the first step instead of spurious zeros).
        v_prev = np.zeros(n_nodes)
        for c, a, b, g in companion:
            if c.initial_voltage != 0.0:
                if a is not None:
                    v_prev[a] = c.initial_voltage
                if b is not None:
                    v_prev[b] = -c.initial_voltage
        for source in b_sources:
            source.reset()
            output_node = node_id(source.output)
            if output_node is not None:
                v_prev[output_node] = source.initial

        rhs = np.zeros(dim)
        for step in range(steps):
            t = time[step]
            rhs[:] = 0.0
            for c, a, b, g in companion:
                va = v_prev[a] if a is not None else 0.0
                vb = v_prev[b] if b is not None else 0.0
                hist = g * (va - vb)
                if a is not None:
                    rhs[a] += hist
                if b is not None:
                    rhs[b] -= hist
            for k, source in enumerate(all_sources):
                row = n_nodes + k
                if isinstance(source, VoltageSource):
                    rhs[row] = source.value(t)
                else:
                    inputs = [
                        v_prev[index[n]] if n != GROUND else 0.0
                        for n in source.inputs
                    ]
                    rhs[row] = source.advance(inputs, dt)

            solution = lu_solve(lu, rhs)
            v_prev = solution[:n_nodes]
            for node in volt_traces:
                volt_traces[node][step] = v_prev[index[node]]
            for k, source in enumerate(all_sources):
                current_traces[source.name][step] = solution[n_nodes + k]

        return TransientResult(time, volt_traces, current_traces)

    def __repr__(self) -> str:
        return f"Circuit({self.title!r}, {len(self.components)} components)"
