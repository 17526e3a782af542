"""Unit tests for the analog circuit simulator (netlist, MNA, waveforms)."""

import numpy as np
import pytest

from repro.common.errors import CircuitError
from repro.hardware.spice import (
    BehavioralSource,
    Capacitor,
    Circuit,
    Resistor,
    VoltageSource,
    comparator,
    constant,
    count_pulses,
    falling_crossings,
    inverter,
    pulse_train,
    pwl,
    rising_crossings,
    summing_amp,
    trace_stats,
)


class TestComponents:
    def test_resistor_validation(self):
        with pytest.raises(CircuitError):
            Resistor("r1", "a", "b", 0.0)
        assert Resistor("r1", "a", "b", 2.0).conductance == 0.5

    def test_capacitor_validation(self):
        with pytest.raises(CircuitError):
            Capacitor("c1", "a", "b", -1e-12)

    def test_voltage_source_constant(self):
        source = VoltageSource("v1", "a", "0", 2.5)
        assert source.value(0.0) == 2.5
        assert source.value(1.0) == 2.5

    def test_behavioral_source_lag(self):
        source = BehavioralSource("b", "out", ("in",),
                                  lambda v: 1.0, tau=1e-9, rails=(0, 1))
        value = source.advance([0.0], dt=1e-9)
        assert 0.0 < value < 1.0
        for _ in range(20):
            value = source.advance([0.0], dt=1e-9)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_behavioral_source_rails(self):
        source = BehavioralSource("b", "out", (), lambda: 5.0,
                                  tau=1e-9, rails=(0, 1))
        for _ in range(50):
            value = source.advance([], dt=1e-9)
        assert value <= 1.0

    def test_behavioral_source_slew(self):
        source = BehavioralSource("b", "out", (), lambda: 1.0, tau=1e-12,
                                  rails=(0, 1), slew_rate=1e8)
        value = source.advance([], dt=1e-9)
        assert value <= 1e8 * 1e-9 + 1e-12

    def test_reset_restores_initial(self):
        source = BehavioralSource("b", "out", (), lambda: 1.0, tau=1e-9,
                                  initial=0.25)
        source.advance([], dt=1e-8)
        source.reset()
        assert source.state == 0.25


class TestCircuitAssembly:
    def test_duplicate_names_rejected(self):
        circuit = Circuit()
        circuit.add(Resistor("r1", "a", "0", 1.0))
        with pytest.raises(CircuitError):
            circuit.add(Resistor("r1", "b", "0", 1.0))

    def test_node_discovery(self):
        circuit = Circuit()
        circuit.add(Resistor("r1", "a", "b", 1.0))
        circuit.add(Resistor("r2", "b", "0", 1.0))
        assert circuit.nodes() == ["a", "b"]

    def test_floating_node_is_singular(self):
        circuit = Circuit()
        circuit.add(Capacitor("c1", "a", "b", 1e-12))  # nothing else
        with pytest.raises(CircuitError):
            circuit.transient(1e-9, 1e-10)


class TestTransientAccuracy:
    def test_resistive_divider(self):
        circuit = Circuit()
        circuit.add(VoltageSource("v1", "in", "0", 1.0))
        circuit.add(Resistor("r1", "in", "mid", 1e3))
        circuit.add(Resistor("r2", "mid", "0", 3e3))
        result = circuit.transient(1e-8, 1e-9)
        np.testing.assert_allclose(result.voltage("mid"), 0.75, rtol=1e-9)

    def test_rc_step_response_analytic(self):
        r_val, c_val = 4.56e3, 10.14e-12
        circuit = Circuit()
        circuit.add(VoltageSource("v1", "in", "0", 1.0))
        circuit.add(Resistor("r1", "in", "out", r_val))
        circuit.add(Capacitor("c1", "out", "0", c_val))
        result = circuit.transient(300e-9, 0.2e-9)
        tau = r_val * c_val
        analytic = 1.0 - np.exp(-result.time / tau)
        assert np.max(np.abs(result.voltage("out") - analytic)) < 0.01

    def test_rc_initial_condition(self):
        circuit = Circuit()
        circuit.add(Resistor("r1", "out", "0", 1e3))
        circuit.add(Capacitor("c1", "out", "0", 1e-9,
                              initial_voltage=2.0))
        result = circuit.transient(5e-6, 5e-9)
        analytic = 2.0 * np.exp(-result.time / 1e-6)
        assert np.max(np.abs(result.voltage("out") - analytic)) < 0.02

    def test_source_current_through_resistor(self):
        circuit = Circuit()
        circuit.add(VoltageSource("v1", "a", "0", 2.0))
        circuit.add(Resistor("r1", "a", "0", 1e3))
        result = circuit.transient(1e-8, 1e-9)
        # MNA current convention: the source sees -V/R flowing out.
        np.testing.assert_allclose(np.abs(result.current("v1")), 2e-3,
                                   rtol=1e-9)

    def test_dt_must_resolve_behavioral_tau(self):
        circuit = Circuit()
        circuit.add(VoltageSource("v1", "a", "0", 1.0))
        circuit.add(Resistor("r1", "a", "0", 1e3))
        circuit.add(BehavioralSource("b", "out", ("a",), lambda v: v,
                                     tau=1e-10))
        circuit.add(Resistor("r2", "out", "0", 1e3))
        with pytest.raises(CircuitError, match="does not resolve"):
            circuit.transient(1e-8, 1e-9)

    def test_unknown_probe_node(self):
        circuit = Circuit()
        circuit.add(VoltageSource("v1", "a", "0", 1.0))
        circuit.add(Resistor("r1", "a", "0", 1e3))
        with pytest.raises(CircuitError):
            circuit.transient(1e-9, 1e-10, record_nodes=["zz"])

    def test_comparator_switches(self):
        circuit = Circuit()
        circuit.add(VoltageSource("vp", "p", "0",
                                  pwl([(0, 0.0), (50e-9, 1.0)])))
        circuit.add(VoltageSource("vm", "m", "0", 0.5))
        circuit.add(comparator("cmp", "p", "m", "out", tau=1e-9))
        circuit.add(Resistor("rl", "out", "0", 1e5))
        result = circuit.transient(60e-9, 0.5e-9)
        out = result.voltage("out")
        assert out[10] < 0.1                      # below threshold early
        assert out[-1] > 0.9                      # high once p > m

    def test_inverter_inverts(self):
        circuit = Circuit()
        circuit.add(VoltageSource("vin", "a", "0",
                                  pwl([(0, 0.0), (20e-9, 1.0)])))
        circuit.add(inverter("inv", "a", "out"))
        circuit.add(Resistor("rl", "out", "0", 1e5))
        result = circuit.transient(30e-9, 0.3e-9)
        out = result.voltage("out")
        assert out[5] > 0.9
        assert out[-1] < 0.1

    def test_summing_amp_offsets(self):
        circuit = Circuit()
        circuit.add(VoltageSource("vin", "a", "0", 0.2))
        circuit.add(summing_amp("amp", "a", "out", offset=0.55, vdd=2.0))
        circuit.add(Resistor("rl", "out", "0", 1e5))
        result = circuit.transient(20e-9, 0.5e-9)
        assert result.voltage("out")[-1] == pytest.approx(0.75, abs=1e-3)


class TestWaveforms:
    def test_pwl_interpolation(self):
        wave = pwl([(0.0, 0.0), (1.0, 2.0)])
        assert wave(0.5) == 1.0
        assert wave(-1.0) == 0.0          # holds first value
        assert wave(2.0) == 2.0           # holds last value

    def test_pwl_validation(self):
        with pytest.raises(CircuitError):
            pwl([])
        with pytest.raises(CircuitError):
            pwl([(0.0, 1.0), (0.0, 2.0)])

    def test_pulse_train_levels(self):
        wave = pulse_train([10e-9], width=10e-9, amplitude=1.5)
        assert wave(0.0) == 0.0
        assert wave(15e-9) == 1.5
        assert wave(25e-9) == 0.0

    def test_pulse_overlap_rejected(self):
        with pytest.raises(CircuitError):
            pulse_train([0.0, 5e-9], width=10e-9)

    def test_crossings(self):
        t = np.linspace(0, 1, 101)
        signal = np.sin(2 * np.pi * t)
        ups = rising_crossings(t, signal, 0.5)
        downs = falling_crossings(t, signal, 0.5)
        assert len(ups) == 1
        assert len(downs) == 1
        assert ups[0] == pytest.approx(np.arcsin(0.5) / (2 * np.pi),
                                       abs=0.02)
        assert downs[0] == pytest.approx(0.5 - np.arcsin(0.5) / (2 * np.pi),
                                         abs=0.02)

    def test_count_pulses(self):
        t = np.linspace(0, 1, 1001)
        signal = (np.sin(2 * np.pi * 5 * t) > 0).astype(float)
        assert count_pulses(t, signal, 0.5) == 5

    def test_trace_stats(self):
        stats = trace_stats(np.array([0.0, 1.0, -1.0]))
        assert stats["min"] == -1.0
        assert stats["max"] == 1.0
        assert stats["peak_to_peak"] == 2.0
        with pytest.raises(CircuitError):
            trace_stats(np.array([]))


def test_serving_imports_leave_scipy_linalg_unloaded():
    # scipy.linalg costs ~8 MB of resident memory; only the MNA transient
    # solver uses it, so importing the serving and core packages (every
    # benchmark and server process) must not load it.
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    code = ("import sys, repro.serve, repro.core; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.linalg')))")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
