"""Unit tests for repro.core.surrogate (paper eq. 14)."""

import numpy as np
import pytest

from repro.core import surrogate as surrogate_module
from repro.core.surrogate import (
    PAPER_SIGMA,
    ErfcSurrogate,
    RectangularSurrogate,
    SigmoidSurrogate,
    SurrogateGradient,
    TriangleSurrogate,
    get_surrogate,
)

ALL_SURROGATES = [ErfcSurrogate(), SigmoidSurrogate(), TriangleSurrogate(),
                  RectangularSurrogate()]


class TestErfcSurrogate:
    def test_paper_sigma_peaks_at_one(self):
        # With sigma = 1/sqrt(2*pi) the pseudo-derivative at 0 equals 1.
        surrogate = ErfcSurrogate(sigma=PAPER_SIGMA)
        assert surrogate.derivative(np.array(0.0)) == pytest.approx(1.0)

    def test_derivative_is_gaussian(self):
        surrogate = ErfcSurrogate(sigma=0.5)
        x = np.linspace(-3, 3, 41)
        expected = np.exp(-x**2 / (2 * 0.25)) / (np.sqrt(2 * np.pi) * 0.5)
        np.testing.assert_allclose(surrogate.derivative(x), expected)

    def test_smooth_step_limits(self):
        surrogate = ErfcSurrogate()
        assert surrogate.smooth_step(np.array(-50.0)) == pytest.approx(0.0)
        assert surrogate.smooth_step(np.array(50.0)) == pytest.approx(1.0)
        assert surrogate.smooth_step(np.array(0.0)) == pytest.approx(0.5)

    def test_smooth_step_derivative_consistency(self):
        """d/dx smooth_step == derivative (central finite differences)."""
        surrogate = ErfcSurrogate()
        x = np.linspace(-2, 2, 21)
        h = 1e-6
        fd = (surrogate.smooth_step(x + h) - surrogate.smooth_step(x - h)) / (2 * h)
        np.testing.assert_allclose(surrogate.derivative(x), fd, rtol=1e-6,
                                   atol=1e-8)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            ErfcSurrogate(sigma=0.0)


@pytest.mark.parametrize("surrogate", ALL_SURROGATES,
                         ids=lambda s: s.name)
class TestAllSurrogates:
    def test_derivative_nonnegative(self, surrogate):
        x = np.linspace(-5, 5, 101)
        assert np.all(surrogate.derivative(x) >= 0.0)

    def test_derivative_symmetric(self, surrogate):
        x = np.linspace(0.01, 4, 50)
        np.testing.assert_allclose(surrogate.derivative(x),
                                   surrogate.derivative(-x))

    def test_derivative_peaks_at_zero(self, surrogate):
        x = np.linspace(-3, 3, 301)
        values = surrogate.derivative(x)
        assert values[150] == pytest.approx(values.max())

    def test_smooth_step_monotone(self, surrogate):
        x = np.linspace(-3, 3, 200)
        steps = np.diff(surrogate.smooth_step(x))
        assert np.all(steps >= -1e-12)

    def test_smooth_step_bounded(self, surrogate):
        x = np.linspace(-10, 10, 200)
        values = surrogate.smooth_step(x)
        assert values.min() >= -1e-9
        assert values.max() <= 1.0 + 1e-9

    def test_integral_matches_analytic_mass(self, surrogate):
        """The pseudo-derivative's total mass matches its analytic value
        (1 for the delta-normalised kernels; 2/beta for SuperSpike's fast
        sigmoid, which is deliberately unnormalised)."""
        x = np.linspace(-30, 30, 120001)
        integral = np.trapezoid(surrogate.derivative(x), x)
        expected = 2.0 / surrogate.beta if surrogate.name == "sigmoid" else 1.0
        assert integral == pytest.approx(expected, rel=0.02)

    def test_callable_interface(self, surrogate):
        x = np.array([0.0, 1.0])
        np.testing.assert_allclose(surrogate(x), surrogate.derivative(x))


class TestRegistry:
    def test_lookup_all_names(self):
        for name in ("erfc", "sigmoid", "triangle", "rectangular"):
            assert isinstance(get_surrogate(name), SurrogateGradient)

    def test_kwargs_forwarded(self):
        surrogate = get_surrogate("erfc", sigma=0.3)
        assert surrogate.sigma == 0.3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown surrogate"):
            get_surrogate("relu")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SigmoidSurrogate(beta=-1.0)
        with pytest.raises(ValueError):
            TriangleSurrogate(width=0.0)
        with pytest.raises(ValueError):
            RectangularSurrogate(half_width=-0.5)


def _surrogate_classes():
    """Every concrete surrogate defined in :mod:`repro.core.surrogate`."""
    return [cls for cls in vars(surrogate_module).values()
            if isinstance(cls, type) and issubclass(cls, SurrogateGradient)
            and cls is not SurrogateGradient]


def _edge_straddling_inputs(surrogate, dtype):
    """0, +-1e3, random values and the neighbours of the surrogate's
    support edge / width parameter on both sides of zero."""
    (scale,) = vars(surrogate).values()
    edge = dtype(scale)
    tiny = dtype(np.finfo(dtype).tiny)
    values = [0.0, -0.0, 1e3, -1e3, tiny, -tiny]
    for sign in (1, -1):
        e = dtype(sign) * edge
        outward = dtype(sign) * dtype(np.inf)
        values += [e, np.nextafter(e, dtype(0)), np.nextafter(e, outward),
                   2 * e, e / 2]
    rng = np.random.default_rng(0)
    values += list(rng.normal(0.0, 2.0 * scale, 500))
    return np.array(values, dtype=dtype).reshape(4, -1)


#: Each pseudo-derivative written as one allocating numpy expression — the
#: arithmetic (ops and their order) the in-place implementations must keep.
REFERENCE_FORMS = {
    "erfc": lambda s, x: np.exp(-(x * x) / (2.0 * s.sigma ** 2)) / (
        np.sqrt(2.0 * np.pi) * s.sigma),
    "sigmoid": lambda s, x: 1.0 / (1.0 + s.beta * np.abs(x)) ** 2,
    "triangle": lambda s, x: np.maximum(
        0.0, 1.0 - np.abs(x) / s.width) / s.width,
    "rectangular": lambda s, x: (np.abs(x) <= s.half_width) / (
        2.0 * s.half_width),
}


def test_every_surrogate_class_has_a_reference_form():
    assert {cls.name for cls in _surrogate_classes()} == set(REFERENCE_FORMS)


@pytest.mark.parametrize("cls", _surrogate_classes(), ids=lambda c: c.name)
@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
def test_derivative_out_is_bitwise_the_allocating_form(cls, dtype):
    """``derivative(x)`` and ``derivative(x, out=buf)`` (which fills and
    returns ``buf``) both hold exactly the bits of the float64 reference
    expression, for float32 and float64 ``x``."""
    surrogate = cls()
    x = _edge_straddling_inputs(surrogate, dtype)
    want = REFERENCE_FORMS[cls.name](surrogate, x.astype(np.float64))
    assert want.dtype == np.float64
    np.testing.assert_array_equal(surrogate.derivative(x).view(np.int64),
                                  want.view(np.int64))
    buf = np.full(x.shape, np.nan)
    got = surrogate.derivative(x, out=buf)
    assert got is buf
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    if dtype is np.float64:
        # ``out`` may alias the input, the way the fused backward uses it.
        alias = x.copy()
        assert surrogate.derivative(alias, out=alias) is alias
        np.testing.assert_array_equal(alias.view(np.int64),
                                      want.view(np.int64))
    # The input itself is never written through ``out``.
    np.testing.assert_array_equal(x, _edge_straddling_inputs(surrogate, dtype))


def test_derivative_out_must_be_float64():
    with pytest.raises(TypeError, match="float64"):
        ErfcSurrogate().derivative(np.zeros(3), out=np.zeros(3, np.float32))
