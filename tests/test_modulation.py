import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risbeam.circuit import ReflectionPair
from risbeam.farfield import element_delay
from risbeam.modulation import (
    ModulationWaveform,
    fourier_coefficient,
    fourier_coefficients_numeric,
)
from waveform_oracle import DelayedWaveform

F0 = 313.0
T0 = 1.0 / F0
IDEAL = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=F0)


def random_waveform(rng):
    """A random passive pair and duty, delayed by a random tau."""
    def passive(mag_hi=1.0):
        return rng.uniform(0.05, mag_hi) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    duty = rng.uniform(0.05, 0.95)
    pair = ReflectionPair(complex(passive()), complex(passive()))
    return DelayedWaveform(ModulationWaveform(pair, f0=F0, t_pw=duty * T0), rng.uniform(0, T0))


def test_ideal_fundamental_is_two_over_pi():
    c = fourier_coefficient(IDEAL, 1)
    assert c == pytest.approx(2j / math.pi, abs=1e-12)


def test_even_harmonics_vanish_at_half_duty():
    for m in (2, 4, -2, 8):
        assert abs(fourier_coefficient(IDEAL, m)) < 1e-12


def test_quarter_period_delay_rotates_fundamental():
    delayed = DelayedWaveform(IDEAL, T0 / 4.0)
    c = delayed.coefficient(1)
    expected = (2j / math.pi) * np.exp(-1j * math.pi / 2.0)
    assert c == pytest.approx(expected, abs=1e-12)
    assert c == pytest.approx(2.0 / math.pi + 0j, abs=1e-12)
    # independent quadrature route agrees
    assert delayed.coefficients_numeric([1], 1_000_000)[1] == pytest.approx(expected, abs=1e-6)
    # a quarter-period delay is the advance psi = 270
    assert element_delay(270.0, F0) == pytest.approx(T0 / 4.0, rel=1e-15)
    assert fourier_coefficient(IDEAL, 1) * cmath.exp(1j * math.radians(270.0)) == pytest.approx(
        expected, abs=1e-12
    )


def test_numeric_matches_ideal_fundamental():
    c = fourier_coefficients_numeric(IDEAL, [1], 1_000_000)[1]
    assert c == pytest.approx(2j / math.pi, abs=1e-6)


def test_dc_is_duty_weighted_average():
    w = ModulationWaveform(ReflectionPair(0.8, -0.3 + 0.4j), f0=F0, t_pw=0.3 * T0)
    expected = 0.8 * 0.7 + (-0.3 + 0.4j) * 0.3
    assert fourier_coefficient(w, 0) == pytest.approx(expected, abs=1e-12)
    assert fourier_coefficients_numeric(w, [0], 1_000_000)[0] == pytest.approx(
        expected, abs=1e-6
    )


def test_constant_waveform_has_no_harmonics():
    w = ModulationWaveform(ReflectionPair(0.5 + 0.1j, 0.5 + 0.1j), f0=F0)
    for m in (1, 2, -3):
        assert abs(fourier_coefficients_numeric(w, [m], 100_000)[m]) < 1e-9
        assert abs(fourier_coefficient(w, m)) < 1e-12


def test_closed_form_matches_quadrature_randomized():
    rng = np.random.default_rng(42)
    ms = [m for m in range(-9, 10) if m != 0]
    for _ in range(10):
        w = random_waveform(rng)
        psi = math.radians(-360.0 * F0 * w.tau)  # the phase whose element_delay is w.tau
        numeric = fourier_coefficients_numeric(w.waveform, ms, 1_000_000)
        delayed = w.coefficients_numeric(ms, 1_000_000)
        for m in ms:
            c0 = fourier_coefficient(w.waveform, m)
            assert abs(c0 - numeric[m]) < 1e-6
            # the advance against the quadrature of the delayed waveform
            assert abs(c0 * cmath.exp(1j * m * psi) - delayed[m]) < 1e-6


@settings(max_examples=20, deadline=None)
@given(
    on=st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 2 * math.pi)),
    off=st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 2 * math.pi)),
    duty=st.floats(0.05, 0.95),
    delay=st.floats(0.0, 0.999),
)
@example(on=(1.0, 0.0), off=(1.0, math.pi), duty=0.5, delay=0.8)  # the pulse wraps
@example(on=(0.3, 1.0), off=(0.9, 4.0), duty=0.95, delay=0.0)
def test_delayed_closed_form_matches_quadrature_of_gamma_at(on, off, duty, delay):
    # the test-side oracle itself: its closed form against its own gamma_at
    pair = ReflectionPair(cmath.rect(*on), cmath.rect(*off))
    w = DelayedWaveform(ModulationWaveform(pair, f0=F0, t_pw=duty * T0), delay * T0)
    ms = list(range(-5, 6))
    numeric = w.coefficients_numeric(ms, 1_000_000)
    for m in ms:
        assert abs(w.coefficient(m) - numeric[m]) < 1e-6


def test_magnitude_independent_of_delay():
    rng = np.random.default_rng(5)
    w0 = random_waveform(rng).waveform
    base = {m: abs(fourier_coefficient(w0, m)) for m in range(1, 6)}
    for tau in np.linspace(0, T0, 17, endpoint=False):
        w = DelayedWaveform(w0, float(tau))
        for m, ref in base.items():
            assert abs(abs(w.coefficient(m)) - ref) < 1e-12


def test_delay_rotates_coefficient_phase_linearly():
    rng = np.random.default_rng(9)
    w0 = random_waveform(rng).waveform
    for tau in (0.1 * T0, 0.37 * T0, 0.9 * T0):
        w = DelayedWaveform(w0, tau)
        for m in (1, 2, 3, -1, -4):
            shift = math.degrees(
                np.angle(w.coefficient(m))
                - np.angle(fourier_coefficient(w0, m))
            )
            expected = (-360.0 * m * F0 * tau) % 360.0
            assert (shift - expected) % 360.0 == pytest.approx(
                0.0, abs=1e-9
            ) or (shift - expected) % 360.0 == pytest.approx(360.0, abs=1e-9)


def test_parseval_deficit_small_at_999_harmonics():
    total = sum(
        abs(fourier_coefficient(IDEAL, m)) ** 2 for m in range(-999, 1000)
    )
    # time-average of |gamma(t)|^2 is exactly 1 for the ideal antipodal waveform
    assert total < 1.0
    assert 1.0 - total < 1e-3


def test_gamma_at_state_layout():
    w = DelayedWaveform(ModulationWaveform(ReflectionPair(1.0, -1.0), f0=F0), 0.25 * T0)
    assert w.gamma_at(0.1 * T0) == 1.0
    assert w.gamma_at(0.3 * T0) == -1.0
    assert w.gamma_at(0.8 * T0) == 1.0
    # pulse wrapping across the period boundary
    w2 = DelayedWaveform(ModulationWaveform(ReflectionPair(1.0, -1.0), f0=F0), 0.8 * T0)
    assert w2.gamma_at(0.9 * T0) == -1.0
    assert w2.gamma_at(0.1 * T0) == -1.0
    assert w2.gamma_at(0.5 * T0) == 1.0


def test_phase_delay_conversions():
    # a phase advance psi is a delay of (360 - psi) / 360 periods
    assert element_delay(90.0, F0) == 0.75 / 313.0
    assert element_delay(0.0, F0) == 0.0
    # (-1e-20) % 360.0 rounds to 360.0; the delay must still lie in [0, T0)
    assert element_delay(1e-20, F0) == 0.0
    for psi in np.linspace(0, 359.9, 25):
        tau = element_delay(float(psi), F0)
        assert 0.0 <= tau < T0
        DelayedWaveform(IDEAL, tau)
    with pytest.raises(ValueError, match="f0 must be positive"):
        element_delay(90.0, 0.0)


def test_waveform_validation():
    with pytest.raises(ValueError):
        ModulationWaveform(ReflectionPair(1, -1), f0=0.0)
    with pytest.raises(TypeError, match="tau"):  # the waveform carries no delay
        ModulationWaveform(ReflectionPair(1, -1), f0=F0, tau=0.0)
    with pytest.raises(ValueError, match="tau must lie in"):
        DelayedWaveform(IDEAL, T0)
    with pytest.raises(ValueError):
        ModulationWaveform(ReflectionPair(1, -1), f0=F0, t_pw=T0)
    with pytest.raises(ValueError):
        fourier_coefficients_numeric(IDEAL, [1], 10)
