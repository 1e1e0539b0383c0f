"""Test oracle: the switched reflection delayed in time, and a sampled controller.

The library gives element p the coefficient c_m(0) * exp(j m psi_p), the
advance that the delay element_delay(psi_p) realizes.  This module models that
delay the long way, so that tests can check the advance against an
independent delayed computation:

- DelayedWaveform is a ModulationWaveform delayed by tau, with its state at
  any time (gamma_at), its coefficients in closed form (coefficient) and by
  midpoint quadrature of gamma_at (coefficients_numeric).  None of these
  calls risbeam.modulation.fourier_coefficient.
- reference_field sums an array's far field element by element from those
  delayed coefficients; element_by_element_sum adds given coefficients in the
  same order, a stand-in for the library's column sums and Horner's rule.
- sample_levels and sample_gamma sample a SwitchSchedule's channels in time.

pytest does not collect this module (its name does not start with test_).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from risbeam.circuit import ReflectionPair
from risbeam.farfield import element_delay
from risbeam.modulation import ModulationWaveform
from risbeam.schedule import SwitchSchedule

QUADRATURE_CHUNK = 1 << 16


@dataclass(frozen=True)
class DelayedWaveform:
    """`waveform` delayed by tau in [0, T0): the pulse state (pair.gamma_off) is
    active on [tau, tau + t_pw) mod T0, wrapping across the period boundary."""

    waveform: ModulationWaveform
    tau: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.tau < self.period:
            raise ValueError(f"tau must lie in [0, T0), got {self.tau}")

    @classmethod
    def advanced(cls, waveform: ModulationWaveform, psi_deg: float) -> "DelayedWaveform":
        """The waveform delayed as element_delay realizes baseband phase psi."""
        return cls(waveform, element_delay(float(psi_deg), waveform.f0))

    @property
    def period(self) -> float:
        return self.waveform.period

    def gamma_at(self, t):
        """Reflection state at time(s) t."""
        pair, t_pw = self.waveform.pair, self.waveform.t_pw
        phase = np.asarray(t, dtype=float) % self.period
        end = self.tau + t_pw
        if end <= self.period:
            in_pulse = (phase >= self.tau) & (phase < end)
        else:
            in_pulse = (phase >= self.tau) | (phase < end - self.period)
        out = np.where(in_pulse, pair.gamma_off, pair.gamma_on)
        return complex(out) if np.ndim(t) == 0 else out

    def coefficient(self, m: int) -> complex:
        """Closed form: for m != 0,
        c_m = j/(2 pi m) * (g1 - g2) * exp(-j 2 pi m f0 tau) * (1 - exp(-j 2 pi m f0 t_pw)),
        and c_0 is the duty-weighted time average."""
        g1, g2 = self.waveform.pair.gamma_on, self.waveform.pair.gamma_off
        t_pw, f0 = self.waveform.t_pw, self.waveform.f0
        if m == 0:
            return g1 + (g2 - g1) * (t_pw * f0)
        k = 2.0 * math.pi * m * f0
        return (
            (1j / (2.0 * math.pi * m))
            * (g1 - g2)
            * cmath.exp(-1j * k * self.tau)
            * (1.0 - cmath.exp(-1j * k * t_pw))
        )

    def coefficients_numeric(self, harmonics, steps: int = 1_000_000) -> dict:
        """Midpoint rule for (1/T0) * integral of gamma_at(t) exp(-j 2 pi m f0 t),
        {m: c_m}; the steps split at the switch edges, so that no interval
        straddles one and gamma_at holds one state over each interval."""
        end = (self.tau + self.waveform.t_pw) % self.period
        edges = sorted({0.0, self.tau, end, self.period})
        kmax = max((abs(int(m)) for m in harmonics), default=0)
        sums = dict.fromkeys(range(-kmax, kmax + 1), 0j)
        for a, b in zip(edges, edges[1:]):
            n = max(1, round(steps * (b - a) / self.period))
            h = (b - a) / n
            # the interval's state times each step's weight h / T0
            weighted = self.gamma_at(a + 0.5 * h) * (h / self.period)
            sums[0] += weighted * n
            # in chunks that stay in cache; the powers of the fundamental's
            # phasor serve every order, and order -k takes their conjugates
            for i in range(0, n, QUADRATURE_CHUNK):
                t = a + (np.arange(i, min(n, i + QUADRATURE_CHUNK)) + 0.5) * h
                base = np.exp(-2j * np.pi * self.waveform.f0 * t)
                power = np.ones_like(base)
                for k in range(1, kmax + 1):
                    power *= base
                    total = complex(power.sum())
                    sums[k] += weighted * total
                    sums[-k] += weighted * total.conjugate()
        return {int(m): sums[int(m)] for m in harmonics}


def reference_field(geometry, model, profile, waveform, m, azimuth_deg):
    """F_m summed element by element, each coefficient from the waveform delayed
    by element_delay; element i sits in column i % n_cols."""
    az = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
    k = 2.0 * math.pi / geometry.lambda_c
    total = np.zeros(az.shape, dtype=complex)
    for i, psi in enumerate(profile):
        coefficient = DelayedWaveform.advanced(waveform, psi).coefficient(m)
        path = k * (i % geometry.n_cols) * geometry.dx * np.cos(np.radians(az))
        total += coefficient * model.eval(az) * np.exp(1j * path)
    return complex(total[0]) if np.ndim(azimuth_deg) == 0 else total


def element_by_element_sum(coeffs, geometry, z):
    """sum_i coeffs[i] * exp(j (i % n_cols) arg z), added element by element in
    index order as reference_field adds its elements: farfield._array_sum's
    result (column sums, then Horner's rule) summed in another float order."""
    angle = np.angle(z)
    total = 0j
    for i, coefficient in enumerate(coeffs):
        total += coefficient * np.exp(1j * (i % geometry.n_cols) * angle)
    return total


def sample_levels(s: SwitchSchedule, t):
    """Logic level (0/1) of every channel at time(s) t; channel p is high for the
    half period from its rise tick."""
    pos = (np.asarray(t, dtype=float) % s.period) * s.f0 * s.ticks_per_period
    half = s.ticks_per_period / 2.0
    out = []
    for rise, _fall in s.channels:
        level = (((pos - rise) % s.ticks_per_period) < half).astype(int)
        out.append(int(level) if np.ndim(t) == 0 else level)
    return out


def sample_gamma(s: SwitchSchedule, t, pair: ReflectionPair, channel: int = 0):
    """Reflection state one channel drives: high -> pulse state (gamma_off)."""
    level = sample_levels(s, t)[channel]
    return np.where(np.asarray(level, dtype=bool), pair.gamma_off, pair.gamma_on)
