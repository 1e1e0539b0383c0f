"""Square-wave reflection modulation and its harmonic content.

The element reflection switches between the two states of a ReflectionPair
with period T0 = 1/f0.  The pulse state (gamma_off) is active during
[0, t_pw) and the rest state (gamma_on) for the rest of the period.  An
element's baseband phase psi advances its m-th coefficient to
c_m(0) * exp(j m psi) (see farfield.element_delay).  Harmonic coefficients
come in closed form and via an independent midpoint-quadrature route used to
cross-check it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .circuit import ReflectionPair


@dataclass(frozen=True)
class ModulationWaveform:
    """Two-state square-wave reflection trajectory.

    pair.gamma_on is the rest state, pair.gamma_off the pulse state active
    on [0, t_pw).  t_pw defaults to half the period.
    """

    pair: ReflectionPair
    f0: float
    t_pw: float | None = None

    def __post_init__(self):
        if not (self.f0 > 0.0 and math.isfinite(self.f0)):
            raise ValueError(f"f0 must be positive and finite, got {self.f0}")
        period = 1.0 / self.f0
        if self.t_pw is None:
            object.__setattr__(self, "t_pw", period / 2.0)
        if not (0.0 < self.t_pw < period):
            raise ValueError(f"t_pw must lie in (0, T0), got {self.t_pw}")

    @property
    def period(self) -> float:
        return 1.0 / self.f0

    @property
    def duty(self) -> float:
        return self.t_pw * self.f0


def fourier_coefficient(w: ModulationWaveform, m: int) -> complex:
    """Closed-form harmonic coefficient c_m(0) of the switched reflection.

    For m != 0:
        c_m = j/(2 pi m) * (g1 - g2) * (1 - exp(-j 2 pi m f0 t_pw))
    The m = 0 coefficient is the duty-weighted time average, which is the
    limit of the defining integral (the closed form is 0/0 there).
    """
    g1, g2 = w.pair.gamma_on, w.pair.gamma_off
    if m == 0:
        return g1 + (g2 - g1) * (w.t_pw / w.period)
    k = 2.0 * math.pi * m * w.f0
    return (1j / (2.0 * math.pi * m)) * (g1 - g2) * (1.0 - cmath.exp(-1j * k * w.t_pw))


def fourier_coefficients_numeric(w: ModulationWaveform, harmonics, steps: int = 1_000_000):
    """Midpoint-rule evaluation of (1/T0) * integral of gamma(t) exp(-j 2 pi m f0 t)
    for each order m in harmonics; returns {m: c_m}.

    Steps distribute proportionally over the pulse and the rest segment so
    that no midpoint interval straddles a switch edge.  The phasor samples
    of the fundamental are reused for every order.
    """
    import numpy as np

    if steps < 1000:
        raise ValueError(f"steps must be >= 1000, got {steps}")
    harmonics = [int(m) for m in harmonics]
    mmax = max((abs(m) for m in harmonics), default=0)
    # Plain phasor sums S[k] = sum_t exp(-j 2 pi k f0 t) per segment; the
    # segment value g factors out, and negative orders are conjugates.
    out = {m: 0j for m in harmonics}
    segments = ((0.0, w.t_pw, w.pair.gamma_off), (w.t_pw, w.period, w.pair.gamma_on))
    for a, b, g in segments:
        n = max(1, round(steps * (b - a) / w.period))
        h = (b - a) / n
        t = a + (np.arange(n) + 0.5) * h
        base = np.exp(-2j * np.pi * w.f0 * t)
        sums = {0: complex(n)}
        power = np.ones_like(base)
        for k in range(1, mmax + 1):
            power = power * base
            sums[k] = complex(power.sum())
        for m in harmonics:
            s = sums[abs(m)]
            if m < 0:
                s = s.conjugate()
            out[m] += g * h * s
    return {m: v / w.period for m, v in out.items()}
