"""Harmonic spectrum of a two-state modulation waveform.

Builds a 313 Hz square-wave reflection waveform from the reference
impedances, prints the closed-form Fourier coefficients next to a
midpoint-quadrature check, and shows how duty cycle moves energy between
the even and odd harmonics.
"""

import numpy as np

from risbeam import (
    ModulationWaveform,
    ReflectionPair,
    fourier_coefficient,
    fourier_coefficients_numeric,
)

Z_ANTENNA = 46.85 - 0.8j
Z_LOAD_ON = 2.99 + 4.02j
Z_LOAD_OFF = 96.27 - 508.72j
F0 = 313.0


def spectrum_table(waveform, harmonics):
    print(f"  m   |c_m| (closed)   |c_m| (quadrature)   phase deg")
    numeric_all = fourier_coefficients_numeric(waveform, harmonics, steps=200_000)
    for m in harmonics:
        closed = fourier_coefficient(waveform, m)
        numeric = numeric_all[m]
        print(
            f"{m:+3d}   {abs(closed):14.10f}   {abs(numeric):18.10f}   {np.degrees(np.angle(closed)):+9.3f}"
        )


def main():
    pair = ReflectionPair.from_impedances(Z_ANTENNA, Z_LOAD_ON, Z_LOAD_OFF)

    print("50% duty cycle (even harmonics vanish):")
    half = ModulationWaveform(pair, f0=F0)
    spectrum_table(half, [0, 1, 2, 3, 4, 5])

    print()
    print("30% duty cycle (even harmonics reappear):")
    skewed = ModulationWaveform(pair, f0=F0, t_pw=0.3 / F0)
    spectrum_table(skewed, [0, 1, 2, 3, 4, 5])

    print()
    print("delay moves coefficient phase but not magnitude:")
    for frac in (0.0, 0.25, 0.5):
        delayed = ModulationWaveform(pair, f0=F0, tau=frac / F0)
        c1 = fourier_coefficient(delayed, 1)
        print(
            f"  tau = {frac:4.2f} T0: |c_1| = {abs(c1):.10f}, "
            f"phase = {np.degrees(np.angle(c1)):+8.3f} deg"
        )


if __name__ == "__main__":
    main()
