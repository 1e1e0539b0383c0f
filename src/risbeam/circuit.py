"""Load-modulation circuit analysis: reflection coefficients and contrast metrics.

A backscatter element switches its antenna termination between two load
impedances, producing two reflection coefficients.  The useful modulation
contrast lives in the phase separation and magnitude difference of that pair.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

# Float rounding noise, relative: a value within this share of the scale that
# bounds it is zero, or the same value summed in another order.
ROUNDING_REL = 1e-12
# How far past the passive bound |gamma| <= 1 a state may read: a lossless state
# written to 10 significant digits reads up to a few 1e-11 above 1.
PASSIVITY_EPS = 1e-9

TABLE_COLUMNS = ("freq_hz", "za_re", "za_im", "zl1_re", "zl1_im", "zl2_re", "zl2_im")


class SingularInputError(ValueError):
    """Load and antenna impedances sum to (numerically) zero."""


class TableFormatError(ValueError):
    """Malformed impedance-table input."""


class FrequencyRangeError(ValueError):
    """Lookup frequency outside the tabulated range."""


def _check_finite(z, name):
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite real/imag parts, got {z!r}")
    return z


def reflection_coefficient(z_load: complex, z_antenna: complex) -> complex:
    """Reflection coefficient (Z_L - Z_a*) / (Z_L + Z_a) of a loaded antenna.

    Both impedances in ohms; the antenna must be passive (Re(Z_a) > 0).  The
    sum Z_L + Z_a is degenerate when it is at most ROUNDING_REL of |Z_L| + |Z_a|.
    """
    z_load = _check_finite(z_load, "z_load")
    z_antenna = _check_finite(z_antenna, "z_antenna")
    if z_antenna.real <= 0.0:
        raise ValueError(
            f"antenna must be passive: Re(z_antenna) > 0, got {z_antenna.real}"
        )
    den = z_load + z_antenna
    if abs(den) <= ROUNDING_REL * (abs(z_load) + abs(z_antenna)):
        raise SingularInputError(
            f"|z_load + z_antenna| = {abs(den):.3e} ohm is degenerate"
            " (rounding noise of |z_load| + |z_antenna|)"
        )
    return (z_load - z_antenna.conjugate()) / den


@dataclass(frozen=True)
class ReflectionPair:
    """The two reflection states of a binary-modulated element."""

    gamma_on: complex
    gamma_off: complex

    def __post_init__(self):
        for name in ("gamma_on", "gamma_off"):
            g = _check_finite(getattr(self, name), name)
            object.__setattr__(self, name, g)
            if abs(g) > 1.0 + PASSIVITY_EPS:
                raise ValueError(
                    f"|{name}| = {abs(g):.12f} exceeds the passive bound of 1"
                )

    @classmethod
    def from_impedances(cls, z_antenna, z_load_on, z_load_off):
        return cls(
            reflection_coefficient(z_load_on, z_antenna),
            reflection_coefficient(z_load_off, z_antenna),
        )


def _pair_scale(pair: ReflectionPair) -> float:
    """max(|gamma_on|, |gamma_off|), the scale the rounding rules on a pair are
    relative to: it bounds |gamma(t)|, and so |c_m| for every order."""
    return max(abs(pair.gamma_on), abs(pair.gamma_off))


@dataclass(frozen=True)
class ModulationMetrics:
    """Contrast figures of a two-state reflection pair.

    phase_difference_signed_deg is angle(on) - angle(off) using principal
    angles in (-180, 180], so its value lies in (-360, 360).
    phase_separation_deg folds that difference into [0, 180].
    """

    phase_difference_signed_deg: float
    phase_separation_deg: float
    loss_on_db: float
    loss_off_db: float
    differential_magnitude: float


def wrap_half_turn(angle_deg: float) -> float:
    """Wrap an angle into (-180, 180]."""
    w = angle_deg % 360.0
    return w - 360.0 if w > 180.0 else w


def modulation_metrics(pair: ReflectionPair) -> ModulationMetrics:
    mag_on, mag_off = abs(pair.gamma_on), abs(pair.gamma_off)
    if mag_on == 0.0 or mag_off == 0.0:
        raise ValueError("reflection loss undefined for a zero-magnitude coefficient")
    signed = math.degrees(cmath.phase(pair.gamma_on) - cmath.phase(pair.gamma_off))
    return ModulationMetrics(
        phase_difference_signed_deg=signed,
        phase_separation_deg=abs(wrap_half_turn(signed)),
        loss_on_db=-20.0 * math.log10(mag_on),
        loss_off_db=-20.0 * math.log10(mag_off),
        differential_magnitude=abs(pair.gamma_on - pair.gamma_off),
    )


@dataclass(frozen=True)
class ImpedancePoint:
    """Antenna and two-state load impedances at a single frequency."""

    frequency: float
    z_antenna: complex
    z_load_on: complex
    z_load_off: complex

    def __post_init__(self):
        if not (self.frequency > 0.0):
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        for name in ("z_antenna", "z_load_on", "z_load_off"):
            object.__setattr__(self, name, _check_finite(getattr(self, name), name))
        if self.z_antenna.real <= 0.0:
            raise ValueError("antenna must be passive: Re(z_antenna) > 0")

    def reflection_pair(self) -> ReflectionPair:
        return ReflectionPair.from_impedances(
            self.z_antenna, self.z_load_on, self.z_load_off
        )


class ImpedanceTable:
    """Frequency-sorted impedance points with linear interpolation.

    Real and imaginary parts interpolate independently between neighbouring
    rows; lookups outside the tabulated span raise FrequencyRangeError.
    """

    def __init__(self, points):
        points = tuple(points)
        if not points:
            raise TableFormatError("impedance table has no rows")
        freqs = [p.frequency for p in points]
        for lo, hi in zip(freqs, freqs[1:]):
            if not hi > lo:
                raise TableFormatError(
                    f"frequencies must be strictly increasing ({lo} then {hi})"
                )
        self.points = points
        self._freqs = freqs

    def __len__(self):
        return len(self.points)

    def lookup(self, frequency: float) -> ImpedancePoint:
        freqs = self._freqs
        if frequency < freqs[0] or frequency > freqs[-1]:
            raise FrequencyRangeError(
                f"{frequency} Hz outside tabulated span [{freqs[0]}, {freqs[-1]}]"
            )
        i = bisect_left(freqs, frequency)
        if i < len(freqs) and freqs[i] == frequency:
            return self.points[i]
        lo, hi = self.points[i - 1], self.points[i]
        w = (frequency - lo.frequency) / (hi.frequency - lo.frequency)

        def lerp(a, b):
            return complex(
                a.real + w * (b.real - a.real), a.imag + w * (b.imag - a.imag)
            )

        return ImpedancePoint(
            frequency=frequency,
            z_antenna=lerp(lo.z_antenna, hi.z_antenna),
            z_load_on=lerp(lo.z_load_on, hi.z_load_on),
            z_load_off=lerp(lo.z_load_off, hi.z_load_off),
        )


def parse_impedance_table(text: str) -> ImpedanceTable:
    """Parse delimited text with header freq_hz,za_re,za_im,zl1_re,zl1_im,zl2_re,zl2_im.

    Blank lines are skipped; an error names the line of the text it is on."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise TableFormatError("empty impedance table input")
    header = tuple(cell.strip().lower() for cell in rows[0][1])
    if header != TABLE_COLUMNS:
        raise TableFormatError(
            f"expected header {','.join(TABLE_COLUMNS)}, got {','.join(header)}"
        )
    if len(rows) == 1:
        raise TableFormatError("impedance table has a header but no data rows")
    points = []
    for lineno, row in rows[1:]:
        if len(row) != len(TABLE_COLUMNS):
            raise TableFormatError(f"line {lineno}: expected {len(TABLE_COLUMNS)} columns")
        try:
            vals = [float(cell) for cell in row]
            points.append(
                ImpedancePoint(
                    frequency=vals[0],
                    z_antenna=complex(vals[1], vals[2]),
                    z_load_on=complex(vals[3], vals[4]),
                    z_load_off=complex(vals[5], vals[6]),
                )
            )
        except ValueError as exc:
            raise TableFormatError(f"line {lineno}: {exc}") from exc
    return ImpedanceTable(points)


def load_impedance_table(source) -> ImpedanceTable:
    """Read an impedance table from a path or an open text file."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    return parse_impedance_table(text)
