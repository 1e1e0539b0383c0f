"""Far-field harmonic scattering patterns of a modulated element grid.

The grid is M x N elements in the x-y plane under normal plane-wave
excitation.  Patterns are taken on the azimuth cut (elevation 90 deg), the
plane through the x axis and the surface normal.  Azimuth convention: 90 deg
is front broadside (toward the transmitter), 270 deg back broadside, 0/180
deg the surface plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .modulation import ModulationWaveform, fourier_coefficient

# numpy is imported inside the functions that build arrays, so importing this
# module does not load it; annotations naming np are never evaluated.

SPEED_OF_LIGHT = 299_792_458.0

DOMINANCE_TIE_REL = 1e-6


class UndefinedDominanceError(ValueError):
    """Dominance direction of an all-zero pattern is undefined."""


def steps_per_turn(step_deg: float, name: str = "grid step") -> int:
    """Number of step_deg steps in 360 deg; the step must be positive and divide 360."""
    if not step_deg > 0.0:
        raise ValueError(f"{name} must be positive, got {step_deg}")
    n = 360.0 / step_deg
    if not (n >= 1.0 and abs(n - round(n)) <= 1e-9):
        raise ValueError(f"{name} {step_deg} deg does not divide 360")
    return round(n)


@dataclass(frozen=True)
class ArrayGeometry:
    """Element grid: n_cols along x with spacing dx, m_rows along y with dy."""

    n_cols: int
    m_rows: int = 1
    dx: float = 0.0
    dy: float = 0.0
    lambda_c: float = 0.0

    def __post_init__(self):
        if self.n_cols < 1 or self.m_rows < 1:
            raise ValueError("element counts must be >= 1")
        if not (self.dx > 0.0 and self.dy > 0.0 and self.lambda_c > 0.0):
            raise ValueError("dx, dy and lambda_c must be positive")

    @classmethod
    def half_wavelength_linear(cls, n_cols: int, f_c: float = 2.45e9) -> "ArrayGeometry":
        """Single-row array at half-wavelength spacing for carrier f_c."""
        lam = SPEED_OF_LIGHT / f_c
        return cls(n_cols=n_cols, m_rows=1, dx=lam / 2.0, dy=lam / 2.0, lambda_c=lam)

    @property
    def element_count(self) -> int:
        return self.n_cols * self.m_rows


def default_q_exponent(half_power_beamwidth_deg: float = 96.0) -> float:
    """Cosine-power exponent whose half-power offset is half the beamwidth."""
    half = math.radians(half_power_beamwidth_deg / 2.0)
    return math.log(0.5) / math.log(math.cos(half))


@dataclass(frozen=True)
class ElementPatternModel:
    """Per-element far-field amplitude versus azimuth.

    cosine_power gives |cos(offset)|^q about the nearest broadside (90 deg
    on the front half-plane, 270 deg on the back), so the surface-plane
    directions fall to zero naturally.
    """

    kind: str = "cosine_power"
    q_exponent: float = field(default_factory=default_q_exponent)

    def __post_init__(self):
        if self.kind not in ("isotropic", "cosine_power"):
            raise ValueError(f"unknown element pattern kind {self.kind!r}")
        if self.kind == "cosine_power" and not self.q_exponent > 0.0:
            raise ValueError("q_exponent must be positive")

    @classmethod
    def isotropic(cls) -> "ElementPatternModel":
        return cls(kind="isotropic")

    def eval(self, azimuth_deg):
        import numpy as np

        az = np.asarray(azimuth_deg, dtype=float) % 360.0
        if self.kind == "isotropic":
            mag = np.ones_like(az)
        else:
            offset = np.where(az <= 180.0, az - 90.0, az - 270.0)
            mag = np.clip(np.cos(np.radians(offset)), 0.0, None) ** self.q_exponent
        return float(mag) if np.ndim(azimuth_deg) == 0 else mag


def element_delay(psi_deg: float, f0: float) -> float:
    """Waveform delay in [0, T0) realizing baseband phase psi.

    Convention: the element's m-th harmonic coefficient gains phase
    +m*psi, i.e. psi acts as a phase advance of the harmonic coefficient.
    """
    if f0 <= 0.0:
        raise ValueError(f"f0 must be positive, got {f0}")
    # the second reduction maps a tiny psi to 0: (-1e-20) % 360.0 == 360.0
    return ((((-psi_deg) % 360.0) % 360.0) / 360.0) / f0


def harmonic_field(
    geometry: ArrayGeometry,
    element_model: ElementPatternModel,
    profile,
    waveform_template: ModulationWaveform,
    m: int,
    azimuth_deg,
):
    """Complex far field of the m-th harmonic at the given azimuth(s).

    profile is any sequence of per-element baseband phases in degrees (a
    PhaseProfile iterates over its phases), ordered x-fastest (row by row).
    Each element's harmonic coefficient is the waveform template re-delayed
    per element_delay.  On the azimuth cut the y direction cosine is zero,
    so the rows add in phase and only the column index sets the path phase.
    """
    import numpy as np

    phases = [float(p) for p in profile]
    if len(phases) != geometry.element_count:
        raise ValueError(
            f"profile has {len(phases)} phases for {geometry.element_count} elements"
        )
    az = np.asarray(azimuth_deg, dtype=float)
    coeffs = np.array(
        [
            fourier_coefficient(
                replace(waveform_template, tau=element_delay(psi, waveform_template.f0)),
                m,
            )
            for psi in phases
        ]
    )
    k = 2.0 * math.pi / geometry.lambda_c
    p_idx = np.tile(np.arange(geometry.n_cols, dtype=float), geometry.m_rows)
    phi = np.radians(np.atleast_1d(az))
    spatial = np.exp(1j * k * (p_idx[:, None] * geometry.dx * np.cos(phi)[None, :]))
    total = element_model.eval(np.atleast_1d(az)) * (coeffs[:, None] * spatial).sum(axis=0)
    return complex(total[0]) if np.ndim(azimuth_deg) == 0 else total


@dataclass(frozen=True)
class HarmonicPattern:
    """Sampled harmonic magnitude over a strictly increasing azimuth grid."""

    m: int
    azimuth_deg: np.ndarray
    magnitude: np.ndarray
    normalization: str = "raw"

    def __post_init__(self):
        import numpy as np

        az = np.asarray(self.azimuth_deg, dtype=float)
        mag = np.asarray(self.magnitude, dtype=float)
        if az.size == 0 or az.shape != mag.shape:
            raise ValueError("pattern needs matching, non-empty angle/magnitude arrays")
        if az[0] < 0.0 or az[-1] >= 360.0 or np.any(np.diff(az) <= 0.0):
            raise ValueError("azimuth grid must be strictly increasing within [0, 360)")
        if self.normalization not in ("raw", "peak_normalized"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        object.__setattr__(self, "azimuth_deg", az)
        object.__setattr__(self, "magnitude", mag)


def _field_magnitude(geometry, model, profile, waveform, m, azimuth_deg, normalization):
    """|F_m|, raw or peak-normalized; exact zeros when the peak is rounding noise.

    |F_m| <= element_count * max(|gamma_on|, |gamma_off|) because |c_m| <= max |gamma(t)|
    and the element gain is <= 1; the noise floor is 1e-12 of that bound.
    """
    import numpy as np

    mags = np.abs(harmonic_field(geometry, model, profile, waveform, m, azimuth_deg))
    peak = mags.max()
    pair = waveform.pair
    if peak <= 1e-12 * geometry.element_count * max(abs(pair.gamma_on), abs(pair.gamma_off)):
        return np.zeros_like(mags)
    return mags / peak if normalization == "peak_normalized" else mags


def pattern_sweep(
    geometry: ArrayGeometry,
    element_model: ElementPatternModel,
    profile,
    waveform_template: ModulationWaveform,
    m: int,
    grid_step_deg: float = 1.0,
    normalization: str = "peak_normalized",
) -> HarmonicPattern:
    """Uniform azimuth sweep of |F_m|; grid step must divide 360 evenly.  A
    harmonic that carries no power comes back as exact zeros labelled raw."""
    import numpy as np

    grid = np.arange(steps_per_turn(grid_step_deg)) * grid_step_deg
    mags = _field_magnitude(
        geometry, element_model, profile, waveform_template, m, grid, normalization
    )
    pattern = HarmonicPattern(m=m, azimuth_deg=grid, magnitude=mags, normalization=normalization)
    return pattern if mags.any() else replace(pattern, normalization="raw")


def dominance_direction(pattern: HarmonicPattern) -> list[float]:
    """Grid angles attaining the maximum magnitude (relative tie tol 1e-6)."""
    peak = float(pattern.magnitude.max())
    if not peak > 0.0:
        raise UndefinedDominanceError("all-zero pattern has no dominance direction")
    mask = pattern.magnitude >= peak * (1.0 - DOMINANCE_TIE_REL)
    return [float(a) for a in pattern.azimuth_deg[mask]]


def _db(mag: float) -> str:
    return "-inf" if mag <= 0.0 else f"{20.0 * math.log10(mag):.10g}"


def pattern_csv(pattern: HarmonicPattern, metadata: dict | None = None) -> str:
    """Delimited-text export with a #key=value header comment block."""
    lines = [f"#{k}={v}" for k, v in (metadata or {}).items()]
    lines.append(f"#harmonic={pattern.m}")
    lines.append(f"#normalization={pattern.normalization}")
    lines.append("azimuth_deg,magnitude_linear,magnitude_db")
    for az, mag in zip(pattern.azimuth_deg, pattern.magnitude):
        lines.append(f"{az:.10g},{mag:.12g},{_db(float(mag))}")
    return "\n".join(lines) + "\n"


def pattern_doc(pattern: HarmonicPattern, metadata: dict | None = None) -> dict:
    """Structured-document export mirroring pattern_csv."""
    return {
        "metadata": dict(metadata or {}),
        "harmonic": pattern.m,
        "normalization": pattern.normalization,
        "azimuth_deg": [float(a) for a in pattern.azimuth_deg],
        "magnitude_linear": [float(v) for v in pattern.magnitude],
        "magnitude_db": [
            None if v <= 0.0 else 20.0 * math.log10(float(v)) for v in pattern.magnitude
        ],
    }
