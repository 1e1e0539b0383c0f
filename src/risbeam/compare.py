"""Measured angle-sweep ingestion and prediction-agreement reporting.

Measured files are delimited text with '#key=value' metadata comment lines
and the header `azimuth_deg,p_plus1_dbm,p_minus1_dbm`.  dBm columns are
treated as relative: both sides are peak-normalized (amplitude domain,
10^(dBm/20)) before comparison; absolute link budgets are out of scope.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .farfield import (
    ArrayGeometry,
    ElementPatternModel,
    HarmonicPattern,
    _field_magnitude,
    dominance_direction,
    steps_per_turn,
)
from .modulation import ModulationWaveform
from .steering import FRONT_SECTOR

SWEEP_HEADER = "azimuth_deg,p_plus1_dbm,p_minus1_dbm"
ZERO_FLOOR_DBM = -120.0


class SweepFormatError(ValueError):
    """Malformed measured-sweep input."""


@dataclass
class MeasuredSweep:
    """Received ±1st-harmonic power versus azimuth on a uniform grid."""

    azimuth_deg: np.ndarray
    p_plus1_dbm: np.ndarray
    p_minus1_dbm: np.ndarray
    metadata: dict

    def __post_init__(self):
        az = np.asarray(self.azimuth_deg, dtype=float)
        if az.size == 0:
            raise SweepFormatError("sweep contains no samples")
        if np.any(az < 0.0) or np.any(az >= 360.0):
            raise SweepFormatError("azimuths must lie in [0, 360)")
        if np.unique(az).size != az.size:
            raise SweepFormatError("duplicate azimuth samples")
        order = np.argsort(az)
        self.azimuth_deg = az[order]
        self.p_plus1_dbm = np.asarray(self.p_plus1_dbm, dtype=float)[order]
        self.p_minus1_dbm = np.asarray(self.p_minus1_dbm, dtype=float)[order]
        steps = np.diff(self.azimuth_deg)
        if steps.size and np.any(np.abs(steps - steps[0]) > 1e-9):
            raise SweepFormatError("azimuth grid step is not uniform")

    @property
    def grid_step_deg(self) -> float:
        if self.azimuth_deg.size < 2:
            raise SweepFormatError("cannot infer grid step from a single sample")
        return float(self.azimuth_deg[1] - self.azimuth_deg[0])

    def amplitudes(self, harmonic: int) -> np.ndarray:
        """Linear amplitudes 10^(dBm/20) of a harmonic's column; some cell must be nonzero."""
        if harmonic == 1:
            column, dbm = "p_plus1_dbm", self.p_plus1_dbm
        elif harmonic == -1:
            column, dbm = "p_minus1_dbm", self.p_minus1_dbm
        else:
            raise SweepFormatError(f"sweep carries only ±1st harmonics, not {harmonic}")
        amps = 10.0 ** (dbm / 20.0)
        if not amps.max() > 0.0:
            raise SweepFormatError(
                f"{column}: every cell underflows to zero amplitude (peak {dbm.max():g} dBm)"
            )
        return amps


def parse_measured_sweep(text: str) -> MeasuredSweep:
    metadata = {}
    header_seen = False
    az, pp, pm = [], [], []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "=" in line:
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line.replace(" ", "") != SWEEP_HEADER:
                raise SweepFormatError(
                    f"line {lineno}: expected header {SWEEP_HEADER!r}, got {line!r}"
                )
            header_seen = True
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise SweepFormatError(f"line {lineno}: expected 3 columns, got {len(cells)}")
        try:
            a, p1, m1 = (float(c) for c in cells)
        except ValueError as exc:
            raise SweepFormatError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, (a, p1, m1))):
            raise SweepFormatError(f"line {lineno}: cells must be finite, got {line!r}")
        az.append(a)
        pp.append(p1)
        pm.append(m1)
    if not header_seen:
        raise SweepFormatError("missing sweep header line")
    return MeasuredSweep(np.array(az), np.array(pp), np.array(pm), metadata)


def load_measured_sweep(source) -> MeasuredSweep:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    return parse_measured_sweep(text)


def format_measured_sweep(sweep: MeasuredSweep) -> str:
    lines = [f"#{k}={v}" for k, v in sweep.metadata.items()]
    lines.append(SWEEP_HEADER)
    for a, p1, m1 in zip(sweep.azimuth_deg, sweep.p_plus1_dbm, sweep.p_minus1_dbm):
        lines.append(f"{a:.10g},{p1:.10g},{m1:.10g}")
    return "\n".join(lines) + "\n"


def synthesize_measured_sweep(
    geometry: ArrayGeometry,
    element_model: ElementPatternModel,
    waveform_template: ModulationWaveform,
    profile,
    grid_step_deg: float = 10.0,
    shift_plus_deg: float = 0.0,
    shift_minus_deg: float = 0.0,
    metadata: dict | None = None,
) -> MeasuredSweep:
    """Model-generated sweep fixture.

    A nonzero shift displaces a harmonic's front lobe by +shift and the back
    lobe by -shift, preserving the surface-plane mirror symmetry the way a
    real pointing deviation does.
    """
    grid = np.arange(steps_per_turn(grid_step_deg)) * grid_step_deg
    cols = {}
    for harmonic, shift in ((1, shift_plus_deg), (-1, shift_minus_deg)):
        warped = np.where(grid < 180.0, grid - shift, grid + shift) % 360.0
        mags = _field_magnitude(
            geometry, element_model, profile, waveform_template, harmonic, warped, "peak_normalized"
        )
        cols[harmonic] = np.where(
            mags > 0.0, 20.0 * np.log10(np.where(mags > 0.0, mags, 1.0)), ZERO_FLOOR_DBM
        )
    meta = dict(metadata or {})
    meta.setdefault("psi_deg", ",".join(f"{float(p):.10g}" for p in profile))
    return MeasuredSweep(grid, cols[1], cols[-1], meta)


@dataclass(frozen=True)
class HarmonicComparison:
    harmonic: int
    measured_dominance: tuple
    predicted_dominance: tuple
    match: bool
    nrms_front: float


@dataclass(frozen=True)
class ComparisonReport:
    profile_psi_deg: tuple
    grid_step_deg: float
    harmonics: tuple

    @property
    def matches(self) -> int:
        return sum(1 for h in self.harmonics if h.match)


def _circular_distance_deg(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def dominance_match(predicted, measured, grid_step_deg: float) -> bool:
    """Every predicted dominance angle sits strictly within one grid step of
    some measured dominance angle, so a full-step deviation is flagged.  The
    bound is relative: adjacent grid angles differ by one step only up to rounding."""
    limit = grid_step_deg * (1.0 - 1e-9)
    return all(
        any(_circular_distance_deg(p, m) < limit for m in measured) for p in predicted
    )


def compare_sweep(
    sweep: MeasuredSweep,
    geometry: ArrayGeometry,
    element_model: ElementPatternModel,
    waveform_template: ModulationWaveform,
    profile,
) -> ComparisonReport:
    """Dominance agreement and front-sector RMS deviation per harmonic (+1, -1)."""
    grid = sweep.azimuth_deg
    step = sweep.grid_step_deg
    front = (grid >= FRONT_SECTOR[0]) & (grid <= FRONT_SECTOR[1])
    entries = []
    for harmonic in (1, -1):
        meas = sweep.amplitudes(harmonic)
        meas = meas / meas.max()
        pred = _field_magnitude(
            geometry, element_model, profile, waveform_template, harmonic, grid, "peak_normalized"
        )
        meas_dom = dominance_direction(
            HarmonicPattern(harmonic, grid, meas, "peak_normalized")
        )
        pred_dom = dominance_direction(
            HarmonicPattern(harmonic, grid, pred, "peak_normalized")
        )
        entries.append(
            HarmonicComparison(
                harmonic=harmonic,
                measured_dominance=tuple(meas_dom),
                predicted_dominance=tuple(pred_dom),
                match=dominance_match(pred_dom, meas_dom, step),
                nrms_front=float(math.sqrt(np.mean((pred[front] - meas[front]) ** 2))),
            )
        )
    phases = tuple(float(p) for p in profile)
    return ComparisonReport(profile_psi_deg=phases, grid_step_deg=step, harmonics=tuple(entries))


def report_doc(report: ComparisonReport) -> dict:
    return {
        "profile_psi_deg": list(report.profile_psi_deg),
        "grid_step_deg": report.grid_step_deg,
        "matches": report.matches,
        "harmonics": [
            {
                "harmonic": h.harmonic,
                "measured_dominance": list(h.measured_dominance),
                "predicted_dominance": list(h.predicted_dominance),
                "match": h.match,
                "nrms_front": h.nrms_front,
            }
            for h in report.harmonics
        ],
    }
