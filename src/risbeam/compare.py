"""Measured angle-sweep ingestion and prediction-agreement reporting.

Measured files are delimited text with '#key=value' metadata comment lines
and the header `azimuth_deg,p_plus1_dbm,p_minus1_dbm`.  dBm columns are
treated as relative: both sides are peak-normalized (amplitude domain,
10^(dBm/20)) before comparison; absolute link budgets are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .farfield import (
    MAX_STEPS_PER_TURN,
    ArrayGeometry,
    ElementPatternModel,
    HarmonicPattern,
    _csv_rows,
    _field_magnitude,
    _same_angle,
    dominance_direction,
    steps_per_turn,
)
from .modulation import ModulationWaveform
from .steering import FRONT_SECTOR

SWEEP_HEADER = "azimuth_deg,p_plus1_dbm,p_minus1_dbm"
ZERO_FLOOR_DBM = -120.0
# The largest magnitude whose %.10g text reads back finite: a cell nearer the
# largest double prints as 1.797693135e+308, which reads back as inf.
MAX_CELL = 1.797693134e308


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
        for column in SWEEP_HEADER.split(","):
            cells = np.asarray(getattr(self, column), dtype=float)
            if cells.ndim != 1:
                raise SweepFormatError(
                    f"{column}: cells must form one column, got shape {cells.shape}"
                )
            if not np.isfinite(cells).all():
                bad = cells[~np.isfinite(cells)].flat[0]
                raise SweepFormatError(f"{column}: cells must be finite, got {bad}")
            if (np.abs(cells) > MAX_CELL).any():
                bad = cells[np.abs(cells) > MAX_CELL].flat[0]
                raise SweepFormatError(
                    f"{column}: cells must lie within ±{MAX_CELL:.10g}, got {bad}"
                )
            if cells.size != az.size:
                raise SweepFormatError(
                    f"{column}: {cells.size} cells, but azimuth_deg has {az.size}"
                )
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
        if steps.size:
            finest = 360.0 / MAX_STEPS_PER_TURN
            if not np.all(_same_angle(steps, steps[0])):
                raise SweepFormatError("azimuth grid step is not uniform")
            if steps[0] < finest and not _same_angle(steps[0], finest):
                raise SweepFormatError(
                    f"azimuth_deg: grid step {steps[0]:.10g} deg is finer than {finest:g} deg"
                )

    @property
    def grid_step_deg(self) -> float:
        if self.azimuth_deg.size < 2:
            raise SweepFormatError("cannot infer grid step from a single sample")
        return float(self.azimuth_deg[1] - self.azimuth_deg[0])

    def amplitudes(self, harmonic: int) -> np.ndarray:
        """Linear amplitudes 10^(dBm/20) of a harmonic's column; every amplitude must
        be finite and some amplitude nonzero."""
        if harmonic == 1:
            column, dbm = "p_plus1_dbm", self.p_plus1_dbm
        elif harmonic == -1:
            column, dbm = "p_minus1_dbm", self.p_minus1_dbm
        else:
            raise SweepFormatError(f"sweep carries only ±1st harmonics, not {harmonic}")
        with np.errstate(over="ignore"):
            amps = 10.0 ** (dbm / 20.0)
        if np.isinf(amps).any():
            raise SweepFormatError(
                f"{column}: a cell overflows the amplitude range (peak {dbm.max():g} dBm)"
            )
        if not amps.max() > 0.0:
            raise SweepFormatError(
                f"{column}: every cell underflows to zero amplitude (peak {dbm.max():g} dBm)"
            )
        return amps


def parse_measured_sweep(text: str) -> MeasuredSweep:
    """Read a sweep; a malformed one is reported at its first bad line, with
    lines counted at "\\n" alone."""
    metadata = {}
    header_seen = False
    rows, linenos = [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        rows.append(line)
        linenos.append(lineno)
    if not header_seen:
        raise SweepFormatError("missing sweep header line")
    cells = _convert_rows(rows, linenos)
    return MeasuredSweep(cells[:, 0], cells[:, 1], cells[:, 2], metadata)


def _convert_rows(rows: list, linenos: list) -> np.ndarray:
    """The data lines as an (n, 3) array of cells within ±MAX_CELL, all converted
    at once; on any fault the lines are checked one by one in file order."""
    if {line.count(",") for line in rows} == {2}:
        try:
            cells = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 3)
        except ValueError:
            pass
        else:
            # a NaN fails both comparisons
            if -MAX_CELL <= cells.min() and cells.max() <= MAX_CELL:
                return cells
    values = []
    for lineno, line in zip(linenos, rows):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise SweepFormatError(f"line {lineno}: expected 3 columns, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise SweepFormatError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise SweepFormatError(f"line {lineno}: cells must be finite, got {line!r}")
        if max(map(abs, row)) > MAX_CELL:
            raise SweepFormatError(
                f"line {lineno}: cells must lie within ±{MAX_CELL:.10g}, got {line!r}"
            )
        values.append(row)
    return np.array(values, dtype=float).reshape(-1, 3)


def load_measured_sweep(source) -> MeasuredSweep:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    return parse_measured_sweep(text)


def format_measured_sweep(sweep: MeasuredSweep) -> str:
    lines = [f"#{k}={v}" for k, v in sweep.metadata.items()]
    lines.append(SWEEP_HEADER)
    rows = _csv_rows(
        "%.10g,%.10g,%.10g\n",
        sweep.azimuth_deg.tolist(),
        sweep.p_plus1_dbm.tolist(),
        sweep.p_minus1_dbm.tolist(),
    )
    return "\n".join(lines) + "\n" + rows


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
    some measured dominance angle, so a full-step deviation is flagged.  A
    distance that is one step up to rounding (_same_angle) is a full step:
    adjacent grid angles differ by one step only up to rounding."""

    def within_a_step(d):
        return d < grid_step_deg and not _same_angle(d, grid_step_deg)

    return all(
        any(within_a_step(_circular_distance_deg(p, m)) for m in measured) for p in predicted
    )


def compare_sweep(
    sweep: MeasuredSweep,
    geometry: ArrayGeometry,
    element_model: ElementPatternModel,
    waveform_template: ModulationWaveform,
    profile,
) -> ComparisonReport:
    """Dominance agreement and front-sector RMS deviation per harmonic (+1, -1);
    the sweep must sample the front sector."""
    grid = sweep.azimuth_deg
    step = sweep.grid_step_deg
    front = (grid >= FRONT_SECTOR[0]) & (grid <= FRONT_SECTOR[1])
    measured = {harmonic: sweep.amplitudes(harmonic) for harmonic in (1, -1)}
    if not front.any():
        raise SweepFormatError(
            f"azimuth_deg: no sample in FRONT_SECTOR {FRONT_SECTOR} deg, where nrms_front is taken"
        )
    entries = []
    for harmonic in (1, -1):
        meas = measured[harmonic] / measured[harmonic].max()
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

