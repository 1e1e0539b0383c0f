import numpy as np
import pytest

from risbeam.circuit import ReflectionPair
from risbeam.compare import (
    MeasuredSweep,
    SweepFormatError,
    compare_sweep,
    dominance_match,
    format_measured_sweep,
    parse_measured_sweep,
    synthesize_measured_sweep,
)
from risbeam.farfield import ArrayGeometry, ElementPatternModel
from risbeam.modulation import ModulationWaveform
from risbeam.steering import steering_catalog

GEO = ArrayGeometry.half_wavelength_linear(4)
ISO = ElementPatternModel.isotropic()
IDEAL = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=313.0)


def test_synthesize_parse_roundtrip():
    sweep = synthesize_measured_sweep(GEO, ISO, IDEAL, [0, 270, 180, 90])
    text = format_measured_sweep(sweep)
    back = parse_measured_sweep(text)
    assert np.allclose(back.azimuth_deg, sweep.azimuth_deg)
    assert np.allclose(back.p_plus1_dbm, sweep.p_plus1_dbm)
    assert back.metadata["psi_deg"] == "0,270,180,90"


def test_self_consistent_sweeps_all_match():
    matches = 0
    for case in steering_catalog():
        sweep = synthesize_measured_sweep(GEO, ISO, IDEAL, case.psi_deg)
        report = compare_sweep(sweep, GEO, ISO, IDEAL, case.psi_deg)
        assert report.matches == 2
        assert all(h.nrms_front < 1e-9 for h in report.harmonics)
        matches += 1
    assert matches == 9


def test_injected_deviation_is_flagged():
    case = steering_catalog()[7]  # desired 120/240, measured 130/230
    sweep = synthesize_measured_sweep(GEO, ISO, IDEAL, case.psi_deg, shift_plus_deg=10.0)
    report = compare_sweep(sweep, GEO, ISO, IDEAL, case.psi_deg)
    plus = next(h for h in report.harmonics if h.harmonic == 1)
    minus = next(h for h in report.harmonics if h.harmonic == -1)
    assert not plus.match
    assert plus.measured_dominance == (130.0, 230.0)
    assert plus.predicted_dominance == (120.0, 240.0)
    assert minus.match


def test_dominance_match_rule_is_strict_at_one_step():
    assert dominance_match([120.0, 240.0], [120.0, 240.0], 10.0)
    assert not dominance_match([120.0, 240.0], [130.0, 230.0], 10.0)
    # measured ties still count as a match when the prediction is among them
    assert dominance_match([110.0, 250.0], [110.0, 250.0, 120.0, 240.0], 10.0)
    # sub-step offsets (finer prediction grids) match
    assert dominance_match([58.0, 302.0], [60.0, 300.0], 10.0)
    # circular wrap
    assert dominance_match([355.0], [2.0], 10.0)
    # adjacent points of a 0.1 deg grid are one full step apart, whatever
    # the rounding of their difference
    grid = np.arange(3600) * 0.1
    for a, b in zip(grid[500:1800], grid[501:1801]):
        assert not dominance_match([b], [a], 0.1), (a, b)
    assert dominance_match([70.25], [70.2], 0.1)


def test_empty_sweep_is_format_error():
    with pytest.raises(SweepFormatError):
        parse_measured_sweep("")
    with pytest.raises(SweepFormatError):
        parse_measured_sweep("azimuth_deg,p_plus1_dbm,p_minus1_dbm\n")


def test_missing_column_is_format_error():
    with pytest.raises(SweepFormatError):
        parse_measured_sweep("azimuth_deg,p_plus1_dbm\n0,-40\n")
    with pytest.raises(SweepFormatError):
        parse_measured_sweep("azimuth_deg,p_plus1_dbm,p_minus1_dbm\n0,-40\n")


@pytest.mark.parametrize("row", ["90,inf,-40", "90,-40,-inf", "nan,-40,-42"])
def test_non_finite_cell_is_format_error(row):
    text = f"azimuth_deg,p_plus1_dbm,p_minus1_dbm\n0,-40,-42\n{row}\n"
    with pytest.raises(SweepFormatError, match="line 3"):
        parse_measured_sweep(text)


def test_duplicate_and_nonuniform_grids_rejected():
    with pytest.raises(SweepFormatError):
        MeasuredSweep(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), {})
    with pytest.raises(SweepFormatError):
        MeasuredSweep(np.array([0.0, 10.0, 25.0]), np.zeros(3), np.zeros(3), {})


def test_metadata_lines_parsed():
    text = "#f_c_hz=2.45e9\n#distance_m=1.75\n#tx_power_dbm=10\n"
    text += "azimuth_deg,p_plus1_dbm,p_minus1_dbm\n0,-40,-42\n10,-38,-41\n"
    sweep = parse_measured_sweep(text)
    assert sweep.metadata["distance_m"] == "1.75"
    assert sweep.grid_step_deg == 10.0


def test_unknown_harmonic_rejected():
    sweep = synthesize_measured_sweep(GEO, ISO, IDEAL, [0, 0, 0, 0])
    with pytest.raises(SweepFormatError):
        sweep.amplitudes(2)
