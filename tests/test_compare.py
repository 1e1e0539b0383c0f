import math
import sys

import numpy as np
import pytest

from risbeam.circuit import ReflectionPair
from risbeam.compare import (
    MAX_CELL,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["azimuth_deg", "p_plus1_dbm", "p_minus1_dbm"])
def test_non_finite_cell_is_refused_when_built(column, bad):
    cells = {"azimuth_deg": [0.0, 10.0, 20.0], "p_plus1_dbm": [-40.0] * 3,
             "p_minus1_dbm": [-40.0] * 3}
    cells[column][0] = bad
    with pytest.raises(SweepFormatError, match=f"^{column}: cells must be finite, got {bad}$"):
        MeasuredSweep(**cells, metadata={})


COLUMN_SHAPES = {
    "short": ("p_plus1_dbm", [-40.0] * 2, "p_plus1_dbm: 2 cells, but azimuth_deg has 3"),
    "long": ("p_plus1_dbm", [-40.0] * 4, "p_plus1_dbm: 4 cells, but azimuth_deg has 3"),
    "short minus": ("p_minus1_dbm", [-40.0] * 2, "p_minus1_dbm: 2 cells, but azimuth_deg has 3"),
    "scalar": ("azimuth_deg", 0.0, "azimuth_deg: cells must form one column, got shape ()"),
    "row": (
        "p_minus1_dbm", [[-40.0] * 3],
        "p_minus1_dbm: cells must form one column, got shape (1, 3)",
    ),
}


@pytest.mark.parametrize("column,value,message", COLUMN_SHAPES.values(), ids=COLUMN_SHAPES)
def test_column_of_another_shape_is_refused_naming_it(column, value, message):
    cells = {"azimuth_deg": [0.0, 10.0, 20.0], "p_plus1_dbm": [-40.0] * 3,
             "p_minus1_dbm": [-40.0] * 3}
    cells[column] = value
    with pytest.raises(SweepFormatError) as info:
        MeasuredSweep(**cells, metadata={})
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [sys.float_info.max, -sys.float_info.max, 1.7976931345e308])
@pytest.mark.parametrize("column", ["p_plus1_dbm", "p_minus1_dbm"])
def test_cell_beyond_the_text_range_is_refused_naming_its_column(column, bad):
    # the largest double prints at %.10g as 1.797693135e+308, which reads back
    # as inf; one rule refuses every cell above the largest that reads back
    cells = {"azimuth_deg": [0.0, 10.0], "p_plus1_dbm": [-40.0] * 2, "p_minus1_dbm": [-40.0] * 2}
    cells[column][1] = bad
    with pytest.raises(SweepFormatError, match=f"^{column}: cells must lie within"):
        MeasuredSweep(**cells, metadata={})
    cells[column][1] = math.copysign(MAX_CELL, bad)
    sweep = MeasuredSweep(**cells, metadata={})
    back = parse_measured_sweep(format_measured_sweep(sweep))
    assert getattr(back, column).tolist() == getattr(sweep, column).tolist()


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


@pytest.mark.parametrize("column", ["p_plus1_dbm", "p_minus1_dbm"])
def test_underflowing_column_is_format_error_naming_it(column):
    sweep = synthesize_measured_sweep(GEO, ISO, IDEAL, [0, 270, 180, 90])
    setattr(sweep, column, np.full_like(sweep.azimuth_deg, -7000.0))
    with pytest.raises(SweepFormatError, match=column):
        compare_sweep(sweep, GEO, ISO, IDEAL, [0, 270, 180, 90])


@pytest.mark.parametrize("column", ["p_plus1_dbm", "p_minus1_dbm"])
def test_overflowing_cell_is_format_error_naming_it(column):
    sweep = synthesize_measured_sweep(GEO, ISO, IDEAL, [0, 270, 180, 90])
    getattr(sweep, column)[3] = 7000.0
    with pytest.raises(SweepFormatError, match=f"{column}: a cell overflows"):
        compare_sweep(sweep, GEO, ISO, IDEAL, [0, 270, 180, 90])


H = "azimuth_deg,p_plus1_dbm,p_minus1_dbm"

# A malformed sweep is reported at its first bad line in file order, with
# lines counted at "\n" alone (a "\r", "\x0c" or " " ends no line).
PARSE_ERRORS = {
    "nan before a non-number": (
        f"{H}\n0,-40,-42\nnan,-40,-42\nx,-40,-42\n",
        "line 3: cells must be finite, got 'nan,-40,-42'",
    ),
    "non-number before a short line": (
        f"{H}\n0,-40,-42\n10,x,-42\n20,-40,-42\n30,-40\n",
        "line 3: could not convert string to float: 'x'",
    ),
    "short line before a non-number": (
        f"{H}\n0,-40,-42\n10,-40\n20,-40,-42\n30,x,-42\n",
        "line 3: expected 3 columns, got 2",
    ),
    "long line before inf": (
        f"{H}\n0,-40,-42,7\n10,inf,-42\n",
        "line 2: expected 3 columns, got 4",
    ),
    "empty cell": (f"{H}\n0,,-42\n", "line 2: could not convert string to float: ''"),
    "crlf line ends": (
        f"{H}\r\n0,-40,-42\r\n10,-40,x\r\n",
        "line 3: could not convert string to float: 'x'",
    ),
    "form feed at a line end": (
        f"{H}\n0,-40,-42\x0c\n10,y,-42\n",
        "line 3: could not convert string to float: 'y'",
    ),
    "line separator at a line end": (
        f"{H}\n0,-40,-42 \n10,-40,-42\x85\n20,z,-42\n",
        "line 4: could not convert string to float: 'z'",
    ),
    "lone carriage return inside a line": (
        f"{H}\n0,-40\r10,-42\n",
        "line 2: could not convert string to float: '-40\\r10'",
    ),
    "spaces, underscores and overflow": (
        f"{H}\n 0 , -40 , -42 \n1_0,-40,-42\n20,1e400,-42\n",
        "line 4: cells must be finite, got '20,1e400,-42'",
    ),
    "a cell beyond the text range before a non-number": (
        f"{H}\n0,-40,-42\n10,-40,-1.7976931345e308\n20,x,-42\n",
        "line 3: cells must lie within ±1.797693134e+308, got '10,-40,-1.7976931345e308'",
    ),
    "comments, blanks and late metadata": (
        f"#a=1\n{H}\n0,-40,-42\n\n# note\n10,-40,-42\n#b=2\n   \n20,-40\n",
        "line 9: expected 3 columns, got 2",
    ),
    "wrong header": (
        "#a=1\n\nx,y,z\n0,-40,-42\n",
        f"line 3: expected header {H!r}, got 'x,y,z'",
    ),
    "no header": ("#a=1\n# note\n", "missing sweep header line"),
    "no samples": (f"#a=1\n{H}\n#b=2\n", "sweep contains no samples"),
}


@pytest.mark.parametrize("text,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_names_the_first_bad_line(text, message):
    with pytest.raises(SweepFormatError) as info:
        parse_measured_sweep(text)
    assert str(info.value) == message


def test_parse_accepts_what_float_accepts():
    text = f"#a = 1 \n{H}\r\n 1_0 , -4e1\x0c, -42\r\n١٢,  -39.5 ,-41\n#b=2\n"
    sweep = parse_measured_sweep(text)
    assert sweep.azimuth_deg.tolist() == [10.0, 12.0]
    assert sweep.p_plus1_dbm.tolist() == [-40.0, -39.5]
    assert sweep.p_minus1_dbm.tolist() == [-42.0, -41.0]
    assert sweep.metadata == {"a": "1", "b": "2"}
