"""The text writers against a row-by-row oracle, and the sweep text round trip.

The oracle functions below are the writers as they were when they formatted
one numpy scalar per cell; the writers must stay byte-identical to them.
"""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from risbeam.compare import (
    MAX_CELL,
    SWEEP_HEADER,
    MeasuredSweep,
    format_measured_sweep,
    parse_measured_sweep,
)
from risbeam.farfield import HarmonicPattern, pattern_csv, pattern_doc


def _db(mag: float) -> str:
    return "-inf" if mag <= 0.0 else f"{20.0 * math.log10(mag):.10g}"


def oracle_pattern_csv(pattern, metadata=None):
    lines = [f"#{k}={v}" for k, v in (metadata or {}).items()]
    lines.append(f"#harmonic={pattern.m}")
    lines.append(f"#normalization={pattern.normalization}")
    lines.append("azimuth_deg,magnitude_linear,magnitude_db")
    for az, mag in zip(pattern.azimuth_deg, pattern.magnitude):
        lines.append(f"{az:.10g},{mag:.12g},{_db(float(mag))}")
    return "\n".join(lines) + "\n"


def oracle_pattern_doc(pattern, metadata=None):
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


def oracle_format_measured_sweep(sweep):
    lines = [f"#{k}={v}" for k, v in sweep.metadata.items()]
    lines.append(SWEEP_HEADER)
    for a, p1, m1 in zip(sweep.azimuth_deg, sweep.p_plus1_dbm, sweep.p_minus1_dbm):
        lines.append(f"{a:.10g},{p1:.10g},{m1:.10g}")
    return "\n".join(lines) + "\n"


SPECIAL = [
    0.0, -0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e-300, -1e-300, 1.0, -1.0,
    0.1437854113105, 1 / 3, -2 / 3, 123456789012.5, 1234567890123456.0, 1e300,
    MAX_CELL, -MAX_CELL, 1.7976931339999999e308,
]
# every cell a MeasuredSweep accepts: at most MAX_CELL, so that a cell
# rounded to 10 significant digits stays finite
finite = st.one_of(
    st.sampled_from(SPECIAL), st.floats(-MAX_CELL, MAX_CELL), st.floats(-200.0, 200.0)
)
cells = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf]))
words = st.text("abcxyz_019.", min_size=1, max_size=6)
metadata = st.dictionaries(words, st.one_of(words, st.integers()), max_size=3)
# steps whose multiples print exactly at 10 significant digits, and steps whose
# multiples %.10g rounds (by up to 5e-8 deg below 360)
STEPS = [0.1, 0.25, 0.5, 1.0, 2.5, 10.0, 45.0, 360 / 7, 360 / 11, 360 / 13, 0.7, 1 / 3]


@st.composite
def patterns(draw):
    az = draw(st.lists(st.floats(0.0, 359.99), min_size=1, max_size=40, unique=True))
    mags = draw(st.lists(cells, min_size=len(az), max_size=len(az)))
    normalization = draw(st.sampled_from(["raw", "peak_normalized"]))
    return HarmonicPattern(draw(st.integers(-5, 5)), sorted(az), mags, normalization)


@st.composite
def sweeps(draw):
    step = draw(st.sampled_from(STEPS))
    n = draw(st.integers(1, min(40, round(360 / step))))
    az = np.arange(n) * step
    # a MeasuredSweep holds finite cells only
    plus = draw(st.lists(finite, min_size=n, max_size=n))
    minus = draw(st.lists(finite, min_size=n, max_size=n))
    return MeasuredSweep(az, np.array(plus), np.array(minus), draw(metadata))


@settings(max_examples=300, deadline=None)
@given(pattern=patterns(), meta=metadata)
def test_pattern_writers_match_the_row_by_row_oracle(pattern, meta):
    assert pattern_csv(pattern, meta) == oracle_pattern_csv(pattern, meta)
    assert json.dumps(pattern_doc(pattern, meta)) == json.dumps(oracle_pattern_doc(pattern, meta))


@settings(max_examples=300, deadline=None)
@given(sweep=sweeps())
def test_sweep_writer_matches_the_row_by_row_oracle(sweep):
    assert format_measured_sweep(sweep) == oracle_format_measured_sweep(sweep)


@settings(max_examples=300, deadline=None)
@given(sweep=sweeps())
def test_sweep_text_round_trip(sweep):
    text = format_measured_sweep(sweep)
    back = parse_measured_sweep(text)
    for column in ("azimuth_deg", "p_plus1_dbm", "p_minus1_dbm"):
        expected = [float(f"{v:.10g}") for v in getattr(sweep, column).tolist()]
        assert getattr(back, column).tolist() == expected, column
    assert back.metadata == {k: str(v) for k, v in sweep.metadata.items()}
    assert format_measured_sweep(back) == text
