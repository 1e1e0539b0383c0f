import io
import math

import numpy as np
import pytest

from risbeam.circuit import (
    FrequencyRangeError,
    ImpedancePoint,
    ReflectionPair,
    SingularInputError,
    TableFormatError,
    load_impedance_table,
    modulation_metrics,
    parse_impedance_table,
    reflection_coefficient,
)

Z_ANTENNA = 46.85 - 0.8j
Z_LOAD_ON = 2.99 + 4.02j
Z_LOAD_OFF = 96.27 - 508.72j


def test_conjugate_matched_load_reflects_nothing():
    g = reflection_coefficient(46.85 + 0.8j, Z_ANTENNA)
    assert abs(g) < 1e-12


def test_on_state_coefficient_frozen_values():
    # Frozen from independent high-precision complex division.
    g = reflection_coefficient(Z_LOAD_ON, Z_ANTENNA)
    assert g == pytest.approx(-0.872201424474241 + 0.12095683360367283j, abs=1e-12)
    assert abs(g) == pytest.approx(0.8805486246939017, abs=1e-12)
    assert math.degrees(np.angle(g)) == pytest.approx(172.1045834425692, abs=1e-9)


def test_off_state_coefficient_frozen_values():
    g = reflection_coefficient(Z_LOAD_OFF, Z_ANTENNA)
    assert g == pytest.approx(0.9521219816015115 - 0.1704500274902032j, abs=1e-12)
    assert abs(g) == pytest.approx(0.9672587449696177, abs=1e-12)
    assert math.degrees(np.angle(g)) == pytest.approx(-10.149643815757104, abs=1e-9)


def test_open_circuit_limit_fully_reflects():
    g = reflection_coefficient(1e9 + 0j, Z_ANTENNA)
    assert abs(abs(g) - 1.0) < 1e-6


def test_degenerate_denominator_rejected():
    with pytest.raises(SingularInputError):
        reflection_coefficient(-46.85 + 0.8j, Z_ANTENNA)


def test_degenerate_rule_is_relative_to_the_impedances():
    # two tiny matched impedances reflect nothing; their sum is not rounding noise
    assert reflection_coefficient(1e-13, 1e-13) == 0
    # a sum that cancels to rounding noise of the impedances is still refused
    with pytest.raises(SingularInputError):
        reflection_coefficient(-46.85 + 1e-14 + 0.8j, Z_ANTENNA)


def test_active_antenna_rejected():
    with pytest.raises(ValueError):
        reflection_coefficient(50.0, -1.0 + 0j)


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        reflection_coefficient(complex("nan"), Z_ANTENNA)


def test_passive_loads_stay_within_unit_circle():
    rng = np.random.default_rng(7)
    for _ in range(500):
        zl = complex(rng.uniform(0, 1000), rng.uniform(-1000, 1000))
        za = complex(rng.uniform(1e-3, 1000), rng.uniform(-1000, 1000))
        assert abs(reflection_coefficient(zl, za)) <= 1.0 + 1e-9


def test_pair_rejects_active_coefficient():
    with pytest.raises(ValueError):
        ReflectionPair(1.1, -1.0)


def test_metrics_ideal_binary_load():
    m = modulation_metrics(ReflectionPair(1.0, -1.0))
    assert m.phase_separation_deg == pytest.approx(180.0)
    assert m.loss_on_db == pytest.approx(0.0)
    assert m.loss_off_db == pytest.approx(0.0)
    assert m.differential_magnitude == pytest.approx(2.0)


def test_metrics_no_modulation():
    m = modulation_metrics(ReflectionPair(1.0, 1.0))
    assert m.phase_separation_deg == pytest.approx(0.0)
    assert m.differential_magnitude == pytest.approx(0.0)


def test_metrics_reference_pair_phase_separation():
    pair = ReflectionPair.from_impedances(Z_ANTENNA, Z_LOAD_ON, Z_LOAD_OFF)
    m = modulation_metrics(pair)
    assert m.phase_difference_signed_deg == pytest.approx(182.254227, abs=1e-5)
    assert m.phase_separation_deg == pytest.approx(177.745773, abs=1e-5)
    # inside the 180 +/- 12 degree acceptance band
    assert abs(m.phase_separation_deg - 180.0) <= 12.0


def test_metrics_zero_magnitude_loss_undefined():
    with pytest.raises(ValueError):
        modulation_metrics(ReflectionPair(0.0, 1.0))


def test_phase_separation_invariant_under_common_rotation():
    rng = np.random.default_rng(11)
    base = ReflectionPair(0.5 + 0.2j, -0.4 + 0.6j)
    ref = modulation_metrics(base).phase_separation_deg
    for _ in range(50):
        rot = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = ReflectionPair(base.gamma_on * rot, base.gamma_off * rot)
        assert modulation_metrics(rotated).phase_separation_deg == pytest.approx(
            ref, abs=1e-9
        )


TABLE_SINGLE = """freq_hz,za_re,za_im,zl1_re,zl1_im,zl2_re,zl2_im
2.45e9,46.85,-0.8,2.99,4.02,96.27,-508.72
"""

TABLE_TWO = """freq_hz,za_re,za_im,zl1_re,zl1_im,zl2_re,zl2_im
2.4e9,40.0,-2.0,2.0,4.0,90.0,-500.0
2.5e9,50.0,2.0,4.0,6.0,100.0,-520.0
"""


def test_single_row_exact_lookup():
    table = parse_impedance_table(TABLE_SINGLE)
    assert len(table) == 1
    point = table.lookup(2.45e9)
    assert point.z_antenna == Z_ANTENNA
    assert point.z_load_on == Z_LOAD_ON
    assert point.z_load_off == Z_LOAD_OFF


def test_midpoint_interpolation():
    table = parse_impedance_table(TABLE_TWO)
    point = table.lookup(2.45e9)
    # hand-computed midpoints of each rectangular component
    assert point.z_antenna == pytest.approx(45.0 + 0.0j)
    assert point.z_load_on == pytest.approx(3.0 + 5.0j)
    assert point.z_load_off == pytest.approx(95.0 - 510.0j)


def test_empty_table_is_format_error():
    with pytest.raises(TableFormatError):
        parse_impedance_table("")
    with pytest.raises(TableFormatError):
        parse_impedance_table("freq_hz,za_re,za_im,zl1_re,zl1_im,zl2_re,zl2_im\n")


def test_bad_header_is_format_error():
    with pytest.raises(TableFormatError):
        parse_impedance_table("frequency,a,b,c,d,e,f\n1,2,3,4,5,6,7\n")


def test_non_monotone_frequencies_rejected():
    bad = TABLE_TWO + "2.45e9,45,0,3,5,95,-510\n"
    with pytest.raises(TableFormatError):
        parse_impedance_table(bad)


def test_out_of_range_lookup_rejected():
    table = parse_impedance_table(TABLE_TWO)
    with pytest.raises(FrequencyRangeError):
        table.lookup(2.6e9)


def test_load_from_file_object():
    table = load_impedance_table(io.StringIO(TABLE_SINGLE))
    assert table.lookup(2.45e9).frequency == 2.45e9


def test_impedance_point_validates():
    with pytest.raises(ValueError):
        ImpedancePoint(-1.0, Z_ANTENNA, Z_LOAD_ON, Z_LOAD_OFF)
    with pytest.raises(ValueError):
        ImpedancePoint(2.45e9, -50.0 + 0j, Z_LOAD_ON, Z_LOAD_OFF)


@pytest.mark.parametrize(
    "row, message",
    [
        ("2.5e9,x,0,3,4,96,-508", "could not convert"),
        ("2.5e9,46,0,3", "expected 7 columns"),
        ("2.5e9,-5,0,3,4,96,-508", "antenna must be passive"),
        ("2.5e9,nan,0,3,4,96,-508", "z_antenna must have finite"),
        ("0,46,0,3,4,96,-508", "frequency must be positive"),
    ],
)
def test_table_error_names_the_line_it_is_on(row, message):
    # the bad row is on line 5, after two blank lines
    text = TABLE_SINGLE.replace("2.45e9", "2.4e9") + "\n \n" + row + "\n"
    with pytest.raises(TableFormatError, match=f"^line 5: .*{message}"):
        parse_impedance_table(text)
