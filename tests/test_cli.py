import json
from pathlib import Path

import numpy as np
import pytest

from risbeam.circuit import ReflectionPair
from risbeam.cli import main
from risbeam.compare import format_measured_sweep, synthesize_measured_sweep
from risbeam.farfield import ArrayGeometry, ElementPatternModel
from risbeam.modulation import ModulationWaveform

GEO = ArrayGeometry.half_wavelength_linear(4)
ISO = ElementPatternModel.isotropic()
IDEAL = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=313.0)
TABLE = (
    "freq_hz,za_re,za_im,zl1_re,zl1_im,zl2_re,zl2_im\n"
    "2.4e9,46.85,-0.8,2.99,4.02,96.27,-508.72\n"
    "2.5e9,46.85,-0.8,2.99,4.02,96.27,-508.72\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    return [l for l in text.strip().splitlines() if l and not l.startswith("#")]


def argmax_angles(csv_text):
    rows = csv_rows(csv_text)[1:]
    vals = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
    peak = max(v for _, v in vals)
    return [a for a, v in vals if v >= peak * (1 - 1e-9)]


def test_gamma_reference_point_passes_band(capsys):
    code, out, _ = run(capsys, "gamma", "--format", "doc")
    assert code == 0
    doc = json.loads(out)
    assert doc["phase_separation_deg"] == pytest.approx(177.7458, abs=1e-3)
    assert doc["phase_band_status"] == "PASS"


def test_gamma_no_contrast_warns(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"waveform": {"z_antenna": [50, 0], "z_load_on": [50, 0], "z_load_off": [50, 0]}}
        )
    )
    code, out, err = run(capsys, "gamma", "--config", str(cfg), "--format", "doc")
    assert code == 0
    assert "no modulation contrast" in err
    assert json.loads(out)["differential_magnitude"] == pytest.approx(0.0)


def test_gamma_malformed_table_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,real,header\n1,2,3,4\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"geometry": {"f_c_hz": 2.45e9}, "waveform": {"impedance_table": str(bad)}})
    )
    code, _, err = run(capsys, "gamma", "--config", str(cfg))
    assert code == 2
    assert "error" in err


def test_impedance_table_is_looked_up_at_the_geometry_carrier(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("table.csv").write_text(
        "freq_hz,za_re,za_im,zl1_re,zl1_im,zl2_re,zl2_im\n"
        "2.4e9,50,0,0,0,150,0\n"
        "2.5e9,50,0,150,0,0,0\n"
    )
    gammas = {}
    for f_c in (2.4e9, 2.5e9):
        config = {"geometry": {"f_c_hz": f_c}, "waveform": {"impedance_table": "table.csv"}}
        Path("cfg.json").write_text(json.dumps(config))
        code, out, _ = run(capsys, "gamma", "--config", "cfg.json", "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        assert doc["frequency_hz"] == f_c
        gammas[f_c] = doc["gamma_on"][0]
    # (Z_L - 50) / (Z_L + 50): a shorted load reflects -1, 150 ohm reflects 0.5
    assert gammas == {2.4e9: -1.0, 2.5e9: 0.5}


def test_missing_config_file_exits_3(capsys):
    code, _, _ = run(capsys, "gamma", "--config", "/nonexistent/cfg.json")
    assert code == 3


def test_pattern_table2_preset_argmax(capsys):
    code, out, _ = run(capsys, "pattern", "--table2-row", "2", "--harmonic", "+1")
    assert code == 0
    assert argmax_angles(out) == [60.0, 300.0]


def test_pattern_in_phase_minus_harmonic(capsys):
    code, out, _ = run(capsys, "pattern", "--profile", "0,0,0,0", "--harmonic", "-1")
    assert code == 0
    assert argmax_angles(out) == [90.0, 270.0]


@pytest.mark.parametrize("normalization", ["peak_normalized", "raw"])
def test_pattern_even_harmonic_flagged_as_zero(capsys, normalization):
    code, out, err = run(
        capsys, "pattern", "--profile", "0,0,0,0", "--harmonic", "+2",
        "--normalization", normalization,
    )
    assert code == 0
    assert "identically zero" in err
    assert "#zero_pattern=" in out and "#normalization=raw" in out
    rows = csv_rows(out)[1:]
    assert all(r.split(",")[1:] == ["0", "-inf"] for r in rows)


def test_pattern_of_a_tiny_pair_is_not_zero(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"waveform": {"gamma_on": [1e-13, 0], "gamma_off": [-1e-13, 0]}}))
    code, out, err = run(capsys, "pattern", "--config", str(cfg), "--profile", "0,0,0,0")
    assert code == 0 and err == ""
    assert "#zero_pattern" not in out and "#normalization=peak_normalized" in out
    assert argmax_angles(out) == [90.0, 270.0]


def test_gamma_reports_the_explicit_pair(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"waveform": {"gamma_on": [0.5, 0], "gamma_off": [-0.5, 0]}}))
    code, out, _ = run(capsys, "gamma", "--config", str(cfg), "--format", "doc")
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma_on"] == [0.5, 0.0] and doc["gamma_off"] == [-0.5, 0.0]
    assert doc["differential_magnitude"] == 1.0


@pytest.mark.parametrize("command", ["gamma", "coeffs"])
@pytest.mark.parametrize(
    "waveform, first, second",
    [
        ({"gamma_on": [0.5, 0], "z_load_on": [3, 4]}, "waveform.gamma_on", "waveform.z_load_on"),
        (
            {"gamma_off": [-0.5, 0], "impedance_table": "table.csv"},
            "waveform.gamma_off", "waveform.impedance_table",
        ),
        (
            {"impedance_table": "table.csv", "z_antenna": [50, 0]},
            "waveform.impedance_table", "waveform.z_antenna",
        ),
    ],
)
def test_two_pair_sources_exit_2_naming_both(
    capsys, tmp_path, monkeypatch, command, waveform, first, second
):
    monkeypatch.chdir(tmp_path)
    Path("table.csv").write_text(TABLE)
    Path("cfg.json").write_text(json.dumps({"geometry": {"f_c_hz": 2.45e9}, "waveform": waveform}))
    code, out, err = run(capsys, command, "--config", "cfg.json")
    assert code == 2
    assert out == ""
    assert first in err and second in err


def test_steer_presets(capsys):
    code, out, _ = run(capsys, "steer", "--target", "80", "--harmonic", "+1")
    assert code == 0
    assert json.loads(out)["phases_deg"] == [0.0, 329.0, 297.0, 266.0]

    code, out, _ = run(capsys, "steer", "--target", "90")
    assert json.loads(out)["phases_deg"] == [0.0, 0.0, 0.0, 0.0]

    code, out, _ = run(capsys, "steer", "--target", "130", "--harmonic", "-1")
    assert json.loads(out)["phases_deg"] == [0.0, 244.0, 129.0, 13.0]


def test_steer_search_method(capsys):
    code, out, _ = run(
        capsys, "steer", "--target", "60", "--method", "search", "--resolution", "10"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["achieved_field_magnitude"] > 0


@pytest.mark.parametrize("method", ["progressive", "search"])
def test_out_of_sector_target_warns_on_one_line(capsys, method):
    code, out, err = run(
        capsys, "steer", "--target", "20", "--method", method, "--resolution", "10"
    )
    assert code == 0 and json.loads(out)["desired_azimuth_deg"] == 20.0
    assert err == (
        "warning: target 20.0 deg lies outside the element-beamwidth sectors "
        "(50.0, 130.0) / (230.0, 310.0); steering quality degrades there\n"
    )


def test_warning_lines_come_before_the_error_line(capsys, tmp_path):
    out_path = tmp_path / "missing" / "pattern.csv"
    code, _, err = run(
        capsys, "pattern", "--profile", "0,0,0,0", "--harmonic", "2", "--out", str(out_path)
    )
    assert code == 3
    warning, error = err.splitlines()
    assert warning == "warning: harmonic 2 pattern is identically zero"
    assert error.startswith("error: ") and str(out_path) in error


def test_schedule_doc_output(capsys):
    code, out, _ = run(
        capsys, "schedule", "--profile", "0,270,180,90", "--format", "doc"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["f0_hz"] == 313.0
    assert [c["rise_tick"] for c in doc["channels"]] == [0, 90, 180, 270]


def test_schedule_tick_table_output(capsys):
    code, out, _ = run(capsys, "schedule", "--profile", "0,180", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 360
    assert lines[0] == "1 0"


@pytest.mark.parametrize("duty", [0.3, 0.75])
def test_schedule_refuses_a_duty_it_cannot_realize(capsys, tmp_path, duty):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"waveform": {"duty": duty}}))
    code, out, err = run(capsys, "schedule", "--config", str(cfg), "--table2-row", "2")
    assert code == 2 and out == ""
    assert "waveform.duty" in err
    cfg.write_text(json.dumps({"waveform": {"duty": 0.5}}))
    code, out, _ = run(capsys, "schedule", "--config", str(cfg), "--table2-row", "2")
    assert code == 0 and out


def test_planar_steer_then_pattern_has_the_linear_dominance(capsys, tmp_path):
    # a 2x4 grid steers with the 1x4 profile on every row; on the azimuth cut
    # its peak-normalized pattern is the 1x4 one
    planar, linear = tmp_path / "planar.json", tmp_path / "linear.json"
    planar.write_text(json.dumps({"geometry": {"n_cols": 4, "m_rows": 2}}))
    linear.write_text(json.dumps({"geometry": {"n_cols": 4}}))
    for target, harmonic in (("60", "+1"), ("75", "-1"), ("110", "+1")):
        peaks = []
        for cfg in (planar, linear):
            code, out, _ = run(
                capsys, "steer", "--config", str(cfg), "--target", target,
                "--harmonic", harmonic, "--resolution", "10",
            )
            assert code == 0
            psi = ",".join(str(p) for p in json.loads(out)["phases_deg"])
            code, out, _ = run(
                capsys, "pattern", "--config", str(cfg), "--profile", psi,
                "--resolution", "10", "--harmonic", harmonic,
            )
            assert code == 0
            peaks.append(argmax_angles(out))
        assert peaks[0] == peaks[1]


def test_table2_lists_nine_rows(capsys):
    code, out, _ = run(capsys, "table2")
    assert code == 0
    assert len(csv_rows(out)) == 1 + 9
    code, out, _ = run(capsys, "table2", "--format", "doc")
    assert len(json.loads(out)["rows"]) == 9


def test_compare_command(capsys, tmp_path):
    paths = []
    for i, psi in enumerate(((0, 270, 180, 90), (0, 0, 0, 0))):
        sweep = synthesize_measured_sweep(GEO, ISO, IDEAL, psi)
        p = tmp_path / f"sweep{i}.csv"
        p.write_text(format_measured_sweep(sweep))
        paths.append(str(p))
    code, out, _ = run(capsys, "compare", *paths, "--format", "doc")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_matches"] == 4
    assert doc["total_comparisons"] == 4


def test_compare_missing_profile_metadata_exits_2(capsys, tmp_path):
    p = tmp_path / "sweep.csv"
    p.write_text("azimuth_deg,p_plus1_dbm,p_minus1_dbm\n0,-40,-42\n10,-39,-41\n")
    code, _, err = run(capsys, "compare", str(p))
    assert code == 2
    assert "psi_deg" in err


def test_compare_underflowing_column_exits_2_naming_it(capsys, tmp_path):
    p = tmp_path / "sweep.csv"
    p.write_text(
        "#psi_deg=0,0,0,0\nazimuth_deg,p_plus1_dbm,p_minus1_dbm\n0,-7000,-42\n10,-7000,-41\n"
    )
    code, _, err = run(capsys, "compare", str(p))
    assert code == 2
    assert "p_plus1_dbm" in err and "Warning" not in err


def test_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(["pattern", "--table2-row", "5", "--harmonic", "+1", "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_steer_then_pattern_composes(capsys, tmp_path):
    for target in np.arange(50.0, 131.0, 10.0):
        code, out, _ = run(capsys, "steer", "--target", str(target))
        psi = ",".join(str(p) for p in json.loads(out)["phases_deg"])
        code, out, _ = run(capsys, "pattern", "--profile", psi, "--harmonic", "+1")
        assert code == 0
        front = [a for a in argmax_angles(out) if a <= 180.0]
        assert min(abs(a - target) for a in front) <= 1.0


@pytest.mark.parametrize(
    "config, field",
    [
        ({"geometry": {"n_cols": None}}, "geometry.n_cols"),
        ({"geometry": []}, "geometry"),
        ({"geometry": {"n_col": 8}}, "geometry.n_col"),
        ({"geometry": {"n_cols": 4.5}}, "geometry.n_cols"),
        ({"waveform": {"f0_hz": 0}}, "waveform.f0_hz"),
        ({"waveform": {"z_antenna": [50, "0"]}}, "waveform.z_antenna"),
        ({"grid_step_deg": 0}, "grid_step_deg"),
        ({"grid_step_deg": True}, "grid_step_deg"),
        ({"element_model": {"peak_gain_dbi": 1.75}}, "element_model.peak_gain_dbi"),
        ({"colour": "blue"}, "colour"),
        pytest.param(b'{"waveform": {"duty": 0.5}}\xff', "cfg.json", id="non-utf-8-cfg.json"),
        ({"geometry": {"f_c_hz": 2.45e9}, "waveform": {"impedance_table": "latin1.csv"}},
         "waveform.impedance_table"),
        ({"geometry": {"f_c_hz": 2.45e9}, "waveform": {"impedance_table": "header.csv"}},
         "waveform.impedance_table"),
        ({"geometry": {"f_c_hz": 3e9}, "waveform": {"impedance_table": "table.csv"}},
         "geometry.f_c_hz"),
        ({"geometry": {"f_c_hz": -1}, "waveform": {"gamma_on": [0.5, 0]}}, "geometry.f_c_hz"),
        # the carrier, the grid step and the element exponent each have one source
        ({"geometry": {"lambda_c_m": 0.1}}, "geometry.lambda_c_m"),
        ({"waveform": {"frequency_hz": 2.45e9}}, "waveform.frequency_hz"),
        ({"grid_step_deg": 10}, "grid_step_deg"),
        ({"element_model": {"q_exponent": 2.0}}, "element_model.q_exponent"),
        ({"element_model": {"kind": "isotropic", "q_exponent": 2.0}}, "element_model.q_exponent"),
    ],
)
def test_malformed_config_exits_2_naming_the_key(capsys, tmp_path, monkeypatch, config, field):
    monkeypatch.chdir(tmp_path)
    Path("table.csv").write_text(TABLE)
    Path("latin1.csv").write_bytes(b"\xff" + TABLE.encode())
    Path("header.csv").write_text("not,a,header\n1,2,3\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    code, out, err = run(capsys, "pattern", "--config", str(cfg), "--table2-row", "1")
    assert code == 2
    assert out == ""
    assert field in err and "Traceback" not in err


def test_nan_in_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"waveform": {"duty": NaN}}')
    code, _, err = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 2
    assert "waveform.duty" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["pattern", "--table2-row", "1", "--grid-step", "0"], "--grid-step"),
        (["schedule", "--table2-row", "1", "--f0", "313"], "--f0"),
        (["pattern", "--table2-row", "1", "--resolution", "0"], "--resolution"),
        (["steer", "--target", "nan"], "--target"),
        (["coeffs", "--max-harmonic", "-1"], "--max-harmonic"),
        (["coeffs", "--phase", "inf"], "--phase"),
        (["pattern", "--profile", "0,x,0,0"], "--profile"),
        (["gamma", "--grid-step", "5"], "--grid-step"),
        (["steer", "--target", "60", "--format", "csv"], "--format"),
        (["table2", "--config", "cfg.json"], "--config"),
        (["pattern", "--profile", "0,0,0,0", "--harmonic", "+x"], "--harmonic"),
    ],
)
def test_bad_flag_exits_2_naming_the_flag(capsys, argv, flag):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags and bad types
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "Traceback" not in err


def test_explicit_zero_grid_step_is_not_a_default(capsys):
    code, _, err = run(capsys, "pattern", "--table2-row", "1", "--grid-step", "0")
    assert code == 2 and "--grid-step" in err


def test_schedule_reads_f0_from_the_waveform(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"waveform": {"f0_hz": 100.0}}))
    code, out, _ = run(
        capsys, "schedule", "--config", str(cfg), "--table2-row", "1", "--format", "doc"
    )
    assert code == 0 and json.loads(out)["f0_hz"] == 100.0
    cfg.write_text(json.dumps({"waveform": {"f0_hz": 0}}))
    code, out, err = run(capsys, "schedule", "--config", str(cfg), "--table2-row", "1")
    assert code == 2 and out == ""
    assert "waveform.f0_hz" in err


@pytest.mark.parametrize("method", ["progressive", "search"])
def test_steer_refuses_a_harmonic_with_no_power(capsys, tmp_path, method):
    cfg = tmp_path / "cfg.json"
    argv = ["steer", "--config", str(cfg), "--target", "70", "--harmonic", "2", "--method", method]
    cfg.write_text(json.dumps({"waveform": {"duty": 0.5}}))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--harmonic" in err and "waveform.duty" in err
    cfg.write_text(json.dumps({"waveform": {"duty": 0.3}}))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["harmonic"] == 2


def test_compare_bad_profile_metadata_names_file_and_key(capsys, tmp_path):
    p = tmp_path / "sweep.csv"
    p.write_text("#psi_deg=0,a,0,0\nazimuth_deg,p_plus1_dbm,p_minus1_dbm\n0,-40,-42\n10,-39,-41\n")
    code, _, err = run(capsys, "compare", str(p))
    assert code == 2
    assert str(p) in err and "#psi_deg" in err
