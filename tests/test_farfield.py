import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risbeam.circuit import ReflectionPair
from risbeam.farfield import (
    ArrayGeometry,
    ElementPatternModel,
    HarmonicPattern,
    UndefinedDominanceError,
    default_q_exponent,
    dominance_direction,
    element_delay,
    harmonic_field,
    pattern_csv,
    pattern_doc,
    pattern_sweep,
)
from risbeam.compare import compare_sweep, synthesize_measured_sweep
from risbeam.modulation import ModulationWaveform, fourier_coefficient
from risbeam.schedule import build_switch_schedule
from risbeam.steering import quantize_profile

F0 = 313.0
GEO = ArrayGeometry.half_wavelength_linear(4)
ISO = ElementPatternModel.isotropic()
COS = ElementPatternModel()
IDEAL = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=F0)
REALISTIC = ModulationWaveform(
    ReflectionPair.from_impedances(46.85 - 0.8j, 2.99 + 4.02j, 96.27 - 508.72j), f0=F0
)


def test_default_q_exponent_value():
    assert default_q_exponent() == pytest.approx(1.7252, abs=5e-4)


def test_element_pattern_broadside_and_halfpower():
    assert COS.eval(90.0) == pytest.approx(1.0)
    assert COS.eval(270.0) == pytest.approx(1.0)
    assert COS.eval(138.0) == pytest.approx(0.5, abs=1e-3)
    assert COS.eval(42.0) == pytest.approx(0.5, abs=1e-3)
    assert COS.eval(318.0) == pytest.approx(0.5, abs=1e-3)
    # surface plane falls to zero naturally
    assert COS.eval(0.0) == pytest.approx(0.0, abs=1e-12)
    assert COS.eval(180.0) == pytest.approx(0.0, abs=1e-12)


def test_isotropic_pattern_is_unity():
    az = np.arange(0, 360, 7.0)
    assert np.all(ISO.eval(az) == 1.0)


def test_in_phase_broadside_field_is_coherent_sum():
    f = harmonic_field(GEO, ISO, [0, 0, 0, 0], IDEAL, 1, 90.0)
    assert abs(f) == pytest.approx(4.0 * 2.0 / math.pi, rel=1e-12)


def test_anchor_profile_coherent_at_60():
    f = harmonic_field(GEO, ISO, [0, 270, 180, 90], IDEAL, 1, 60.0)
    assert abs(f) == pytest.approx(4.0 * 2.0 / math.pi, rel=1e-12)


def test_single_element_field_is_element_times_coefficient():
    geo1 = ArrayGeometry.half_wavelength_linear(1)
    for az in (90.0, 60.0, 130.0):
        f = harmonic_field(geo1, COS, [123.0], REALISTIC, 1, az)
        c = fourier_coefficient(
            ModulationWaveform(
                REALISTIC.pair, f0=F0, tau=element_delay(123.0, F0)
            ),
            1,
        )
        assert abs(f) == pytest.approx(COS.eval(az) * abs(c), rel=1e-12)


def test_profile_length_mismatch_rejected():
    with pytest.raises(ValueError):
        harmonic_field(GEO, ISO, [0, 0, 0], IDEAL, 1, 90.0)


def test_sweep_in_phase_maxima_at_broadside():
    pat = pattern_sweep(GEO, ISO, [0, 0, 0, 0], IDEAL, 1, 1.0)
    assert dominance_direction(pat) == [90.0, 270.0]
    assert pat.magnitude.max() == pytest.approx(1.0, abs=1e-12)


def test_sweep_anchor_profile_minus_harmonic():
    pat = pattern_sweep(GEO, ISO, [0, 270, 180, 90], IDEAL, -1, 1.0)
    assert dominance_direction(pat) == [120.0, 240.0]


def test_even_harmonic_sweep_is_zero_at_half_duty():
    pat = pattern_sweep(GEO, ISO, [0, 270, 180, 90], IDEAL, 2, 1.0, normalization="raw")
    assert np.all(pat.magnitude < 1e-12)
    pat = pattern_sweep(GEO, ISO, [0, 270, 180, 90], IDEAL, 2, 1.0)
    assert not pat.magnitude.any() and pat.normalization == "raw"


@settings(max_examples=100, deadline=None)
@given(
    log_scale=st.floats(-150.0, 0.0),
    pair=st.sampled_from([IDEAL.pair, REALISTIC.pair]),
    psi=st.lists(st.integers(0, 359), min_size=4, max_size=4),
    model=st.sampled_from([ISO, COS]),
)
@example(log_scale=-13.0, pair=IDEAL.pair, psi=[0, 0, 0, 0], model=ISO)
def test_zero_rule_does_not_depend_on_the_pair_scale(log_scale, pair, psi, model):
    s = 10.0 ** log_scale
    scaled = ModulationWaveform(ReflectionPair(s * pair.gamma_on, s * pair.gamma_off), f0=F0)
    unscaled = ModulationWaveform(pair, f0=F0)
    for m in (1, -1, 3, -3):
        ref = pattern_sweep(GEO, model, psi, unscaled, m, 5.0)
        pat = pattern_sweep(GEO, model, psi, scaled, m, 5.0)
        assert pat.normalization == "peak_normalized"
        # both peaks are 1, so this is relative to the peak
        assert np.max(np.abs(pat.magnitude - ref.magnitude)) <= 1e-9
    # at 50% duty the even harmonics carry no power at any scale
    for m in (2, -2, 4, -4):
        pat = pattern_sweep(GEO, model, psi, scaled, m, 5.0)
        assert not pat.magnitude.any() and pat.normalization == "raw"


def test_grid_step_must_divide_circle():
    with pytest.raises(ValueError):
        pattern_sweep(GEO, ISO, [0, 0, 0, 0], IDEAL, 1, 7.0)


@pytest.mark.parametrize("step", [0.0, -1.0, 7.0, math.nan])
def test_sweeps_and_profiles_share_one_step_check(step):
    with pytest.raises(ValueError, match="grid step"):
        pattern_sweep(GEO, ISO, [0, 0, 0, 0], IDEAL, 1, step)
    with pytest.raises(ValueError, match="grid step"):
        synthesize_measured_sweep(GEO, ISO, IDEAL, [0, 0, 0, 0], grid_step_deg=step)
    with pytest.raises(ValueError, match="resolution"):
        quantize_profile([0.0], step)


def test_dominance_constant_pattern_returns_full_grid():
    pat = HarmonicPattern(1, np.arange(0, 360, 10.0), np.ones(36))
    assert len(dominance_direction(pat)) == 36


def test_dominance_all_zero_is_undefined():
    pat = HarmonicPattern(1, np.arange(0, 360, 10.0), np.zeros(36))
    with pytest.raises(UndefinedDominanceError):
        dominance_direction(pat)


def _random_profiles(rng, count):
    return [rng.uniform(0, 360, size=4) for _ in range(count)]


def test_surface_plane_mirror_symmetry():
    # reflection/refraction symmetry across the 0/180 surface plane: phi <-> 360 - phi
    rng = np.random.default_rng(21)
    grid = np.arange(0.0, 360.0, 1.0)
    mirrored = (360.0 - grid) % 360.0
    for model in (ISO, COS):
        for prof in _random_profiles(rng, 5):
            for m in (1, -1):
                a = np.abs(harmonic_field(GEO, model, prof, REALISTIC, m, grid))
                b = np.abs(harmonic_field(GEO, model, prof, REALISTIC, m, mirrored))
                assert np.max(np.abs(a - b)) <= 1e-9 * a.max()


def test_conjugate_harmonic_steering_symmetry():
    # |F_{-m}(180 - phi)| == |F_{+m}(phi)|
    rng = np.random.default_rng(22)
    grid = np.arange(0.0, 360.0, 1.0)
    reflected = (180.0 - grid) % 360.0
    for prof in _random_profiles(rng, 5):
        for m in (1, 2, 3):
            a = np.abs(harmonic_field(GEO, COS, prof, REALISTIC, m, grid))
            b = np.abs(harmonic_field(GEO, COS, prof, REALISTIC, -m, reflected))
            if a.max() == 0.0:
                assert b.max() == 0.0
                continue
            assert np.max(np.abs(a - b)) <= 1e-9 * a.max()


def test_global_phase_invariance():
    rng = np.random.default_rng(23)
    grid = np.arange(0.0, 360.0, 5.0)
    prof = rng.uniform(0, 360, size=4)
    ref = np.abs(harmonic_field(GEO, ISO, prof, REALISTIC, 1, grid))
    for offset in (17.0, 123.4, 301.0):
        shifted = (prof + offset) % 360.0
        got = np.abs(harmonic_field(GEO, ISO, shifted, REALISTIC, 1, grid))
        assert np.max(np.abs(got - ref)) <= 1e-9 * ref.max()


def test_broadside_array_enhancement():
    quad = abs(harmonic_field(GEO, ISO, [0, 0, 0, 0], IDEAL, 1, 90.0))
    single = abs(
        harmonic_field(ArrayGeometry.half_wavelength_linear(1), ISO, [0], IDEAL, 1, 90.0)
    )
    gain_db = 20.0 * math.log10(quad / single)
    assert gain_db == pytest.approx(20.0 * math.log10(4.0), abs=1e-6)


def planar(n_cols, m_rows, dx_wl=0.5, dy_wl=0.5):
    lam = GEO.lambda_c
    return ArrayGeometry(n_cols, m_rows, dx=dx_wl * lam, dy=dy_wl * lam, lambda_c=lam)


grids = st.tuples(st.integers(1, 4), st.integers(1, 4))
spacings = st.floats(0.1, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    size=grids,
    dx_wl=spacings,
    dy_wl=spacings,
    model=st.sampled_from([ISO, COS]),
    m=st.sampled_from([1, -1, 3, -3]),
    psi=st.lists(st.floats(0.0, 359.0), min_size=16, max_size=16),
)
@example(
    size=(4, 2), dx_wl=0.5, dy_wl=0.5, model=ISO, m=1,
    psi=[0.0, 90.0, 180.0, 270.0, 45.0, 135.0, 225.0, 315.0] * 2,
)
def test_mirror_symmetry_holds_for_every_grid(size, dx_wl, dy_wl, model, m, psi):
    # |F(phi)| == |F(360 - phi)| for any MxN grid and profile
    geo = planar(*size, dx_wl, dy_wl)
    psi = psi[: geo.element_count]
    grid = np.arange(0.0, 360.0, 5.0)
    a = np.abs(harmonic_field(geo, model, psi, REALISTIC, m, grid))
    b = np.abs(harmonic_field(geo, model, psi, REALISTIC, m, (360.0 - grid) % 360.0))
    assert np.max(np.abs(a - b)) <= 1e-9 * a.max()


@settings(max_examples=40, deadline=None)
@given(size=grids, dx_wl=spacings, dy_wl=spacings, psi=st.floats(0.0, 359.0),
       m=st.sampled_from([1, -1, 3, -3]))
@example(size=(4, 2), dx_wl=0.5, dy_wl=0.5, psi=0.0, m=1)
def test_in_phase_broadside_gain_is_element_count(size, dx_wl, dy_wl, psi, m):
    # an in-phase isotropic MxN array gains 20*log10(M*N) over one element at broadside
    geo = planar(*size, dx_wl, dy_wl)
    n = geo.element_count
    array = abs(harmonic_field(geo, ISO, [psi] * n, REALISTIC, m, 90.0))
    single = abs(harmonic_field(planar(1, 1), ISO, [psi], REALISTIC, m, 90.0))
    assert 20.0 * math.log10(array / single) == pytest.approx(20.0 * math.log10(n), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    raw=st.lists(st.integers(0, 359), min_size=4, max_size=4),
    m=st.sampled_from([1, -1]),
)
def test_profile_forms_give_equal_results(raw, m):
    # a PhaseProfile, its tuple and an array of its phases are read the same way
    profile = quantize_profile(raw)
    forms = (profile, profile.phases_deg, np.array(profile.phases_deg))
    grid = np.arange(0.0, 360.0, 10.0)
    fields = [harmonic_field(GEO, COS, f, REALISTIC, m, grid) for f in forms]
    patterns = [pattern_sweep(GEO, COS, f, REALISTIC, m, 10.0).magnitude for f in forms]
    schedules = [build_switch_schedule(f, F0) for f in forms]
    sweeps = [synthesize_measured_sweep(GEO, COS, REALISTIC, f) for f in forms]
    reports = [compare_sweep(sweeps[0], GEO, COS, REALISTIC, f) for f in forms]
    for got in fields, patterns:
        assert all(np.array_equal(g, got[0]) for g in got)
    for got in schedules, reports:
        assert all(g == got[0] for g in got)
    for sweep in sweeps:
        assert sweep.metadata == sweeps[0].metadata
        for column in ("p_plus1_dbm", "p_minus1_dbm"):
            assert np.array_equal(getattr(sweep, column), getattr(sweeps[0], column))


def test_pattern_csv_roundtrippable():
    pat = pattern_sweep(GEO, ISO, [0, 270, 180, 90], IDEAL, 1, 10.0)
    text = pattern_csv(pat, {"config_hash": "abc123"})
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "azimuth_deg,magnitude_linear,magnitude_db"
    assert len(lines) == 1 + 36
    az, mag, db = lines[1 + 6].split(",")  # row at 60 deg
    assert float(az) == 60.0
    assert float(mag) == pytest.approx(1.0)
    assert float(db) == pytest.approx(0.0, abs=1e-9)
    doc = pattern_doc(pat, {"config_hash": "abc123"})
    assert doc["metadata"]["config_hash"] == "abc123"
    assert doc["azimuth_deg"][6] == 60.0


def test_pattern_validation():
    with pytest.raises(ValueError):
        HarmonicPattern(1, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        HarmonicPattern(1, np.array([0.0, 361.0]), np.array([1.0, 1.0]))
