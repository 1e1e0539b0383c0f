import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from risbeam.circuit import ReflectionPair
from risbeam.farfield import ArrayGeometry, ElementPatternModel, harmonic_field
from risbeam.modulation import ModulationWaveform, fourier_coefficient
from risbeam.steering import (
    PhaseProfile,
    SectorWarning,
    SteeringRequest,
    optimize_profile_search,
    profile_doc,
    progressive_phase_profile,
    quantize_profile,
    steering_catalog,
)

GEO = ArrayGeometry.half_wavelength_linear(4)
ISO = ElementPatternModel.isotropic()
COS = ElementPatternModel()
IDEAL = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=313.0)
REALISTIC = ModulationWaveform(
    ReflectionPair.from_impedances(46.85 - 0.8j, 2.99 + 4.02j, 96.27 - 508.72j), f0=313.0
)


def test_golden_profiles_reproduced_exactly():
    for case in steering_catalog():
        req = SteeringRequest(float(case.desired_plus[0]), 1, GEO)
        assert progressive_phase_profile(req).phases_deg == tuple(
            float(p) for p in case.psi_deg
        )


def test_spot_profiles():
    assert progressive_phase_profile(SteeringRequest(60.0, 1, GEO)).phases_deg == (
        0.0, 270.0, 180.0, 90.0,
    )
    assert progressive_phase_profile(SteeringRequest(90.0, 1, GEO)).phases_deg == (
        0.0, 0.0, 0.0, 0.0,
    )
    assert progressive_phase_profile(SteeringRequest(90.0, -1, GEO)).phases_deg == (
        0.0, 0.0, 0.0, 0.0,
    )
    assert progressive_phase_profile(SteeringRequest(110.0, 1, GEO)).phases_deg == (
        0.0, 62.0, 123.0, 185.0,
    )


def test_mirror_rule_plus_minus_harmonics():
    for az in np.arange(50.0, 130.0 + 0.5, 1.0):
        plus = progressive_phase_profile(SteeringRequest(float(az), 1, GEO))
        minus = progressive_phase_profile(SteeringRequest(180.0 - float(az), -1, GEO))
        assert plus.phases_deg == minus.phases_deg


def test_carrier_harmonic_not_steerable():
    with pytest.raises(ValueError):
        progressive_phase_profile(SteeringRequest(60.0, 0, GEO))


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_request_rejects_non_finite_target(target):
    with pytest.raises(ValueError, match="desired_azimuth_deg"):
        SteeringRequest(target, 1, GEO)


def test_out_of_sector_target_warns_not_errors():
    with pytest.warns(SectorWarning):
        prof = progressive_phase_profile(SteeringRequest(20.0, 1, GEO))
    assert len(prof) == 4


def test_quantize_examples():
    assert quantize_profile([0, 244.30, 128.60, 12.90], 1.0).phases_deg == (
        0.0, 244.0, 129.0, 13.0,
    )
    assert quantize_profile([0, 359.7], 1.0).phases_deg == (0.0, 0.0)
    # exact halves round up
    assert quantize_profile([0, 62.5], 1.0).phases_deg == (0.0, 63.0)
    assert quantize_profile([0, 297.49], 1.0).phases_deg == (0.0, 297.0)


def test_quantize_resolution_must_divide_circle():
    with pytest.raises(ValueError):
        quantize_profile([0.0], 7.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        PhaseProfile((0.0, 360.0))
    with pytest.raises(ValueError):
        PhaseProfile((0.0, 12.5), resolution_deg=1.0)
    with pytest.raises(ValueError):
        PhaseProfile(())


def test_search_matches_closed_form_at_anchor():
    req = SteeringRequest(60.0, 1, GEO)
    result = optimize_profile_search(req, IDEAL, ISO)
    assert result.converged
    assert result.achieved == pytest.approx(4.0 * 2.0 / math.pi, abs=1e-6)
    assert result.profile.phases_deg == (0.0, 270.0, 180.0, 90.0)


def test_search_single_element_gauge_is_irrelevant():
    geo1 = ArrayGeometry.half_wavelength_linear(1)
    result = optimize_profile_search(SteeringRequest(75.0, 1, geo1), IDEAL, ISO)
    assert result.achieved == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_search_never_below_closed_form():
    for az in (50.0, 77.0, 102.0, 130.0):
        req = SteeringRequest(az, 1, GEO)
        closed = abs(
            harmonic_field(GEO, ISO, progressive_phase_profile(req), IDEAL, 1, az)
        )
        result = optimize_profile_search(req, IDEAL, ISO)
        assert result.achieved >= closed * (1.0 - 1e-9)


def planar(n_cols, m_rows, dx_wl=0.5):
    lam = GEO.lambda_c
    return ArrayGeometry(n_cols, m_rows, dx=dx_wl * lam, dy=lam / 2.0, lambda_c=lam)


planar_requests = {
    "size": st.tuples(st.integers(1, 4), st.integers(1, 4)),
    "dx_wl": st.sampled_from([0.35, 0.5, 0.685]),
    "resolution": st.sampled_from([30.0, 45.0, 60.0, 90.0]),
    "target": st.floats(50.0, 130.0),
    "m": st.sampled_from([1, -1, 3, -3]),
}


@settings(max_examples=40, deadline=None)
@given(**planar_requests)
def test_planar_closed_form_tiles_the_row_profile(size, dx_wl, resolution, target, m):
    # on the azimuth cut the rows add in phase, so every row takes the 1xN profile
    n_cols, m_rows = size
    req = SteeringRequest(target, m, planar(n_cols, m_rows, dx_wl), resolution)
    row = progressive_phase_profile(replace(req, geometry=planar(n_cols, 1, dx_wl)))
    assert progressive_phase_profile(req).phases_deg == row.phases_deg * m_rows


@settings(max_examples=40, deadline=None)
@given(**planar_requests, model=st.sampled_from([ISO, COS]))
@example(size=(4, 4), dx_wl=0.5, resolution=10.0, target=70.0, m=1, model=COS)
def test_planar_search_never_below_tiled_closed_form(size, dx_wl, resolution, target, m, model):
    n_cols, m_rows = size
    geo = planar(n_cols, m_rows, dx_wl)
    req = SteeringRequest(target, m, geo, resolution)
    row = progressive_phase_profile(replace(req, geometry=planar(n_cols, 1, dx_wl)))
    closed = abs(harmonic_field(geo, model, row.phases_deg * m_rows, REALISTIC, m, target))
    result = optimize_profile_search(req, REALISTIC, model)
    assert result.achieved >= closed * (1.0 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    size=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    dx_wl=st.sampled_from([0.35, 0.5, 0.685]),
    resolution=st.sampled_from([1.0, 5.0, 10.0, 15.0, 30.0, 45.0, 60.0]),
    target=st.floats(50.0, 130.0),
    m=st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 5, -5]),
    duty=st.sampled_from([0.5, 0.3]),
    model=st.sampled_from([ISO, COS]),
)
@example(size=(4, 1), dx_wl=0.5, resolution=1.0, target=70.0, m=3, duty=0.5, model=ISO)
def test_closed_form_steers_every_order(size, dx_wl, resolution, target, m, duty, model):
    # m * psi_p cancels the path phase up to |m| * resolution / 2 per element, so
    # the unit phasors sum to at least element_count * cos(|m| * resolution / 2)
    assume(abs(m) * resolution / 2.0 < 90.0 and (m % 2 or duty != 0.5))
    geo = planar(*size, dx_wl)
    waveform = ModulationWaveform(REALISTIC.pair, f0=313.0, t_pw=duty / 313.0)
    profile = progressive_phase_profile(SteeringRequest(target, m, geo, resolution))
    c_m = abs(fourier_coefficient(waveform, m))
    bound = geo.element_count * c_m * model.eval(target)
    achieved = abs(harmonic_field(geo, model, profile, waveform, m, target))
    assert achieved >= bound * (math.cos(math.radians(abs(m) * resolution / 2.0)) - 1e-9)


def test_search_refuses_a_harmonic_with_no_power():
    with pytest.raises(ValueError, match="harmonic 2 carries no power"):
        optimize_profile_search(SteeringRequest(70.0, 2, GEO, 10.0), IDEAL, ISO)
    thirty = ModulationWaveform(IDEAL.pair, f0=313.0, t_pw=0.3 / 313.0)
    assert optimize_profile_search(SteeringRequest(70.0, 2, GEO, 10.0), thirty, ISO).achieved > 0


def test_back_lobe_target_matches_front_mirror():
    # |F| is symmetric across the surface plane, so a 240-deg target is the
    # same optimization problem as its front mirror at 300... i.e. -60.
    back = optimize_profile_search(SteeringRequest(240.0, 1, GEO, 10.0), IDEAL, ISO)
    front = optimize_profile_search(SteeringRequest(120.0, 1, GEO, 10.0), IDEAL, ISO)
    assert back.achieved == pytest.approx(front.achieved, rel=1e-9)
    assert back.profile.phases_deg == front.profile.phases_deg


def test_catalog_shape():
    catalog = steering_catalog()
    assert len(catalog) == 9
    assert catalog[4].psi_deg == (0, 0, 0, 0)
    assert catalog[0].measured_minus == ((140, 220),)
    assert catalog[6].measured_plus == ((110, 250), (120, 240))
    for case in catalog:
        assert len(case.psi_deg) == 4


def test_profile_doc_fields():
    prof = PhaseProfile((0.0, 270.0, 180.0, 90.0))
    doc = profile_doc(prof, harmonic=1, desired_azimuth_deg=60.0)
    assert doc["elements"] == 4
    assert doc["phases_deg"] == [0.0, 270.0, 180.0, 90.0]
    assert doc["harmonic"] == 1
    assert doc["convention_tag"] == "harmonic-coefficient-advance"
