import math

import numpy as np
import pytest

from risbeam.circuit import ReflectionPair
from risbeam.farfield import ArrayGeometry, ElementPatternModel
from risbeam.modulation import ModulationWaveform
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
IDEAL = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=313.0)


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


def test_planar_geometry_rejected_by_closed_form():
    planar = ArrayGeometry(n_cols=2, m_rows=2, dx=0.06, dy=0.06, lambda_c=0.12)
    with pytest.raises(ValueError):
        progressive_phase_profile(SteeringRequest(60.0, 1, planar))


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
    from risbeam.farfield import harmonic_field

    for az in (50.0, 77.0, 102.0, 130.0):
        req = SteeringRequest(az, 1, GEO)
        closed = abs(
            harmonic_field(GEO, ISO, progressive_phase_profile(req), IDEAL, 1, az)
        )
        result = optimize_profile_search(req, IDEAL, ISO)
        assert result.achieved >= closed * (1.0 - 1e-9)


def test_search_gauge_invariance():
    req = SteeringRequest(70.0, 1, GEO, resolution_deg=10.0)
    a = optimize_profile_search(req, IDEAL, ISO, pinned_index=0)
    b = optimize_profile_search(req, IDEAL, ISO, pinned_index=2)
    assert a.achieved == pytest.approx(b.achieved, rel=1e-9)


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
    assert doc["convention_tag"]
