"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import cmath
import math
import time

import numpy as np
import pytest

from risbeam.circuit import ReflectionPair, modulation_metrics, reflection_coefficient
from risbeam.compare import dominance_match
from risbeam.farfield import (
    ArrayGeometry,
    ElementPatternModel,
    dominance_direction,
    harmonic_field,
    pattern_sweep,
)
from risbeam.modulation import ModulationWaveform, fourier_coefficient
from risbeam.steering import (
    SteeringRequest,
    optimize_profile_search,
    progressive_phase_profile,
    steering_catalog,
)
from waveform_oracle import DelayedWaveform, sample_gamma

F0 = 313.0
T0 = 1.0 / F0
GEO = ArrayGeometry.half_wavelength_linear(4, f_c=2.45e9)
ISO = ElementPatternModel.isotropic()
IDEAL = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=F0)

Z_ANTENNA = 46.85 - 0.8j
Z_LOAD_ON = 2.99 + 4.02j
Z_LOAD_OFF = 96.27 - 508.72j


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_golden_profile_reproduction():
    start = time.perf_counter()
    exact = 0
    for case in steering_catalog():
        req = SteeringRequest(float(case.desired_plus[0]), 1, GEO, resolution_deg=1.0)
        got = progressive_phase_profile(req).phases_deg
        want = tuple(float(p) for p in case.psi_deg)
        assert got == want, f"target {case.desired_plus[0]}: {got} != {want}"
        exact += len(want)
    elapsed = time.perf_counter() - start
    assert exact == 36
    assert elapsed < 1.0
    _report(1, f"36/36 phase entries exact in {elapsed * 1e3:.1f} ms")


def test_criterion_2_reference_beam_patterns():
    anchor = [0, 270, 180, 90]
    plus = dominance_direction(pattern_sweep(GEO, ISO, anchor, IDEAL, 1, 1.0))
    minus = dominance_direction(pattern_sweep(GEO, ISO, anchor, IDEAL, -1, 1.0))
    assert plus == [60.0, 300.0]
    assert minus == [120.0, 240.0]
    in_phase = [0, 0, 0, 0]
    for m in (1, -1):
        assert dominance_direction(pattern_sweep(GEO, ISO, in_phase, IDEAL, m, 1.0)) == [
            90.0, 270.0,
        ]
    _report(2, "profile [0,270,180,90]: +1 -> {60,300}, -1 -> {120,240}; in-phase -> {90,270}")


def _dominance_against_table2(m, measured_of):
    """Rows whose order-m dominance on a 10-degree grid matches one measured
    column of Table 2, and (desired, predicted, measured) of each other row."""
    matches, flagged = [], []
    for case in steering_catalog():
        predicted = dominance_direction(
            pattern_sweep(GEO, ISO, case.psi_deg, IDEAL, m, 10.0)
        )
        measured = [a for pair in measured_of(case) for a in pair]
        if dominance_match(predicted, measured, 10.0):
            matches.append(case.desired_plus)
        else:
            flagged.append((case.desired_plus, tuple(predicted), tuple(measured)))
    return matches, flagged


def test_criterion_3_dominance_agreement_with_measurements():
    matches, flagged = _dominance_against_table2(1, lambda case: case.measured_plus)
    assert len(matches) == 7, f"expected 7 matches, got {len(matches)}"
    assert sorted(f[0] for f in flagged) == [(120, 240), (130, 230)]
    for desired, predicted, measured in flagged:
        # the documented deviation is exactly one 10-degree grid step
        assert all(
            min(abs(p - m) % 360, 360 - abs(p - m) % 360) == 10.0
            for p, m in zip(sorted(predicted), sorted(measured))
        )
    _report(3, f"7/9 dominance matches; flagged 10-degree deviations at {[f[0] for f in flagged]}")


def test_criterion_3_minus_one_column_against_measurements():
    # the -1 column misses where the +1 column does: beams predicted at 120 or
    # 130 degrees were measured one 10-degree step further from broadside
    matches, flagged = _dominance_against_table2(-1, lambda case: case.measured_minus)
    assert len(matches) == 7, f"expected 7 matches, got {len(matches)}"
    assert flagged == [
        ((50, 310), (130.0, 230.0), (140, 220)),
        ((60, 300), (120.0, 240.0), (130, 230)),
    ]
    _report(3, f"-1 column: 7/9 dominance matches; flagged at {[f[0] for f in flagged]}")


def test_criterion_4_closed_form_vs_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ms = [m for m in range(-9, 10) if m != 0]
    worst = 0.0
    for _ in range(200):
        mag_on = rng.uniform(0.05, 1.0)
        mag_off = rng.uniform(0.05, 1.0)
        pair = ReflectionPair(
            mag_on * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            mag_off * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        )
        duty = rng.uniform(0.05, 0.95)
        w = ModulationWaveform(pair, f0=F0, t_pw=duty * T0)
        # the element switched element_delay(psi) late, a random delay in [0, T0)
        psi = rng.uniform(0.0, 360.0)
        delayed = DelayedWaveform.advanced(w, psi)
        numeric = delayed.coefficients_numeric(ms, 1_000_000)
        for m in ms:
            # the delayed closed form, and the library's advance c_m(0) * exp(j m psi)
            advanced = fourier_coefficient(w, m) * cmath.exp(1j * m * math.radians(psi))
            err = max(abs(delayed.coefficient(m) - numeric[m]), abs(advanced - numeric[m]))
            worst = max(worst, err)
            assert err < 1e-6
        # even harmonics vanish at exactly 50% duty
        w_half = ModulationWaveform(pair, f0=F0, t_pw=T0 / 2.0)
        for m in (2, 4, 6, 8, -2, -4, -6, -8):
            assert abs(fourier_coefficient(w_half, m)) < 1e-12
            assert abs(DelayedWaveform(w_half, delayed.tau).coefficient(m)) < 1e-12
        # |c_m| independent of the delay
        for tau in (0.0, 0.25 * T0, 0.6 * T0, 0.99 * T0):
            w_tau = DelayedWaveform(w, tau)
            for m in (1, 3, 9):
                assert abs(abs(w_tau.coefficient(m)) - abs(fourier_coefficient(w, m))) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"200 delayed waveforms x 18 harmonics, worst |closed-quadrature| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_circuit_metrics():
    g_on = reflection_coefficient(Z_LOAD_ON, Z_ANTENNA)
    g_off = reflection_coefficient(Z_LOAD_OFF, Z_ANTENNA)
    assert abs(g_on) == pytest.approx(0.8805, abs=1e-3)
    assert abs(g_off) == pytest.approx(0.9673, abs=1e-3)
    metrics = modulation_metrics(ReflectionPair(g_on, g_off))
    assert metrics.phase_difference_signed_deg == pytest.approx(182.25, abs=0.5)
    assert metrics.phase_separation_deg == pytest.approx(177.75, abs=0.5)
    assert abs(metrics.phase_separation_deg - 180.0) <= 12.0
    _report(
        5,
        f"|G_on|={abs(g_on):.4f}, |G_off|={abs(g_off):.4f}, "
        f"separation={metrics.phase_separation_deg:.2f} deg (within 180+/-12)",
    )


def test_criterion_6_symmetry_suites():
    # Note: the surface-plane mirror maps phi to (360 - phi) mod 360 (the
    # 0/180 plane); see the decisions ledger for the criterion's wording.
    rng = np.random.default_rng(99)
    grid = np.arange(0.0, 360.0, 1.0)
    mirrored = (360.0 - grid) % 360.0
    reflected = (180.0 - grid) % 360.0
    pair = ReflectionPair.from_impedances(Z_ANTENNA, Z_LOAD_ON, Z_LOAD_OFF)
    wave = ModulationWaveform(pair, f0=F0)
    for _ in range(50):
        prof = rng.uniform(0, 360, size=4)
        plus = np.abs(harmonic_field(GEO, ISO, prof, wave, 1, grid))
        minus_ref = np.abs(harmonic_field(GEO, ISO, prof, wave, -1, reflected))
        peak = plus.max()
        assert np.max(np.abs(plus - minus_ref)) <= 1e-9 * peak
        for m in (1, -1):
            a = np.abs(harmonic_field(GEO, ISO, prof, wave, m, grid))
            b = np.abs(harmonic_field(GEO, ISO, prof, wave, m, mirrored))
            assert np.max(np.abs(a - b)) <= 1e-9 * a.max()
    _report(6, "50 random profiles: +/-1 conjugate steering and surface-plane mirror within 1e-9")


def test_criterion_7_optimizer_matches_brute_force():
    start = time.perf_counter()
    # Independent oracle: exhaustive scan of the gauge-reduced 10-degree
    # phase grid using direct 4-term complex summation.
    k_dx = math.pi  # 2*pi/lambda * (lambda/2)
    c1 = 2.0 / math.pi
    levels = np.exp(1j * np.radians(np.arange(36) * 10.0))
    for case in steering_catalog():
        target = float(case.desired_plus[0])
        spatial = np.exp(1j * k_dx * np.arange(4) * math.cos(math.radians(target)))
        total = (
            spatial[0]
            + spatial[1] * levels[:, None, None]
            + spatial[2] * levels[None, :, None]
            + spatial[3] * levels[None, None, :]
        )
        brute = c1 * np.abs(total).max()
        req = SteeringRequest(target, 1, GEO, resolution_deg=10.0)
        result = optimize_profile_search(req, IDEAL, ISO)
        assert result.achieved == pytest.approx(brute, rel=1e-9), f"target {target}"
        # closed-form parity at 1-degree quantization
        req1 = SteeringRequest(target, 1, GEO, resolution_deg=1.0)
        closed = abs(
            harmonic_field(GEO, ISO, progressive_phase_profile(req1), IDEAL, 1, target)
        )
        search = optimize_profile_search(req1, IDEAL, ISO)
        assert search.achieved >= closed * (1.0 - 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(7, f"coordinate ascent = brute-force optimum at all 9 targets, {elapsed:.1f} s")


def test_criterion_8_schedule_round_trip():
    from risbeam.schedule import build_switch_schedule, schedule_roundtrip_phases

    rng = np.random.default_rng(8)
    checked = 0
    for case in steering_catalog():
        sched = build_switch_schedule(case.psi_deg, F0, 360)
        assert schedule_roundtrip_phases(sched) == [float(p) for p in case.psi_deg]
        t = rng.uniform(0, 5.0 * T0, size=10_000)
        for ch, psi in enumerate(case.psi_deg):
            w = DelayedWaveform.advanced(IDEAL, psi)
            pos = (t % T0) * F0 * 360.0
            rise, fall = sched.channels[ch]
            near_edge = np.minimum(
                np.abs(((pos - rise) + 180.0) % 360.0 - 180.0),
                np.abs(((pos - fall) + 180.0) % 360.0 - 180.0),
            ) < 1e-6
            keep = t[~near_edge]
            assert np.array_equal(sample_gamma(sched, keep, IDEAL.pair, ch), w.gamma_at(keep))
            checked += keep.size
    assert checked > 9 * 10_000 * 3  # nearly all samples are non-edge
    _report(8, "9 profiles: tick round trip exact; schedule state == waveform state at random times")


def test_criterion_9_broadside_enhancement():
    quad = abs(harmonic_field(GEO, ISO, [0, 0, 0, 0], IDEAL, 1, 90.0))
    single = abs(
        harmonic_field(ArrayGeometry.half_wavelength_linear(1), ISO, [0], IDEAL, 1, 90.0)
    )
    gain_db = 20.0 * math.log10(quad / single)
    assert gain_db == pytest.approx(12.04, abs=0.01)
    _report(
        9,
        f"in-phase 1x4 over single element = {gain_db:.4f} dB; the ~9 dB measured "
        "figure is a hardware result outside this model's scope",
    )
