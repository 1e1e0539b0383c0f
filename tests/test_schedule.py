import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risbeam.circuit import ReflectionPair
from risbeam.farfield import (
    ArrayGeometry,
    ElementPatternModel,
    HarmonicPattern,
    dominance_direction,
    element_delay,
    pattern_sweep,
)
from risbeam.modulation import ModulationWaveform, fourier_coefficient
from risbeam.schedule import (
    ScheduleStructureError,
    SwitchSchedule,
    build_switch_schedule,
    sample_gamma,
    sample_levels,
    schedule_doc,
    schedule_roundtrip_phases,
    tick_table_text,
)

F0 = 313.0
PAIR = ReflectionPair(1.0, -1.0)


def test_in_phase_schedule():
    s = build_switch_schedule([0, 0, 0, 0], F0, 360)
    assert s.channels == ((0, 180),) * 4


def test_anchor_profile_schedule():
    s = build_switch_schedule([0, 270, 180, 90], F0, 360)
    assert [c[0] for c in s.channels] == [0, 90, 180, 270]
    assert [c[1] for c in s.channels] == [180, 270, 0, 90]


def test_first_catalog_profile_rise_ticks():
    s = build_switch_schedule([0, 244, 129, 13], F0, 360)
    assert [c[0] for c in s.channels] == [0, 116, 231, 347]


def test_odd_ticks_rejected():
    with pytest.raises(ValueError):
        build_switch_schedule([0.0], F0, 361)


def test_empty_profile_rejected():
    with pytest.raises(ValueError, match="at least one channel"):
        build_switch_schedule([], F0, 360)


def test_roundtrip_exact_at_aligned_resolution():
    s = build_switch_schedule([0, 270, 180, 90], F0, 360)
    assert schedule_roundtrip_phases(s) == [0.0, 270.0, 180.0, 90.0]


def test_roundtrip_quantization_bound_at_coarse_ticks():
    s = build_switch_schedule([13.0], F0, 100)
    # round(13/3.6) = 4 ticks -> 14.4 degrees, error 1.4 <= 1.8
    (recovered,) = schedule_roundtrip_phases(s)
    assert recovered == pytest.approx(14.4)
    assert abs(recovered - 13.0) <= 180.0 / 100


def test_roundtrip_bound_random_profiles():
    rng = np.random.default_rng(31)
    for ticks in (100, 360, 720):
        bound = 180.0 / ticks
        for _ in range(20):
            phases = rng.uniform(0, 360, size=4)
            s = build_switch_schedule(phases, F0, ticks)
            for got, want in zip(schedule_roundtrip_phases(s), phases):
                d = abs(got - want) % 360.0
                assert min(d, 360.0 - d) <= bound + 1e-9


def test_malformed_channel_rejected():
    assert schedule_roundtrip_phases(SwitchSchedule(F0, 360, ((0, 180),))) == [0.0]
    for bad in ((0, 170), (0, 180, 90), (360, 180), (-1, 179)):
        with pytest.raises(ScheduleStructureError):
            SwitchSchedule(F0, 360, (bad,))


def test_schedule_reproduces_waveform_states():
    rng = np.random.default_rng(33)
    psi = [0.0, 270.0, 180.0, 90.0]
    s = build_switch_schedule(psi, F0, 360)
    t = rng.uniform(0, 3.0 / F0, size=2000)
    for ch, phase in enumerate(psi):
        w = ModulationWaveform(PAIR, f0=F0, tau=element_delay(phase, F0))
        # skip samples too close to a switch edge
        pos = (t % w.period) * F0 * 360.0
        near_edge = np.minimum(
            np.abs(((pos - s.channels[ch][0]) + 180) % 360 - 180),
            np.abs(((pos - s.channels[ch][1]) + 180) % 360 - 180),
        ) < 1e-6
        keep = ~near_edge
        got = sample_gamma(s, t[keep], PAIR, channel=ch)
        want = w.gamma_at(t[keep])
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    ticks=st.sampled_from([36, 360]),
    steps=st.lists(st.integers(0, 359), min_size=1, max_size=8),
    m=st.sampled_from([1, -1, 2, -2, 3, -3]),
)
@example(ticks=360, steps=[0, 270, 180, 90], m=1)
def test_sampled_schedule_drives_the_modelled_harmonics(ticks, steps, m):
    # a tick-aligned profile: channel p switches exactly like element_delay(psi_p)
    psi = [k % ticks * 360.0 / ticks for k in steps]
    s = build_switch_schedule(psi, F0, ticks)
    # 3600 midpoint samples per period; every switch edge lies between two samples,
    # so the only quadrature error is a common sinc(pi m / 3600) factor
    n = 3600
    t = (np.arange(n) + 0.5) / (n * F0)
    kernel = np.exp(-2j * np.pi * m * F0 * t)
    sampled = [complex(np.mean(sample_gamma(s, t, PAIR, ch) * kernel)) for ch in range(len(psi))]
    model = [
        fourier_coefficient(ModulationWaveform(PAIR, f0=F0, tau=element_delay(p, F0)), m)
        for p in psi
    ]
    assert np.max(np.abs(np.subtract(sampled, model))) <= 1e-6
    if m % 2 == 0:
        return  # even harmonics of a 50% duty waveform vanish: no dominance to compare
    geo = ArrayGeometry.half_wavelength_linear(len(psi))
    grid = np.arange(360.0)
    path = np.exp(
        1j * 2.0 * np.pi / geo.lambda_c * geo.dx
        * np.arange(len(psi))[:, None] * np.cos(np.radians(grid))[None, :]
    )
    driven = HarmonicPattern(m, grid, np.abs((np.array(sampled)[:, None] * path).sum(axis=0)))
    iso = ElementPatternModel.isotropic()
    modelled = pattern_sweep(geo, iso, psi, ModulationWaveform(PAIR, f0=F0), m, 1.0)
    assert dominance_direction(driven) == dominance_direction(modelled)


def test_tick_timing_at_reference_frequency():
    s = build_switch_schedule([0.0], 313.0, 360)
    assert s.period == pytest.approx(1.0 / 313.0, rel=1e-15)


def test_tick_table_duty_and_shape():
    s = build_switch_schedule([0, 270, 180, 90], F0, 360)
    table = [[int(v) for v in row.split()] for row in tick_table_text(s).splitlines()]
    assert len(table) == 360 and all(len(row) == 4 for row in table)
    assert [sum(col) for col in zip(*table)] == [180] * 4
    assert table[0][0] == 1 and table[180][0] == 0
    assert table[90][1] == 1 and table[269][1] == 1 and table[270][1] == 0
    assert table[89][1] == 0


def test_tick_table_rows_are_levels_at_tick_centres():
    rng = np.random.default_rng(37)
    for ticks in (2, 36, 100, 360):
        s = build_switch_schedule(rng.uniform(0, 360, size=5), F0, ticks)
        rows = [[int(v) for v in row.split()] for row in tick_table_text(s).splitlines()]
        centres = (np.arange(ticks) + 0.5) / (F0 * ticks)
        assert rows == np.array(sample_levels(s, centres)).T.tolist()


def test_sample_levels_scalar():
    s = build_switch_schedule([0.0, 180.0], F0, 360)
    levels = sample_levels(s, 0.1 / F0)
    assert levels == [1, 0]


def test_schedule_doc_fields():
    s = build_switch_schedule([0, 244, 129, 13], F0, 360)
    doc = schedule_doc(s)
    assert doc["f0_hz"] == F0
    assert doc["ticks_per_period"] == 360
    assert doc["channels"][1] == {"rise_tick": 116, "fall_tick": 296}
