import numpy as np
import pytest

from risbeam.circuit import ReflectionPair
from risbeam.farfield import element_delay
from risbeam.modulation import ModulationWaveform
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
    assert [c[0] for c in s.channels] == [0, 270, 180, 90]
    assert [c[1] for c in s.channels] == [180, 90, 0, 270]


def test_first_catalog_profile_rise_ticks():
    s = build_switch_schedule([0, 244, 129, 13], F0, 360)
    assert [c[0] for c in s.channels] == [0, 244, 129, 13]


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
    s = SwitchSchedule(F0, 360, ((0, 180),))
    bad = SwitchSchedule(F0, 360, ((0, 170),))
    schedule_roundtrip_phases(s)
    with pytest.raises(ScheduleStructureError):
        schedule_roundtrip_phases(bad)


def test_schedule_reproduces_waveform_states():
    rng = np.random.default_rng(33)
    psi = [0.0, 270.0, 180.0, 90.0]
    s = build_switch_schedule(psi, F0, 360)
    t = rng.uniform(0, 3.0 / F0, size=2000)
    for ch, phase in enumerate(psi):
        # the schedule delays channel p by +psi; the far field models element_delay(psi)
        w = ModulationWaveform(PAIR, f0=F0, tau=element_delay(-phase, F0))
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


def test_tick_timing_at_reference_frequency():
    s = build_switch_schedule([0.0], 313.0, 360)
    assert s.tick_duration == pytest.approx(1.0 / (313.0 * 360.0), rel=1e-15)
    assert s.period == pytest.approx(1.0 / 313.0, rel=1e-15)


def test_tick_table_duty_and_shape():
    s = build_switch_schedule([0, 270, 180, 90], F0, 360)
    table = [[int(v) for v in row.split()] for row in tick_table_text(s).splitlines()]
    assert len(table) == 360 and all(len(row) == 4 for row in table)
    assert [sum(col) for col in zip(*table)] == [180] * 4
    assert table[0][0] == 1 and table[180][0] == 0
    assert table[270][1] == 1 and table[89][1] == 1 and table[90][1] == 0


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
    assert doc["channels"][1] == {"rise_tick": 244, "fall_tick": 64}
