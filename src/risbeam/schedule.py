"""Per-element on-off switch schedules realizing a phase profile.

A controller running the baseband at f0 divides each period into ticks;
channel p rises at the tick nearest the delay farfield.element_delay gives
its profile phase psi, i.e. at (-psi mod 360) * ticks / 360, and falls half
a period later (50% duty).  Logic high maps to the pulse reflection state
(pair.gamma_off); swapping that mapping only flips the sign of the state
difference, a global phase with no effect on pattern magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import ReflectionPair

DEFAULT_TICKS_PER_PERIOD = 360
# Logic-high level of the controller outputs; schedule_doc reports it.
AMPLITUDE_V = 3.3


class ScheduleStructureError(ValueError):
    """Malformed channel edge list."""


@dataclass(frozen=True)
class SwitchSchedule:
    """Edge ticks per channel: (rise_tick, fall_tick), each in [0, ticks_per_period),
    the fall half a period after the rise (50% duty)."""

    f0: float
    ticks_per_period: int
    channels: tuple

    def __post_init__(self):
        if not (self.f0 > 0.0 and math.isfinite(self.f0)):
            raise ValueError(f"f0 must be positive and finite, got {self.f0}")
        if self.ticks_per_period < 2 or self.ticks_per_period % 2 != 0:
            raise ValueError(
                f"ticks_per_period must be even and >= 2, got {self.ticks_per_period}"
            )
        if not self.channels:
            raise ValueError("a schedule needs at least one channel")
        n = self.ticks_per_period
        for ch in self.channels:
            if len(ch) != 2 or not 0 <= ch[0] < n or ch[1] != (ch[0] + n // 2) % n:
                raise ScheduleStructureError(
                    f"channel {ch!r} is not a 50% duty (rise, fall) tick pair in [0, {n})"
                )
        object.__setattr__(self, "channels", tuple((int(r), int(f)) for r, f in self.channels))

    @property
    def period(self) -> float:
        return 1.0 / self.f0


def build_switch_schedule(
    profile,
    f0: float,
    ticks_per_period: int = DEFAULT_TICKS_PER_PERIOD,
) -> SwitchSchedule:
    """Map profile phases to rise/fall ticks (rise = round-half-up of -psi mod 360)."""
    if ticks_per_period < 2 or ticks_per_period % 2 != 0:
        raise ValueError(f"ticks_per_period must be even and >= 2, got {ticks_per_period}")
    half = ticks_per_period // 2
    channels = []
    for psi in profile:
        rise = math.floor(((-float(psi)) % 360.0) * ticks_per_period / 360.0 + 0.5)
        rise %= ticks_per_period
        channels.append((rise, (rise + half) % ticks_per_period))
    return SwitchSchedule(f0=f0, ticks_per_period=ticks_per_period, channels=tuple(channels))


def schedule_roundtrip_phases(s: SwitchSchedule) -> list[float]:
    """Recover per-channel phases; error bounded by half a tick in degrees."""
    n = s.ticks_per_period
    return [(-rise) % n * 360.0 / n for rise, _fall in s.channels]


def sample_levels(s: SwitchSchedule, t):
    """Logic level (0/1) of every channel at time(s) t."""
    import numpy as np

    pos = (np.asarray(t, dtype=float) % s.period) * s.f0 * s.ticks_per_period
    half = s.ticks_per_period / 2.0
    out = []
    for rise, _fall in s.channels:
        rel = (pos - rise) % s.ticks_per_period
        level = (rel < half).astype(int)
        out.append(int(level) if np.ndim(t) == 0 else level)
    return out


def sample_gamma(s: SwitchSchedule, t, pair: ReflectionPair, channel: int = 0):
    """Reflection state driven by one channel: high -> pulse state (gamma_off)."""
    import numpy as np

    level = sample_levels(s, t)[channel]
    return np.where(np.asarray(level, dtype=bool), pair.gamma_off, pair.gamma_on)


def tick_table_text(s: SwitchSchedule) -> str:
    """Flat firmware-ingestion format: one row per tick, one 0/1 per channel.

    A channel is high for the half period starting at its rise tick.
    """
    n, half = s.ticks_per_period, s.ticks_per_period // 2
    rows = (
        " ".join("1" if (tick - rise) % n < half else "0" for rise, _fall in s.channels)
        for tick in range(n)
    )
    return "\n".join(rows) + "\n"


def schedule_doc(s: SwitchSchedule) -> dict:
    """Structured-document export of the schedule."""
    return {
        "f0_hz": s.f0,
        "ticks_per_period": s.ticks_per_period,
        "amplitude_v": AMPLITUDE_V,
        "channels": [{"rise_tick": r, "fall_tick": f} for r, f in s.channels],
    }
