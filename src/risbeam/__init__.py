"""Harmonic beam steering toolkit for time-modulated reconfigurable surfaces.

Models the two-state load modulation of backscatter elements, the harmonic
content of the switched reflection, the far-field harmonic patterns of an
element grid, baseband phase-profile synthesis, controller switch schedules,
and comparison against measured angle sweeps.
"""

from .circuit import (
    ImpedancePoint,
    ImpedanceTable,
    ModulationMetrics,
    ReflectionPair,
    load_impedance_table,
    modulation_metrics,
    parse_impedance_table,
    reflection_coefficient,
)
from .compare import (
    MeasuredSweep,
    compare_sweep,
    load_measured_sweep,
    parse_measured_sweep,
    synthesize_measured_sweep,
)
from .farfield import (
    ArrayGeometry,
    ElementPatternModel,
    HarmonicPattern,
    default_q_exponent,
    dominance_direction,
    element_delay,
    harmonic_field,
    pattern_csv,
    pattern_doc,
    pattern_sweep,
)
from .modulation import (
    ModulationWaveform,
    delay_from_phase,
    fourier_coefficient,
    fourier_coefficients_numeric,
    phase_from_delay,
    reconstruct_gamma,
)
from .schedule import (
    SwitchSchedule,
    build_switch_schedule,
    sample_gamma,
    sample_levels,
    schedule_doc,
    schedule_roundtrip_phases,
    tick_table,
    tick_table_text,
)
from .steering import (
    PhaseProfile,
    SteeringRequest,
    optimize_profile_search,
    profile_doc,
    progressive_phase_profile,
    quantize_profile,
    steering_catalog,
)

__version__ = "0.1.0"
