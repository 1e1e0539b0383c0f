"""Harmonic beam steering toolkit for time-modulated reconfigurable surfaces.

Models the two-state load modulation of backscatter elements, the harmonic
content of the switched reflection, the far-field harmonic patterns of an
element grid, baseband phase-profile synthesis, controller switch schedules,
and comparison against measured angle sweeps.

Submodules and the names below load on first access (PEP 562), so
`import risbeam` imports none of them and no numpy.
"""

__version__ = "0.1.0"

# Submodule -> the public names the package re-exports from it.
_EXPORTS = {
    "circuit": (
        "ImpedancePoint",
        "ImpedanceTable",
        "ModulationMetrics",
        "ReflectionPair",
        "load_impedance_table",
        "modulation_metrics",
        "parse_impedance_table",
        "reflection_coefficient",
    ),
    "compare": (
        "MeasuredSweep",
        "compare_sweep",
        "load_measured_sweep",
        "parse_measured_sweep",
        "synthesize_measured_sweep",
    ),
    "farfield": (
        "ArrayGeometry",
        "ElementPatternModel",
        "HarmonicPattern",
        "default_q_exponent",
        "dominance_direction",
        "element_delay",
        "harmonic_field",
        "pattern_csv",
        "pattern_doc",
        "pattern_sweep",
    ),
    "modulation": (
        "ModulationWaveform",
        "fourier_coefficient",
        "fourier_coefficients_numeric",
    ),
    "schedule": (
        "SwitchSchedule",
        "build_switch_schedule",
        "sample_gamma",
        "sample_levels",
        "schedule_doc",
        "schedule_roundtrip_phases",
        "tick_table_text",
    ),
    "steering": (
        "PhaseProfile",
        "SteeringRequest",
        "optimize_profile_search",
        "profile_doc",
        "progressive_phase_profile",
        "quantize_profile",
        "steering_catalog",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
