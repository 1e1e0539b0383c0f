"""Baseband phase-profile synthesis for steering harmonic beams.

Two solvers target the same objective (maximum |F_m| toward a desired
azimuth): a closed-form progressive-phase rule, tiled over the rows of a
planar grid, and a quantized cyclic coordinate-ascent search started from it.

Sign convention (CONVENTION_TAG): a profile phase psi_p advances the
element's m-th harmonic coefficient by +m*psi_p; see farfield.element_delay.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .circuit import ROUNDING_REL, _pair_scale
from .farfield import (
    ArrayGeometry, ElementPatternModel,
    _array_sum, _element_coefficients, _field_terms, _same_angle, steps_per_turn,
)
from .modulation import ModulationWaveform, fourier_coefficient

CONVENTION_TAG = "harmonic-coefficient-advance"

# Azimuth sectors covered by the single-element beamwidth (front and its
# back-side mirror); targets outside them only draw a warning.
FRONT_SECTOR = (50.0, 130.0)
BACK_SECTOR = (230.0, 310.0)

# The most passes one coordinate-ascent search makes before it returns its best
# profile so far, flagged non-converged.
MAX_PASSES = 64


class SectorWarning(UserWarning):
    """Steering target lies outside the element-beamwidth sectors."""


@dataclass(frozen=True)
class PhaseProfile:
    """Per-element baseband phases, quantized to resolution_deg."""

    phases_deg: tuple
    resolution_deg: float = 1.0

    def __post_init__(self):
        steps_per_turn(self.resolution_deg, "resolution")
        phases = tuple(float(p) for p in self.phases_deg)
        if not phases:
            raise ValueError("profile must contain at least one phase")
        for p in phases:
            if not (0.0 <= p < 360.0):
                raise ValueError(f"phase {p} outside [0, 360)")
            if not _same_angle(p, round(p / self.resolution_deg) * self.resolution_deg):
                raise ValueError(
                    f"phase {p} is not a multiple of resolution {self.resolution_deg}"
                )
        object.__setattr__(self, "phases_deg", phases)

    def __len__(self):
        return len(self.phases_deg)

    def __iter__(self):
        return iter(self.phases_deg)


def quantize_profile(raw_phases, resolution_deg: float = 1.0) -> PhaseProfile:
    """Reduce mod 360 and round to the nearest resolution multiple (half up)."""
    steps_per_turn(resolution_deg, "resolution")
    out = []
    for raw in raw_phases:
        r = float(raw) % 360.0
        k = math.floor(r / resolution_deg + 0.5)
        out.append((k * resolution_deg) % 360.0)
    return PhaseProfile(tuple(out), resolution_deg)


@dataclass(frozen=True)
class SteeringRequest:
    desired_azimuth_deg: float
    harmonic: int
    geometry: ArrayGeometry
    resolution_deg: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.desired_azimuth_deg):
            raise ValueError(f"desired_azimuth_deg must be finite, got {self.desired_azimuth_deg}")


def _warn_if_outside_sector(azimuth_deg: float):
    az = azimuth_deg % 360.0
    if not (FRONT_SECTOR[0] <= az <= FRONT_SECTOR[1] or BACK_SECTOR[0] <= az <= BACK_SECTOR[1]):
        warnings.warn(
            f"target {azimuth_deg} deg lies outside the element-beamwidth sectors "
            f"{FRONT_SECTOR} / {BACK_SECTOR}; steering quality degrades there",
            SectorWarning,
            stacklevel=3,
        )


def progressive_phase_profile(req: SteeringRequest) -> PhaseProfile:
    """Closed-form profile steering the m-th harmonic.

    psi_p = -360 * (dx / lambda_c) * (p - 1) * cos(phi_target) / m, since the
    m-th coefficient advances by m * psi_p; reduced mod 360 and quantized
    half-up to the requested resolution.  On the azimuth cut the rows add in
    phase, so an MxN grid repeats the row profile once per row (x-fastest).
    """
    if req.harmonic == 0:
        raise ValueError("the carrier beam (m = 0) is not steerable by delay")
    _warn_if_outside_sector(req.desired_azimuth_deg)
    slope = -360.0 * (req.geometry.dx / req.geometry.lambda_c) * math.cos(
        math.radians(req.desired_azimuth_deg)
    ) / req.harmonic
    raw = [(slope * p) % 360.0 for p in range(req.geometry.n_cols)]
    return quantize_profile(raw * req.geometry.m_rows, req.resolution_deg)


def require_power(waveform: ModulationWaveform, m: int):
    """Refuse an order whose |c_m| is at most ROUNDING_REL * _pair_scale(pair),
    rounding noise by the zero-pattern rule (an even order at exactly 50% duty)."""
    if abs(fourier_coefficient(waveform, m)) <= ROUNDING_REL * _pair_scale(waveform.pair):
        raise ValueError(f"harmonic {m} carries no power at duty {waveform.duty:.12g}")


@dataclass(frozen=True)
class OptimizationResult:
    profile: PhaseProfile
    achieved: float
    passes: int
    converged: bool


def optimize_profile_search(
    req: SteeringRequest,
    waveform_template: ModulationWaveform,
    element_model: ElementPatternModel,
) -> OptimizationResult:
    """Cyclic coordinate ascent over quantized per-element phases.

    The search starts from the progressive-phase profile, so its objective
    can only match or exceed the closed form.  Element 0 keeps that start's
    0 deg, which removes the global-phase gauge.  A move must gain more than
    ROUNDING_REL relative, so the field's summation order cannot pick the
    result.  Stops after a full pass without improvement, or returns the
    best-so-far flagged non-converged after MAX_PASSES.

    c_m(0), z and the element gain at the target, and the coefficient
    c_m(0) * exp(j m psi) of every level, are computed once per request by the
    helpers harmonic_field uses; a candidate then costs its column sums, the
    shared Horner sum, one gain multiply and abs.  So every objective value is
    abs(harmonic_field(...)) of its profile, to the last bit.
    """
    require_power(waveform_template, req.harmonic)
    phases = list(progressive_phase_profile(req))
    geometry, m = req.geometry, req.harmonic
    c0, z, gain = _field_terms(
        geometry, element_model, waveform_template, m, req.desired_azimuth_deg
    )
    levels = [i * req.resolution_deg for i in range(steps_per_turn(req.resolution_deg))]
    level_coeffs = list(_element_coefficients(c0, m, levels))
    coeffs = _element_coefficients(c0, m, phases)

    def objective():
        return abs(complex(gain * _array_sum(coeffs, geometry, z)))

    best = objective()
    converged = False
    passes = 0
    while passes < MAX_PASSES:
        passes += 1
        improved = False
        for i in range(1, len(phases)):
            current, current_coeff = phases[i], coeffs[i]
            for cand, cand_coeff in zip(levels, level_coeffs):
                if cand == current:
                    continue
                coeffs[i] = cand_coeff
                val = objective()
                if val > best * (1.0 + ROUNDING_REL):
                    best = val
                    current, current_coeff = cand, cand_coeff
                    improved = True
            phases[i], coeffs[i] = current, current_coeff
        if not improved:
            converged = True
            break
    return OptimizationResult(
        profile=PhaseProfile(tuple(phases), req.resolution_deg),
        achieved=best,
        passes=passes,
        converged=converged,
    )


@dataclass(frozen=True)
class SteeringCase:
    """Golden row: desired +1st-harmonic pair, profile, measured dominance."""

    desired_plus: tuple
    psi_deg: tuple
    measured_plus: tuple
    measured_minus: tuple


def steering_catalog() -> tuple:
    """The nine measured beam-steering cases of the 1x4 device.

    measured_* hold the dominance direction pairs observed per harmonic;
    entries with two pairs were measured ties.
    """
    return (
        SteeringCase((50, 310), (0, 244, 129, 13), ((50, 310),), ((140, 220),)),
        SteeringCase((60, 300), (0, 270, 180, 90), ((60, 300),), ((130, 230),)),
        SteeringCase((70, 290), (0, 298, 237, 175), ((70, 290),), ((110, 250), (120, 240))),
        SteeringCase((80, 280), (0, 329, 297, 266), ((80, 280),), ((100, 260),)),
        SteeringCase((90, 270), (0, 0, 0, 0), ((90, 270),), ((90, 270),)),
        SteeringCase((100, 260), (0, 31, 63, 94), ((100, 260),), ((80, 280),)),
        SteeringCase((110, 250), (0, 62, 123, 185), ((110, 250), (120, 240)), ((70, 290),)),
        SteeringCase((120, 240), (0, 90, 180, 270), ((130, 230),), ((60, 300),)),
        SteeringCase((130, 230), (0, 116, 231, 347), ((140, 220),), ((50, 310),)),
    )


def profile_doc(
    profile: PhaseProfile,
    harmonic: int | None = None,
    desired_azimuth_deg: float | None = None,
) -> dict:
    """Structured-document serialization of a phase profile."""
    return {
        "elements": len(profile),
        "resolution_deg": profile.resolution_deg,
        "phases_deg": list(profile.phases_deg),
        "harmonic": harmonic,
        "desired_azimuth_deg": desired_azimuth_deg,
        "convention_tag": CONVENTION_TAG,
    }
