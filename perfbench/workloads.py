"""Seeded workloads of the risbeam benchmark: inputs, ops and output checks.

Each workload exposes the same four pieces:

- ``setup(seed, work_dir, smoke)`` imports the library, builds the seeded
  inputs and warms up; it returns a state object (``cli_setup`` also takes
  the checkout root and the child environment);
- ``ops(state)``, an endless iterator of op blocks (lists of op inputs).
  A block holds every op class of the workload in a fixed proportion, in a
  seeded order, and the timed phase only stops at a block boundary, so
  every run sees the same mix;
- ``run_op(state, op)`` makes the library calls of one op and returns what
  they produced; only this call is timed;
- ``check(state, op, out)`` returns None when the output is right, or a
  one-line reason.

Inputs come only from ``random.Random(seed)``.  The library receives the
generated values and nothing else.  This module imports neither numpy nor
risbeam at import time, so that set-up time includes both imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

# Reference operating point of the package (README): 2.45 GHz carrier,
# 313 Hz baseband, antenna 46.85 - j0.8 ohm, loads 2.99 + j4.02 / 96.27 - j508.72.
F_C_HZ = 2.45e9
F0_HZ = 313.0
Z_ANTENNA = complex(46.85, -0.8)
Z_LOAD_ON = complex(2.99, 4.02)
Z_LOAD_OFF = complex(96.27, -508.72)

FRONT_SECTOR = (50.0, 130.0)


def _reference_chain():
    """Import the library and build the reference waveform and element model."""
    from risbeam import circuit, farfield, modulation

    point = circuit.ImpedancePoint(F_C_HZ, Z_ANTENNA, Z_LOAD_ON, Z_LOAD_OFF)
    waveform = modulation.ModulationWaveform(point.reflection_pair(), F0_HZ)
    return waveform, farfield.ElementPatternModel()


def closed_form_start(req, waveform, model, pinned_index: int = 0) -> float:
    """|F| toward the target of the gauge-shifted progressive profile.

    This is the profile optimize_profile_search starts from on a linear
    array, so the search may never score below it.
    """
    from risbeam import farfield, steering

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", steering.SectorWarning)
        start = list(steering.progressive_phase_profile(req).phases_deg)
    offset = start[pinned_index]
    phases = steering.quantize_profile(
        [(p - offset) % 360.0 for p in start], req.resolution_deg
    ).phases_deg
    return abs(
        farfield.harmonic_field(
            req.geometry, model, list(phases), waveform, req.harmonic,
            req.desired_azimuth_deg,
        )
    )


# ---------------------------------------------------------------------------
# steer
#
# Why: one op is a seeded steering request.  The coordinate-ascent search
# makes passes*(N-1)*L single-angle harmonic_field calls and each call
# rebuilds N waveforms and N fourier_coefficients, so nearly all of the time
# is per-call overhead in steering -> farfield -> modulation and almost none
# is wide array maths or text I/O.
#
# Mix: a block is one 1x4 and one 1x8 at 5 deg, two 1x4 at 1 deg and one
# 1x16 at 5 deg, in seeded order; each op has harmonic +1 or -1 and a target
# uniform on the front sector.  The median op is a 1x4 at 1 deg and the
# tail falls among the 1x16 ops that take 2 or 3 passes.
#
# The search runs 1 to 4 passes depending on the target, in no smooth
# relation to it, so op cost is multi-modal.  1x16 at 1 deg (0.7 to 2.9 s
# an op on a 2-core machine) and 1x8 at 1 deg (whose rarer 2-pass ops sit
# right at the tail rank) are left out: with either in the mix, ops_per_s
# or op_tail_ms spread by 10-20% between seeds in 30 s runs.  1x16 at 5 deg
# exercises the same per-call path.
# ---------------------------------------------------------------------------

STEER_CLASSES = ((4, 5.0), (8, 5.0), (4, 1.0), (4, 1.0), (16, 5.0))
STEER_CLASSES_SMOKE = ((4, 5.0), (8, 5.0))


@dataclass
class SteerState:
    rng: random.Random
    classes: tuple
    geometries: dict
    waveform: object
    model: object


def steer_setup(seed: int, work_dir: Path, smoke: bool) -> SteerState:
    from risbeam import farfield

    waveform, model = _reference_chain()
    classes = STEER_CLASSES_SMOKE if smoke else STEER_CLASSES
    rng = random.Random(seed)
    state = SteerState(
        rng=rng,
        classes=classes,
        geometries={
            n: farfield.ArrayGeometry.half_wavelength_linear(n, F_C_HZ)
            for n in sorted({n for n, _ in classes})
        },
        waveform=waveform,
        model=model,
    )
    warm = _steer_request(state, (4, 5.0), random.Random(seed ^ 0x5EED))
    out = steer_run(state, warm)
    if steer_check(state, warm, out) is not None:
        raise RuntimeError("steer warm-up op failed its check")
    return state


def _steer_request(state: SteerState, key, rng: random.Random):
    from risbeam import steering

    n, res = key
    target, m = rng.uniform(*FRONT_SECTOR), rng.choice((1, -1))
    return steering.SteeringRequest(target, m, state.geometries[n], res)


def steer_ops(state: SteerState):
    while True:
        keys = list(state.classes)
        state.rng.shuffle(keys)
        yield [_steer_request(state, key, state.rng) for key in keys]


def steer_run(state: SteerState, req):
    from risbeam import farfield, schedule, steering

    result = steering.optimize_profile_search(req, state.waveform, state.model)
    pattern = farfield.pattern_sweep(
        req.geometry, state.model, result.profile, state.waveform, req.harmonic, 1.0
    )
    sched = schedule.build_switch_schedule(result.profile, state.waveform.f0)
    return result, pattern, schedule.schedule_roundtrip_phases(sched)


def steer_check(state: SteerState, req, out):
    from risbeam import farfield

    result, pattern, roundtrip = out
    start = closed_form_start(req, state.waveform, state.model)
    # 1e-12 leaves room for a search that sums the field in another order
    if not result.achieved >= start * (1.0 - 1e-12):
        return f"search scored {result.achieved!r} below its closed-form start {start!r}"
    fresh = abs(
        farfield.harmonic_field(
            req.geometry, state.model, result.profile, state.waveform, req.harmonic,
            req.desired_azimuth_deg,
        )
    )
    if not math.isclose(fresh, result.achieved, rel_tol=1e-9):
        return f"fresh field {fresh!r} differs from achieved {result.achieved!r}"
    if roundtrip != list(result.profile.phases_deg):
        return "schedule round trip changed the profile"
    if pattern.azimuth_deg.size != 360 or pattern.magnitude.max() != 1.0:
        return "1 deg pattern sweep is not a peak-normalised 360-point grid"
    return None


# ---------------------------------------------------------------------------
# sweep
#
# Why: one op is a seeded analysis of a large array.  It makes only a
# handful of harmonic_field calls, but each covers up to 256 x 3600
# element-angles, and the CSV text runs to about 110 kB, so time goes to
# numpy array work plus formatting and parsing in farfield and compare, the
# opposite balance to steer.  It uses the same harmonic_field with many
# angles per call: a per-call fix or a cached steering matrix should show on
# steer, and any cost it carries (memory, first-call time) should show here.
#
# Mix: a block is two 64-element ops and one 256-element op, so the median
# op is a 64-element one and the tail a 256-element one.  Profiles are
# random 1 deg phases; the pointing shift is a seeded whole number of grid
# steps in [-3, 3], zero included.
# ---------------------------------------------------------------------------

SWEEP_GRID_DEG = 0.1
SWEEP_SIZES = (64, 64, 256)
SWEEP_GRID_DEG_SMOKE = 1.0
SWEEP_SIZES_SMOKE = (8, 8, 16)
SWEEP_MAX_SHIFT_STEPS = 3


@dataclass
class SweepState:
    rng: random.Random
    sizes: tuple
    grid_deg: float
    geometries: dict
    waveform: object
    model: object


@dataclass(frozen=True)
class SweepOp:
    geometry: object
    profile: tuple
    shift_deg: float


def sweep_setup(seed: int, work_dir: Path, smoke: bool) -> SweepState:
    from risbeam import farfield

    waveform, model = _reference_chain()
    sizes = SWEEP_SIZES_SMOKE if smoke else SWEEP_SIZES
    state = SweepState(
        rng=random.Random(seed),
        sizes=sizes,
        grid_deg=SWEEP_GRID_DEG_SMOKE if smoke else SWEEP_GRID_DEG,
        geometries={
            n: farfield.ArrayGeometry.half_wavelength_linear(n, F_C_HZ) for n in set(sizes)
        },
        waveform=waveform,
        model=model,
    )
    # one op per array size, so that first-call allocation of the largest
    # field matrix is paid here and not inside the timed phase
    warm_rng = random.Random(seed ^ 0x5EED)
    for n in sorted(set(sizes)):
        op = _sweep_op(state, n, warm_rng)
        if sweep_check(state, op, sweep_run(state, op)) is not None:
            raise RuntimeError("sweep warm-up op failed its check")
    return state


def _sweep_op(state: SweepState, n: int, rng: random.Random) -> SweepOp:
    profile = tuple(float(rng.randrange(360)) for _ in range(n))
    k = rng.randint(-SWEEP_MAX_SHIFT_STEPS, SWEEP_MAX_SHIFT_STEPS)
    return SweepOp(state.geometries[n], profile, k * state.grid_deg)


def sweep_ops(state: SweepState):
    while True:
        sizes = list(state.sizes)
        state.rng.shuffle(sizes)
        yield [_sweep_op(state, n, state.rng) for n in sizes]


def sweep_run(state: SweepState, op: SweepOp):
    from risbeam import compare, farfield

    geo, wf, model = op.geometry, state.waveform, state.model
    patterns, csvs = [], []
    for m in (1, -1):
        pattern = farfield.pattern_sweep(geo, model, op.profile, wf, m, state.grid_deg)
        patterns.append(pattern)
        csvs.append(farfield.pattern_csv(pattern, {"elements": geo.element_count}))
    measured = compare.synthesize_measured_sweep(
        geo, model, wf, op.profile, grid_step_deg=state.grid_deg,
        shift_plus_deg=op.shift_deg, shift_minus_deg=op.shift_deg,
    )
    text = compare.format_measured_sweep(measured)
    parsed = compare.parse_measured_sweep(text)
    report = compare.compare_sweep(parsed, geo, model, wf, op.profile)
    return patterns, csvs, measured, parsed, report


def _shifted(angle: float, shift: float) -> float:
    # synthesize_measured_sweep moves the front lobe by +shift and its
    # back-side mirror by -shift
    return (angle + shift if angle < 180.0 else angle - shift) % 360.0


def sweep_check(state: SweepState, op: SweepOp, out):
    import numpy as np

    patterns, csvs, measured, parsed, report = out
    n_grid = round(360.0 / state.grid_deg)
    for pattern, text in zip(patterns, csvs):
        if pattern.magnitude.max() != 1.0:
            return f"harmonic {pattern.m}: peak-normalised max is {pattern.magnitude.max()!r}"
        rows = sum(1 for line in text.splitlines() if line and not line.startswith("#")) - 1
        if rows != n_grid:
            return f"harmonic {pattern.m}: CSV has {rows} rows for a {n_grid}-point grid"
    if parsed.azimuth_deg.size != n_grid or not (
        np.allclose(parsed.azimuth_deg, measured.azimuth_deg, rtol=0.0, atol=1e-9)
        and np.allclose(parsed.p_plus1_dbm, measured.p_plus1_dbm, rtol=1e-9, atol=1e-9)
        and np.allclose(parsed.p_minus1_dbm, measured.p_minus1_dbm, rtol=1e-9, atol=1e-9)
    ):
        return "format/parse round trip changed the measured sweep"
    if len(report.harmonics) != 2:
        return f"comparison covers {len(report.harmonics)} harmonics, not 2"
    for h in report.harmonics:
        if op.shift_deg == 0.0:
            if not h.match or not h.nrms_front < 1e-6:
                return (
                    f"zero-shift self-comparison, harmonic {h.harmonic}: "
                    f"match={h.match} nrms_front={h.nrms_front!r}"
                )
            continue
        want = sorted(_shifted(a, op.shift_deg) for a in h.predicted_dominance)
        got = sorted(h.measured_dominance)
        if len(want) != len(got) or any(abs(a - b) > 1e-6 for a, b in zip(want, got)):
            return (
                f"harmonic {h.harmonic}: shift {op.shift_deg} moved dominance "
                f"{h.predicted_dominance} to {h.measured_dominance}"
            )
        if not h.nrms_front > 0.0:
            return f"harmonic {h.harmonic}: a shifted sweep has nrms_front {h.nrms_front!r}"
    return None


# ---------------------------------------------------------------------------
# cli
#
# Why: one op is one `risbeam` subprocess (python -m risbeam.cli), one at a
# time.  On a 2-core machine an invocation costs about 0.3 s, of which 65-115
# ms is interpreter start and about 200 ms is `import risbeam.cli` (numpy
# about 100 ms); compute is a few ms except for the search.  Start-up and
# import work shows only here, and compute-only changes predict little
# movement.
#
# Mix: a block is one invocation of each subcommand, with steer twice
# (progressive, and --method search on the 1x4 array at 5 deg so that it
# does not form a class of its own), in seeded order.  Catalog rows,
# targets, harmonics, formats and compare file subsets are seeded.  The
# config and the zero-shift sweep files for compare are written at set-up,
# and each argv's expected stdout is captured in process there.
# ---------------------------------------------------------------------------

CLI_POOL_BLOCKS = 4
CLI_POOL_BLOCKS_SMOKE = 1
CLI_SWEEP_FILES = 3
CLI_TIMEOUT_S = 60.0


@dataclass
class CliState:
    root: Path
    env: dict
    blocks: list
    expected: dict


def cli_main_capture(argv) -> tuple:
    """Run cli.main in process and return (exit code, stdout text)."""
    from risbeam import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _cli_block(rng: random.Random, config: str, sweep_files: list) -> list:
    def fmt():
        return ["--format", rng.choice(("csv", "doc"))]

    def harmonic():
        return ["--harmonic", rng.choice(("+1", "-1"))]

    def target():
        return ["--target", f"{rng.uniform(*FRONT_SECTOR):.1f}"]

    def row():
        return ["--table2-row", str(rng.randint(1, 9))]

    cfg = ["--config", config]
    files = rng.sample(sweep_files, rng.randint(1, len(sweep_files)))
    block = [
        ["gamma", *cfg, *fmt()],
        ["coeffs", *cfg, "--max-harmonic", str(rng.randint(3, 9)),
         "--phase", str(rng.randrange(360)), *fmt()],
        ["pattern", *cfg, *row(), *harmonic(),
         "--grid-step", rng.choice(("1", "0.5")), *fmt()],
        ["steer", *cfg, *target(), *harmonic()],
        ["steer", *cfg, *target(), *harmonic(), "--method", "search", "--resolution", "5"],
        ["schedule", *cfg, *row(), *fmt()],
        ["compare", *cfg, *files, *fmt()],
        ["table2", *fmt()],
    ]
    rng.shuffle(block)
    return [tuple(argv) for argv in block]


def cli_setup(seed: int, work_dir: Path, smoke: bool, root: Path, env: dict) -> CliState:
    from risbeam import compare, farfield, steering

    waveform, model = _reference_chain()
    rng = random.Random(seed)
    rel = work_dir.relative_to(root)
    config = rel / "config.json"
    (root / config).write_text(
        json.dumps({"geometry": {"n_cols": 4}, "element_model": {"kind": "cosine_power"}})
    )
    geometry = farfield.ArrayGeometry.half_wavelength_linear(4, F_C_HZ)
    catalog = steering.steering_catalog()
    sweep_files = []
    for i, r in enumerate(rng.sample(range(len(catalog)), CLI_SWEEP_FILES)):
        sweep = compare.synthesize_measured_sweep(
            geometry, model, waveform, catalog[r].psi_deg, grid_step_deg=10.0
        )
        path = rel / f"sweep{i}.csv"
        (root / path).write_text(compare.format_measured_sweep(sweep))
        sweep_files.append(str(path))
    blocks = [
        _cli_block(rng, str(config), sweep_files)
        for _ in range(CLI_POOL_BLOCKS_SMOKE if smoke else CLI_POOL_BLOCKS)
    ]
    expected = {}
    for argv in (a for block in blocks for a in block):
        code, out = cli_main_capture(argv)
        if code != 0:
            raise RuntimeError(f"in-process cli.main{argv} exited {code} at set-up")
        expected[argv] = out.encode("utf-8")
    state = CliState(root, env, blocks, expected)
    warm = blocks[0][0]
    if cli_check(state, warm, cli_run(state, warm)) is not None:
        raise RuntimeError("cli warm-up invocation failed its check")
    return state


def cli_ops(state: CliState):
    # the argv pool repeats; each invocation is a fresh process, so nothing
    # carries over from one repeat to the next
    while True:
        yield from state.blocks


def cli_run(state: CliState, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "risbeam.cli", *argv], cwd=state.root, env=state.env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_check(state: CliState, argv, out):
    code, stdout, stderr = out
    if code != 0:
        return f"{' '.join(argv)}: exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"
    if stdout != state.expected[argv]:
        return f"{' '.join(argv)}: stdout differs from in-process cli.main"
    return None
