"""Command-line front end: gamma, coeffs, pattern, steer, schedule, compare, table2.

Configuration is JSON (see README); CONFIG_KEYS lists every key.  Outputs are
deterministic: export headers carry a hash of the configuration file instead
of timestamps.  Each subcommand imports only the package modules it uses, so
the ones that compute no arrays never load numpy.
Warnings go to stderr as one `warning: <message>` line each, before any
`error:` line.  Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import warnings
from dataclasses import replace

PHASE_BAND_CENTER_DEG = 180.0
PHASE_BAND_HALF_WIDTH_DEG = 12.0

# Every config key: dotted name (section.key) -> (type, default).  Defaults
# are the reference operating point of the 1x4 demonstrator (2.45 GHz
# carrier, 313 Hz baseband).  A None default is derived from other keys
# (dx_m, dy_m), is the library default (q_exponent: a 96 deg half-power
# beamwidth) or means the key is unset (impedance_table).
CONFIG_KEYS = {
    "geometry.f_c_hz": (float, 2.45e9),
    "geometry.n_cols": (int, 4),
    "geometry.m_rows": (int, 1),
    "geometry.dx_m": (float, None),
    "geometry.dy_m": (float, None),
    "element_model.kind": (str, "isotropic"),
    "element_model.q_exponent": (float, None),
    "waveform.impedance_table": (str, None),
    "waveform.z_antenna": (complex, complex(46.85, -0.8)),
    "waveform.z_load_on": (complex, complex(2.99, 4.02)),
    "waveform.z_load_off": (complex, complex(96.27, -508.72)),
    "waveform.gamma_on": (complex, complex(1.0, 0.0)),
    "waveform.gamma_off": (complex, complex(-1.0, 0.0)),
    "waveform.f0_hz": (float, 313.0),
    "waveform.duty": (float, 0.5),
}
_SECTIONS = {key.split(".")[0] for key in CONFIG_KEYS}
_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               complex: "a [re, im] pair of finite numbers"}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


def _is_number(value) -> bool:
    # bool is not a number here; the bound rejects nan, inf and ints too large for a float
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _typed(key: str, value):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key}")
    kind = CONFIG_KEYS[key][0]
    if kind is complex:
        ok = isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
    elif kind is float:
        ok = _is_number(value)
    else:
        ok = type(value) is kind
    if not ok:
        raise ConfigError(f"config key {key} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    return complex(*map(float, value)) if kind is complex else kind(value)


class Config(dict):
    """Typed values of the keys a config file sets, by dotted key.

    cfg[key] falls back to the CONFIG_KEYS default; `hash` identifies the
    file as loaded.
    """

    def __missing__(self, key):
        return CONFIG_KEYS[key][1]


def load_config(path: str | None) -> Config:
    """Read a JSON config and check every key against CONFIG_KEYS."""
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    items = []
    for name, body in raw.items():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown config key {name}")
        if not isinstance(body, dict):
            raise ConfigError(f"config key {name} must be a JSON object, got {json.dumps(body)}")
        items += [(f"{name}.{key}", value) for key, value in body.items()]
    cfg = Config((key, _typed(key, value)) for key, value in items)
    cfg.hash = config_hash(raw)
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@contextlib.contextmanager
def _naming(*fields):
    """Re-raise a library range error prefixed with the inputs it came from."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{' / '.join(fields)}: {exc}") from exc


def _carrier_hz(cfg: Config) -> float:
    """geometry.f_c_hz, the one carrier of the geometry and the pair lookup."""
    f_c = cfg["geometry.f_c_hz"]
    if not f_c > 0.0:
        raise ConfigError(f"geometry.f_c_hz must be positive, got {f_c}")
    return f_c


def build_geometry(cfg: Config) -> farfield.ArrayGeometry:
    from . import farfield

    lam = farfield.SPEED_OF_LIGHT / _carrier_hz(cfg)
    with _naming("geometry"):
        return farfield.ArrayGeometry(
            n_cols=cfg["geometry.n_cols"],
            m_rows=cfg["geometry.m_rows"],
            dx=cfg.get("geometry.dx_m", lam / 2.0),
            dy=cfg.get("geometry.dy_m", lam / 2.0),
            lambda_c=lam,
        )


def build_element_model(cfg: Config) -> farfield.ElementPatternModel:
    from . import farfield

    kind = cfg["element_model.kind"]
    if kind == "isotropic":
        if "element_model.q_exponent" in cfg:
            raise ConfigError("element_model.q_exponent applies to cosine_power, not isotropic")
        return farfield.ElementPatternModel.isotropic()
    q_exponent = cfg.get("element_model.q_exponent", farfield.default_q_exponent())
    return farfield.ElementPatternModel(kind=kind, q_exponent=q_exponent)


_PAIR_SOURCES = (
    ("waveform.gamma_on", "waveform.gamma_off"),
    ("waveform.impedance_table",),
    ("waveform.z_antenna", "waveform.z_load_on", "waveform.z_load_off"),
)


def resolve_pair(cfg: Config) -> tuple[float, circuit.ReflectionPair]:
    """(carrier, pair) from the one pair source the config sets: gamma_on/gamma_off,
    an impedance_table lookup at geometry.f_c_hz, or the explicit (else default) impedances."""
    from . import circuit

    given = [", ".join(k for k in keys if k in cfg) for keys in _PAIR_SOURCES]
    given = [keys for keys in given if keys]
    if len(given) > 1:
        raise ConfigError(f"the reflection pair has more than one source: {' and '.join(given)}")
    frequency = _carrier_hz(cfg)
    if "waveform.gamma_on" in cfg or "waveform.gamma_off" in cfg:
        pair = circuit.ReflectionPair(cfg["waveform.gamma_on"], cfg["waveform.gamma_off"])
        return frequency, pair
    if "waveform.impedance_table" in cfg:
        if "geometry.f_c_hz" not in cfg:
            raise ConfigError("waveform.impedance_table requires geometry.f_c_hz")
        with _naming("waveform.impedance_table"):
            table = circuit.load_impedance_table(cfg["waveform.impedance_table"])
        with _naming("geometry.f_c_hz"):
            point = table.lookup(frequency)
    else:
        point = circuit.ImpedancePoint(
            frequency=frequency,
            z_antenna=cfg["waveform.z_antenna"],
            z_load_on=cfg["waveform.z_load_on"],
            z_load_off=cfg["waveform.z_load_off"],
        )
    return frequency, point.reflection_pair()


def build_waveform(cfg: Config) -> modulation.ModulationWaveform:
    from . import modulation

    pair = resolve_pair(cfg)[1]
    f0 = cfg["waveform.f0_hz"]
    with _naming("waveform.f0_hz", "waveform.duty"):
        return modulation.ModulationWaveform(
            pair=pair, f0=f0, tau=0.0, t_pw=cfg["waveform.duty"] / f0
        )


def _read_phases(text: str, field: str) -> list:
    """Comma-separated phases in degrees; errors name the field they came from."""
    try:
        phases = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    if not all(map(math.isfinite, phases)):
        raise ConfigError(f"{field}: phases must be finite, got {text!r}")
    return phases


def _parse_profile_arg(args) -> steering.PhaseProfile:
    from . import steering

    if args.profile is not None and args.table2_row is not None:
        raise ConfigError("give --profile or --table2-row, not both")
    if args.table2_row is not None:
        catalog = steering.steering_catalog()
        if not 1 <= args.table2_row <= len(catalog):
            raise ConfigError(f"--table2-row must be in 1..{len(catalog)}")
        with _naming("--resolution"):
            return steering.PhaseProfile(catalog[args.table2_row - 1].psi_deg, args.resolution)
    if args.profile is None:
        raise ConfigError("a profile is required (--profile or --table2-row)")
    phases = _read_phases(args.profile, "--profile")
    with _naming("--resolution"):
        return steering.quantize_profile(phases, args.resolution)


def _lines(rows) -> str:
    return "\n".join(rows) + "\n"


# Each cmd_* returns (doc, text): the structured document and the csv/text
# form of the same result; main writes the one --format selects.


def cmd_gamma(args, cfg):
    from . import circuit

    frequency, pair = resolve_pair(cfg)
    doc = {
        "config_hash": cfg.hash,
        "frequency_hz": frequency,
        "gamma_on": [pair.gamma_on.real, pair.gamma_on.imag],
        "gamma_off": [pair.gamma_off.real, pair.gamma_off.imag],
        "magnitude_on": abs(pair.gamma_on),
        "magnitude_off": abs(pair.gamma_off),
        "differential_magnitude": abs(pair.gamma_on - pair.gamma_off),
        "phase_band_deg": [
            PHASE_BAND_CENTER_DEG - PHASE_BAND_HALF_WIDTH_DEG,
            PHASE_BAND_CENTER_DEG + PHASE_BAND_HALF_WIDTH_DEG,
        ],
    }
    try:
        metrics = circuit.modulation_metrics(pair)
    except ValueError:
        # a zero-magnitude state has no phase; losses are unbounded
        doc["phase_band_status"] = "UNDEFINED"
    else:
        in_band = (
            abs(metrics.phase_separation_deg - PHASE_BAND_CENTER_DEG)
            <= PHASE_BAND_HALF_WIDTH_DEG
        )
        doc.update(
            {
                "phase_difference_signed_deg": metrics.phase_difference_signed_deg,
                "phase_separation_deg": metrics.phase_separation_deg,
                "loss_on_db": metrics.loss_on_db,
                "loss_off_db": metrics.loss_off_db,
                "phase_band_status": "PASS" if in_band else "FAIL",
            }
        )
    if doc["differential_magnitude"] < 1e-9:
        doc["warning"] = "no modulation contrast (identical reflection states)"
        warnings.warn("no modulation contrast")
    return doc, _lines(f"{k}={v}" for k, v in doc.items())


def cmd_coeffs(args, cfg):
    from . import farfield, modulation

    if args.max_harmonic < 0:
        raise ConfigError(f"--max-harmonic must be >= 0, got {args.max_harmonic}")
    waveform = build_waveform(cfg)
    if args.phase is not None:
        with _naming("--phase"):
            waveform = replace(waveform, tau=farfield.element_delay(args.phase, waveform.f0))
    rows = []
    for m in range(-args.max_harmonic, args.max_harmonic + 1):
        c = modulation.fourier_coefficient(waveform, m)
        rows.append((m, c))
    doc = {
        "config_hash": cfg.hash,
        "f0_hz": waveform.f0,
        "duty": waveform.duty,
        "coefficients": [
            {"m": m, "re": c.real, "im": c.imag, "magnitude": abs(c)} for m, c in rows
        ],
    }
    lines = [f"#config_hash={cfg.hash}", "m,re,im,magnitude"]
    lines += [f"{m},{c.real:.12g},{c.imag:.12g},{abs(c):.12g}" for m, c in rows]
    return doc, _lines(lines)


def cmd_pattern(args, cfg):
    from . import farfield

    geometry = build_geometry(cfg)
    model = build_element_model(cfg)
    waveform = build_waveform(cfg)
    profile = _parse_profile_arg(args)
    step = args.grid_step
    farfield.steps_per_turn(step, "--grid-step")
    pattern = farfield.pattern_sweep(
        geometry, model, profile, waveform, args.harmonic, step, normalization=args.normalization
    )
    meta = {
        "config_hash": cfg.hash,
        "geometry": f"{geometry.n_cols}x{geometry.m_rows}",
        "dx_m": f"{geometry.dx:.10g}",
        "dy_m": f"{geometry.dy:.10g}",
        "lambda_c_m": f"{geometry.lambda_c:.10g}",
        "element_model": model.kind,
        "profile_psi_deg": ",".join(f"{p:.10g}" for p in profile.phases_deg),
        "grid_step_deg": f"{step:.10g}",
    }
    if not pattern.magnitude.any():
        meta["zero_pattern"] = "true (harmonic carries no power for this waveform)"
        warnings.warn(f"harmonic {args.harmonic} pattern is identically zero")
    return farfield.pattern_doc(pattern, meta), farfield.pattern_csv(pattern, meta)


def cmd_steer(args, cfg):
    from . import farfield, steering

    geometry = build_geometry(cfg)
    waveform = build_waveform(cfg)
    farfield.steps_per_turn(args.resolution, "--resolution")
    with _naming("--target"):
        req = steering.SteeringRequest(
            desired_azimuth_deg=args.target,
            harmonic=args.harmonic,
            geometry=geometry,
            resolution_deg=args.resolution,
        )
    with _naming("--harmonic", "waveform.duty"):
        steering.require_power(waveform, args.harmonic)
    if args.method == "search":
        result = steering.optimize_profile_search(req, waveform, build_element_model(cfg))
        profile = result.profile
        extra = {"achieved_field_magnitude": result.achieved, "converged": result.converged}
    else:
        profile = steering.progressive_phase_profile(req)
        extra = {}
    doc = steering.profile_doc(profile, harmonic=args.harmonic, desired_azimuth_deg=args.target)
    doc["config_hash"] = cfg.hash
    doc["method"] = args.method
    doc.update(extra)
    return doc, None


def cmd_schedule(args, cfg):
    from . import schedule

    if cfg["waveform.duty"] != 0.5:
        raise ConfigError(
            f"waveform.duty: schedule realizes a 50% duty only, got {cfg['waveform.duty']}"
        )
    profile = _parse_profile_arg(args)
    ticks = schedule.DEFAULT_TICKS_PER_PERIOD if args.ticks is None else args.ticks
    with _naming("waveform.f0_hz", "--ticks"):
        sched = schedule.build_switch_schedule(profile, cfg["waveform.f0_hz"], ticks)
    doc = schedule.schedule_doc(sched)
    doc["config_hash"] = cfg.hash
    return doc, schedule.tick_table_text(sched)


def cmd_compare(args, cfg):
    from . import compare

    geometry = build_geometry(cfg)
    model = build_element_model(cfg)
    waveform = build_waveform(cfg)
    reports = []
    for path in args.measured:
        with _naming(path):
            sweep = compare.load_measured_sweep(path)
            if "psi_deg" not in sweep.metadata:
                raise compare.SweepFormatError(
                    "missing '#psi_deg=...' metadata naming the profile"
                )
            phases = _read_phases(sweep.metadata["psi_deg"], "#psi_deg")
            report = compare.compare_sweep(sweep, geometry, model, waveform, phases)
        doc = compare.report_doc(report)
        doc["file"] = path
        reports.append(doc)
    total = sum(r["matches"] for r in reports)
    possible = sum(len(r["harmonics"]) for r in reports)
    summary = {
        "config_hash": cfg.hash,
        "files": reports,
        "total_matches": total,
        "total_comparisons": possible,
    }
    lines = [f"#config_hash={cfg.hash}", "file,harmonic,measured,predicted,match,nrms_front"]
    for r in reports:
        for h in r["harmonics"]:
            lines.append(
                "{},{:+d},{},{},{},{:.6g}".format(
                    r["file"],
                    h["harmonic"],
                    "/".join(f"{a:g}" for a in h["measured_dominance"]),
                    "/".join(f"{a:g}" for a in h["predicted_dominance"]),
                    "yes" if h["match"] else "NO",
                    h["nrms_front"],
                )
            )
    lines.append(f"#matches={total}/{possible}")
    return summary, _lines(lines)


def cmd_table2(args, cfg):
    from . import steering

    catalog = steering.steering_catalog()
    doc = {
        "rows": [
            {
                "desired_plus": list(c.desired_plus),
                "psi_deg": list(c.psi_deg),
                "measured_plus": [list(p) for p in c.measured_plus],
                "measured_minus": [list(p) for p in c.measured_minus],
            }
            for c in catalog
        ]
    }
    lines = ["desired_plus,psi_deg,measured_plus,measured_minus"]
    for c in catalog:
        lines.append(
            "{},{},{},{}".format(
                "/".join(map(str, c.desired_plus)),
                "[" + " ".join(map(str, c.psi_deg)) + "]",
                ";".join("/".join(map(str, p)) for p in c.measured_plus),
                ";".join("/".join(map(str, p)) for p in c.measured_minus),
            )
        )
    return doc, _lines(lines)


# Every flag; each subcommand in COMMANDS takes only the flags it reads.
FLAGS = {
    "--config": {"help": "JSON configuration file"},
    "--out": {"help": "output path (default: stdout)"},
    "--format": {"choices": ("csv", "doc"), "default": "csv"},
    "--max-harmonic": {"type": int, "default": 5, "help": "list orders -N..N"},
    "--phase": {"type": float, "help": "baseband phase of the element in degrees"},
    "--profile": {"help": "comma-separated per-element phases in degrees"},
    "--table2-row": {"type": int, "help": "preset profile row (1-9)"},
    "--resolution": {"type": float, "default": 1.0, "help": "phase step in degrees"},
    "--harmonic": {"type": int, "default": 1, "help": "harmonic order m"},
    "--grid-step": {"type": float, "default": 1.0, "help": "azimuth grid step in degrees"},
    "--normalization": {"choices": ("raw", "peak_normalized"), "default": "peak_normalized"},
    "--target": {"type": float, "required": True, "help": "target azimuth in degrees"},
    "--method": {"choices": ("progressive", "search"), "default": "progressive"},
    "--ticks": {"type": int, "help": "ticks per baseband period (default: 360)"},
    "measured": {"nargs": "+", "help": "measured sweep files"},
}
_PROFILE = "--profile --table2-row --resolution"
COMMANDS = {
    "gamma": (cmd_gamma, "reflection pair and contrast metrics", "--config --out --format"),
    "coeffs": (
        cmd_coeffs, "harmonic coefficients of the waveform",
        "--config --out --format --max-harmonic --phase",
    ),
    "pattern": (
        cmd_pattern, "harmonic far-field sweep",
        f"--config --out --format {_PROFILE} --harmonic --grid-step --normalization",
    ),
    "steer": (
        cmd_steer, "synthesize a phase profile (JSON output)",
        "--config --out --target --harmonic --resolution --method",
    ),
    "schedule": (
        cmd_schedule, "switch schedule for a profile",
        f"--config --out --format {_PROFILE} --ticks",
    ),
    "compare": (cmd_compare, "measured-sweep agreement report", "--config --out --format measured"),
    "table2": (cmd_table2, "print the golden steering catalog", "--out --format"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="Harmonic beam steering toolkit for time-modulated surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # each UserWarning prints, repeats included, as it is raised, so before
        # any error line; other filters (such as error::RuntimeWarning) still apply
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = _print_warning
        try:
            doc, text = args.func(args, load_config(getattr(args, "config", None)))
            if getattr(args, "format", "doc") == "doc":
                text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
