"""Fuzz of the CLI over config JSON and flag values.

Whatever the input, `main` ends in exit 0 (success), 2 (validation) or 3
(I/O), with any message on stderr; no other exception escapes.  Values are
bounded (|int| <= 50, valid grid steps >= 0.5 deg, no search) so that every
example stays fast.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from risbeam.circuit import ReflectionPair
from risbeam.cli import CONFIG_KEYS, main
from risbeam.compare import format_measured_sweep, synthesize_measured_sweep
from risbeam.farfield import ArrayGeometry, ElementPatternModel
from risbeam.modulation import ModulationWaveform

# config keys by section, each with a typo (last letter dropped) beside it
SECTION_KEYS = {}
for dotted in CONFIG_KEYS:
    if "." in dotted:
        section, key = dotted.split(".")
        SECTION_KEYS.setdefault(section, []).extend([key, key[:-1]])

NUMBERS = [0, 0.0, -1.0, 0.5, 1.0, 7.0, 10.0, 313.0, 2.45e9, math.nan, math.inf, -math.inf]
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-50, 50),
    st.sampled_from(NUMBERS),
    st.sampled_from(["isotropic", "cosine_power", "", "x", "missing.csv"]),
    st.lists(st.one_of(st.integers(-50, 50), st.sampled_from(NUMBERS), st.just("0")), max_size=3),
)
configs = st.fixed_dictionaries(
    {},
    optional={
        **{
            section: st.one_of(
                st.dictionaries(st.sampled_from(keys), json_values, max_size=4), json_values
            )
            for section, keys in SECTION_KEYS.items()
        },
        "grid_step_deg": json_values,
        "grid_step": json_values,
    },
)

floats = st.sampled_from(
    ["0", "-1", "0.5", "1", "7", "10", "45", "60", "90", "200", "nan", "inf", "-inf", "1e308", "x"]
)
ints = st.integers(-50, 50).map(str)
profiles = st.lists(floats, min_size=1, max_size=5).map(",".join)
fmt = {"--format": st.sampled_from(["csv", "doc"])}
profile_flags = {"--profile": profiles, "--table2-row": ints, "--resolution": floats}
FLAGS = {
    "gamma": fmt,
    "coeffs": {**fmt, "--max-harmonic": ints, "--phase": floats},
    "pattern": {
        **fmt, **profile_flags, "--harmonic": ints, "--grid-step": floats,
        "--normalization": st.sampled_from(["raw", "peak_normalized"]),
    },
    "steer": {"--target": floats, "--harmonic": ints, "--resolution": floats},
    "schedule": {**fmt, **profile_flags, "--ticks": ints},
    "compare": fmt,
    "table2": fmt,
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.fixed_dictionaries({}, optional=FLAGS[command]))
    argv = [command]
    for name, value in flags.items():
        argv += [name, value]
    if command == "compare":
        files = st.sampled_from(["good.csv", "bad.csv", "missing.csv"])
        argv += draw(st.lists(files, min_size=1, max_size=2))
    if command != "table2" and draw(st.booleans()):
        argv += ["--config", "cfg.json"]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    sweep = synthesize_measured_sweep(
        ArrayGeometry.half_wavelength_linear(4),
        ElementPatternModel.isotropic(),
        ModulationWaveform(ReflectionPair(1.0, -1.0), f0=313.0),
        (0, 270, 180, 90),
    )
    (path / "good.csv").write_text(format_measured_sweep(sweep))
    (path / "bad.csv").write_text("#psi_deg=0,a\nazimuth_deg,p_plus1_dbm\n0,1\n")
    return path


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs, argv=invocations())
def test_cli_exits_0_2_or_3(workdir, config, argv):
    (workdir / "cfg.json").write_text(json.dumps(config))
    argv = [str(workdir / a) if a.endswith((".csv", ".json")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: bad flag value
            code = exc.code
    assert code in (0, 2, 3), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert "error" in err.getvalue()
