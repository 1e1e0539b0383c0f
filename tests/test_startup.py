"""Start-up cost: `import risbeam` and the subcommands that compute no arrays
load no numpy, while the package namespace still offers every name.

Each check runs in a fresh interpreter, because this process has numpy
loaded already.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risbeam

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = {"geometry": {"n_cols": 4}, "element_model": {"kind": "cosine_power"}}

# Runs cli.main on its argv, then reports on stderr whether numpy was loaded.
PROBE = """\
import sys
from risbeam.cli import main
code = main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

NUMPY_FREE = {
    "gamma": ["gamma", "--config", "ref.json", "--format", "doc"],
    "coeffs": ["coeffs", "--config", "ref.json", "--max-harmonic", "7", "--phase", "90"],
    "steer": ["steer", "--config", "ref.json", "--target", "63.5", "--harmonic", "-1"],
    "schedule": ["schedule", "--config", "ref.json", "--table2-row", "3"],
    "table2": ["table2"],
}

# The package namespace as it was when __init__ imported every module eagerly,
# less the removed names below.
EXPORTED = """
    ArrayGeometry ElementPatternModel HarmonicPattern ImpedancePoint ImpedanceTable
    MeasuredSweep ModulationMetrics ModulationWaveform PhaseProfile ReflectionPair
    SteeringRequest SwitchSchedule build_switch_schedule circuit compare compare_sweep
    default_q_exponent dominance_direction element_delay farfield
    fourier_coefficient fourier_coefficients_numeric harmonic_field load_impedance_table
    load_measured_sweep modulation modulation_metrics optimize_profile_search
    parse_impedance_table parse_measured_sweep pattern_csv pattern_doc pattern_sweep
    profile_doc progressive_phase_profile quantize_profile
    reflection_coefficient sample_gamma sample_levels schedule
    schedule_doc schedule_roundtrip_phases steering steering_catalog
    synthesize_measured_sweep tick_table_text __version__
""".split()
REMOVED = "tick_table delay_from_phase phase_from_delay reconstruct_gamma".split()


def child(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def probe(argv, cwd) -> bool:
    """Run one subcommand in a fresh interpreter; True when numpy was loaded."""
    proc = child(["-c", PROBE, *argv], cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stderr.strip().splitlines()[-1]
    assert last in ("numpy loaded: True", "numpy loaded: False"), proc.stderr[-2000:]
    return last.endswith("True")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ref.json").write_text(json.dumps(CONFIG))
    return tmp_path


def test_import_risbeam_loads_no_numpy(tmp_path):
    proc = child(["-c", "import sys, risbeam; print('numpy' in sys.modules)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", list(NUMPY_FREE))
def test_subcommand_loads_no_numpy(command, workdir):
    assert not probe(NUMPY_FREE[command], workdir)


def test_pattern_loads_numpy(workdir):
    assert probe(["pattern", "--config", "ref.json", "--table2-row", "2"], workdir)


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_resolves_and_is_listed(name):
    value = getattr(risbeam, name)
    assert name in dir(risbeam)
    if inspect.ismodule(value):
        assert value is importlib.import_module(f"risbeam.{name}")
    elif name != "__version__":
        assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_attribute_raises_naming_it():
    for name in ["no_such_name", *REMOVED]:
        with pytest.raises(AttributeError, match=name):
            getattr(risbeam, name)
        assert name not in dir(risbeam)
