"""Every size a user can ask for has a bound: a larger value exits 2 naming
its flag or config key, and a value at the bound works.

Each probe runs in a fresh interpreter under an address-space limit, so a
size without a bound ends in a MemoryError there, not in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from risbeam.cli import MAX_HARMONIC
from risbeam.farfield import MAX_ELEMENTS
from risbeam.schedule import MAX_TICK_CELLS

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT_BYTES = 1 << 30

PROBE = f"""\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT_BYTES}, {LIMIT_BYTES}))
from risbeam.cli import main
sys.exit(main(sys.argv[1:]))
"""


def cli(tmp_path, argv, config=None):
    """Run risbeam on argv (with config as --config, when given) in a child
    process under LIMIT_BYTES of address space."""
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


# four channels from --table2-row, so --ticks N makes a table of 4 N cells
TICKS_AT_BOUND = MAX_TICK_CELLS // 4

ABOVE = {
    "max-harmonic": (["coeffs", "--max-harmonic", str(MAX_HARMONIC + 1)], None, "--max-harmonic"),
    "max-harmonic 1e8": (["coeffs", "--max-harmonic", "100000000"], None, "--max-harmonic"),
    "n_cols": (
        ["steer", "--target", "70"], {"geometry": {"n_cols": MAX_ELEMENTS + 1}}, "n_cols * m_rows"
    ),
    "n_cols 1e9": (["steer", "--target", "70"], {"geometry": {"n_cols": 10**9}}, "n_cols * m_rows"),
    "m_rows": (
        ["pattern", "--table2-row", "1"], {"geometry": {"n_cols": 4, "m_rows": MAX_ELEMENTS // 4 + 1}},
        "n_cols * m_rows",
    ),
    "ticks": (["schedule", "--table2-row", "1", "--ticks", str(TICKS_AT_BOUND + 2)], None, "--ticks"),
    "ticks 1e8 doc": (
        ["schedule", "--table2-row", "1", "--ticks", "100000000", "--format", "doc"], None, "--ticks"
    ),
}


@pytest.mark.parametrize("argv, config, field", ABOVE.values(), ids=ABOVE)
def test_size_above_its_bound_exits_2_naming_its_field(tmp_path, argv, config, field):
    proc = cli(tmp_path, argv, config)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and field in proc.stderr
    if field == "n_cols * m_rows":
        assert proc.stderr.startswith("error: geometry: ")
    assert "Traceback" not in proc.stderr


def test_max_harmonic_at_its_bound_prints_every_order(tmp_path):
    proc = cli(tmp_path, ["coeffs", "--max-harmonic", str(MAX_HARMONIC)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(proc.stdout.splitlines()) == 2 + 2 * MAX_HARMONIC + 1


def test_element_count_at_its_bound_steers(tmp_path):
    proc = cli(tmp_path, ["steer", "--target", "70"], {"geometry": {"n_cols": MAX_ELEMENTS}})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["elements"] == MAX_ELEMENTS


def test_tick_table_at_its_bound_is_built(tmp_path):
    # --format doc builds no table, so only csv reaches the bound
    argv = ["schedule", "--table2-row", "1", "--ticks", str(TICKS_AT_BOUND), "--format", "csv"]
    proc = cli(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = proc.stdout.splitlines()
    assert len(rows) == TICKS_AT_BOUND and len(rows[0].split()) == 4
