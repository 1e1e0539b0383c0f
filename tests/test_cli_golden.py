"""Byte-for-byte CLI outputs: sha256 of stdout (or of the --out file).

The digests pin every subcommand, both output formats where a subcommand
offers them, and the reference config.  They change only when an output
is meant to change.  `steer --method search` is left out: its float
`achieved_field_magnitude` depends on the summation order of the field.

Each argv runs twice: through cli.main in this process, and through
`python -m risbeam.cli` in a fresh interpreter, where a subcommand that
misses one of its imports fails instead of finding the module already loaded.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from risbeam.circuit import ReflectionPair
from risbeam.cli import main
from risbeam.compare import format_measured_sweep, synthesize_measured_sweep
from risbeam.farfield import ArrayGeometry, ElementPatternModel
from risbeam.modulation import ModulationWaveform

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_CONFIG = {"geometry": {"n_cols": 4}, "element_model": {"kind": "cosine_power"}}

GOLDEN = {
    "gamma": "5255af27f3ea538ea2b57fa8106aa7e6b7f4a32f86ad3c2333728e77bb1e960b",
    "gamma --config ref.json --format doc":
        "aecea2130919a3bd605ecd3b65ce6fdb4d61a061af6f0fe6d989414fa3ed650a",
    "coeffs --config ref.json --max-harmonic 7 --phase 90":
        "e0b154015784b9e810fef72561c04fbf2f0cdf28365fd2d10697de2ebb4609bc",
    "coeffs --phase 45 --format doc":
        "d91b64bb11bf637e88237ac4d0141d87c61741291f47f5faad523359256a87de",
    "pattern --config ref.json --table2-row 2 --harmonic -1 --grid-step 0.5":
        "a28710b87727c7923305694893db513051ce3f2bcd247fb7bb2ecc4fe1a94d9c",
    "pattern --profile 0,270,180,90 --format doc --normalization raw":
        "682c231dad7c008d9310fe4992523190d0dc5417c4d9994a4e61892332b6dd49",
    "pattern --profile 0,0,0,0 --harmonic +2":
        "50a36c0b070daebd07fdc14b2698bc7e49f615d9f856896f15474180e6371c8f",
    "steer --config ref.json --target 63.5 --harmonic -1 --resolution 5":
        "59f1dac0d7947bc711bb92b38124f91c10c7702b8901ba2359c09df60886c0be",
    "schedule --config ref.json --table2-row 3":
        "aec721d480cf31e9746c076b9aea301e18f08a36d246b61c787b41f085c3b9ee",
    "schedule --profile 0,270,180,90 --format doc --ticks 36":
        "2d51fad6cf8ca6ead7f6a48f969e11cc24f4a6c0e77eef706684db7b7b356492",
    "compare --config ref.json sweep0.csv sweep1.csv":
        "8ba814b200e99491085a2aaa8f8f1a72ead1c5931f1eb638617c01c0893932f4",
    "compare sweep0.csv --format doc --out report.json":
        "b2d6f858af5bb0b5f77ee5066ab01885ca208355bfee109965a0c2ff9dbbf2d5",
    "table2": "b60d1937de3292e96be8af685f8d3afad6ca04ba4bf8646a8811fbe9c8e8c655",
    "table2 --format doc": "3cc6e2b468c457fc2f3626de5b4ecc1142a47b679c35c6636425d26a85954b7b",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A directory holding the reference config and two sweep files.

    compare reports quote the sweep paths, so the argv use relative names.
    """
    monkeypatch.chdir(tmp_path)
    Path("ref.json").write_text(json.dumps(REFERENCE_CONFIG))
    geometry = ArrayGeometry.half_wavelength_linear(4)
    waveform = ModulationWaveform(ReflectionPair(1.0, -1.0), f0=313.0)
    for i, psi in enumerate(((0, 270, 180, 90), (0, 0, 0, 0))):
        sweep = synthesize_measured_sweep(
            geometry, ElementPatternModel.isotropic(), waveform, psi
        )
        Path(f"sweep{i}.csv").write_text(format_measured_sweep(sweep))
    return tmp_path


def assert_digest(command, stdout: bytes):
    argv = command.split()
    if "--out" in argv:
        assert stdout == b""
        stdout = Path(argv[argv.index("--out") + 1]).read_bytes()
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_digest(command, workdir, capsys):
    assert main(command.split()) == 0
    assert_digest(command, capsys.readouterr().out.encode())


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_digest_in_fresh_process(command, workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "risbeam.cli", *command.split()],
        cwd=workdir, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    assert_digest(command, proc.stdout)
