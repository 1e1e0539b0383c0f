"""Byte-for-byte CLI outputs: sha256 of stdout (or of the --out file).

The digests pin every subcommand, both output formats where a subcommand
offers them, and the reference config.  They change only when an output
is meant to change.  `steer --method search` is left out: its float
`achieved_field_magnitude` depends on the summation order of the field.
"""

import hashlib
import json
from pathlib import Path

import pytest

from risbeam.circuit import ReflectionPair
from risbeam.cli import main
from risbeam.compare import format_measured_sweep, synthesize_measured_sweep
from risbeam.farfield import ArrayGeometry, ElementPatternModel
from risbeam.modulation import ModulationWaveform

REFERENCE_CONFIG = {"geometry": {"n_cols": 4}, "element_model": {"kind": "cosine_power"}}

GOLDEN = {
    "gamma": "5255af27f3ea538ea2b57fa8106aa7e6b7f4a32f86ad3c2333728e77bb1e960b",
    "gamma --config ref.json --format doc":
        "aecea2130919a3bd605ecd3b65ce6fdb4d61a061af6f0fe6d989414fa3ed650a",
    "coeffs --config ref.json --max-harmonic 7 --phase 90":
        "e0b154015784b9e810fef72561c04fbf2f0cdf28365fd2d10697de2ebb4609bc",
    "coeffs --phase 45 --format doc":
        "ccc6b042fbff200f2ad1eeff0212d0d9e82c9ca90771f36f177a6934623de51a",
    "pattern --config ref.json --table2-row 2 --harmonic -1 --grid-step 0.5":
        "38facf8f89c0cb3823ae6a3ff9f18d4178afb45060b2c6717980c0fbae9f96e6",
    "pattern --profile 0,270,180,90 --format doc --normalization raw":
        "8b1af799bebe2d4683a61e4924ef63cdfae0002967f2cd53f9ab9afea6c83ca6",
    "pattern --profile 0,0,0,0 --harmonic +2":
        "7cfca479056c9bb88c8996dffd9bbc9a8ebfa19526514ec49b9786e7900d2665",
    "steer --config ref.json --target 63.5 --harmonic -1 --resolution 5":
        "59f1dac0d7947bc711bb92b38124f91c10c7702b8901ba2359c09df60886c0be",
    "schedule --config ref.json --table2-row 3":
        "2e71211f480ede4b31a8ddac76fc26c132dada6e375300c351cdcdecdc33c910",
    "schedule --profile 0,270,180,90 --format doc --ticks 36":
        "8b6b21dd484c45d948e0cf15c7c0287e975fb427f212789cbfd72b2386ad3701",
    "compare --config ref.json sweep0.csv sweep1.csv":
        "8ba814b200e99491085a2aaa8f8f1a72ead1c5931f1eb638617c01c0893932f4",
    "compare sweep0.csv --format doc --out report.json":
        "dcfab953efb1df225c210a51431919bc4602803fc994c5c70be8028a400590bf",
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


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_digest(command, workdir, capsys):
    argv = command.split()
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    if "--out" in argv:
        assert out == b""
        out = Path(argv[argv.index("--out") + 1]).read_bytes()
    assert hashlib.sha256(out).hexdigest() == GOLDEN[command]
