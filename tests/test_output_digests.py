"""Byte identity of the CLI outputs on the bench configs.

Each workload of ``bench/workloads.py`` (imported, not changed) runs at
seeds 0, 3 and 7 and full size in process, and the SHA-256 of every output
file must match ``output_digests.json``.  The digests hold only for the
Python and numpy versions and numpy's active SIMD dispatch targets
recorded with them; under any others the test skips (report.json moves in
its last bits when numpy's AVX-512 loops are off).  A change that moves
output bits on purpose rewrites the entries of the seeds it names (all of
them by default) with

    PYTHONPATH=src python tests/test_output_digests.py [SEED ...]

and records the drift in CHANGES.md.

The field outputs (every file but report.json) must not depend on the
dispatch at all: a second test writes them with numpy's AVX-512 targets
switched off and compares them byte for byte with a default run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest

from fracmix import cli

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

DIGESTS = Path(__file__).with_name("output_digests.json")
BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (0, 3, 7)
WORKLOADS = ("inverse_frac", "forward_dense", "inverse_int")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def dispatch() -> list[str]:
    """numpy's SIMD dispatch targets that run on this CPU, beyond its
    baseline."""
    return [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__[t]]


def write_config(name: str, seed: int, workdir: Path):
    """The workload's case and the path of its config, written in workdir."""
    case = importlib.import_module("workloads").generate(name, seed)
    config = workdir / "config.json"
    config.write_text(json.dumps(case.config), encoding="utf-8")
    return case, str(config)


def run_digests(name: str, seed: int, workdir: Path) -> dict:
    """SHA-256 of every file the workload's CLI run writes."""
    case, config = write_config(name, seed, workdir)
    out = workdir / "out"
    assert cli.main(case.cli_args(config, str(out))) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["versions"] != versions():
        pytest.skip(f"digests recorded with {recorded['versions']}, "
                    f"running {versions()}")
    if recorded["dispatch"] != dispatch():
        pytest.skip(f"digests recorded with numpy dispatch "
                    f"{recorded['dispatch']}, running {dispatch()}")
    monkeypatch.syspath_prepend(str(BENCH))
    for seed in SEEDS:
        os.mkdir(tmp_path / str(seed))
        assert (run_digests(name, seed, tmp_path / str(seed))
                == recorded["digests"][str(seed)][name]), f"seed {seed}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_field_outputs_do_not_depend_on_avx512(name, tmp_path, monkeypatch):
    # numpy's AVX-512 power differs from libm's pow in the last bit on some
    # inputs; the profile tables take libm's (solver._elementwise)
    avx512 = [t for t in dispatch() if t.startswith("AVX512") or t == "X86_V4"]
    if not avx512:
        pytest.skip("no AVX-512 dispatch target is active")
    monkeypatch.syspath_prepend(str(BENCH))
    case, config = write_config(name, 0, tmp_path)
    assert cli.main(case.cli_args(config, str(tmp_path / "default"))) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "fracmix.cli",
         *case.cli_args(config, str(tmp_path / "plain"))],
        capture_output=True, text=True,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)})
    assert proc.returncode == 0, proc.stderr
    files = sorted(f.name for f in (tmp_path / "default").iterdir()
                   if f.name != "report.json")
    assert {"f.csv", "u.csv", "coefficients.json"} <= set(files)
    for f in files:
        assert ((tmp_path / "plain" / f).read_bytes()
                == (tmp_path / "default" / f).read_bytes()), f


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    seeds = [int(s) for s in sys.argv[1:]] or list(SEEDS)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    # entries of other seeds stay only while they hold for these versions
    # and this dispatch
    same = (recorded["versions"], recorded["dispatch"]) == (versions(),
                                                            dispatch())
    digests = recorded["digests"] if same else {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            digests[str(seed)] = {}
            for name in WORKLOADS:
                os.mkdir(Path(tmp) / f"{name}-{seed}")
                digests[str(seed)][name] = run_digests(
                    name, seed, Path(tmp) / f"{name}-{seed}")
    DIGESTS.write_text(json.dumps(
        {"versions": versions(), "dispatch": dispatch(),
         "digests": dict(sorted(digests.items(), key=lambda kv: int(kv[0])))},
        indent=1) + "\n", encoding="utf-8")
