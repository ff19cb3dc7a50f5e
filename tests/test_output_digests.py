"""Byte identity of the CLI outputs on the bench configs.

Each workload of ``bench/workloads.py`` (imported, not changed) runs at
seeds 0, 3 and 7 and full size in process, and the SHA-256 of every output
file must match ``output_digests.json``.  The digests hold only for the
Python and numpy versions recorded with them; under any other the test
skips.  A change that moves output bits on purpose rewrites the
entries of the seeds it names (all of them by default) with

    PYTHONPATH=src python tests/test_output_digests.py [SEED ...]

and records the drift in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import pytest

from fracmix import cli

DIGESTS = Path(__file__).with_name("output_digests.json")
BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (0, 3, 7)
WORKLOADS = ("inverse_frac", "forward_dense", "inverse_int")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def run_digests(name: str, seed: int, workdir: Path) -> dict:
    """SHA-256 of every file the workload's CLI run writes."""
    case = importlib.import_module("workloads").generate(name, seed)
    config = workdir / "config.json"
    config.write_text(json.dumps(case.config), encoding="utf-8")
    out = workdir / "out"
    assert cli.main(case.cli_args(str(config), str(out))) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["versions"] != versions():
        pytest.skip(f"digests recorded with {recorded['versions']}, "
                    f"running {versions()}")
    monkeypatch.syspath_prepend(str(BENCH))
    for seed in SEEDS:
        os.mkdir(tmp_path / str(seed))
        assert (run_digests(name, seed, tmp_path / str(seed))
                == recorded["digests"][str(seed)][name]), f"seed {seed}"


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    seeds = [int(s) for s in sys.argv[1:]] or list(SEEDS)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    # entries of other seeds stay only while they hold for these versions
    digests = recorded["digests"] if recorded["versions"] == versions() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            digests[str(seed)] = {}
            for name in WORKLOADS:
                os.mkdir(Path(tmp) / f"{name}-{seed}")
                digests[str(seed)][name] = run_digests(
                    name, seed, Path(tmp) / f"{name}-{seed}")
    DIGESTS.write_text(json.dumps(
        {"versions": versions(),
         "digests": dict(sorted(digests.items(), key=lambda kv: int(kv[0])))},
        indent=1) + "\n", encoding="utf-8")
