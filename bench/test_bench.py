"""Tests of the benchmark harness itself, at the smoke size.

    python3 -m pytest bench
"""

from __future__ import annotations

import gzip
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans
from checks import check_outputs, output_drift
from spans import Tracer
from workloads import REFERENCE_SEED, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    text = "\n".join(lines)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, text
    assert result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 2)
    assert (f"failed_frac 0 ratio (0 failed of {result['attempted']} runs)"
            in text)
    run = json.loads(text.split("\n", 1)[0].removeprefix("run "))
    assert run["seed"] == 5 and run["mpmath_backend"] and run["nproc"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace:
            assert re.search(rf"^{re.escape(m['name'])} \S+ {m['unit']}$",
                             text, re.M), m["name"]
        else:
            assert got["value"] > 0
            assert re.search(rf"^{m['name']} \S+ {m['unit']} \(median of "
                             r"\d+ (runs|imports)\)$", text, re.M), m["name"]
    if trace:
        assert metrics["trace.missing_spans"]["value"] == 0
        # drift is reported, not gated; a reshaped grid fails the run
        assert metrics["cli.output_drift"]["value"] >= 0.0
        fraccalc_calls = metrics["fraccalc.caputo_calls"]["value"]
        verify_calls = metrics["verify.stage_calls"]["value"]
        assert (fraccalc_calls > 0) == (workload == "inverse_frac")
        assert (verify_calls == 0) == (workload == "forward_dense")


def _corrupt_leading_digit(path: Path, row_filter) -> None:
    """Change the leading digit of the largest last-column value among the
    rows row_filter accepts."""
    lines = path.read_text().splitlines()
    rows = [(abs(float(line.rsplit(",", 1)[1])), i)
            for i, line in enumerate(lines[1:], start=1)
            if row_filter(line.split(","))]
    _, i = max(rows)
    head, value = lines[i].rsplit(",", 1)
    sign = "-" if value.startswith("-") else ""
    digits = value.lstrip("-")
    lines[i] = f"{head},{sign}{int(digits[0]) % 9 + 1}{digits[1:]}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_digit_fails_check(workload, tmp_path):
    case = generate(workload, 9, "smoke")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(case.config))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FRACMIX_PRECISION_DIGITS", None)
    subprocess.run([sys.executable, "-m", "fracmix.cli",
                    *case.cli_args(str(config), str(out))],
                   env=env, check=True, capture_output=True, timeout=120)
    assert check_outputs(case, out) == []
    t_checked = (case.config["problem"]["q"] if case.command == "inverse"
                 else 0.0)
    _corrupt_leading_digit(out / "u.csv",
                           lambda cols: float(cols[1]) == t_checked)
    assert check_outputs(case, out)


def test_drift_of_a_reshaped_grid_is_none(tmp_path):
    ref = BENCH / "reference" / "smoke" / "inverse_int"
    for name in ("f.csv", "u.csv"):
        with gzip.open(ref / f"{name}.gz", "rt") as fh:
            lines = fh.read().splitlines()
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    assert output_drift(tmp_path, ref) == 0.0
    (tmp_path / "u.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert output_drift(tmp_path, ref) is None


def test_generator_is_seeded_and_keeps_the_work_fixed():
    for name in WORKLOADS:
        a, b = generate(name, 7), generate(name, 7)
        assert a == b
        other = generate(name, 8)
        assert other.config != a.config
        assert other.config["problem"] == a.config["problem"]
        assert (other.grid_nx, other.grid_nt) == (a.grid_nx, a.grid_nt)

        def shape(cfg):
            blocks = cfg.get("boundary") or cfg["forward"]
            return {k: [(t["kind"], t["k"]) for t in v]
                    for k, v in blocks.items() if isinstance(v, list)}

        assert shape(other.config) == shape(a.config)
    assert generate("inverse_frac", REFERENCE_SEED).seed == REFERENCE_SEED


def test_self_times_add_up_to_the_root():
    tracer = Tracer("t")
    inner = tracer.wrap("b", lambda: time.sleep(0.002))
    outer = tracer.wrap("a", lambda: (inner(), inner()))
    tracer.wrap(spans.ROOT, outer)()
    rows = {(r["name"], r["parent"]): r for r in tracer.aggregate()}
    root = rows[(spans.ROOT, "")]
    assert sum(r["self_s"] for r in rows.values()) == \
        pytest.approx(root["total_s"], abs=1e-9)
    assert rows[("b", "a")]["count"] == 2
    assert rows[("b", "a")]["stage"] == "a"


def test_missing_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "PATCHES",
                        (("json", "no_such_function", "verify.gone"),))
    tracer = Tracer("t")
    tracer.install()
    assert tracer.missing == ["json.no_such_function"]


def test_exits_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "inverse_int", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
