"""End-to-end and per-layer benchmark of the fracmix CLI.

    python3 bench/run.py --workload inverse_frac --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from its ``src`` directory.
Workloads, metric names and units are declared in BENCHMARK.json; the
configs come from ``workloads.py``.  The load is a closed loop with one
client: one CLI process at a time, each a fresh interpreter, so the
evaluator cache starts cold as it does for users.

``--trace 0`` times ``import fracmix.cli`` in fresh processes (``setup_s``,
median of three after one warm-up), then runs the workload as a CLI process
at least twice, and again until the next run would end past ``--seconds``,
and reports the medians of ``wall_s`` and ``peak_rss_mb``.

``--trace 1`` runs the workload once untraced, once traced in-process
(``traced_cli.py``) and once untraced at the reference seed, whose outputs
are compared with the ones stored under ``reference/`` (``cli.output_drift``);
the per-call probes (``probes.py``) run in a process of their own.  It
reports the per-layer metrics; the span aggregate is kept under
``.bench_work/trace/``.

Every run's outputs are checked (see ``checks.py``) and all runs of one seed
must write byte-identical files; a run that fails either, or exits non-zero,
counts as failed.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (GRID_FILES, check_outputs, digests, output_drift,
                    read_grid)
from spans import ROOT as ROOT_SPAN
from spans import layer_totals
from workloads import REFERENCE_SEED, SIZES, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_IMPORTS = 3
# runs per --trace 0 call whatever --seconds is, so the medians and the
# byte-identical check always have more than one run to work on
MIN_RUNS = 2


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    out_dir: Path
    started: float  # epoch seconds at spawn
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRACMIX_PRECISION_DIGITS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, float, int]:
    """(wall s, user+sys s, peak RSS MB, exit code) of one child process."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def setup_times(work: Path) -> list[float]:
    argv = [sys.executable, "-c", "import fracmix.cli"]
    walls = []
    for i in range(SETUP_IMPORTS + 1):
        wall, _, _, code = spawn(argv, work / "setup.log")
        if code != 0:
            raise RuntimeError("import fracmix.cli failed: "
                               + (work / "setup.log").read_text())
        if i:  # the first import also compiles the bytecode cache
            walls.append(wall)
    return walls


def run_cli(case, run_dir: Path, traced_result: Path | None = None) -> Run:
    run_dir.mkdir(parents=True)
    config = run_dir / "config.json"
    config.write_text(json.dumps(case.config, indent=1), encoding="utf-8")
    out = run_dir / "out"
    cli_args = case.cli_args(str(config), str(out))
    if traced_result is None:
        argv = [sys.executable, "-m", "fracmix.cli", *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "traced_cli.py"),
                "--result", str(traced_result), "--workload", case.workload,
                "--seed", str(case.seed), "--", *cli_args]
    started = time.time()
    wall, cpu, rss, code = spawn(argv, run_dir / "stderr.log")
    run = Run(wall, cpu, rss, code, out, started)
    if code != 0:
        run.problems.append(f"exit code {code}: "
                            + (run_dir / "stderr.log").read_text()[-400:])
    else:
        run.problems += check_outputs(case, out)
        run.digests = digests(out)
    return run


def require_identical(runs: list[Run]) -> None:
    """All runs of one config must write the same bytes."""
    first = next((r for r in runs if r.digests), None)
    for r in runs:
        if r.digests and r.digests != first.digests:
            r.problems.append("outputs differ from an earlier run of the "
                              "same config")


def measure(case, seconds: int, work: Path) -> tuple[list[Run], dict]:
    setup = setup_times(work)
    runs: list[Run] = []
    start = time.perf_counter()
    while True:
        runs.append(run_cli(case, work / f"run{len(runs)}"))
        elapsed = time.perf_counter() - start
        if (len(runs) >= MIN_RUNS and elapsed
                + statistics.median(r.wall_s for r in runs) > seconds):
            break
    require_identical(runs)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    print(f"wall_s {metrics['wall_s']:.4f} s (median of {len(runs)} runs)")
    print(f"setup_s {metrics['setup_s']:.4f} s "
          f"(median of {len(setup)} imports)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB "
          f"(median of {len(runs)} runs)")
    return runs, metrics


def _report_residuals(out: Path) -> tuple[float, float]:
    """(pde_minus, transmit) from report.json; zero for forward runs."""
    path = out / "report.json"
    if not path.is_file():
        return 0.0, 0.0
    res = json.loads(path.read_text())["residuals"]
    return res["pde_minus"], res["transmit"]


def trace(case, work: Path) -> tuple[list[Run], dict]:
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    result = trace_dir / f"{case.workload}-{case.size}-seed{case.seed}.json"
    result.unlink(missing_ok=True)
    plain = run_cli(case, work / "plain")
    traced = run_cli(case, work / "traced", traced_result=result)
    require_identical([plain, traced])
    ref_case = generate(case.workload, REFERENCE_SEED, case.size)
    ref = run_cli(ref_case, work / "reference")
    runs = [plain, traced, ref]
    probe_file = work / "probes.json"
    _, _, _, code = spawn([sys.executable, str(BENCH / "probes.py"),
                           "--result", str(probe_file), "--workload",
                           case.workload, "--seed", str(case.seed)],
                          work / "probes.log")
    if code != 0:
        raise RuntimeError("probes failed: "
                           + (work / "probes.log").read_text()[-400:])

    doc = json.loads(result.read_text())
    tot = layer_totals(doc["spans"])

    def self_s(name: str) -> float:
        return tot[name]["self_s"]

    def calls(name: str) -> int:
        return tot[name]["count"]

    ml_calls = calls("specfun.ml")
    probes = json.loads(probe_file.read_text())
    pde_minus, transmit = _report_residuals(traced.out_dir)
    ref_dir = BENCH / "reference" / case.size / case.workload
    drift = None
    if ref.exit_code == 0:
        drift = output_drift(ref.out_dir, ref_dir)
        if drift is None:
            ref.problems.append("output grids differ in shape from the "
                                "stored references")
    # the traced run's wall time from spawn to the end of main
    traced_wall = doc["main_end_epoch"] - traced.started
    metrics = {
        "specfun.ml_s": self_s("specfun.ml"),
        "specfun.ml_calls": ml_calls,
        "specfun.ml_repeat_frac": ((ml_calls - doc["ml_distinct"]) / ml_calls
                                   if ml_calls else 0.0),
        "specfun.ml_band_alpha_us": probes["ml_band_alpha_us"],
        "specfun.ml_band_beta_us": probes["ml_band_beta_us"],
        "specfun.ml_small_us": probes["ml_small_us"],
        "specfun.ml_large_us": probes["ml_large_us"],
        "specfun.ml_warm_us": probes["ml_warm_us"],
        "specfun.e1_s": self_s("specfun.e1"),
        "specfun.e1_calls": calls("specfun.e1"),
        "specfun.e1_us": probes["e1_us"],
        "fraccalc.caputo_s": self_s("fraccalc.caputo"),
        "fraccalc.caputo_calls": calls("fraccalc.caputo"),
        "fraccalc.caputo_factored_us": probes["caputo_factored_us"],
        "verify.pde_s": self_s("verify.pde"),
        "verify.transmit_s": self_s("verify.transmit"),
        "verify.boundary_s": self_s("verify.boundary"),
        "verify.continuity_s": self_s("verify.continuity"),
        "verify.tails_s": self_s("verify.tails"),
        "verify.stage_calls": sum(v["count"] for k, v in tot.items()
                                  if k.startswith("verify.")),
        "verify.pde_minus_resid": pde_minus,
        "verify.transmit_resid": transmit,
        "solver.mode_values_s": self_s("solver.mode_values"),
        "solver.mode_values_calls": calls("solver.mode_values"),
        "solver.profile_s": self_s("solver.profile"),
        "solver.solve_s": self_s("solver.solve"),
        "basis.synthesize_s": self_s("basis.synthesize"),
        "basis.project_s": self_s("basis.project"),
        "cli.self_s": self_s(ROOT_SPAN),
        "cli.rows_written": sum(len(read_grid(traced.out_dir / n))
                                for n in GRID_FILES)
        if traced.exit_code == 0 else 0,
        # no comparable output reads as the largest drift there is
        "cli.output_drift": sys.float_info.max if drift is None else drift,
        "process.cpu_s": statistics.median([plain.cpu_s, ref.cpu_s]),
        # whole processes on both sides, at the same seed
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.missing_spans": len(doc["missing"]),
    }
    span_sum = sum(v["self_s"] for v in tot.values())
    print(f"spans: {span_sum:.4f} s of self time over "
          f"{traced_wall - doc['import_s']:.4f} s traced wall minus "
          f"set-up ({doc['main_s']:.4f} s in main); run id {doc['run_id']}")
    under = {}
    for row in doc["spans"]:
        if row["name"] == "specfun.ml":
            under[row["stage"]] = under.get(row["stage"], 0.0) + row["self_s"]
    print("specfun.ml self time by stage: "
          + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(under.items())))
    if doc["missing"]:
        print("missing spans: " + ", ".join(doc["missing"]))
    print(f"spans written to {result.relative_to(ROOT)}")
    return runs, metrics


def environment() -> dict:
    from importlib.metadata import version

    import mpmath.libmp

    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "mpmath": version("mpmath"),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0))}


def declared_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    args = ap.parse_args()
    if not (SRC / "fracmix" / "cli.py").is_file():
        print(f"no fracmix sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.size}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        case = generate(args.workload, args.seed, args.size)
        print("run " + json.dumps({"workload": case.workload,
                                   "seed": case.seed, "size": case.size,
                                   "trace": args.trace, **environment()}))
        if args.trace:
            runs, metrics = trace(case, work)
            units = declared_units()["per_layer"]
        else:
            runs, metrics = measure(case, args.seconds, work)
            units = declared_units()["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.failed for r in runs)
    for i, r in enumerate(runs):
        for problem in r.problems:
            print(f"run {i} failed: {problem}")
    print(f"failed_frac {failed / len(runs):.4g} ratio "
          f"({failed} failed of {len(runs)} runs)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
