"""Per-call probes of the evaluators at one workload's own orders.

    python3 bench/probes.py --workload NAME --seed N --result FILE

needs the package's ``src`` directory on PYTHONPATH.  It times single
``specfun`` and ``fraccalc`` calls with arguments drawn from the seed, fresh
for each call so each misses the evaluator cache (``ml_warm_us`` repeats one
argument on purpose), and writes the medians in microseconds to FILE as
JSON.  It runs in a process of its own, after the traced CLI run has ended,
so the traced run's wall time holds no probe time.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import numpy as np
from fracmix.fraccalc import FracOrder, caputo_left_factored, graded_grid
from fracmix.specfun import MLArgs, e1, ml, unit_family_params

from workloads import WORKLOADS, Probe

BAND_CALLS = 30
FAST_CALLS = 400
WARM_BATCH = 1000
CAPUTO_CALLS = 100


def _per_call_us(fn, args_list) -> float:
    times = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def probes(workload, rng: random.Random) -> dict[str, float]:
    def ml_args(p: Probe, n: int):
        return [(MLArgs(p.a, 1.0, -rng.uniform(p.lo, p.hi)),)
                for _ in range(n)]

    a, b = workload.alpha, workload.beta
    out = {
        "ml_band_alpha_us": _per_call_us(ml, ml_args(workload.band_alpha,
                                                     BAND_CALLS)),
        "ml_band_beta_us": _per_call_us(ml, ml_args(workload.band_beta,
                                                    BAND_CALLS)),
        "ml_small_us": _per_call_us(ml, ml_args(Probe(a, 0.05, 1.0),
                                                FAST_CALLS)),
        "ml_large_us": _per_call_us(ml, ml_args(Probe(a, 2e3, 1e4),
                                                FAST_CALLS)),
    }
    warm = MLArgs(a, 1.0, -rng.uniform(0.5, 2.0))
    ml(warm)
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(WARM_BATCH):
            ml(warm)
        batches.append((time.perf_counter() - start) / WARM_BATCH)
    out["ml_warm_us"] = 1e6 * statistics.median(batches)

    params = unit_family_params(b, b + 1.0)
    ws = [-rng.uniform(1.0, 100.0) for _ in range(BAND_CALLS)]
    out["e1_us"] = _per_call_us(e1, [(params, w, w) for w in ws])

    # the verifier's grid: 3001 points graded toward the interface
    s = graded_grid(0.0, 1.0, 3001, power=2.0, cluster="left")
    g = np.cos(3.0 * s) + s
    order = FracOrder(0.7)
    out["caputo_factored_us"] = _per_call_us(
        caputo_left_factored,
        [(s, g, -0.3, order, rng.uniform(0.05, 0.95))
         for _ in range(CAPUTO_CALLS)])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    out = probes(WORKLOADS[args.workload], random.Random(args.seed))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
