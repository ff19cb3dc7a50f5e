"""Seeded workload configs for the fracmix CLI benchmark.

Each workload fixes the command, the orders, the truncation K, the atoms
present and the output grids.  The seed only draws the atom amplitudes and
signs within a fixed decay law (|amplitude| in [0.5, 1.5] * k^-4), so the
special-function arguments -mu_k s^a, and with them the evaluator routes and
the work done, are the same for every seed.  The CLI receives only the
generated JSON.

The ``smoke`` size keeps every workload's shape but uses K=2, small grids
and, for ``inverse_frac``, short extents that keep the profiles out of the
mpmath band, so a run takes a second or two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SIZES = ("full", "smoke")
# outputs of this seed are stored under reference/ to measure drift
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Probe:
    """Per-call probe of E_{a,1}(-|z|) over |z| in [lo, hi]."""

    a: float
    lo: float
    hi: float


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    alpha: float
    beta: float
    gamma: float
    K: int
    grid_nx: int
    grid_nt: int
    # band probes at the workload's own alpha and beta
    band_alpha: Probe
    band_beta: Probe
    p: float = 1.0
    q: float = 1.0
    smoke: dict = field(default_factory=dict)


_SMOKE = {"K": 2, "grid_nx": 11, "grid_nt": 5, "report": {"nx": 5, "nt": 5}}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "inverse_frac", "inverse", 0.7, 1.5, 0.5, K=8,
            grid_nx=101, grid_nt=41,
            band_alpha=Probe(0.7, 4.0, 10.0),
            band_beta=Probe(1.5, 20.0, 80.0),
            smoke=dict(_SMOKE, p=0.1, q=0.01)),
        Workload(
            "forward_dense", "forward", 0.7, 1.5, 0.5, K=16,
            grid_nx=101, grid_nt=401,
            band_alpha=Probe(0.7, 4.0, 10.0),
            band_beta=Probe(1.5, 20.0, 80.0),
            smoke=dict(_SMOKE)),
        Workload(
            "inverse_int", "inverse", 1.0, 2.0, 1.0, K=16,
            grid_nx=101, grid_nt=41,
            band_alpha=Probe(1.0, 10.0, 20.0),
            band_beta=Probe(2.0, 80.0, 300.0),
            smoke=dict(_SMOKE)),
    )
}


@dataclass(frozen=True)
class Case:
    """One generated CLI invocation: subcommand, config and grid flags."""

    workload: str
    seed: int
    size: str
    command: str
    config: dict
    grid_nx: int
    grid_nt: int

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir,
                "--grid-nx", str(self.grid_nx),
                "--grid-nt", str(self.grid_nt)]


def _amplitude(rng: random.Random, k: int) -> float:
    sign = -1.0 if rng.random() < 0.5 else 1.0
    return sign * rng.uniform(0.5, 1.5) * float(max(k, 1)) ** -4


def full_spectrum(rng: random.Random, K: int) -> list[dict]:
    """Constant, cosine and x-sine atoms on every mode k <= K."""
    atoms = [{"kind": "constant", "k": 0, "amplitude": _amplitude(rng, 0)}]
    for k in range(1, K + 1):
        atoms.append({"kind": "cosine", "k": k,
                      "amplitude": _amplitude(rng, k)})
        atoms.append({"kind": "x-sine", "k": k,
                      "amplitude": _amplitude(rng, k)})
    return atoms


def generate(name: str, seed: int, size: str = "full") -> Case:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    if size not in SIZES:
        raise KeyError(f"unknown size {size!r}")
    w = WORKLOADS[name]
    dims = {"K": w.K, "grid_nx": w.grid_nx, "grid_nt": w.grid_nt,
            "p": w.p, "q": w.q}
    if size == "smoke":
        dims.update(w.smoke)
    rng = random.Random(seed)
    K = dims["K"]
    cfg = {"problem": {"alpha": w.alpha, "beta": w.beta, "gamma": w.gamma,
                       "p": dims["p"], "q": dims["q"], "K": K}}
    if "report" in dims:
        cfg["report"] = dict(dims["report"])
    if name == "inverse_frac":
        # |phi| > |psi| keeps psi - phi, hence every lower-branch term, nonzero
        sign = -1.0 if rng.random() < 0.5 else 1.0
        a_phi = sign * rng.uniform(0.8, 1.2)
        sign = -1.0 if rng.random() < 0.5 else 1.0
        a_psi = sign * rng.uniform(0.4, 0.6)
        cfg["boundary"] = {
            "mode": "trig",
            "phi": [{"kind": "cosine", "k": 1, "amplitude": a_phi}],
            "psi": [{"kind": "cosine", "k": 1, "amplitude": a_psi}]}
    elif name == "inverse_int":
        cfg["boundary"] = {"mode": "trig", "phi": full_spectrum(rng, K),
                           "psi": full_spectrum(rng, K)}
    else:
        cfg["forward"] = {"source": full_spectrum(rng, K),
                          "interface": full_spectrum(rng, K),
                          "slope": full_spectrum(rng, K)}
    return Case(name, seed, size, w.command, cfg, dims["grid_nx"],
                dims["grid_nt"])
