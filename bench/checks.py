"""Output checks for one fracmix CLI run, independent of the package.

The closed forms here are written out from the basis definition
(1, cos 2k pi x, x sin 2k pi x) rather than imported, so a defect in the
package's own synthesis cannot cancel out of the comparison.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# tolerances on the reproduced data (inverse) and the imposed data (forward)
INVERSE_TOL = 1e-8
FORWARD_TOL = 1e-10
GRID_FILES = ("f.csv", "u.csv")


def atom_values(atoms: list[dict], x: np.ndarray, neg_second: bool = False
                ) -> np.ndarray:
    """Sum of trig atoms at x, or of their negated second derivatives."""
    out = np.zeros_like(x)
    for atom in atoms:
        kind, amp = atom["kind"], atom["amplitude"]
        w = 2.0 * math.pi * atom["k"]
        if kind == "constant":
            term = np.zeros_like(x) if neg_second else np.ones_like(x)
        elif kind == "cosine":
            term = np.cos(w * x) * (w * w if neg_second else 1.0)
        elif neg_second:
            term = w * w * x * np.sin(w * x) - 2.0 * w * np.cos(w * x)
        else:
            term = x * np.sin(w * x)
        out += amp * term
    return out


def read_grid(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _max_gap(values: np.ndarray, expected: np.ndarray) -> float:
    if values.shape != expected.shape or values.size == 0:
        return math.inf
    return float(np.max(np.abs(values - expected)))


def _slice_at(u: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    rows = u[u[:, 1] == t]
    return rows[:, 0], rows[:, 2]


def check_outputs(case, out_dir: Path) -> list[str]:
    """Problems found in a run's outputs; empty when every check passes."""
    cfg = case.config
    prob = cfg["problem"]
    try:
        f = read_grid(out_dir / "f.csv")
        u = read_grid(out_dir / "u.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output grid: {exc}"]
    problems = []

    def expect(label: str, gap: float, tol: float) -> None:
        if not gap <= tol:
            problems.append(f"{label}: max gap {gap:.3e} > {tol:.0e}")

    if case.command == "inverse":
        try:
            report = json.loads((out_dir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable report.json: {exc}"]
        if report.get("passed") is not True:
            problems.append(f"report failures: {report.get('failures')}")
        for t, name in ((prob["q"], "phi"), (-prob["p"], "psi")):
            x, vals = _slice_at(u, t)
            expect(f"u(x, {t}) vs {name}",
                   _max_gap(vals, atom_values(cfg["boundary"][name], x)),
                   INVERSE_TOL)
        if prob["gamma"] < 1.0:
            expect("f vs -phi''",
                   _max_gap(f[:, 1], atom_values(cfg["boundary"]["phi"],
                                                 f[:, 0], neg_second=True)),
                   INVERSE_TOL)
    else:
        fwd = cfg["forward"]
        expect("f vs source atoms",
               _max_gap(f[:, 1], atom_values(fwd["source"], f[:, 0])),
               FORWARD_TOL)
        x, vals = _slice_at(u, 0.0)
        expect("u(x, 0) vs interface atoms",
               _max_gap(vals, atom_values(fwd["interface"], x)), FORWARD_TOL)
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a run wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def output_drift(out_dir: Path, ref_dir: Path) -> float | None:
    """Largest absolute difference of f.csv and u.csv from the stored
    references; None when a grid's shape no longer matches."""
    worst = 0.0
    for name in GRID_FILES:
        with gzip.open(ref_dir / f"{name}.gz", "rt") as fh:
            ref = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        got = read_grid(out_dir / name)
        if got.shape != ref.shape:
            return None
        worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst

