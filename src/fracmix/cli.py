"""Batch command-line front-end.

Subcommands: ``inverse`` (recover source and field from the two boundary
snapshots), ``forward`` (evolve a given source and interface data),
``verify`` (re-check a previously solved field), and ``specfun-table``
(a debug table of the Mittag-Leffler evaluator).

A single JSON config describes the problem and the boundary data; outputs
are two delimited grids (f.csv, u.csv), the solved coefficients
(coefficients.json), and a residual report (report.json).  Every grid
number carries 17 significant digits and every JSON float is written as its
shortest repr; both read back as the same double, and re-running a config
reproduces the files byte for byte.

Exit codes: 0 success, 1 evaluator, I/O or memory error, 2 solvability
violation (or a command-line usage error, from argparse), 3 config
validation error.  A residual over its threshold makes ``verify`` exit 1;
``inverse`` still writes every output and exits 0, printing each failure
to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .basis import (CoefficientSet, TrigPolynomial, as_callable,
                    finite_real, project)
from .errors import DivisionError, FracmixError, SolvabilityError
from .solver import (
    FracProblem,
    SolutionField,
    forward_state,
    solve_inverse,
)
from .specfun import ml_array
from .verify import PDE_GRID, checked_thresholds, full_report


class ConfigError(ValueError):
    pass


def _fmt_all(values: np.ndarray) -> list[str]:
    """Every entry of a 1-d array at 17 significant digits."""
    return [f"{v:.17g}" for v in values.tolist()]


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _read_problem(block) -> FracProblem:
    """The problem of a problem block: every field named, tol optional."""
    return FracProblem(alpha=block["alpha"], beta=block["beta"],
                       gamma=block["gamma"], p=block["p"], q=block["q"],
                       K=block["K"], tol=block.get("tol", FracProblem.tol))


def _problem_from_config(cfg: dict, args) -> FracProblem:
    """The problem block with the command-line overrides, once the output
    grid sizes are checked."""
    for flag, n in (("--grid-nx", args.grid_nx), ("--grid-nt", args.grid_nt)):
        if n < 1:
            raise ConfigError(f"{flag} must be a positive integer, got {n}")
    try:
        block = {"K": FracProblem.K, **dict(cfg["problem"])}
    except (KeyError, TypeError) as exc:
        raise ConfigError("config must contain a 'problem' object") from exc
    if args.modes is not None:
        block["K"] = args.modes
    if args.tol is not None:
        block["tol"] = args.tol
    try:
        return _read_problem(block)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem block: {exc}") from exc


def _atoms_from_list(atoms) -> TrigPolynomial:
    try:
        return TrigPolynomial.from_atoms(
            (a["kind"], a["k"], a["amplitude"]) for a in atoms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid trig atom list: {exc}") from exc


def _read_samples_csv(path: Path):
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read samples {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed samples file {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ConfigError(f"{path} must have two columns (x,value)")
    try:
        return as_callable((data[:, 0], data[:, 1]))
    except ValueError as exc:
        raise ConfigError(f"invalid samples file {path}: {exc}") from exc


def _boundary_from_config(cfg: dict, cfg_path: str):
    """Returns (phi, psi) as projectable objects."""
    try:
        block = cfg["boundary"]
        mode = block["mode"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("config must contain a 'boundary' object "
                          "with a 'mode'") from exc
    if mode not in ("trig", "samples"):
        raise ConfigError(f"unknown boundary mode {mode!r}")
    try:
        data = block["phi"], block["psi"]
        if mode == "trig":
            return tuple(_atoms_from_list(d) for d in data)
        return tuple(_read_samples_csv(Path(cfg_path).parent / d)
                     for d in data)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"boundary mode {mode!r} needs 'phi' and 'psi' "
                          f"entries: {exc!r}") from exc


# coefficients.json keys of each SolutionField set's (c0, c1, c2)
STATE_KEYS = {"source": ("f0", "f1", "f2"),
              "value": ("v0_0", "v1_0", "v2_0"),
              "slope": ("w0p_0", "w1p_0", "w2p_0")}


def _set_entries(c: CoefficientSet) -> tuple:
    return c.c0, c.c1.tolist(), c.c2.tolist()


def _state_to_dict(fld: SolutionField) -> dict:
    st = {}
    for name, keys in STATE_KEYS.items():
        st.update(zip(keys, _set_entries(getattr(fld, name))))
    return {"problem": dataclasses.asdict(fld.problem), "state": st,
            "source": dict(zip(("c0", "c1", "c2"),
                               _set_entries(fld.source)))}


def _state_from_dict(doc: dict) -> SolutionField:
    try:
        prob = _read_problem(doc["problem"])
        st = doc["state"]
        return SolutionField(prob, **{
            name: CoefficientSet(
                finite_real(st[k0], k0),
                [finite_real(v, f"{k1} entry") for v in st[k1]],
                [finite_real(v, f"{k2} entry") for v in st[k2]])
            for name, (k0, k1, k2) in STATE_KEYS.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid coefficients document: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    """doc as JSON; every float is written as its shortest repr, which
    reads back as the same double."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: str, blocks) -> None:
    """The header line, then the lines of each block, one block's text
    alive at a time.  Pass values that exist: only the writing may fail."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in blocks:
            fh.writelines(f"{line}\n" for line in block)


def _write_field_outputs(outdir: Path, fld: SolutionField, nx: int,
                         nt: int) -> None:
    prob = fld.problem
    xs = np.linspace(0.0, 1.0, nx)
    xf = _fmt_all(xs)
    _write_csv(outdir / "f.csv", "x,f", [
        (f"{x},{v}" for x, v in zip(xf, _fmt_all(fld.eval_f(xs))))])

    ts = np.linspace(-prob.p, prob.q, nt)
    u = fld.eval_u(xs, ts)
    _write_csv(outdir / "u.csv", "x,t,u",
               ((f"{x},{t},{v}" for x, v in zip(xf, _fmt_all(row)))
                for t, row in zip(_fmt_all(ts), u)))

    _write_json(outdir / "coefficients.json", _state_to_dict(fld))


def _report_settings(cfg: dict) -> tuple[int, int, dict]:
    """(nx, nt, thresholds) of the residual report, from the optional
    ``report`` and ``thresholds`` blocks, checked before any work is done."""
    block = cfg.get("report", {})
    if not isinstance(block, dict):
        raise ConfigError("'report' must be an object")
    sizes = []
    for key in ("nx", "nt"):
        v = block.get(key, PDE_GRID)
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"report.{key} must be a positive integer, "
                              f"got {v!r}")
        sizes.append(v)
    try:
        thresholds = checked_thresholds(cfg.get("thresholds", {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return sizes[0], sizes[1], thresholds


def _emit_report(outdir: Path, fld: SolutionField, phi, psi,
                 settings: tuple[int, int, dict]) -> dict:
    """Writes report.json and returns the document it holds."""
    nx, nt, th = settings
    report = full_report(fld, phi, psi, nx=nx, nt=nt)
    failures = report.failures(th)
    doc = {"residuals": report.to_dict(), "thresholds": th,
           "failures": failures, "passed": not failures}
    _write_json(outdir / "report.json", doc)
    return doc


def cmd_inverse(args) -> int:
    cfg = _load_config(args.config)
    prob = _problem_from_config(cfg, args)
    phi, psi = _boundary_from_config(cfg, args.config)
    settings = _report_settings(cfg)
    fld = solve_inverse(project(phi, prob.K), project(psi, prob.K), prob)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_field_outputs(outdir, fld, args.grid_nx, args.grid_nt)
    for f in _emit_report(outdir, fld, phi, psi, settings)["failures"]:
        print(f"residual threshold exceeded: {f}", file=sys.stderr)
    print(f"inverse solve written to {outdir}")
    return 0


def cmd_forward(args) -> int:
    cfg = _load_config(args.config)
    prob = _problem_from_config(cfg, args)
    try:
        block = cfg["forward"]
        source = _atoms_from_list(block["source"])
        interface = _atoms_from_list(block["interface"])
        slope = _atoms_from_list(block.get("slope", []))
    except (KeyError, TypeError) as exc:
        raise ConfigError("forward command needs a 'forward' object with "
                          "'source' and 'interface' atom lists") from exc
    fld = forward_state(prob, project(source, prob.K),
                        project(interface, prob.K), project(slope, prob.K))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_field_outputs(outdir, fld, args.grid_nx, args.grid_nt)

    def atoms_of(rows: np.ndarray) -> list[dict]:
        atoms = []
        for r, amp in enumerate(rows.tolist()):
            kind = "constant" if r == 0 else ("cosine" if r % 2 else "x-sine")
            atoms.append({"kind": kind, "k": (r + 1) // 2, "amplitude": amp})
        return atoms

    snapshots = {
        "mode": "trig",
        "phi": atoms_of(fld.mode_values(prob.q)),
        "psi": atoms_of(fld.mode_values(-prob.p)),
    }
    _write_json(outdir / "boundary.json", snapshots)
    print(f"forward field written to {outdir}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    field_dir = Path(args.field)
    try:
        doc = json.loads((field_dir / "coefficients.json").read_text(
            encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field coefficients: {exc}") from exc
    fld = _state_from_dict(doc)
    phi, psi = _boundary_from_config(cfg, args.config)
    settings = _report_settings(cfg)
    outdir = Path(args.out) if args.out else field_dir
    outdir.mkdir(parents=True, exist_ok=True)
    report = _emit_report(outdir, fld, phi, psi, settings)
    # in the key order of report.json, which is sorted
    for name, value in sorted(report["residuals"].items()):
        if name != "tails":
            print(f"{name}: {value:.6e}")
    if report["failures"]:
        for f in report["failures"]:
            print(f"FAIL {f}")
        return 1
    print("all residuals within thresholds")
    return 0


# specfun-table evaluates, formats and writes its points this many at a
# time, every block evaluated before the file opens
TABLE_BLOCK = 2**15


def cmd_specfun_table(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "table.csv"
    zs = np.linspace(args.z_min, args.z_max, max(args.n, 0))
    blocks = [zs[lo:lo + TABLE_BLOCK] for lo in range(0, zs.size, TABLE_BLOCK)]
    vals = [ml_array(args.alpha, args.beta, block) for block in blocks]
    _write_csv(path, "z,ml", ((f"{z},{v}" for z, v in zip(
        _fmt_all(block), _fmt_all(val))) for block, val in zip(blocks, vals)))
    print(f"table written to {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracmix",
        description="Inverse source solver for the two-branch time-fractional "
                    "equation on a rectangle")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--grid-nx", type=int, default=101,
                       help="x samples in the output grids")
        p.add_argument("--grid-nt", type=int, default=41,
                       help="t samples in u.csv")
        p.add_argument("--modes", type=int, default=None,
                       help="override problem truncation K")
        p.add_argument("--tol", type=float, default=None,
                       help="override solvability tolerance")

    p_inv = sub.add_parser("inverse", help="solve the inverse source problem")
    common(p_inv)
    p_inv.set_defaults(fn=cmd_inverse)

    p_fwd = sub.add_parser("forward", help="evolve a given source forward")
    common(p_fwd)
    p_fwd.set_defaults(fn=cmd_forward)

    p_ver = sub.add_parser("verify", help="re-check a solved field")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--field", required=True,
                       help="directory holding coefficients.json")
    p_ver.add_argument("--out", default=None,
                       help="report directory (defaults to the field dir)")
    p_ver.set_defaults(fn=cmd_verify)

    p_tab = sub.add_parser("specfun-table",
                           help="dump a Mittag-Leffler debug table")
    p_tab.add_argument("--function", choices=("ml",), required=True)
    p_tab.add_argument("--out", required=True)
    p_tab.add_argument("--alpha", type=float, default=1.0)
    p_tab.add_argument("--beta", type=float, default=1.0)
    p_tab.add_argument("--z-min", type=float, default=-10.0)
    p_tab.add_argument("--z-max", type=float, default=0.0)
    p_tab.add_argument("--n", type=int, default=21)
    p_tab.set_defaults(fn=cmd_specfun_table)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (SolvabilityError, DivisionError) as exc:
        detail = (f"Delta={exc.delta}" if isinstance(exc, SolvabilityError)
                  else f"value={exc.value}")
        print(f"solvability violation: {exc} (k={exc.k}, {detail})",
              file=sys.stderr)
        return 2
    except (FracmixError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
