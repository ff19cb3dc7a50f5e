"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fracmix
import fracmix.solver
from fracmix import cli
from fracmix.basis import CoefficientSet
from fracmix.cli import main
from fracmix.errors import ConvergenceError


PROBLEM = {"alpha": 0.7, "beta": 1.5, "gamma": 0.5, "p": 1.0, "q": 1.0,
           "K": 4, "tol": 1e-10}
# a JSON integer past the float range, which json.dumps writes out in full
HUGE = 10**400


def write_config(path, **overrides):
    cfg = {
        "problem": dict(PROBLEM),
        "boundary": {
            "mode": "trig",
            "phi": [{"kind": "cosine", "k": 1, "amplitude": 1.0}],
            "psi": [{"kind": "cosine", "k": 1, "amplitude": 1.0}],
        },
        "report": {"nx": 8, "nt": 6},
    }
    for key, val in overrides.items():
        cfg[key] = val
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def read_csv(path):
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()[1:]]
    return np.array([[float(v) for v in row] for row in rows])


class TestInverse:
    def test_zero_data(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", boundary={
            "mode": "trig", "phi": [], "psi": []})
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "11", "--grid-nt", "5"]) == 0
        f = read_csv(out / "f.csv")
        u = read_csv(out / "u.csv")
        assert np.all(f[:, 1] == 0.0)
        assert np.all(u[:, 2] == 0.0)
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_cos_mode_source(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "41", "--grid-nt", "5"]) == 0
        f = read_csv(out / "f.csv")
        expect = 4 * math.pi**2 * np.cos(2 * math.pi * f[:, 0])
        assert np.max(np.abs(f[:, 1] - expect)) <= 1e-8
        coeffs = json.loads((out / "coefficients.json").read_text())
        assert coeffs["source"]["c0"] == 0.0

    def test_solvability_exit_code(self, tmp_path, capsys):
        # Delta_0 = p + p^2/2 - q vanishes at q = 1.5 for alpha=1, beta=2
        cfg = write_config(
            tmp_path / "c.json",
            problem={"alpha": 1.0, "beta": 2.0, "gamma": 1.0, "p": 1.0,
                     "q": 1.5, "K": 2})
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Delta_0" in err and "(k=0, Delta=" in err

    def test_vanishing_denominator_exit_code(self, tmp_path, capsys):
        # E_(1.5,2)(-4 pi^2) = 0.014 at k = 1 lies below tol = 0.5
        cfg = write_config(
            tmp_path / "c.json",
            problem={"alpha": 0.7, "beta": 1.5, "gamma": 0.5, "p": 1.0,
                     "q": 1.0, "K": 2, "tol": 0.5})
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 2
        assert "(k=1, value=" in capsys.readouterr().err
        assert not out.exists()

    def test_config_validation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           problem={"alpha": 2.5, "beta": 1.5, "gamma": 0.5,
                                    "p": 1.0, "q": 1.0})
        assert main(["inverse", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        missing = tmp_path / "missing.json"
        assert main(["inverse", "--config", str(missing),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("block", [
        {"thresholds": {"boundary_y": 1e-8}},
        {"thresholds": {"boundary_x": 1e-8}},
        {"thresholds": {"pde_plus": "loose"}},
        {"thresholds": {"pde_plus": True}},
        {"thresholds": {"pde_plus": float("nan")}},
        {"thresholds": [1e-8]},
        {"report": {"nx": 8.5, "nt": 6}},
        {"report": {"nx": "8", "nt": 6}},
        {"report": {"nx": 8, "nt": 0}},
        {"problem": dict(PROBLEM, K=2.7)},
        {"problem": dict(PROBLEM, K=True)},
        {"problem": dict(PROBLEM, K="4")},
        # JSON 1e400 parses to inf, as does the Infinity written here
        {"problem": dict(PROBLEM, p=math.inf)},
        {"problem": dict(PROBLEM, tol=math.inf)},
        {"problem": dict(PROBLEM, alpha=True, q=True)},
        {"problem": dict(PROBLEM, p="1.0")},
        {"problem": dict(PROBLEM, tol=None)},
        {"boundary": {"mode": "trig", "psi": [],
                      "phi": [{"kind": "cosine", "k": 1.9,
                               "amplitude": 1.0}]}},
        {"boundary": {"mode": "trig", "psi": [],
                      "phi": [{"kind": "cosine", "k": 1,
                               "amplitude": True}]}},
        {"boundary": {"mode": "trig", "psi": [],
                      "phi": [{"kind": "cosine", "k": 1,
                               "amplitude": "1.0"}]}},
        {"problem": dict(PROBLEM, p=HUGE)},
        {"boundary": {"mode": "trig", "psi": [],
                      "phi": [{"kind": "cosine", "k": 1,
                               "amplitude": HUGE}]}},
        {"thresholds": {"transmit": -HUGE}},
        {"boundary": {"mode": "trig", "phi": []}},
        {"boundary": {"mode": "samples", "psi": "psi.csv"}},
        {"boundary": {"mode": "samples", "phi": 5, "psi": "psi.csv"}},
    ], ids=["unknown", "dropped-key", "string", "bool", "nan", "not-object",
            "float-nx", "string-nx", "zero-nt", "float-K", "bool-K",
            "string-K", "inf-p", "inf-tol", "bool-alpha-q", "string-p",
            "null-tol", "float-atom-k", "bool-amplitude", "string-amplitude",
            "huge-int-p", "huge-int-amplitude", "huge-int-threshold",
            "trig-without-psi", "samples-without-phi", "samples-int-path"])
    def test_report_blocks_rejected_before_solve(self, tmp_path, block):
        cfg = write_config(tmp_path / "c.json", **block)
        out = tmp_path / "o"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    def test_integer_past_json_digit_limit_rejected(self, tmp_path, capsys):
        # Python's JSON parser refuses an integer of more than 4300 digits
        cfg = write_config(tmp_path / "c.json")
        text = cfg.read_text().replace('"q": 1.0', '"q": 1' + "0" * 5000)
        assert "0" * 5000 in text
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 3
        assert "cannot read config" in capsys.readouterr().err
        assert not out.exists()

    def test_truncation_past_array_length_rejected(self, tmp_path, capsys):
        # K above sys.maxsize can size no array: a config error, before any
        # output
        cfg = write_config(tmp_path / "c.json", problem=dict(PROBLEM, K=HUGE))
        out = tmp_path / "o"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 3
        assert "K must lie in [1, " in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_an_error_exit(self, tmp_path, capsys,
                                            monkeypatch):
        # a K that fits an index but not memory; the allocation's failure is
        # stood in for, not made
        def no_memory(cls, K):
            raise MemoryError(f"Unable to allocate {K} modes")

        monkeypatch.setattr(CoefficientSet, "zeros", classmethod(no_memory))
        cfg = write_config(tmp_path / "c.json")
        assert main(["inverse", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--modes", "100000000000000"]) == 1
        assert capsys.readouterr().err == (
            "error: Unable to allocate 100000000000000 modes\n")

    def test_integer_extents_written_as_floats(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", problem=dict(PROBLEM, p=1, q=1))
        out = tmp_path / "o"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "5", "--grid-nt", "3"]) == 0
        text = (out / "coefficients.json").read_text()
        assert '"p": 1.0' in text and '"q": 1.0' in text

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["inverse", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["inverse", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("f.csv", "u.csv", "coefficients.json", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_modes_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--modes", "2"]) == 0
        coeffs = json.loads((out / "coefficients.json").read_text())
        assert len(coeffs["source"]["c1"]) == 2

    def test_sampled_boundary_mode(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 3001)
        vals = np.cos(2 * math.pi * xs)
        lines = ["x,value"] + [f"{x:.17g},{v:.17g}" for x, v in zip(xs, vals)]
        (tmp_path / "phi.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "psi.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.json", boundary={
            "mode": "samples", "phi": "phi.csv", "psi": "psi.csv"})
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "21"]) == 0
        f = read_csv(out / "f.csv")
        expect = 4 * math.pi**2 * np.cos(2 * math.pi * f[:, 0])
        # piecewise-linear samples limit the projection accuracy
        assert np.max(np.abs(f[:, 1] - expect)) <= 1e-3

    @pytest.mark.parametrize("order", ["sorted", "shuffled", "nan"])
    def test_sampled_x_must_increase(self, tmp_path, order):
        # np.interp reads unsorted samples as some other function, and the
        # boundary check would read the same wrong interpolant
        xs = np.linspace(0.0, 1.0, 201)
        rows = np.arange(xs.size)
        if order == "shuffled":
            rows = np.random.default_rng(0).permutation(rows)
        for name, amp in (("phi", 1.0), ("psi", 0.5)):
            lines = ["x,value"] + [
                f"{xs[i]:.17g},{amp * math.cos(2 * math.pi * xs[i]):.17g}"
                for i in rows]
            if order == "nan":
                lines[7] = "nan,0.5"
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.json", boundary={
            "mode": "samples", "phi": "phi.csv", "psi": "psi.csv"})
        out = tmp_path / "out"
        code = main(["inverse", "--config", str(cfg), "--out", str(out)])
        if order == "sorted":
            assert code == 0
            coeffs = json.loads((out / "coefficients.json").read_text())
            assert coeffs["state"]["f1"][0] == pytest.approx(
                4 * math.pi**2, rel=1e-3)
        else:
            assert code == 3
            assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_value_rejected(self, tmp_path, capsys, value):
        for name in ("phi", "psi"):
            (tmp_path / f"{name}.csv").write_text(
                f"x,value\n0.0,1.0\n0.5,{value}\n1.0,1.0\n")
        cfg = write_config(tmp_path / "c.json", boundary={
            "mode": "samples", "phi": "phi.csv", "psi": "psi.csv"})
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 3
        assert "sampled values must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--grid-nx", "0"), ("--grid-nt", "0"), ("--grid-nx", "-1")])
    @pytest.mark.parametrize("command", ["inverse", "forward"])
    def test_empty_output_grid_rejected(self, tmp_path, capsys, command,
                                        flag, value):
        cfg = write_config(tmp_path / "c.json", forward={
            "source": [], "interface": [{"kind": "cosine", "k": 1,
                                         "amplitude": 1.0}]})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     flag, value]) == 3
        assert f"{flag} must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", [10**23, HUGE], ids=["past-int64", "huge"])
    def test_atom_wavenumber_past_array_length_rejected(self, tmp_path,
                                                        capsys, k):
        # a k past sys.maxsize can index no mode: a config error from both
        # commands that read the boundary data, before any output
        zero = {"mode": "trig", "phi": [], "psi": []}
        field = tmp_path / "field"
        assert main(["inverse", "--config",
                     str(write_config(tmp_path / "z.json", boundary=zero)),
                     "--out", str(field), "--grid-nx", "5",
                     "--grid-nt", "3"]) == 0
        cfg = write_config(tmp_path / "c.json", boundary={
            "mode": "trig", "psi": [],
            "phi": [{"kind": "cosine", "k": k, "amplitude": 1.0}]})
        out, rep = tmp_path / "out", tmp_path / "rep"
        capsys.readouterr()
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 3
        assert main(["verify", "--config", str(cfg), "--field", str(field),
                     "--out", str(rep)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: invalid trig atom list: atom k must "
                       f"lie in [0, {sys.maxsize}]"] * 2
        assert not out.exists() and not rep.exists()

    def test_small_fractional_order(self, tmp_path):
        # at alpha = 0.1 the transmit probes reach E_{0.1,b} at arguments
        # whose series peaks past the term budget; the asymptotic expansion
        # takes them
        cfg = write_config(
            tmp_path / "c.json",
            problem=dict(PROBLEM, alpha=0.1, K=2),
            boundary={"mode": "trig",
                      "phi": [{"kind": "cosine", "k": 1, "amplitude": 1.0}],
                      "psi": [{"kind": "cosine", "k": 1, "amplitude": 0.5}]})
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "5", "--grid-nt", "3"]) == 0
        assert json.loads((out / "report.json").read_text())["passed"]

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_amplitude_rejected_before_output(self, tmp_path,
                                                         capsys, amp):
        # Python's JSON parser reads NaN and Infinity as floats
        cfg = write_config(tmp_path / "c.json", boundary={
            "mode": "trig", "phi": [{"kind": "cosine", "k": 1,
                                     "amplitude": amp}], "psi": []})
        assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestForward:
    @pytest.mark.parametrize("atom", [
        {"kind": "cosine", "k": 1.9, "amplitude": 1.0},
        {"kind": "cosine", "k": True, "amplitude": 1.0},
        {"kind": "cosine", "k": 1, "amplitude": True},
        {"kind": "cosine", "k": 1, "amplitude": HUGE},
    ], ids=["float-k", "bool-k", "bool-amplitude", "huge-int-amplitude"])
    def test_atoms_rejected_before_output(self, tmp_path, atom):
        cfg = write_config(tmp_path / "c.json", forward={
            "source": [atom], "interface": [], "slope": []})
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    def test_zero_everything(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", forward={
            "source": [], "interface": [], "slope": []})
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        u = read_csv(out / "u.csv")
        assert np.all(u[:, 2] == 0.0)

    def test_linear_zero_mode_growth(self, tmp_path):
        # constant source with alpha = 1 grows the zero mode linearly in t
        cfg = write_config(
            tmp_path / "c.json",
            problem={"alpha": 1.0, "beta": 2.0, "gamma": 1.0, "p": 1.0,
                     "q": 1.0, "K": 2},
            forward={"source": [{"kind": "constant", "k": 0, "amplitude": 2.0}],
                     "interface": [{"kind": "constant", "k": 0,
                                    "amplitude": 1.0}],
                     "slope": [{"kind": "constant", "k": 0, "amplitude": 2.0}]})
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "3", "--grid-nt", "21"]) == 0
        u = read_csv(out / "u.csv")
        at_origin = u[u[:, 0] == 0.0]
        upper = at_origin[at_origin[:, 1] >= 0.0]
        assert np.max(np.abs(upper[:, 2] - (1.0 + 2.0 * upper[:, 1]))) <= 1e-12

    @staticmethod
    def every_mode_config(tmp_path):
        # K = 2 with every atom live; extents short enough to keep every
        # kernel argument on the float series
        atoms = [{"kind": "constant", "k": 0, "amplitude": 1.0}] + [
            {"kind": kind, "k": k, "amplitude": 0.5 / k}
            for k in (1, 2) for kind in ("cosine", "x-sine")]
        return write_config(
            tmp_path / "c.json", problem=dict(PROBLEM, K=2, p=1e-4, q=1e-4),
            forward={"source": atoms, "interface": atoms, "slope": atoms})

    def test_field_text_does_not_grow_with_grid_nt(self, tmp_path,
                                                   monkeypatch):
        # u.csv is written one time row at a time, so ten times the times
        # adds the u table (8 bytes an entry) and its synthesis, not the
        # text.  Holding every line before one write, 401 -> 4001 times at
        # 21 points added about 18 MB; row by row, about 3.9 MB.
        peaks = []
        real = cli._write_field_outputs

        def traced(*args):
            tracemalloc.start()
            try:
                real(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_write_field_outputs", traced)
        cfg = self.every_mode_config(tmp_path)
        for nt in (401, 4001):
            assert main(["forward", "--config", str(cfg), "--out",
                         str(tmp_path / f"o{nt}"), "--grid-nx", "21",
                         "--grid-nt", str(nt)]) == 0
        assert (tmp_path / "o4001" / "u.csv").read_text().count("\n") \
            == 21 * 4001 + 1
        assert peaks[1] - peaks[0] < 8e6, peaks

    def test_evaluator_error_leaves_no_field_grid(self, tmp_path, capsys,
                                                  monkeypatch):
        def failing(a, b, z):
            raise ConvergenceError("no convergence within the term budget")

        monkeypatch.setattr(fracmix.solver, "ml_array", failing)
        out = tmp_path / "o"
        assert main(["forward", "--config",
                     str(self.every_mode_config(tmp_path)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: no convergence within the term budget\n")
        assert not (out / "u.csv").exists()

    def test_round_trip_through_cli(self, tmp_path):
        # transmitting-consistent data for gamma = 1:
        # f_k = slope_k + mu_k u0_k (minus the x-sine -> cosine coupling)
        mu1 = (2 * math.pi) ** 2
        mu2 = (4 * math.pi) ** 2
        lam2 = 4 * math.pi
        src = [{"kind": "cosine", "k": 1, "amplitude": 0.3 + mu1 * 1.0},
               {"kind": "cosine", "k": 2, "amplitude": -2 * lam2 * 0.4},
               {"kind": "x-sine", "k": 2, "amplitude": mu2 * 0.4}]
        fwd_cfg = write_config(
            tmp_path / "fwd.json",
            problem={"alpha": 0.7, "beta": 1.5, "gamma": 1.0, "p": 1.0,
                     "q": 1.0, "K": 4},
            forward={
                "source": src,
                "interface": [{"kind": "cosine", "k": 1, "amplitude": 1.0},
                              {"kind": "x-sine", "k": 2, "amplitude": 0.4}],
                "slope": [{"kind": "cosine", "k": 1, "amplitude": 0.3}],
            })
        fwd_out = tmp_path / "fwd"
        assert main(["forward", "--config", str(fwd_cfg),
                     "--out", str(fwd_out)]) == 0
        # feed the emitted snapshots back through the inverse solver
        base = json.loads((tmp_path / "fwd.json").read_text())
        base["boundary"] = json.loads((fwd_out / "boundary.json").read_text())
        inv_cfg = tmp_path / "inv.json"
        inv_cfg.write_text(json.dumps(base))
        inv_out = tmp_path / "inv"
        assert main(["inverse", "--config", str(inv_cfg),
                     "--out", str(inv_out)]) == 0
        got = json.loads((inv_out / "coefficients.json").read_text())
        want = json.loads((fwd_out / "coefficients.json").read_text())
        for key in ("c1", "c2"):
            assert np.max(np.abs(np.array(got["source"][key])
                                 - np.array(want["source"][key]))) <= 1e-8
        assert abs(got["source"]["c0"] - want["source"]["c0"]) <= 1e-8


class TestVerify:
    def test_pass_and_fail(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg), "--field", str(out)]) == 0
        # perturb the recovered source and re-verify
        doc = json.loads((out / "coefficients.json").read_text())
        doc["state"]["f2"][0] += 0.5
        doc["source"]["c2"][0] += 0.5
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "coefficients.json").write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--field", str(bad),
                     "--out", str(tmp_path / "badrep")]) == 1

    def test_coefficients_document_keys(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "5", "--grid-nt", "3"]) == 0
        doc = json.loads((out / "coefficients.json").read_text())
        assert set(doc["state"]) == {"f0", "f1", "f2", "v0_0", "v1_0", "v2_0",
                                     "w0p_0", "w1p_0", "w2p_0"}
        assert doc["source"] == {"c0": doc["state"]["f0"],
                                 "c1": doc["state"]["f1"],
                                 "c2": doc["state"]["f2"]}

    def test_short_coefficient_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "5", "--grid-nt", "3"]) == 0
        doc = json.loads((out / "coefficients.json").read_text())
        doc["state"]["v1_0"] = doc["state"]["v1_0"][:-1]
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "coefficients.json").write_text(json.dumps(doc))
        rep = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--field", str(bad),
                     "--out", str(rep)]) == 3
        assert not rep.exists() and not (bad / "report.json").exists()

    @pytest.mark.parametrize("key,bad", [("v0_0", True), ("f0", "0.5"),
                                         ("w1p_0", [True, 0.0, 0.0, 0.0])])
    def test_non_number_coefficient_rejected(self, tmp_path, key, bad):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "5", "--grid-nt", "3"]) == 0
        doc = json.loads((out / "coefficients.json").read_text())
        doc["state"][key] = bad
        field = tmp_path / "field"
        field.mkdir()
        (field / "coefficients.json").write_text(json.dumps(doc))
        rep = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--field", str(field),
                     "--out", str(rep)]) == 3
        assert not rep.exists()

    @pytest.mark.parametrize("key,bad", [
        ("w1p_0", [math.nan, 0.0, 0.0, 0.0]), ("f0", math.inf),
        ("v2_0", [0.0, -math.inf, 0.0, 0.0]), ("f1", [0.0, HUGE, 0.0, 0.0])],
        ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_coefficient_rejected(self, tmp_path, capsys, key,
                                             bad):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out),
                     "--grid-nx", "5", "--grid-nt", "3"]) == 0
        doc = json.loads((out / "coefficients.json").read_text())
        doc["state"][key] = bad
        field = tmp_path / "field"
        field.mkdir()
        (field / "coefficients.json").write_text(json.dumps(doc))
        rep = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--field", str(field),
                     "--out", str(rep)]) == 3
        assert "finite" in capsys.readouterr().err
        assert not rep.exists()

    def test_bad_thresholds_rejected_before_report(self, tmp_path):
        zero = {"mode": "trig", "phi": [], "psi": []}
        good = write_config(tmp_path / "good.json", boundary=zero)
        field = tmp_path / "field"
        assert main(["inverse", "--config", str(good), "--out", str(field),
                     "--grid-nx", "5", "--grid-nt", "3"]) == 0
        bad = write_config(tmp_path / "bad.json", boundary=zero,
                           thresholds={"pde_plus": "loose"})
        rep = tmp_path / "rep"
        assert main(["verify", "--config", str(bad), "--field", str(field),
                     "--out", str(rep)]) == 3
        assert not rep.exists()

    def test_threshold_equal_passes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           thresholds={"pde_minus": 1.0, "transmit": 1.0})
        out = tmp_path / "out"
        assert main(["inverse", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg), "--field", str(out)]) == 0


class TestSpecfunTable:
    def test_ml_column_is_exp(self, tmp_path):
        out = tmp_path / "tab"
        assert main(["specfun-table", "--function", "ml", "--out", str(out),
                     "--alpha", "1.0", "--beta", "1.0",
                     "--z-min", "-4", "--z-max", "1", "--n", "11"]) == 0
        tab = read_csv(out / "table.csv")
        assert np.max(np.abs(tab[:, 1] - np.exp(tab[:, 0]))) <= 1e-12

    def test_e1_function_is_refused(self, tmp_path, capsys):
        # the table of two E1 oracles against each other is not offered
        with pytest.raises(SystemExit) as exc:
            main(["specfun-table", "--function", "e1",
                  "--out", str(tmp_path / "tab")])
        assert exc.value.code == 2
        assert "invalid choice: 'e1'" in capsys.readouterr().err

    def test_full_term_budget_exit(self, tmp_path, capsys):
        # no horizon within the real 10**6-term budget: an evaluator error
        out = tmp_path / "tab"
        assert main(["specfun-table", "--function", "ml", "--out", str(out),
                     "--alpha", "1e-6", "--z-min", "0.999999999",
                     "--z-max", "0.999999999", "--n", "1"]) == 1
        err = capsys.readouterr().err
        assert "does not converge within 1000000 terms" in err
        assert "z=0.999999999)" in err

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "tab"
        assert main(["specfun-table", "--function", "ml", "--out", str(out),
                     "--n", "0"]) == 0
        text = (out / "table.csv").read_text().strip()
        assert text == "z,ml"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", boundary={
            "mode": "trig", "phi": [], "psi": []})
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fracmix.cli", "inverse",
             "--config", str(cfg), "--out", str(out), "--grid-nx", "5",
             "--grid-nt", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()


class TestImportFootprint:
    """scipy and mpmath stay off the CLI's path: the oracles built on them
    live with the tests, the verifier's fractional-order stages sum their
    incomplete-beta moments in numpy, and the Mittag-Leffler band is a
    float contour integral."""

    @staticmethod
    def _scipy_modules(code: str) -> list[str]:
        """Sorted scipy* and mpmath* entries of sys.modules after running
        code in a fresh interpreter."""
        path = [str(Path(fracmix.__file__).resolve().parent.parent),
                *filter(None, [os.environ.get("PYTHONPATH")])]
        probe = (code + "\nimport json, sys\nprint(json.dumps(sorted("
                 "m for m in sys.modules if m.startswith(('scipy', 'mpmath')))))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "PYTHONPATH": os.pathsep.join(path)})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _run_cli(self, tmp_path, command: str, **cfg) -> list[str]:
        path = write_config(tmp_path / "c.json", **cfg)
        argv = [command, "--config", str(path), "--out",
                str(tmp_path / "out"), "--grid-nx", "5", "--grid-nt", "3"]
        return self._scipy_modules("from fracmix.cli import main\n"
                                   f"assert main({argv!r}) == 0")

    def test_import_cli(self):
        assert self._scipy_modules("import fracmix.cli") == []

    def test_forward_run(self, tmp_path):
        atoms = [{"kind": "cosine", "k": 1, "amplitude": 0.5},
                 {"kind": "x-sine", "k": 2, "amplitude": 0.2}]
        assert self._run_cli(tmp_path, "forward", forward={
            "source": atoms, "interface": atoms, "slope": atoms}) == []

    def test_integer_order_inverse_run(self, tmp_path):
        assert self._run_cli(tmp_path, "inverse", problem={
            "alpha": 1.0, "beta": 2.0, "gamma": 1.0, "p": 1.0, "q": 1.0,
            "K": 2}) == []

    def test_fractional_inverse_loads_no_scipy(self, tmp_path):
        assert self._run_cli(tmp_path, "inverse", problem={
            "alpha": 0.7, "beta": 1.5, "gamma": 0.5, "p": 1.0, "q": 1.0,
            "K": 2}, report={"nx": 3, "nt": 3}) == []

    def test_band_table_loads_no_mpmath(self, tmp_path):
        # E_{0.7,1} on [-30, -3] lies in the band: contour values
        argv = ["specfun-table", "--function", "ml", "--alpha", "0.7",
                "--beta", "1", "--z-min", "-30", "--z-max", "-3", "--n", "28",
                "--out", str(tmp_path / "tab")]
        assert self._scipy_modules("from fracmix.cli import main\n"
                                   f"assert main({argv!r}) == 0") == []
