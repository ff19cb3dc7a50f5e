"""The Mittag-Leffler evaluator: each element of a many-element call equal
to its own one-element call (bit for bit), agreement with a direct mpmath
series over the accuracy box and with the large-|z| expansion in mpmath out
to |z| = 1e8, the band on the bench configs, route boundaries, edge cases
and errors, and identities that it holds over the box a in (0, 2), b in
(-1, 3), z in [-1e4, 5], on many arguments at once and on one."""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fracref import ml_ref
from oracles import ml_neg_integral
from fracmix import cli, specfun
from fracmix.errors import CancellationError
from fracmix.specfun import MLArgs, ml, ml_array


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def single_calls(a, b, z) -> np.ndarray:
    """ml_array at each element of z alone, one call per element."""
    return np.array([ml_array(a, b, [float(zi)])[0] for zi in z])


class RouteSpy:
    """Counts the elements each route of ``ml_array`` evaluates: zero, the
    contour and the closed form."""

    def __init__(self, monkeypatch) -> None:
        self.counts: Counter = Counter()
        self.wrap(monkeypatch, "_ml_band", "zero",
                  lambda args, out: np.count_nonzero(args[2] == 0.0))
        self.wrap(monkeypatch, "_ml_contour", "contour",
                  lambda args, out: args[2].size)
        self.wrap(monkeypatch, "_ml_int_order", "closed form",
                  lambda args, out: args[2].size)

    def wrap(self, monkeypatch, name, route, count) -> None:
        real = getattr(specfun, name)

        def spy(*args):
            out = real(*args)
            self.counts[route] += int(count(args, out))
            return out

        monkeypatch.setattr(specfun, name, spy)

    def band(self) -> int:
        return self.counts["contour"] + self.counts["closed form"]


def assert_bitwise(a, b, z) -> None:
    """ml_array on z, then on each element alone: bit for bit equal at
    every element."""
    got = ml_array(a, b, z)
    want = single_calls(a, b, z)
    bad = np.flatnonzero(bits(got) != bits(want))
    assert bad.size == 0, (a, b, z[bad][:3], got[bad][:3], want[bad][:3])


GRID_Z = np.concatenate([-np.logspace(-3.0, 4.0, 141),
                         np.linspace(-100.0, 0.0, 101),
                         np.linspace(0.0, 3.0, 31)[1:], [0.0]])


class TestBitwise:
    @pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 1.5, 1.9, 2.0])
    def test_equals_scalar_on_grid(self, a):
        for b in (-1.0, -0.3, 0.4, 1.0, 1.7, 2.5, 4.0):
            assert_bitwise(a, b, GRID_Z)

    def test_more_distinct_arguments_than_one_chunk(self, monkeypatch):
        # 8,197 distinct z span dozens of the contour's element steps, each
        # _TEMP // 226 = 144 elements at m = 1
        z = -np.logspace(-3.0, 3.5, 8197)
        spy = RouteSpy(monkeypatch)
        assert_bitwise(0.7, 1.0, np.concatenate([z, -z[z > -3.0][::7]]))
        assert spy.counts["contour"] > 1000

    @pytest.mark.parametrize("a, b", [(0.7, 1.0), (1.5, 0.5)])
    def test_contour_bounds_are_element_local(self, a, b):
        # the values and the error bounds of one 400-element contour call
        # equal the one-element calls bit for bit
        z = -np.logspace(0.0, 3.0, 400)
        val, bound = specfun._ml_contour(a, [b], z)
        for i in range(z.size):
            one_val, one_bound = specfun._ml_contour(a, [b], z[i:i + 1])
            assert np.array_equal(bits([one_val[0, 0], one_bound[0, 0]]),
                                  bits([val[0, i], bound[0, i]])), z[i]

    def test_repeats_and_shape(self):
        z = np.array([[-3.0, -3.0, 0.5], [-250.0, -0.0, -3.0]])
        got = ml_array(0.7, 1.7, z)
        assert got.shape == z.shape
        assert np.array_equal(got.ravel(),
                              single_calls(0.7, 1.7, z.ravel()))


class TestSecondParameterAxis:
    """ml_array over a sequence of b: one row per b, each equal to the call
    at that b alone."""

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("bs", [
        (-1.0, -0.3, 0.0, 0.4, 1.0, 1.7, 2.0, 2.5, 3.0, 4.0),
        (-1.0, 0.0, 1.0, 2.0, 3.0)], ids=["mixed", "integral"])
    def test_rows_equal_the_single_calls(self, a, bs):
        # GRID_Z holds zero and 0 < |z| < 1; at a = 1 and 2 the integral b
        # take the closed form from z = -1 down, beside contour rows in the
        # mixed set
        got = ml_array(a, bs, GRID_Z)
        for row, b in zip(got, bs):
            want = ml_array(a, b, GRID_Z)
            bad = np.flatnonzero(bits(row) != bits(want))
            assert bad.size == 0, (a, b, GRID_Z[bad][:3])

    def test_shapes(self):
        z = np.array([[-3.0, 0.0, 0.5], [-250.0, -3.0, 2.0]])
        assert ml_array(0.7, 1.7, z).shape == z.shape
        assert ml_array(0.7, np.float64(1.7), z).shape == z.shape
        assert ml_array(0.7, [1.7], z).shape == (1, 2, 3)
        assert ml_array(0.7, (1.0, 1.7), z).shape == (2, 2, 3)
        assert ml_array(0.7, np.array([1.0, 1.7]), -3.0).shape == (2,)
        assert ml_array(0.7, [1.0, 1.7], []).shape == (2, 0)
        with pytest.raises(ValueError, match="beta finite"):
            ml_array(0.7, [], z)

    def test_refusal_names_the_first_z_then_the_first_b(self):
        # at a = 0.01 the band refuses b = 1 and b = 2 at z = -1e4 and only
        # b = 1 at z = 0.9: the order of z decides, then the order of b
        with pytest.raises(CancellationError,
                           match=r"\(a=0\.01, b=1\.0, z=0\.9\)"):
            ml_array(0.01, [2.0, 1.0], [-5.0, 0.9, -1e4])
        with pytest.raises(CancellationError,
                           match=r"\(a=0\.01, b=2\.0, z=-10000\.0\)"):
            ml_array(0.01, [2.0, 1.0], [-5.0, -1e4, 0.9])

    def test_node_factors_made_once_per_b_and_m(self, monkeypatch):
        # one call over 5,000 distinct z at three b builds each (b, m)
        # contour once, the far z at b and the near ones lifted to a + b
        # (no a + b is another b); each row is the call at its b alone
        a, bs = 0.7, (-0.3, 1.0, 2.5)
        z = np.concatenate([-np.logspace(-3.0, 3.5, 4500),
                            np.linspace(-0.999, 3.0, 500)])
        builds = Counter()
        real = specfun._ml_nodes

        def spy(a, b, m):
            builds[a, b, m] += 1
            return real(a, b, m)

        monkeypatch.setattr(specfun, "_ml_nodes", spy)
        got = ml_array(a, bs, z)
        assert set(builds.values()) == {1}
        assert {b for _, b, _ in builds} == set(bs) | {a + b for b in bs}
        assert len({m for *_, m in builds}) > 1
        monkeypatch.undo()
        for row, b in zip(got, bs):
            assert np.array_equal(bits(row), bits(ml_array(a, b, z))), b


# ---------------------------------------------------------------------------
# the direct mpmath series over the accuracy box

EPS = np.finfo(float).eps


def ml_series(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) by its defining series in mpmath, independent of the
    package: each a*k + b formed in mpmath, at |z|**(1/a)/ln 10 + 30
    digits (the cancellation the peak term brings, and guard digits),
    summed past the peak until a term falls below 1e-28 of max(1,
    |sum|)."""
    root = abs(z) ** (1.0 / a)
    with mp.workdps(int(root / math.log(10.0)) + 30):
        a_, b_, z_ = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s, zk, k = mp.mpf(0), mp.mpf(1), 0
        small = mp.mpf(10) ** -28
        while True:
            t = zk * mp.rgamma(a_ * k + b_)
            s += t
            if (k >= 4 and a_ * k + b_ > root + 2
                    and abs(t) < small * max(1, abs(s))):
                return float(s)
            zk *= z_
            k += 1


def x_max(a: float) -> float:
    """The largest |z|**(1/a) the property draws: |z| <= 1e4 within 100,
    and less at small orders, so the direct series stays within a few
    hundred terms."""
    return min(100.0, max(1.5, 2000.0 * a * a))


WORKLOAD_ORDERS = [0.7, 1.5, 1.0, 2.0]
ORDER_BOX = st.one_of(st.sampled_from(WORKLOAD_ORDERS),
                      st.floats(0.01, 2.0))


@st.composite
def box_calls(draw):
    """(a, b, z) of one ml_array call in the box a in [0.01, 2], b in
    [-1, 2a + 2], |z| <= min(1e4, x_max(a)**a): half of them calls with a
    few arguments anywhere in it (zero among them), half calls with 360
    nonzero arguments (a at least 0.5 there, and x from 0.5 to at most
    20 + 30a), given as (a, b, sign, seed) of their draw."""
    big = draw(st.booleans())
    a = draw(st.one_of(st.sampled_from(WORKLOAD_ORDERS), st.floats(0.5, 2.0))
             if big else ORDER_BOX)
    b = draw(st.one_of(st.sampled_from([1.0, a, a + 1.0, 2.0 * a + 1.0,
                                        -1.0, 0.0, 2.0, 3.0]),
                       st.floats(-1.0, 2.0 * a + 2.0)))
    assume(b <= 2.0 * a + 2.0)
    if big:
        sign = draw(st.sampled_from([-1.0, -1.0, -1.0, 1.0]))
        seed = draw(st.integers(0, 2**32 - 1))
        return a, b, sign, seed
    x = draw(st.lists(st.floats(0.0, x_max(a)), min_size=1, max_size=8))
    signs = draw(st.lists(st.sampled_from([-1.0, -1.0, 1.0]),
                          min_size=len(x), max_size=len(x)))
    return a, b, np.array([s * v**a for s, v in zip(signs, x)]), None


def assert_envelope(a, b, z) -> None:
    """ml_array on z within 1e-12 + 4 ulp of the direct series."""
    got = ml_array(a, b, z)
    want = np.array([ml_series(a, b, v) for v in z.tolist()])
    err = np.abs(got - want)
    worst = int(np.argmax(err - 4.0 * EPS * np.abs(want)))
    assert np.all(err <= 1e-12 + 4.0 * EPS * np.abs(want)), (
        a, b, z[worst], got[worst], want[worst])


class TestDirectSeries:
    def test_box_property(self, monkeypatch):
        # every route, zero, the contour and the closed form, within
        # 1e-12 + 4 ulp of the direct series
        spy = RouteSpy(monkeypatch)

        # with the integer orders' closed forms on their bench pairs, the
        # contour at a = 2 with b non-integral, and two arguments a float
        # sum of the series once missed by 2.9e-12 and 1.6e-12
        @settings(max_examples=16)
        @given(call=box_calls())
        @example(call=(2.0, 3.0, -1.0, 1))
        @example(call=(1.0, 2.0, -1.0, 2))
        @example(call=(2.0, 0.5, -1.0, 3))
        @example(call=(0.1, 2.2, np.array([-1.246856268723443]), None))
        @example(call=(1.3, 4.6, np.array([-40.269838741429645]), None))
        def holds(call):
            a, b, z, seed = call
            if seed is not None:
                hi = min(x_max(a), 20.0 + 30.0 * a)
                x = np.random.default_rng(seed).uniform(0.5, hi, 360)
                z = z * x**a
            before = spy.band()
            assert_envelope(a, b, z)
            if seed is not None:
                assert spy.band() - before == 360, (a, b, spy.counts)

        holds()
        assert min(spy.counts[route] for route in (
            "zero", "contour", "closed form")) > 0, spy.counts

    @pytest.mark.parametrize("a,b,z", [(0.1, 3.0, -1.2721557404382497)])
    def test_past_the_box(self, a, b, z):
        # b > 2a + 2, where a float sum of the series once missed by
        # 1.6e-12
        assert_envelope(a, b, np.array([z]))


def residues_mp(a: float, b: float, z: float) -> tuple[float, float]:
    """(1/a) Re sum zeta**(1-b) e**zeta over the poles zeta = |z|**(1/a)
    e**(i theta) of s -> 1/(s**a - z) with -pi < theta <= pi, and the sum
    of their moduli, at 30 digits: theta = (arg z + 2 pi k)/a over the
    integers k, zeta**(1-b) on the principal branch."""
    with mp.workdps(30):
        a_, b_ = mp.mpf(a), mp.mpf(b)
        r = abs(mp.mpf(z)) ** (1 / a_)
        shift = 1 if z < 0 else 0
        total, modulus = mp.mpf(0), mp.mpf(0)
        for k in range(-int(a) - 1, int(a) + 2):
            turn = mp.mpf(2 * k + shift) / a_   # theta / pi
            if -1 < turn <= 1:
                term = r ** (1 - b_) * mp.expjpi(turn * (1 - b_)) \
                    * mp.exp(r * mp.expjpi(turn)) / a_
                total += mp.re(term)
                modulus += abs(term)
        return float(total), float(modulus)


class TestBand:
    @pytest.mark.parametrize("a", [1.0, 1.2, 1.5, 1.9, 2.0, 2.5, 3.0, 4.5])
    def test_residues_against_mpmath(self, a):
        # the long-double phase |zeta| sin(c pi/a) keeps every value within
        # 4 ulp of the residues' modulus, up to |zeta| = 100 on either side
        # of zero, with every pole of the principal sheet past a = 2
        x = np.linspace(1.0, 100.0, 25)
        z = np.concatenate([-x**a, x**a])
        # every pole of the principal sheet, c up to a
        poles = 2 * np.arange(int(a) // 2 + 1) + (z < 0.0)[:, None]
        for b in (-1.0, 0.5, 1.0, 2.5):
            got, got_modulus = specfun._ml_residues(a, b, z, poles, poles <= a)
            want, modulus = np.array([residues_mp(a, b, v)
                                      for v in z.tolist()]).T
            assert np.all(np.abs(got - want) <= 4.0 * EPS * modulus), (a, b)
            assert np.all(np.abs(got_modulus - modulus)
                          <= 4.0 * EPS * modulus), (a, b)

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 1.5, 2.0])
    def test_positive_arguments(self, a, monkeypatch):
        # z > 0 in the band: the residue of the real pole, up to e**40,
        # and the contour's algebraic part
        spy = RouteSpy(monkeypatch)
        z = np.linspace(6.0, 40.0, 20) ** a
        for b in (-1.0, 1.5):
            assert_envelope(a, b, z)
        assert spy.counts["contour"] >= 30

    @pytest.mark.parametrize("b", [-0.9, 0.5, 3.3])
    def test_orders_near_two(self, b, monkeypatch):
        # the contour takes |z|**(1/a) up to 100, where a float phase or a
        # rounded sqrt(|z|) would move the residues by about |zeta|**(2-b)
        # ulp
        spy = RouteSpy(monkeypatch)
        for a in (1.97, 1.99, 2.0):
            assert_envelope(a, b, -np.linspace(10.0, 100.0, 12) ** a)
        assert spy.counts["contour"] >= 30

    @pytest.mark.parametrize("a", [2.5, 3.0, 3.5, 4.5])
    def test_orders_above_two(self, a, monkeypatch):
        # past a = 2 the pair at arg +-2 pi/a for z > 0, and past a = 3 the
        # pair at arg +-3 pi/a for z < 0, lie right of the contour too: each
        # pole's residue is added and each kept 0.3 clear, up to |z| = 1e4
        spy = RouteSpy(monkeypatch)
        x = np.linspace(2.0, 1e4 ** (1.0 / a), 16)
        z = np.concatenate([-x**a, x**a, [316.0, 1e4]])
        for b in (-1.0, 1.0, 2.5):
            assert_envelope(a, b, z)
        assert spy.counts["contour"] >= 30

    def test_scale_ties_take_the_smaller(self, monkeypatch):
        # at a = 4.5, b = -1 and z in [-22.5, -17] the poles leave m = 4 and
        # m = 0.25 equally near 1; at m = 4 the bound reads 1.6e-12 and the
        # value would be refused, at m = 0.25 it is certified to 2.5e-15
        spy = RouteSpy(monkeypatch)
        assert_envelope(4.5, -1.0, -np.linspace(17.0, 22.5, 12))
        assert spy.counts["contour"] == 12

    def test_closed_form_at_large_x(self):
        # x = sqrt(|z|) in long double: cos x and sin x / x to a few
        # 1e-17 where a float x would leave up to 1e-14
        z = -np.linspace(5000.0, 1e4, 41)
        with mp.workdps(30):
            x = [mp.sqrt(-mp.mpf(v)) for v in z.tolist()]
            cos_x = np.array([float(mp.cos(v)) for v in x])
            sinc_x = np.array([float(mp.sin(v) / v) for v in x])
        assert np.max(np.abs(ml_array(2.0, 1.0, z) - cos_x)) <= 1e-15
        assert np.max(np.abs(ml_array(2.0, 2.0, z) - sinc_x)) <= 1e-15


def ml_expansion(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) at z < 0 by its large-|z| expansion in mpmath at 30
    digits: the residues of the principal sheet's poles
    (:func:`residues_mp`) minus sum_j z**-j / Gamma(b - a*j), up to the
    smallest of the term bounds |z|**-j Gamma(1 - w)/pi at w = b - a*j < 0
    (2 |z|**-j above), which must be below 1e-14."""
    with mp.workdps(30):
        a_, b_, z_ = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s, j, smallest = mp.mpf(0), 1, mp.inf
        while smallest >= 1e-30:
            w = b_ - a_ * j
            bound = abs(z_) ** -j * (mp.gamma(1 - w) / mp.pi if w < 0 else 2)
            if bound > smallest:
                break
            s -= z_ ** -j * mp.rgamma(w)
            smallest, j = bound, j + 1
        assert smallest < 1e-14, (a, b, z)
        return residues_mp(a, b, z)[0] + float(s)


class TestLargeArguments:
    """The negative arguments a large-|z| expansion once took: the contour
    holds them to the direct series at 1e-15 + 4 ulp at the band's edge,
    and to the expansion at 1e-12 + 4 ulp out to |z| = 1e8."""

    @pytest.mark.parametrize("a,bs,lo,hi", [
        (0.7, (0.7, 1.0, 1.4, 1.7, 2.4), 9.0, 12.0),
        (1.5, (1.0, 1.5, 2.0, 3.0, 4.0), 85.0, 160.0)])
    def test_band_edge_against_the_series(self, a, bs, lo, hi):
        z = -np.linspace(lo, hi, 31)
        for b in bs:
            got = ml_array(a, b, z)
            want = np.array([ml_series(a, b, v) for v in z.tolist()])
            err = np.abs(got - want) - 4.0 * EPS * np.abs(want)
            assert err.max() <= 1e-15, (a, b, z[np.argmax(err)], err.max())

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.2, 1.5, 1.9])
    def test_against_the_expansion(self, a):
        # from |z|**(1/a) = 40, where the expansion's smallest term is
        # below 1e-14, to |z| = 1e8
        z = -np.logspace(a * math.log10(40.0), 8.0, 41)
        for b in (-1.0, 0.5, 1.0, 1.7, 3.0):
            got = ml_array(a, b, z)
            want = np.array([ml_expansion(a, b, v) for v in z.tolist()])
            err = np.abs(got - want) - 4.0 * EPS * np.abs(want)
            assert err.max() <= 1e-12, (a, b, z[np.argmax(err)], err.max())


class TestLargeSecondParameter:
    """The trapezoid's own error grows toward the contour's branch point
    like 0.49**-b at m = 1, past the tolerance from b near 36 (30 beside a
    pole), where the rounding bound alone once certified 7.5e-4 for
    8.9e-157 at (0.5, 100, -2): each value is within 1e-12 + 4 ulp of the
    direct series (the large-|z| expansion past |z|**(1/a) = 500, where the
    series needs thousands of digits) or refused with its arguments
    named."""

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 1.0, 1.5, 2.0])
    def test_within_the_envelope_or_refused(self, a):
        certified = []
        for b in (20.0, 36.0, 40.0, 50.0, 100.0):
            for z in (-20.0, -2.0, -0.5, 0.5, 3.0):
                try:
                    got = float(ml_array(a, b, [z])[0])
                except CancellationError as exc:
                    assert f"(a={a}, b={b}, z={z})" in str(exc)
                    continue
                want = (ml_expansion(a, b, z) if abs(z) ** (1.0 / a) > 500.0
                        else ml_series(a, b, z))
                assert abs(got - want) <= 1e-12 + 4.0 * EPS * abs(want), (
                    a, b, z, got, want)
                certified.append(b)
        # b = 20, far above the solution's kernels (b at most 7), is still
        # certified
        assert certified.count(20.0) == 5


class TestBandOnBench:
    """The nonzero elements of the bench workloads' seed-3 CLI runs, configs
    from ``bench/workloads.py`` (imported, not changed): the contour takes
    those of the fractional orders, the closed form those of the integer
    ones from z = -1 down and the contour the rest, and each is
    certified."""

    @pytest.mark.parametrize("name,route", [("inverse_frac", "contour"),
                                            ("forward_dense", "contour"),
                                            ("inverse_int", "closed form")],
                             ids=["inverse_frac", "forward_dense", "inverse_int"])
    def test_band_route(self, name, route, tmp_path, monkeypatch):
        bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        monkeypatch.syspath_prepend(os.path.abspath(bench))
        case = importlib.import_module("workloads").generate(name, 3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(case.config), encoding="utf-8")
        spy = RouteSpy(monkeypatch)
        spy.wrap(monkeypatch, "_ml_contour", "contour at z <= -1",
                 lambda args, out: np.count_nonzero(args[2] <= -1.0))
        assert cli.main(case.cli_args(str(config),
                                      str(tmp_path / "out"))) == 0
        assert spy.counts[route] > 2000
        if route == "closed form":
            assert spy.counts["contour at z <= -1"] == 0 < spy.counts["contour"]
        else:
            assert spy.counts["closed form"] == 0


class TestRouteBoundaries:
    # the routes meet at z = 0 (1/Gamma(b) and the band) and, at the
    # integer orders with integral b, at z = -1 (the contour above it and
    # the closed form from it on down)
    def test_both_sides_of_every_boundary(self, monkeypatch):
        z = np.array([float(np.nextafter(-1.0, -2.0)), -1.0,
                      float(np.nextafter(-1.0, 0.0))])
        spy = RouteSpy(monkeypatch)
        pairs = [(1.0, 0.0), (1.0, 3.0), (2.0, -1.0), (2.0, 1.0), (2.0, 5.0)]
        for a, b in pairs:
            assert_bitwise(a, b, z)
            assert_envelope(a, b, z)
        # each pair: two closed forms and a contour in each of three calls
        assert spy.counts["closed form"] == 6 * len(pairs)
        assert spy.counts["contour"] == 3 * len(pairs)

    def test_zero_boundary(self):
        tiny = 5e-324
        for a, b in ((0.7, 1.0), (1.5, 0.0), (2.0, -1.0)):
            assert_bitwise(a, b, np.array([-tiny, -0.0, 0.0, tiny]))


class TestEdgeCases:
    def test_empty(self):
        out = ml_array(0.7, 1.0, np.array([]))
        assert out.shape == (0,) and out.dtype == float

    def test_zero_dimensional(self):
        out = ml_array(1.5, 2.0, -7.5)
        assert out.shape == ()
        assert float(out) == ml_ref(1.5, 2.0, -7.5)

    def test_signed_zero_and_positive(self):
        got = ml_array(0.5, 1.5, [0.0, -0.0, 0.25, 3.0])
        assert bits(got[0]) == bits(got[1]) == bits(ml_ref(0.5, 1.5, 0.0))
        assert np.array_equal(got[2:], single_calls(0.5, 1.5, [0.25, 3.0]))

    def test_smallest_normal_order(self):
        # 1/a near the float range: the contour's 1/(s**a - z), which is
        # 1/0 where s**a = 1 = z, raises no warning;
        # E_{a,1}(z) is 1/(1 - z) to within a, and the band refuses z = 1
        a = 2.2250738585072014e-308
        assert ml_array(a, 1.0, [0.015625])[0] == pytest.approx(64.0 / 63.0,
                                                                abs=1e-15)
        with pytest.raises(CancellationError, match="band misses"):
            ml_array(a, 0.0, [1.0])

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ml_array(0.0, 1.0, [1.0])
        with pytest.raises(ValueError, match="finite"):
            ml_array(0.5, 1.0, [1.0, math.nan])


class TestSmallOrder:
    # at a = 0.1 and |z| in [4, 10] the series peaks past 10**7 terms, and
    # the contour's cost does not depend on where
    Z = -np.linspace(4.0, 10.0, 25)

    def test_matches_the_integral_representation(self):
        got = ml_array(0.1, 1.0, self.Z)
        want = [ml_neg_integral(0.1, -z) for z in self.Z]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_equals_the_scalar_reference(self):
        assert_bitwise(0.1, 1.0, self.Z)
        assert ml_array(0.1, 1.0, self.Z).tolist() == [
            ml_ref(0.1, 1.0, z) for z in self.Z.tolist()]


class TestErrors:
    def test_refusal_near_one_at_a_tiny_order(self):
        # at a tiny order s**a stays near 1 along the contour, so
        # 1/(s**a - z) reaches about 1/(1 - z) = 1e9 and E about 2.3e6: the
        # contour's rounding bound misses the tolerance
        with pytest.raises(CancellationError,
                           match=r"band misses 1e-12.*z=0\.999999999\)"):
            ml_array(1e-6, 1.0, [-0.5, 0.999999999])

    def test_precision_cap(self):
        # x = sqrt(1e11) in long double allows the closed form's cos x to be
        # up to 1.4e-13 off, and E_{2,-1} = z cos x multiplies that by |z|
        with pytest.raises(CancellationError) as scalar:
            ml_ref(2.0, -1.0, -1e11)
        with pytest.raises(CancellationError) as array:
            ml_array(2.0, -1.0, [-400.0, -1e11])
        assert str(array.value) == str(scalar.value)
        assert "(a=2.0, b=-1.0, z=-100000000000.0)" in str(array.value)

    def test_contour_certification(self, monkeypatch):
        # the residues at |zeta| = sqrt(1e11) = 3.2e5 are bounded at 8
        # long-double ulp per unit of |zeta|, 2.7e-13 of their modulus
        # |zeta|**1.5 = 1.8e8: the contour's bound misses the envelope and
        # the band refuses the value
        with pytest.raises(CancellationError) as scalar:
            ml_ref(2.0, -0.5, -1e11)
        spy = RouteSpy(monkeypatch)
        with pytest.raises(CancellationError) as array:
            ml_array(2.0, -0.5, [-400.0, -1e11])
        assert str(array.value) == str(scalar.value) == (
            "ml band misses 1e-12 (a=2.0, b=-0.5, z=-100000000000.0)")
        assert spy.counts["contour"] == 2

    def test_large_order_refused_without_a_pass_per_pole(self):
        # at a = 2e4 each z has 10,001 pole columns; the search for the
        # contour's scale stops at the first pass that moves neither side,
        # not after one pass per column, so the refusal comes in well
        # under a second
        start = time.perf_counter()
        with pytest.raises(CancellationError, match=(
                r"band misses 1e-12 \(a=20000\.0, b=1\.0, z=-10\.0\)")):
            ml_array(2e4, 1.0, np.linspace(-10.0, 0.0, 21))
        assert time.perf_counter() - start < 5.0

    # at a = 0.01 the band refuses E_{0.01,1} at -1e4 and at 0.95, and
    # certifies it from -1000 to -1 and from 0.001 to 0.5
    FAR = r"band misses 1e-12 \(a=0\.01, b=1\.0, z=-10000\.0\)"
    NEAR = r"band misses 1e-12 \(a=0\.01, b=1\.0, z=0\.95\)"

    def test_first_offending_element_decides(self):
        # whichever comes first in z is reported
        with pytest.raises(CancellationError, match=self.FAR):
            ml_array(0.01, 1.0, [-5.0, -1e4, 0.95])
        with pytest.raises(CancellationError, match=self.NEAR):
            ml_array(0.01, 1.0, [-5.0, 0.95, -1e4])

    def test_first_offending_element_across_chunks(self):
        # -1e4 and 0.95 are the first and the last of 8,194 distinct z,
        # each among 4,096 others in its contour call (dozens of element
        # steps); the order of z still decides
        fill = np.concatenate([-np.linspace(1.0, 1000.0, 4096),
                               np.linspace(0.001, 0.5, 4096)])
        with pytest.raises(CancellationError, match=self.FAR):
            ml_array(0.01, 1.0, np.concatenate([[-1e4], fill, [0.95]]))
        with pytest.raises(CancellationError, match=self.NEAR):
            ml_array(0.01, 1.0, np.concatenate([[0.95], fill, [-1e4]]))


# ---------------------------------------------------------------------------
# identities over the box, on both evaluators


def on_scalar(a, b, z):
    return ml(MLArgs(a, b, z))


def on_array(a, b, z):
    return float(ml_array(a, b, np.array([z]))[0])


EVALUATORS = pytest.mark.parametrize("evaluate", [on_scalar, on_array],
                                     ids=["ml", "ml_array"])
ORDERS = st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)
SECOND = st.floats(-1.0, 3.0)
ARGS = st.floats(-1e4, 5.0)


def evaluated(evaluate, a, b, z) -> float:
    """E_{a,b}(z), or the example discarded where the evaluator refuses it
    (a typed error) or the value leaves the float range."""
    try:
        v = evaluate(a, b, z)
    except CancellationError:
        assume(False)
    assume(math.isfinite(v))
    return v


def within(got: float, want: float, scale: float = 0.0) -> bool:
    """|got - want| within the 1e-12 absolute envelope of each evaluation
    (scale counts the extra evaluations folded into want) plus float
    rounding of the values involved."""
    return abs(got - want) <= (1e-12 * (1.0 + scale)
                               + 4.0 * EPS * (abs(got) + abs(want)))


@EVALUATORS
class TestIdentities:
    @given(a=ORDERS, b=SECOND, z=ARGS)
    def test_recurrence(self, evaluate, a, b, z):
        # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)
        lhs = evaluated(evaluate, a, b, z)
        shifted = evaluated(evaluate, a, a + b, z)
        rhs = float(mp.rgamma(b)) + z * shifted
        assert within(lhs, rhs, abs(z)), (a, b, z, lhs, rhs)

    @given(z=ARGS)
    def test_order_one(self, evaluate, z):
        assert within(evaluated(evaluate, 1.0, 1.0, z), math.exp(z))
        e12 = math.expm1(z) / z if z != 0.0 else 1.0
        assert within(evaluated(evaluate, 1.0, 2.0, z), e12)

    @given(z=ARGS)
    def test_order_two(self, evaluate, z):
        x = math.sqrt(abs(z))
        if z <= 0.0:
            e21, e22 = math.cos(x), (math.sin(x) / x if x else 1.0)
        else:
            e21, e22 = math.cosh(x), math.sinh(x) / x
        assert within(evaluated(evaluate, 2.0, 1.0, z), e21)
        assert within(evaluated(evaluate, 2.0, 2.0, z), e22)
