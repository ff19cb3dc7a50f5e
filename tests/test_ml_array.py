"""The Mittag-Leffler evaluator: agreement with the scalar reference
``fracref.ml_ref`` (bit for bit at every element) and with a direct mpmath
series over the accuracy box, the band on the bench configs, edge cases and
errors, and identities that it holds over the box a in (0, 2), b in
(-1, 3), z in [-1e4, 5], on many arguments at once and on one."""

from __future__ import annotations

import importlib
import json
import math
import os
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fracref import clear_memos, ml_ref, ml_route
from oracles import ml_neg_integral
from fracmix import cli, specfun
from fracmix.errors import CancellationError, ConvergenceError
from fracmix.specfun import MLArgs, ml, ml_array


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def scalar_values(a, b, z) -> np.ndarray:
    return np.array([ml_ref(a, b, float(zi)) for zi in z])


class RouteSpy:
    """Counts the elements each route of ``ml_array`` evaluates: zero, the
    float series (the sums that stopped), the certified asymptotic
    expansion, the contour and the closed form."""

    def __init__(self, monkeypatch) -> None:
        self.counts: Counter = Counter()
        self.wrap(monkeypatch, "_ml_array_routes", "zero",
                  lambda args, out: np.count_nonzero(args[2] == 0.0))
        self.wrap(monkeypatch, "_ml_series_float_array", "float series",
                  lambda args, out: np.count_nonzero(out[2] == 0))
        self.wrap(monkeypatch, "_ml_asym_array", "asymptotic",
                  lambda args, out: np.count_nonzero(out[1]))
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
    """ml_array on z, then the reference point by point from a cleared
    memo: bit for bit equal at every element."""
    clear_memos()
    got = ml_array(a, b, z)
    want = scalar_values(a, b, z)
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
        z = -np.logspace(-3.0, 3.5, 2 * specfun._CHUNK + 5)
        spy = RouteSpy(monkeypatch)
        assert_bitwise(0.7, 1.0, np.concatenate([z, -z[z > -3.0][::7]]))
        assert spy.counts["contour"] > 1000

    def test_repeats_and_shape(self):
        z = np.array([[-3.0, -3.0, 0.5], [-250.0, -0.0, -3.0]])
        got = ml_array(0.7, 1.7, z)
        assert got.shape == z.shape
        assert np.array_equal(got.ravel(),
                              scalar_values(0.7, 1.7, z.ravel()))


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


def band_span(a: float, b: float, sign: float) -> tuple[float, float]:
    """The x range, z = sign * x**a, where the reference's routes leave
    elements to the band, probed at 120 points up to x_max(a)."""
    xs = np.linspace(0.5, x_max(a), 120).tolist()
    band = [x for x in xs if ml_route(a, b, sign * x**a)[0]
            in ("band", "float-guard", "float-overflow")]
    return (band[0], band[-1]) if band else (0.0, 0.0)


WORKLOAD_ORDERS = [0.7, 1.5, 1.0, 2.0]
ORDER_BOX = st.one_of(st.sampled_from(WORKLOAD_ORDERS),
                      st.floats(0.01, 2.0))


@st.composite
def box_calls(draw):
    """(a, b, z) of one ml_array call in the box a in [0.01, 2], b in
    [-1, 2a + 2], |z| <= min(1e4, x_max(a)**a): half of them calls with a
    few arguments anywhere in it (zero among them), half calls with at
    least 300 band arguments (a at least 0.5 there, and x at most
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
        # every route, the contour and the closed form among them, within
        # 1e-12 + 4 ulp of the direct series
        spy = RouteSpy(monkeypatch)

        # with the integer orders' closed forms on their bench pairs, and
        # the contour at a = 2 with b non-integral
        @settings(max_examples=16)
        @given(call=box_calls())
        @example(call=(2.0, 3.0, -1.0, 1))
        @example(call=(1.0, 2.0, -1.0, 2))
        @example(call=(2.0, 0.5, -1.0, 3))
        def holds(call):
            a, b, z, seed = call
            if seed is not None:
                lo, hi = band_span(a, b, z)
                hi = min(hi, 20.0 + 30.0 * a)
                assume(hi - lo > 1.0)
                x = np.random.default_rng(seed).uniform(lo, hi, 360)
                z = z * x**a
            before = spy.band()
            assert_envelope(a, b, z)
            if seed is not None:
                assert spy.band() - before >= 300, (a, b, spy.counts)

        holds()
        assert min(spy.counts[route] for route in (
            "zero", "float series", "asymptotic", "contour",
            "closed form")) > 0, spy.counts


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
        for b in (-1.0, 0.5, 1.0, 2.5):
            got, got_modulus = specfun._ml_residues(a, b, z)
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
        # a >= 1.97 has no asymptotic route: the contour takes |z|**(1/a)
        # up to 100, where a float phase or a rounded sqrt(|z|) would move
        # the residues by about |zeta|**(2-b) ulp
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


class TestBandOnBench:
    """The band elements of the bench workloads' seed-3 CLI runs, configs
    from ``bench/workloads.py`` (imported, not changed): the contour takes
    those of the fractional orders, the closed form those of the integer
    ones, and each is certified."""

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
        assert cli.main(case.cli_args(str(config),
                                      str(tmp_path / "out"))) == 0
        assert spy.counts[route] > 2000
        assert spy.band() == spy.counts[route]


def route_crossings(a, b, zs):
    """(route, route, lo, hi) for each pair of adjacent floats lo < hi
    between consecutive zs whose routes differ."""
    out = []
    routes = [ml_route(a, b, float(z))[0] for z in zs]
    for z0, z1, r0, r1 in zip(zs[:-1], zs[1:], routes[:-1], routes[1:]):
        if r0 == r1:
            continue
        lo, hi = float(z0), float(z1)
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                mid = float(np.nextafter(lo, hi))
            if ml_route(a, b, mid)[0] == r0:
                lo = mid
            else:
                hi = mid
        out.append((r0, r1, lo, hi))
    return out


ROUTE_PAIRS = [(0.3, 1.0), (0.7, 1.0), (0.7, 0.0), (1.0, 1.0), (1.5, 2.0),
               (1.5, -1.0), (1.969, 1.0), (1.97, 1.0), (2.0, 1.0)]
ROUTE_Z = np.concatenate([-np.logspace(4.0, -3.0, 120),
                          np.logspace(-3.0, 1.6, 40)])


def outcome(evaluate):
    """The bits of evaluate()'s value, or the type and text of its error."""
    try:
        return "value", int(bits(evaluate()))
    except (ConvergenceError, CancellationError) as exc:
        return type(exc), str(exc)


def assert_same_outcomes(a, b, zs) -> None:
    """Each z alone, then all that have a value at once, on the evaluator
    and the reference."""
    clear_memos()
    want = [outcome(lambda: ml_ref(a, b, z)) for z in zs]
    clear_memos()
    got = [outcome(lambda: ml_array(a, b, [z])[0]) for z in zs]
    assert got == want, (a, b, zs)
    assert_bitwise(a, b, np.array([z for z, w in zip(zs, want)
                                   if w[0] == "value"]))


class TestRouteBoundaries:
    def test_both_sides_of_every_boundary(self):
        kinds = set()
        for a, b in ROUTE_PAIRS:
            for r0, r1, lo, hi in route_crossings(a, b, ROUTE_Z):
                kinds.add(frozenset((r0, r1)))
                assert_same_outcomes(a, b, [float(np.nextafter(lo, -math.inf)),
                                            lo, hi,
                                            float(np.nextafter(hi, math.inf))])
        assert {frozenset(p) for p in (("asym", "band"), ("band", "float"),
                                       ("band", "diverges"))} <= kinds

    def test_cancellation_guard_boundary(self):
        # E_{2,1}(-x^2) = cos x: within about 1e-8 of its zero at x = pi/2
        # the float sum is too small for the guard, so the band takes it
        z0 = -(0.5 * math.pi) ** 2
        crossings = route_crossings(2.0, 1.0, [z0 - 1e-3, z0, z0 + 1e-3])
        assert [c[:2] for c in crossings] == [("float", "float-guard"),
                                              ("float-guard", "float")]
        for _, _, lo, hi in crossings:
            assert_same_outcomes(2.0, 1.0, [lo, hi])

    def test_zero_boundary(self):
        tiny = 5e-324
        for a, b in ((0.7, 1.0), (1.5, 0.0), (2.0, -1.0)):
            assert_bitwise(a, b, np.array([-tiny, -0.0, 0.0, tiny]))

    def test_order_threshold_of_the_expansion(self):
        # a = 1.97 is the first order with no asymptotic route
        for a in (float(np.nextafter(1.97, 0.0)), 1.97):
            assert_bitwise(a, 1.0, -np.logspace(2.5, 3.2, 25))


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
        assert np.array_equal(got[2:], scalar_values(0.5, 1.5, [0.25, 3.0]))

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            ml_array(0.0, 1.0, [1.0])
        with pytest.raises(ValueError, match="finite"):
            ml_array(0.5, 1.0, [1.0, math.nan])


class TestSmallOrder:
    # at a = 0.1 and |z| in [4, 16] the series peaks past 4*_MAX_TERMS
    # terms and has no horizon within the budget, yet the expansion
    # certifies the value
    Z = -np.linspace(4.0, 10.0, 25)

    def test_matches_the_integral_representation(self):
        got = ml_array(0.1, 1.0, self.Z)
        want = [ml_neg_integral(0.1, -z) for z in self.Z]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_equals_the_scalar_reference(self):
        assert_bitwise(0.1, 1.0, self.Z)
        assert {ml_route(0.1, 1.0, z)[0] for z in self.Z} == {"asym"}


class TestErrors:
    def test_real_term_budget(self):
        # at a tiny order the terms of z near 1 fall like z**k: no horizon
        # within the full 10**6 terms, found before any sum runs
        with pytest.raises(ConvergenceError,
                           match=r"does not converge within 1000000 terms"
                                 r".*z=0\.999999999\)"):
            ml_array(1e-6, 1.0, [-0.5, 0.999999999])

    def test_term_budget_in_the_band(self, term_budget, monkeypatch):
        # the band sums no series: -8.14 takes the contour, whose nodes do
        # not count against the budget that its series would exceed
        term_budget(150)
        spy = RouteSpy(monkeypatch)
        got = ml_array(0.7, 1.0, [-1.0, -8.14, -2.0])
        assert spy.counts["contour"] == 1
        assert np.array_equal(bits(got),
                              bits(scalar_values(0.7, 1.0, [-1.0, -8.14, -2.0])))

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

    def test_first_offending_element_decides(self, term_budget):
        # 50 has no horizon within the budget, and the float series of
        # -1.8 runs out of terms: whichever comes first in z is reported
        term_budget(34)
        with pytest.raises(ConvergenceError, match="within 34 terms.*z=50.0"):
            ml_array(0.7, 1.0, [-1.0, 50.0, -1.8])
        with pytest.raises(ConvergenceError,
                           match="more than 34 terms.*z=-1.8"):
            ml_array(0.7, 1.0, [-1.0, -1.8, 50.0])

    def test_first_offending_element_across_chunks(self, term_budget):
        # -1.8 lands in the first chunk of distinct arguments, 50 in the
        # third; the order of z still decides
        fill = np.linspace(1e-3, 1.0, specfun._CHUNK)
        fill = np.concatenate([-fill, fill])
        term_budget(34)
        with pytest.raises(ConvergenceError, match="within 34 terms.*z=50.0"):
            ml_array(0.7, 1.0, np.concatenate([[50.0], fill, [-1.8]]))
        with pytest.raises(ConvergenceError,
                           match="more than 34 terms.*z=-1.8"):
            ml_array(0.7, 1.0, np.concatenate([[-1.8], fill, [50.0]]))


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
    except (ConvergenceError, CancellationError):
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
