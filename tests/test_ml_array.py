"""The Mittag-Leffler evaluator: agreement with the scalar reference
``fracref.ml_ref`` (bit for bit, except where the band's certified
Chebyshev proxy covers an element), its memo, edge cases and errors, and
identities that it holds over the box a in (0, 2), b in (-1, 3),
z in [-1e4, 5], on many arguments at once and on one."""

from __future__ import annotations

import importlib
import json
import math
import os
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from fracref import clear_memos, ml_ref, ml_route
from oracles import ml_neg_integral
from fracmix import cli, specfun
from fracmix.errors import CancellationError, ConvergenceError
from fracmix.specfun import MLArgs, ml, ml_array


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def scalar_values(a, b, z) -> np.ndarray:
    return np.array([ml_ref(a, b, float(zi)) for zi in z])


@contextmanager
def proxy_records():
    """The band proxy's (z, bounds) of every call made inside the block."""
    records: list = []
    real = specfun._ml_proxy

    def spy(*args):
        values, bounds = real(*args)
        records.append((args[2], bounds))
        return values, bounds

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_ml_proxy", spy)
        yield records


class PieceSpy:
    """Records (x0, half, certified) of every proxy piece tried."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list = []
        real = specfun._ml_piece

        def spy(a, b, x0, half):
            fit = real(a, b, x0, half)
            self.calls.append((x0, half, fit is not None))
            return fit

        monkeypatch.setattr(specfun, "_ml_piece", spy)


def with_proxy_bounds(a, b, z):
    """ml_array on z and, per element, the tolerance the band's proxy
    certified where it covered the element (NaN elsewhere)."""
    with proxy_records() as records:
        got = ml_array(a, b, z)
    bound_at: dict = {}
    for zs, bounds in records:
        covered = ~np.isnan(bounds)
        bound_at.update(zip(zs[covered].tolist(), bounds[covered].tolist()))
    z = np.asarray(z, dtype=float)
    return got, np.array([bound_at.get(v, math.nan) for v in z.ravel().tolist()])


class SeriesSpy:
    """Records the arguments of every exact band sum."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list = []
        real = specfun._ml_series_mp

        def spy(a, b, z, peak_nats):
            self.calls.append((a, b, z))
            return real(a, b, z, peak_nats)

        monkeypatch.setattr(specfun, "_ml_series_mp", spy)


def assert_bitwise(a, b, z) -> int:
    """ml_array on z, then the reference point by point, each from a
    cleared memo: bit for bit equal at every element the proxy did not
    cover, and within the proxy's certified tolerance, no looser than
    _PROXY_TOL * max(1, max|node value|) and half of _ABS_TOL, of
    the reference's exact band value at every element it covered.  Returns
    how many it covered."""
    clear_memos()
    got, bound = with_proxy_bounds(a, b, z)
    clear_memos()
    want = scalar_values(a, b, z)
    exact = np.isnan(bound)
    bad = np.flatnonzero(exact & (bits(got) != bits(want)))
    assert bad.size == 0, (a, b, z[bad][:3], got[bad][:3], want[bad][:3])
    covered = np.flatnonzero(~exact)
    if covered.size:
        assert all(ml_route(a, b, float(v))[1] is None
                   for v in z[covered]), (a, b)
        # the nodes span the covered elements' interval, so their largest
        # value is within a factor two of the elements' on these grids
        scale = max(1.0, float(np.abs(want[covered]).max()))
        assert np.all(bound[covered] <= np.minimum(
            2.0 * specfun._PROXY_TOL * scale, 0.5 * specfun._ABS_TOL)), (a, b)
        err = np.abs(got[covered] - want[covered])
        worst = int(np.argmax(err / bound[covered]))
        assert np.all(err <= bound[covered]), (
            a, b, z[covered][worst], err[worst], bound[covered][worst])
    return covered.size


GRID_Z = np.concatenate([-np.logspace(-3.0, 4.0, 141),
                         np.linspace(-100.0, 0.0, 101),
                         np.linspace(0.0, 3.0, 31)[1:], [0.0]])


class TestBitwise:
    @pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 1.5, 1.9, 2.0])
    def test_equals_scalar_on_grid(self, a):
        for b in (-1.0, -0.3, 0.4, 1.0, 1.7, 2.5, 4.0):
            assert_bitwise(a, b, GRID_Z)

    def test_more_distinct_arguments_than_one_chunk(self):
        z = -np.logspace(-3.0, 3.5, 2 * specfun._CHUNK + 5)
        assert assert_bitwise(0.7, 1.0,
                              np.concatenate([z, -z[z > -3.0][::7]])) > 0

    def test_repeats_and_shape(self):
        z = np.array([[-3.0, -3.0, 0.5], [-250.0, -0.0, -3.0]])
        got = ml_array(0.7, 1.7, z)
        assert got.shape == z.shape
        assert np.array_equal(got.ravel(),
                              scalar_values(0.7, 1.7, z.ravel()))


# z ranges that hold the band of E_{a,b}, b in [-1, 2.5], at each order
BAND_Z = {0.3: (1.4, 2.9), 0.7: (2.4, 12.0), 1.2: (4.5, 72.0),
          1.5: (6.9, 210.0), 1.9: (11.0, 860.0)}


def band_elements(a, b, z) -> int:
    """How many elements of z the band sums (their reference routes have
    no value of their own)."""
    return sum(ml_route(a, b, float(v))[0]
               in ("band", "float-overflow", "float-guard") for v in z)


class TestProxy:
    @pytest.mark.parametrize("a", sorted(BAND_Z))
    def test_dense_band_grid_holds_the_exact_sum(self, a):
        lo, hi = BAND_Z[a]
        z = -np.linspace(lo, hi, 800)
        for b in (-1.0, 0.5, 2.5):
            assert assert_bitwise(a, b, z) > 0.3 * z.size, (a, b)

    def test_corrupted_node_fails_certification(self, monkeypatch):
        a, b = 1.5, 0.5
        z = -np.linspace(*BAND_Z[a], 800)
        real = specfun._ml_exact_at
        corrupted = []

        def exact_at(a, b, s):
            values = real(a, b, s)
            if s.size == specfun._PROXY_NODES:
                corrupted.append(float(s[20]))
                values[20] += 1e-13
            return values

        monkeypatch.setattr(specfun, "_ml_exact_at", exact_at)
        pieces = PieceSpy(monkeypatch)
        assert assert_bitwise(a, b, z) == 0
        assert corrupted
        # each piece is tried once: a failed one is not split and retried,
        # so the x intervals tried do not overlap
        tried = sorted((x0, x0 + 2.0 * half) for x0, half, _ in pieces.calls)
        assert len(tried) == len(corrupted) >= 1
        assert all(x1 < x0 for (_, x1), (x0, _) in zip(tried, tried[1:]))
        assert not any(fit for _, _, fit in pieces.calls)

    def test_wide_order_two_band_sums_each_element_once(self, monkeypatch):
        # the band spans x = |z|**(1/2) from about 6 to 100: its three
        # pieces at _PROXY_COST sums each would cost more than a third of
        # the elements, so none is tried, though one piece would pay
        z = -np.linspace(2.0, 100.0, 600) ** 2
        n = band_elements(2.0, 1.0, z)
        assert 3 * specfun._PROXY_COST < n < 9 * specfun._PROXY_COST
        spy = SeriesSpy(monkeypatch)
        assert assert_bitwise(2.0, 1.0, z) == 0
        assert len(spy.calls) == len(set(spy.calls)) == n

    @pytest.mark.parametrize("where", [0, 200, -1])
    def test_precision_cap_above_the_threshold(self, where):
        band = -np.linspace(100.0, 900.0, 400)
        z = np.insert(band, where if where >= 0 else band.size, -1e7)
        with pytest.raises(CancellationError) as scalar:
            ml_ref(2.0, 3.0, -1e7)
        clear_memos()
        with proxy_records() as records, \
                pytest.raises(CancellationError) as array:
            ml_array(2.0, 3.0, z)
        assert str(array.value) == str(scalar.value)
        assert np.count_nonzero(~np.isnan(records[0][1])) > 0
        assert assert_bitwise(2.0, 3.0, band) > 0


class TestProxyOnBench:
    """The exact band sums the bench's workloads make, on their seed-3
    configs from ``bench/workloads.py`` (imported, not changed)."""

    @staticmethod
    def band_and_sums(name, tmp_path, monkeypatch) -> tuple[int, int]:
        bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        monkeypatch.syspath_prepend(os.path.abspath(bench))
        case = importlib.import_module("workloads").generate(name, 3)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(case.config), encoding="utf-8")
        band: set = set()
        routes = specfun._ml_array_routes

        def spy_routes(a, b, z, *args):
            idx, peak = routes(a, b, z, *args)
            band.update((a, b, v) for v in z[idx].tolist())
            return idx, peak

        monkeypatch.setattr(specfun, "_ml_array_routes", spy_routes)
        sums = SeriesSpy(monkeypatch)
        clear_memos()
        assert cli.main(case.cli_args(str(config),
                                      str(tmp_path / "out"))) == 0
        return len(band), len(sums.calls)

    def test_inverse_frac_sums_at_most_a_third(self, tmp_path, monkeypatch):
        band, sums = self.band_and_sums("inverse_frac", tmp_path, monkeypatch)
        assert band > 3000
        assert 3 * sums <= band

    @pytest.mark.parametrize("name,tried", [("inverse_frac", 5),
                                            ("forward_dense", 4)])
    def test_every_piece_certifies_on_its_first_try(self, name, tried,
                                                     tmp_path, monkeypatch):
        # the proxy tries each piece once; on the bench configs none needs
        # a second try
        pieces = PieceSpy(monkeypatch)
        self.band_and_sums(name, tmp_path, monkeypatch)
        assert len(pieces.calls) == tried
        assert all(fit for _, _, fit in pieces.calls)

    def test_inverse_int_sums_every_element(self, tmp_path, monkeypatch):
        # every band element still goes through _ml_series_mp, and at its
        # integer orders the closed form answers without an exact sum
        fixed, real = [], specfun._ml_fixed_sum

        def spy_fixed(*args):
            fixed.append(args)
            return real(*args)

        monkeypatch.setattr(specfun, "_ml_fixed_sum", spy_fixed)
        band, sums = self.band_and_sums("inverse_int", tmp_path, monkeypatch)
        assert band > 2000
        assert sums == band
        assert fixed == []


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


class TestMemo:
    def test_band_sum_runs_once_per_argument(self, monkeypatch):
        # at (0.7, 1) the band takes -8.14; -1 and -2 are float sums
        spy = SeriesSpy(monkeypatch)
        specfun._ml_band.cache_clear()
        first = ml_array(0.7, 1.0, [-8.14, -1.0])
        second = ml_array(0.7, 1.0, [-2.0, -8.14, -8.14])
        assert spy.calls == [(0.7, 1.0, -8.14)]
        assert bits(second[1]) == bits(second[2]) == bits(first[0])
        assert bits(first[0]) == bits(ml_ref(0.7, 1.0, -8.14))


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

    def test_term_budget_in_the_band(self, term_budget):
        term_budget(150)
        with pytest.raises(ConvergenceError) as scalar:
            ml_ref(0.7, 1.0, -8.14)
        with pytest.raises(ConvergenceError) as array:
            ml_array(0.7, 1.0, [-1.0, -8.14, -2.0])
        assert str(array.value) == str(scalar.value)
        assert "z=-8.14" in str(array.value)

    def test_precision_cap(self):
        with pytest.raises(CancellationError) as scalar:
            ml_ref(2.0, 1.0, -1e7)
        with pytest.raises(CancellationError) as array:
            ml_array(2.0, 1.0, [-400.0, -1e7])
        assert str(array.value) == str(scalar.value)

    def test_first_offending_element_decides(self, term_budget):
        # 50 has no horizon within the budget (found before any band sum),
        # -8.14 runs out of terms in the band: whichever comes first in z
        # is reported
        term_budget(150)
        with pytest.raises(ConvergenceError, match="within 150 terms.*z=50.0"):
            ml_array(0.7, 1.0, [-1.0, 50.0, -8.14])
        with pytest.raises(ConvergenceError,
                           match="more than 150 terms.*z=-8.14"):
            ml_array(0.7, 1.0, [-1.0, -8.14, 50.0])

    def test_first_offending_element_across_chunks(self, term_budget):
        # -8.14 lands in the first chunk of distinct arguments, 50 in the
        # second; the order of z still decides
        fill = np.linspace(1e-3, 1.0, specfun._CHUNK)
        fill = np.concatenate([-fill, fill])
        term_budget(150)
        with pytest.raises(ConvergenceError, match="within 150 terms.*z=50.0"):
            ml_array(0.7, 1.0, np.concatenate([[50.0], fill, [-8.14]]))
        with pytest.raises(ConvergenceError,
                           match="more than 150 terms.*z=-8.14"):
            ml_array(0.7, 1.0, np.concatenate([[-8.14], fill, [50.0]]))


# ---------------------------------------------------------------------------
# identities over the box, on both evaluators

EPS = np.finfo(float).eps


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
