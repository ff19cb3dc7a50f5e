"""Bi-orthogonal family: evaluations, projections, Gram identity."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from fracref import trig_deriv
from oracles import gram_deviation, max_abs_diff

from fracmix.basis import (
    CoefficientSet,
    TrigPolynomial,
    project,
    root_function,
    synthesize,
    synthesize_second_deriv,
    table_rows,
)


class TestModeIndex:
    def test_wavenumber_past_array_length_rejected(self):
        # no mode index reaches past sys.maxsize
        for k in (sys.maxsize + 1, 10**400):
            with pytest.raises(ValueError, match="atom k must lie in"):
                TrigPolynomial.from_atoms([("cosine", k, 1.0)])
        TrigPolynomial.from_atoms([("cosine", sys.maxsize, 1.0)])

    def test_constant_requires_k0(self):
        with pytest.raises(ValueError):
            TrigPolynomial.from_atoms([("constant", 1, 1.0)])
        with pytest.raises(ValueError):
            TrigPolynomial.from_atoms([("cosine", 0, 1.0)])
        with pytest.raises(ValueError):
            TrigPolynomial.from_atoms([("sine", 1, 1.0)])


class TestFromAtoms:
    @pytest.mark.parametrize("atom", [
        ("cosine", 1.9, 1.0), ("cosine", True, 1.0), ("cosine", "1", 1.0),
        ("cosine", 1, True), ("cosine", 1, "1.0"), ("cosine", 1, None),
        ("cosine", 1, math.nan), ("cosine", 1, math.inf),
        ("x-sine", 2, -math.inf)])
    def test_rejects_non_numbers(self, atom):
        with pytest.raises(ValueError):
            TrigPolynomial.from_atoms([atom])

    def test_stores_int_k_and_float_amplitude(self):
        tp = TrigPolynomial.from_atoms([("x-sine", np.int64(2), 3)])
        ((kind, k, amp),) = tp.atoms
        assert (kind, type(k), k, type(amp), amp) == ("x-sine", int, 2,
                                                      float, 3.0)


class TestRootFunctions:
    def test_constant(self):
        assert root_function("constant", 0, 0.37) == 1.0

    def test_cosine_half(self):
        assert root_function("cosine", 1, 0.5) == pytest.approx(-1.0)

    def test_xsine_quarter(self):
        assert root_function("x-sine", 2, 0.25) == pytest.approx(
            0.0, abs=1e-15)


class TestProject:
    def test_constant_goes_to_c0_only(self):
        c = project(TrigPolynomial.from_atoms([("constant", 0, 1.0)]), 4)
        assert c.c0 == 1.0
        assert np.all(c.c1 == 0.0) and np.all(c.c2 == 0.0)

    def test_constant_quadrature_route(self):
        c = project(lambda x: np.ones_like(x), 4)
        assert c.c0 == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(c.c1)) <= 1e-12
        assert np.max(np.abs(c.c2)) <= 1e-12

    def test_cos_mode(self):
        c = project(lambda x: np.cos(2 * math.pi * x), 4)
        assert c.c0 == pytest.approx(0.0, abs=1e-13)
        assert c.c1[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(c.c1[1:]).max() <= 1e-12
        assert abs(c.c2).max() <= 1e-12

    def test_xsine_mode_biorthogonal(self):
        c = project(lambda x: x * np.sin(2 * math.pi * x), 4)
        assert c.c2[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(c.c1).max() <= 1e-12
        assert c.c0 == pytest.approx(0.0, abs=1e-13)

    def test_exact_vs_quadrature_agree(self):
        tp = TrigPolynomial.from_atoms([
            ("constant", 0, 0.3), ("cosine", 1, 1.0), ("cosine", 3, -0.5),
            ("x-sine", 2, 0.8)])
        exact = project(tp, 5)
        quad = project(lambda x: tp(x), 5)
        assert max_abs_diff(exact, quad) <= 1e-12

    def test_sampled_mode(self):
        xs = np.linspace(0.0, 1.0, 20001)
        c = project((xs, np.cos(2 * math.pi * xs)), 3)
        assert c.c1[0] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("xs", [[0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5],
                                    [0.0, math.nan, 1.0]],
                             ids=["repeated", "unsorted", "nan"])
    def test_sampled_x_must_increase(self, xs):
        # np.interp assumes increasing x and would answer anything
        with pytest.raises(ValueError, match="strictly increasing"):
            project((np.array(xs), np.zeros(len(xs))), 3)

    def test_truncation_drops_high_modes(self):
        tp = TrigPolynomial.from_atoms([("cosine", 7, 1.0)])
        c = project(tp, 3)
        assert max_abs_diff(c, CoefficientSet.zeros(3)) == 0.0


class TestSynthesize:
    def test_zero(self):
        c = CoefficientSet.zeros(3)
        assert synthesize(c.rows, 0.4) == 0.0

    def test_constant_everywhere(self):
        c = CoefficientSet(1.0, np.zeros(3), np.zeros(3))
        for x in (0.0, 0.3, 1.0):
            assert synthesize(c.rows, x) == 1.0

    def test_round_trip_cos4pix(self):
        c = project(lambda x: np.cos(4 * math.pi * x), 6)
        assert synthesize(c.rows, 0.1) == pytest.approx(
            math.cos(0.4 * math.pi), abs=1e-12)

    def test_round_trip_uniform_in_span(self):
        tp = TrigPolynomial.from_atoms([
            ("constant", 0, -0.2), ("cosine", 2, 0.7), ("x-sine", 1, 1.3),
            ("x-sine", 4, -0.4)])
        c = project(tp, 8)
        xs = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(synthesize(c.rows, xs) - tp(xs))) <= 1e-10

    def test_vectorized_matches_scalar(self):
        c = CoefficientSet(0.5, np.array([1.0, -0.2]), np.array([0.0, 0.3]))
        xs = np.array([0.1, 0.5, 0.9])
        vec = synthesize(c.rows, xs)
        assert vec == pytest.approx([synthesize(c.rows, x) for x in xs])

    def test_rows_layout(self):
        c = CoefficientSet(0.5, np.array([1.0, -0.2]), np.array([0.0, 0.3]))
        assert c.rows.tolist() == [0.5, 1.0, 0.0, -0.2, 0.3]
        table = table_rows(np.zeros(2), np.ones((3, 2)), 2.0 * np.ones((3, 2)))
        assert table.shape == (7, 2)
        assert table[:, 1].tolist() == [0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]

    @pytest.mark.parametrize("fn", [synthesize, synthesize_second_deriv])
    @pytest.mark.parametrize("K,m", [(1, 1), (5, 7), (16, 40)])
    def test_table_equals_its_columns(self, fn, K, m):
        # one call over a (2K+1, m) table, one row of output per column,
        # bit for bit the m single-column calls
        rng = np.random.default_rng(K * 100 + m)
        table = rng.normal(size=(2 * K + 1, m))
        for x in (np.linspace(0.0, 1.0, 37), np.array(0.3)):
            got = fn(table, x)
            assert got.shape == (m,) + x.shape
            want = np.array([fn(table[:, j], x) for j in range(m)])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_table_peak_is_about_its_result(self):
        # a u table of 4001 times by 21 points at K = 10: the rows go into
        # one preallocated result, with no list of rows stacked at the end
        # (about 2.9 results)
        table = np.random.default_rng(4).normal(size=(21, 4001))
        xs = np.linspace(0.0, 1.0, 21)
        tracemalloc.start()
        try:
            got = synthesize(table, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (4001, 21)
        assert peak < 1.5 * got.nbytes, peak / got.nbytes


_AMPLITUDE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def coefficient_sets(draw):
    K = draw(st.integers(1, 24))
    c1 = draw(st.lists(_AMPLITUDE, min_size=K, max_size=K))
    c2 = draw(st.lists(_AMPLITUDE, min_size=K, max_size=K))
    return CoefficientSet(draw(_AMPLITUDE), np.array(c1), np.array(c2))


class TestXConditions:
    """u(0) = u(1) and u_x(0) = 0 hold exactly for every coefficient set,
    so the residual report carries no x-boundary check."""

    @given(coefficient_sets())
    def test_periodic_and_flat_at_zero(self, c):
        assert synthesize(c.rows, 0.0) == synthesize(c.rows, 1.0)
        atoms = [("constant", 0, c.c0)]
        for k in range(1, c.K + 1):
            atoms += [("cosine", k, c.c1[k - 1]), ("x-sine", k, c.c2[k - 1])]
        assert trig_deriv(TrigPolynomial.from_atoms(atoms), 0.0, 1) == 0.0


class TestSecondDerivative:
    def test_matches_trig_poly_deriv(self):
        tp = TrigPolynomial.from_atoms([
            ("cosine", 1, 0.5), ("x-sine", 2, -0.8)])
        c = project(tp, 4)
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(synthesize_second_deriv(c.rows, xs)
                             - trig_deriv(tp, xs, 2))) <= 1e-9

    def test_eigen_residual_cosine(self):
        # cosine modes are genuine eigenfunctions
        tp = TrigPolynomial.from_atoms([("cosine", 3, 1.0)])
        lam = (2 * 3 * math.pi) ** 2
        xs = np.linspace(0.0, 1.0, 64)
        assert np.max(np.abs(trig_deriv(tp, xs, 2) + lam * tp(xs))) <= 1e-8

    def test_associate_coupling(self):
        # the x-sine associate couples back to the cosine of the same k
        k = 2
        tp = TrigPolynomial.from_atoms([("x-sine", k, 1.0)])
        lam = 2 * k * math.pi
        xs = np.linspace(0.0, 1.0, 64)
        resid = (trig_deriv(tp, xs, 2) + lam**2 * tp(xs)
                 - 2 * lam * np.cos(lam * xs))
        assert np.max(np.abs(resid)) <= 1e-8


class TestGram:
    def test_identity_small(self):
        assert gram_deviation(1) <= 1e-12

    def test_identity_k20(self):
        assert gram_deviation(20) <= 1e-10

    def test_specific_pairings(self):
        # <cos 2k pi x, 4 sin 2k pi x> = 0 and <1, 2(1-x)> = 1
        cos1 = project(lambda x: np.cos(2 * math.pi * x), 2)
        assert abs(cos1.c2[0]) <= 1e-12
        assert project(lambda x: np.ones_like(x), 2).c0 == pytest.approx(
            1.0, abs=1e-13)
