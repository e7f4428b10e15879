from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V2, map_spec, pj
from cnull import propermaps
from cnull.charpoly import (
    CharPoly,
    bounds_table,
    build_charpoly,
    charpoly_resultant_oracle,
    coefficient_bounds,
    growth_inclusion_check,
    ploski_delta,
    verify_charpoly,
)
from cnull.polycore import NEG_INF, MPoly, total_degree
from cnull.propermaps import graph_degree, growth_exponent, profile_map
from cnull.variety import load_map

F = Fraction
Y = MPoly(1, {(1,): 1})


@pytest.fixture(scope="module")
def cline_f_t(cline):
    return load_map(cline, map_spec(pj(["x"], {(1,): 1})))


@pytest.fixture(scope="module")
def cline_f_t2(cline):
    return load_map(cline, map_spec(pj(["x"], {(2,): 1})))


@pytest.fixture(scope="module")
def cline_g_t(cline):
    return load_map(cline, map_spec(pj(["x"], {(1,): 1})))


@pytest.fixture(scope="module")
def cline_g_t2(cline):
    return load_map(cline, map_spec(pj(["x"], {(2,): 1})))


@pytest.fixture(scope="module")
def cline_g_t3(cline):
    return load_map(cline, map_spec(pj(["x"], {(3,): 1})))


class TestBuildCharpoly:
    def test_cusp_quotient(self, cusp_fx, cusp_gyx):
        P = build_charpoly(cusp_fx, cusp_gyx, seed=0)
        assert P.d == 2 and P.verified
        assert P.coeffs[0].is_zero()
        assert P.coeffs[1] == -Y

    def test_line_with_square(self, cline_f_t, cline_g_t2):
        P = build_charpoly(cline_f_t, cline_g_t2, seed=0)
        assert P.d == 1
        assert P.coeffs[0] == -(Y**2)

    def test_zero_g(self, cusp_fx, cusp):
        zero_g = load_map(cusp, map_spec(pj(["x", "y"], {})))
        P = build_charpoly(cusp_fx, zero_g, seed=0)
        assert P.d == 2
        assert all(a.is_zero() for a in P.coeffs)

    def test_exact_annihilation(self, cusp_fx, cusp_gyx, cusp_gy):
        for g in (cusp_gyx, cusp_gy):
            P = build_charpoly(cusp_fx, g, seed=0)
            assert verify_charpoly(P, cusp_fx, g)

    def test_grid_independence(self, cusp_fx, cusp_gy):
        # distinct seeds pick disjoint random grids; exact result must agree
        P1 = build_charpoly(cusp_fx, cusp_gy, seed=1)
        P2 = build_charpoly(cusp_fx, cusp_gy, seed=2)
        assert P1.coeffs == P2.coeffs and P1.d == P2.d

    def test_two_parameter_square_case(self, plane2):
        fhat = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        g = load_map(plane2, map_spec(pj(["x1", "x2"], {(1, 0): 1})))
        P = build_charpoly(fhat, g, seed=0)
        assert P.d == 2
        assert P.coeffs[0].is_zero()
        assert P.coeffs[1] == MPoly(2, {(1, 0): -1})
        assert verify_charpoly(P, fhat, g)


def _line_map(cline, coeffs):
    """The polynomial map with ascending coefficients on the affine line."""
    return load_map(cline, map_spec(pj(["x"], {(i,): c for i, c in enumerate(coeffs)})))


class TestFiberSolves:
    @pytest.mark.parametrize(
        "case,solver",
        [("curve(4,3)", "fiber_t_clusters"), ("square(2,2)", "fiber_points_2")],
    )
    def test_two_fiber_solves_per_grid_node(self, cline, plane2, monkeypatch, case, solver):
        # the non-critical check solves each grid fiber, and the build solves it again
        if case == "curve(4,3)":
            # f = x^4 - x^2 + 3x - 2, g = x^3 + x
            f, g = _line_map(cline, [-2, 3, -1, 0, 1]), _line_map(cline, [0, 1, 0, 1])
        else:
            # f = (x1^2 + x2, x2^2 - x1), g = x1 + 2 x2
            f = load_map(
                plane2,
                map_spec(pj(V2, {(2, 0): 1, (0, 1): 1}), pj(V2, {(0, 2): 1, (1, 0): -1})),
            )
            g = load_map(plane2, map_spec(pj(V2, {(1, 0): 1, (0, 1): 2})))
        profile = profile_map(f, 0, 256)
        real = getattr(propermaps, solver)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(propermaps, solver, counted)
        P = build_charpoly(f, g, seed=0, profile=profile)
        assert P.verified
        nodes = (max(P.bounds) + 1) ** P.k
        assert len(calls) == 2 * nodes
        assert len(set(map(tuple, calls))) == nodes
        assert calls[:nodes] == calls[nodes:]


def _univariate(max_degree):
    # ascending integer coefficients, degree 1..max_degree, nonzero leading one
    return st.integers(1, max_degree).flatmap(
        lambda deg: st.tuples(
            st.lists(st.integers(-4, 4), min_size=deg, max_size=deg),
            st.integers(-3, 3).filter(bool),
        )
    ).map(lambda t: t[0] + [t[1]])


class TestResultantDifferential:
    @settings(max_examples=5)
    @given(f_coeffs=_univariate(5), g_coeffs=_univariate(5))
    def test_sampled_charpoly_equals_resultant_oracle(self, cline, f_coeffs, g_coeffs):
        f, g = _line_map(cline, f_coeffs), _line_map(cline, g_coeffs)
        built = build_charpoly(f, g, seed=0)
        oracle = charpoly_resultant_oracle(f, g)
        assert built.verified and built.d == oracle.d
        assert built.coeffs == oracle.coeffs


class TestResultantOracle:
    def test_cusp_quotient(self, cusp_fx, cusp_gyx):
        P = charpoly_resultant_oracle(cusp_fx, cusp_gyx)
        assert P.d == 2 and P.provenance == "resultant"
        assert P.coeffs[0].is_zero() and P.coeffs[1] == -Y

    def test_square_cube(self, cline_f_t2, cline_g_t3):
        P = charpoly_resultant_oracle(cline_f_t2, cline_g_t3)
        assert P.d == 2
        assert P.coeffs[0].is_zero() and P.coeffs[1] == -(Y**3)

    def test_identity(self, cline_f_t, cline_g_t):
        P = charpoly_resultant_oracle(cline_f_t, cline_g_t)
        assert P.d == 1 and P.coeffs[0] == -Y

    def test_oracle_equivalence_suite(
        self,
        cusp,
        cusp_fx,
        cusp_gyx,
        cusp_gy,
        parabola_fx,
        parabola_gy,
        cline_f_t,
        cline_f_t2,
        cline_g_t,
        cline_g_t2,
        cline_g_t3,
    ):
        cusp_gsum = load_map(cusp, map_spec(pj(["x", "y"], {(1, 0): 1, (0, 1): 1})))
        fixtures = [
            (cusp_fx, cusp_gyx),
            (cusp_fx, cusp_gy),
            (cusp_fx, cusp_gsum),
            (parabola_fx, parabola_gy),
            (cline_f_t, cline_g_t),
            (cline_f_t, cline_g_t2),
            (cline_f_t2, cline_g_t3),
        ]
        for f, g in fixtures:
            built = build_charpoly(f, g, seed=0)
            oracle = charpoly_resultant_oracle(f, g)
            assert built.d == oracle.d
            assert built.coeffs == oracle.coeffs


class TestBounds:
    def test_cusp_bounds(self, cusp_fx, cusp_gyx):
        P = build_charpoly(cusp_fx, cusp_gyx, seed=0)
        assert P.bounds == [0, 1]
        assert total_degree(P.coeffs[1]) == 1  # equality at j = 2

    def test_bound_compliance_suite(self, cusp_fx, cusp_gyx, cusp_gy, parabola_fx, parabola_gy):
        for f, g in [
            (cusp_fx, cusp_gyx),
            (cusp_fx, cusp_gy),
            (parabola_fx, parabola_gy),
        ]:
            P = build_charpoly(f, g, seed=0)
            for j, a in enumerate(P.coeffs, start=1):
                deg = total_degree(a)
                if deg != NEG_INF:
                    assert deg <= P.bounds[j - 1]

    def test_bounds_table_rows(self, cusp_fx, cusp_gyx):
        P = build_charpoly(cusp_fx, cusp_gyx, seed=0)
        rows = bounds_table(
            P, growth_exponent(cusp_gyx), graph_degree(cusp_fx, seed=0)
        )
        assert rows[0] == (1, NEG_INF, 0, True)
        assert rows[1] == (2, 1, 1, True)

    def test_parabola_bound_row(self, parabola_fx, parabola_gy):
        P = build_charpoly(parabola_fx, parabola_gy, seed=0)
        rows = bounds_table(
            P, growth_exponent(parabola_gy), graph_degree(parabola_fx, seed=0)
        )
        assert rows == [(1, 2, 2, True)]

    def test_coefficient_bounds_formula(self):
        assert coefficient_bounds(2, F(1, 3), 3) == [0, 1]
        assert coefficient_bounds(1, F(2), 2) == [4]

    def test_zero_g_all_rows_ok(self, cusp, cusp_fx):
        from conftest import map_spec, pj

        zero_g = load_map(cusp, map_spec(pj(["x", "y"], {})))
        P = build_charpoly(cusp_fx, zero_g, seed=0)
        rows = bounds_table(P, growth_exponent(zero_g), graph_degree(cusp_fx, seed=0))
        assert all(ok for _, _, _, ok in rows)
        assert all(deg == NEG_INF for _, deg, _, _ in rows)


class TestPloskiDelta:
    def test_sqrt_growth(self):
        P = CharPoly(2, [MPoly(1, {}), -Y], None, "resultant", ["y1"])
        assert ploski_delta(P) == F(1, 2)

    def test_all_zero(self):
        P = CharPoly(3, [MPoly(1, {})] * 3, None, "resultant", ["y1"])
        assert ploski_delta(P) == 0

    def test_mixed(self):
        P = CharPoly(2, [Y, Y**3], None, "resultant", ["y1"])
        assert ploski_delta(P) == F(3, 2)


class TestGrowthInclusion:
    def test_holds_at_half(self):
        P = CharPoly(2, [MPoly(1, {}), -Y], None, "resultant", ["y1"])
        res = growth_inclusion_check(P, F(1, 2), R=100.0, samples=1000, seed=0)
        assert res.holds
        assert abs(res.witness_C - 1.0) < 1e-6

    def test_violated_at_quarter(self):
        P = CharPoly(2, [MPoly(1, {}), -Y], None, "resultant", ["y1"])
        res = growth_inclusion_check(P, F(1, 4), R=100.0, samples=1000, seed=0)
        assert not res.holds
        assert res.violation is not None

    def test_pure_power_holds_everywhere(self):
        P = CharPoly(3, [MPoly(1, {})] * 3, None, "resultant", ["y1"])
        for q in (F(1, 4), F(1), F(3)):
            res = growth_inclusion_check(P, q, R=100.0, samples=200, seed=0)
            assert res.holds

    @pytest.mark.parametrize(
        "coeffs",
        [
            [MPoly(1, {}), -Y],  # delta = 1/2
            [-(Y**2)],  # delta = 2
            [Y, Y**3],  # delta = 3/2
        ],
    )
    def test_minimality(self, coeffs):
        P = CharPoly(len(coeffs), coeffs, None, "resultant", ["y1"])
        delta = ploski_delta(P)
        assert delta > 0
        at_delta = growth_inclusion_check(P, delta, R=100.0, samples=600, seed=0)
        assert at_delta.holds
        below = delta * (1 - F(1, 8))
        at_below = growth_inclusion_check(P, below, R=100.0, samples=600, seed=0)
        assert not at_below.holds
