from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V2, line_poly, map_spec, pj, univariate_coeffs
from cnull import charpoly, propermaps
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
from cnull.errors import InvalidInput
from cnull.polycore import NEG_INF, MPoly, compose, total_degree, univ_coeffs, univ_from_coeffs
from cnull.propermaps import profile_map
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

    def test_first_draw_on_a_critical_line(self, plane2):
        # f = (x1^2, x2) is critical over the whole line y1 = 0, and at seed 24 the
        # grid span starts with 0: the first nodes are skipped together, so the
        # pool is not spent on partners for y1 = 0
        fhat = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        g = load_map(plane2, map_spec(pj(["x1", "x2"], {(1, 0): 1})))
        P = build_charpoly(fhat, g, seed=24)
        assert P.verified
        assert P.coeffs[0].is_zero() and P.coeffs[1] == MPoly(2, {(1, 0): -1})


def _line_map(cline, coeffs):
    """The polynomial map with ascending coefficients on the affine line."""
    return load_map(cline, map_spec(line_poly(coeffs)))


def _profile_now(monkeypatch, f):
    """Profile f here, and have build_charpoly reuse it, so its solves stay out of later counts."""
    profile = profile_map(f, 0)
    monkeypatch.setattr(charpoly, "profile_map", lambda *args: profile)


class TestFiberSolves:
    @pytest.mark.parametrize(
        "case,solver",
        [("curve(4,3)", "fiber_t_clusters"), ("square(2,2)", "fiber_points_2")],
    )
    def test_two_fiber_solves_per_grid_node(self, cline, plane2, monkeypatch, case, solver):
        # the non-critical check solves each fiber of a new slab, and the sampling solves it again
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
        _profile_now(monkeypatch, f)
        real = getattr(propermaps, solver)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(propermaps, solver, counted)
        P = build_charpoly(f, g, seed=0)
        assert P.verified
        nodes = len(set(map(tuple, calls)))
        assert len(calls) == 2 * nodes
        assert nodes <= (max(P.bounds) + 1) ** P.k
        # each new slab is checked, then sampled: the calls split into runs s + s
        rest = calls
        while rest:
            half = next((h for h in range(1, len(rest) // 2 + 1) if rest[:h] == rest[h : 2 * h]), None)
            assert half is not None, f"no repeated slab at the head of {rest}"
            rest = rest[2 * half :]


def _counted_solves(monkeypatch):
    """Record (node, prec) of every curve fiber solve from here on."""
    real = propermaps.fiber_t_clusters
    calls = []

    def counted(f, y, prec=256):
        calls.append((tuple(y), prec))
        return real(f, y, prec)

    monkeypatch.setattr(propermaps, "fiber_t_clusters", counted)
    return calls


class TestEarlyTermination:
    @pytest.fixture
    def curve_8_4(self, cline, monkeypatch):
        # f = x^8 - x^2 + 3x - 2, g = x^4 + x: the theorem bounds reach 32, the true degrees 4
        f = _line_map(cline, [-2, 3, -1, 0, 0, 0, 0, 0, 1])
        g = _line_map(cline, [0, 1, 0, 0, 1])
        _profile_now(monkeypatch, f)
        return f, g

    def test_curve_stops_after_the_true_degree(self, curve_8_4, monkeypatch):
        f, g = curve_8_4
        calls = _counted_solves(monkeypatch)
        P = build_charpoly(f, g, seed=0)
        assert P.verified and P.bounds == coefficient_bounds(8, F(4), 8)
        assert P.coeffs == charpoly_resultant_oracle(f, g).coeffs
        # degree 4 is confirmed on 4 + 1 nodes plus ZETA = 2, against 33 theorem nodes
        assert len({y for y, _ in calls}) == 7
        assert {prec for _, prec in calls} == {256}

    def test_false_early_stop_grows_to_the_theorem_grid_at_the_same_precision(
        self, curve_8_4, monkeypatch
    ):
        # with no confirming nodes, a constant interpolant on one node stops the grid
        f, g = curve_8_4
        monkeypatch.setattr(charpoly, "ZETA", 0)
        real_verify = charpoly.verify_charpoly
        verdicts = []

        def recorded(P, f, g):
            verdicts.append(real_verify(P, f, g))
            return verdicts[-1]

        monkeypatch.setattr(charpoly, "verify_charpoly", recorded)
        calls = _counted_solves(monkeypatch)
        P = build_charpoly(f, g, seed=0)
        assert verdicts == [False, True]
        assert P.verified and P.coeffs == charpoly_resultant_oracle(f, g).coeffs
        assert len({y for y, _ in calls}) == max(P.bounds) + 1 == 33
        assert {prec for _, prec in calls} == {256}

    def test_non_separating_g_uses_the_theorem_grid(self, cline_f_t2, cline, monkeypatch):
        # g = x^4 = f^2 takes one value on each fiber of f = x^2
        g = _line_map(cline, [0, 0, 0, 0, 1])
        _profile_now(monkeypatch, cline_f_t2)
        calls = _counted_solves(monkeypatch)
        P = build_charpoly(cline_f_t2, g, seed=0)
        assert P.verified and P.bounds == [4, 8]
        assert P.coeffs == [(Y**2).scale(-2), Y**4]
        assert len({y for y, _ in calls}) == 9
        assert {prec for _, prec in calls} == {256}


def _composed(h_coeffs, f_coeffs):
    """Ascending coefficients of h(f)."""
    return univ_coeffs(compose(univ_from_coeffs(h_coeffs), [univ_from_coeffs(f_coeffs)]))


# (f, g) on the line: g free of f, or g = h(f), which takes one value on every fiber of f
_line_pairs = st.one_of(
    st.tuples(univariate_coeffs(8), univariate_coeffs(8)),
    st.tuples(univariate_coeffs(4), univariate_coeffs(2)).map(lambda fh: (fh[0], _composed(fh[1], fh[0]))),
)


class TestResultantDifferential:
    @settings(max_examples=12)
    @given(pair=_line_pairs)
    def test_sampled_charpoly_equals_resultant_oracle(self, cline, pair):
        f, g = _line_map(cline, pair[0]), _line_map(cline, pair[1])
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
        rows = bounds_table(P)
        assert rows[0] == (1, NEG_INF, 0, True)
        assert rows[1] == (2, 1, 1, True)

    def test_parabola_bound_row(self, parabola_fx, parabola_gy):
        P = build_charpoly(parabola_fx, parabola_gy, seed=0)
        rows = bounds_table(P)
        assert rows == [(1, 2, 2, True)]

    def test_coefficient_bounds_formula(self):
        assert coefficient_bounds(2, F(1, 3), 3) == [0, 1]
        assert coefficient_bounds(1, F(2), 2) == [4]

    def test_zero_g_all_rows_ok(self, cusp, cusp_fx):
        from conftest import map_spec, pj

        zero_g = load_map(cusp, map_spec(pj(["x", "y"], {})))
        P = build_charpoly(cusp_fx, zero_g, seed=0)
        rows = bounds_table(P)
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

    def test_no_samples_raise(self):
        P = CharPoly(2, [MPoly(1, {}), -Y], None, "resultant", ["y1"])
        with pytest.raises(InvalidInput):
            growth_inclusion_check(P, F(1, 2), samples=0, seed=0)

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
