import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import axis_x2_spec, line_poly, map_spec, pj, univariate_coeffs
from cnull import numroots, propermaps
from cnull.errors import InvalidInput, NonZeroDimensional, NotProper, ParamRequired
from cnull.gradexp import grad_profile
from cnull.nullcert import certify_general, cycle_degree, cycle_degree_square
from cnull.polycore import MPoly, distinct_root_count, evaluate
from cnull.propermaps import (
    check_growth,
    check_proper,
    fiber_count_at,
    fiber_points,
    geometric_degree,
    graph_degree,
    growth_exponent,
    image_degree,
    local_multiplicity,
    profile_map,
    stoll_check,
)
from cnull.variety import load_map, load_variety, polynomial_map

F = Fraction
V2 = ["x1", "x2"]
X1, X2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
# square(2, 2): the Jacobian 4 x1 x2 + 1 vanishes at (1/2, -1/2)
SQUARE22 = polynomial_map([X1**2 + X2, X2**2 - X1])
# proper with d(f) = 3, short of their Bezout numbers 6 and 4
ZEROS_AT_INFINITY = [
    polynomial_map([X1 + X2**2, X2**3]),
    polynomial_map([X1 * X2 + X1, X2**2 + X1]),
]


def close_roots_line():
    """t -> t^2 - 2^-100 t: the fiber over 0 is {0, 2^-100}, two simple points."""
    T = MPoly.variable(1, 0)
    return polynomial_map([T**2 - T.scale(F(1, 2**100))])


def plane_polys(max_degree):
    """Hypothesis strategy: polynomials in 2 variables of total degree <= max_degree."""
    expo = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(
        lambda e: sum(e) <= max_degree
    )
    coeff = st.integers(-4, 4).filter(bool)
    return st.dictionaries(expo, coeff, min_size=2, max_size=4).map(lambda terms: MPoly(2, terms))


@pytest.fixture(scope="module")
def cline_f_t(cline):
    return load_map(cline, map_spec(pj(["x"], {(1,): 1})))


@pytest.fixture(scope="module")
def cline_f_t2(cline):
    return load_map(cline, map_spec(pj(["x"], {(2,): 1})))


class TestGeometricDegree:
    def test_cusp_projection_is_double_cover(self, cusp_fx):
        assert geometric_degree(cusp_fx, seed=0) == 2

    def test_graph_cubic_projection(self, cubic_proj23):
        assert geometric_degree(cubic_proj23, seed=0) == 1

    def test_identity_line(self, cline_f_t):
        assert geometric_degree(cline_f_t, seed=0) == 1

    def test_seed_invariance(self, cusp_fx, cubic_proj23):
        assert {geometric_degree(cusp_fx, seed=s) for s in range(10)} == {2}
        assert {geometric_degree(cubic_proj23, seed=s) for s in range(10)} == {1}

    @pytest.mark.parametrize("seed", [56, 68, 83, 85, 86])
    def test_draw_on_the_node_does_not_block_consensus(self, cubic_proj23, seed):
        # one draw lands on t = +-1, over the node, and counts 2 points
        assert geometric_degree(cubic_proj23, seed=seed) == 1

    def test_square_two_parameter_case(self, plane2):
        f = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        assert geometric_degree(f, seed=0) == 2

    def test_not_proper(self, cusp):
        from conftest import map_spec as ms

        const_map = load_map(cusp, ms(pj(["x", "y"], {(0, 0): 3})))
        with pytest.raises(NotProper):
            geometric_degree(const_map, seed=0)


class TestFiberCount:
    def test_node_has_two_preimages(self, cubic_proj23):
        assert fiber_count_at(cubic_proj23, [F(0), F(0)]) == 2

    def test_cusp_branch_point(self, cusp_fx):
        assert fiber_count_at(cusp_fx, [F(0)]) == 1

    def test_cusp_regular_value(self, cusp_fx):
        assert fiber_count_at(cusp_fx, [F(1)]) == 2

    def test_empty_fiber_off_image(self, cubic_proj23):
        assert fiber_count_at(cubic_proj23, [F(1), F(10)]) == 0

    def test_bounded_by_degree_with_critical_dip(self, cusp_fx):
        d = geometric_degree(cusp_fx, seed=0)
        for y in (F(-2), F(-1), F(0), F(1), F(2)):
            count = fiber_count_at(cusp_fx, [y])
            assert count <= d
            if y == 0:
                assert count < d


class TestExactFiberCount:
    def test_roots_closer_than_the_cluster_tolerance_count_apart(self):
        f = close_roots_line()
        assert fiber_count_at(f, [F(0)]) == 2
        # clustering at 256 bits merges the pair into one coordinate
        assert len(fiber_points(f, [F(0)])) == 1

    @settings(max_examples=15)
    @given(
        comps=st.lists(univariate_coeffs(8).map(line_poly), min_size=1, max_size=2),
        t0=st.tuples(st.integers(-50, 50), st.integers(1, 20)).map(lambda nd: F(*nd)),
    )
    def test_matches_the_clustered_fiber_at_a_generic_value(self, cline, comps, t0):
        f = load_map(cline, map_spec(*comps))
        y = [evaluate(p, [t0]) for p in f.pullbacks]
        assert fiber_count_at(f, y) == len(fiber_points(f, y)) >= 1

    @settings(max_examples=15)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        t0=st.lists(st.fractions(-9, 9, max_denominator=5), min_size=2, max_size=2),
    )
    def test_square_count_matches_the_numeric_fiber(self, comps, t0):
        f = polynomial_map(comps)
        y = [evaluate(p, t0) for p in comps]
        try:
            numeric = len(fiber_points(f, y))
        except NonZeroDimensional:
            with pytest.raises(NonZeroDimensional):
                fiber_count_at(f, y)
            return
        assert fiber_count_at(f, y) == numeric >= 1

    def test_shear_runs_along_the_accepted_direction(self):
        # the top form 2 t1 (t1 + t2) of p is nonzero at (-lam, 1) = (1, 1) and zero at
        # (lam, 1), so a shear the wrong way round leaves roots at infinity
        f = polynomial_map([(X1**2 + X1 * X2).scale(2), (X1 * X2 + X2**2).scale(-1)])
        polys = propermaps._system(f, [F(6), F(2)])
        draws = iter([-1, 1, 5, 1])  # rand_rational draws -1, then 5
        gen = SimpleNamespace(randint=lambda lo, hi: next(draws))
        assert propermaps._shear(polys[0], gen) == -1
        fiber = propermaps._fiber_poly(polys, F(-1))
        # fiber points (3, -2) and (-3, 2), at x = t1 + lam*t2 = 5 and -5
        for t in ([F(3), F(-2)], [F(-3), F(2)]):
            assert [evaluate(p, t) for p in polys] == [0, 0]
            assert evaluate(fiber, [t[0] - t[1]]) == 0
        assert distinct_root_count(fiber) == 2

    def test_zero_first_equation_is_not_zero_dimensional(self):
        # a zero equation never passes the shear test, so it must be caught before
        with pytest.raises(NonZeroDimensional):
            fiber_count_at(polynomial_map([MPoly.zero(2), X1 + X2]), [F(0), F(0)])


class TestFiberPoints:
    def test_curve_points_are_1_tuples(self, cusp_fx):
        pts = fiber_points(cusp_fx, [F(1)])
        assert all(isinstance(p, tuple) and len(p) == 1 for p in pts)
        assert len(pts) == fiber_count_at(cusp_fx, [F(1)]) == 2
        assert all(abs(p[0] ** 2 - 1) < 1e-30 for p in pts)

    def test_square_map_points_are_pairs(self, plane2):
        f = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        pts = fiber_points(f, [F(4), F(3)])
        assert all(isinstance(p, tuple) and len(p) == 2 for p in pts)
        assert len(pts) == fiber_count_at(f, [F(4), F(3)]) == 2

    def test_three_parameters_raise(self):
        f = polynomial_map([MPoly.variable(3, i) for i in range(3)])
        with pytest.raises(ParamRequired):
            fiber_points(f, [F(0)] * 3)


class TestGrowthExponent:
    def test_cusp_quotient(self, cusp_gyx):
        assert growth_exponent(cusp_gyx) == F(1, 3)

    def test_coordinate(self, cusp_fx):
        assert growth_exponent(cusp_fx) == F(2, 3)

    def test_constant(self, cusp):
        g = load_map(cusp, map_spec(pj(["x", "y"], {(0, 0): 7})))
        assert growth_exponent(g) == 0


class TestLocalMultiplicity:
    def test_cusp_origin(self, cusp_fx):
        assert local_multiplicity(cusp_fx, [F(0), F(0)], seed=0) == 2

    def test_cusp_regular_point(self, cusp_fx):
        assert local_multiplicity(cusp_fx, [F(1), F(1)], seed=0) == 1

    def test_parabola_everywhere_simple(self, parabola_fx):
        assert local_multiplicity(parabola_fx, [F(2), F(4)], seed=0) == 1
        assert local_multiplicity(parabola_fx, [F(0), F(0)], seed=0) == 1

    def test_point_off_variety_rejected(self, cusp_fx):
        with pytest.raises(ValueError):
            local_multiplicity(cusp_fx, [F(1), F(5)], seed=0)

    def test_close_simple_roots_are_simple(self):
        # a perturbed-fiber count merged 0 and 2^-100 into one point of multiplicity 2
        assert local_multiplicity(close_roots_line(), [F(0)], seed=0) == 1

    def test_square_map_at_its_critical_point(self):
        assert local_multiplicity(SQUARE22, [F(1, 2), F(-1, 2)], seed=0) == 2
        assert local_multiplicity(SQUARE22, [F(1), F(1)], seed=0) == 1

    def test_zeros_at_infinity_origin(self):
        assert [local_multiplicity(f, [F(0), F(0)], seed=0) for f in ZEROS_AT_INFINITY] == [3, 2]

    def test_non_square_map_rejected(self, cubic_proj23):
        with pytest.raises(InvalidInput):
            local_multiplicity(cubic_proj23, [F(0), F(0)], seed=0)


class TestStoll:
    def test_cusp_branch_fiber(self, cusp_fx):
        assert stoll_check(cusp_fx, [F(0)], seed=0) == (2, 2, True)

    def test_cusp_regular_fiber(self, cusp_fx):
        assert stoll_check(cusp_fx, [F(1)], seed=0) == (2, 2, True)

    def test_parabola(self, parabola_fx):
        assert stoll_check(parabola_fx, [F(0)], seed=0) == (1, 1, True)

    def test_square_case_plane(self, plane2):
        f = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        assert stoll_check(f, [F(0), F(0)], seed=0) == (2, 2, True)

    @pytest.mark.parametrize("f", ZEROS_AT_INFINITY, ids=["x1+x2^2", "x1x2+x1"])
    def test_zeros_at_infinity(self, f):
        assert stoll_check(f, [F(0), F(0)], seed=0) == (3, 3, True)


class TestImageDegree:
    def test_nodal_cubic_image(self, cubic_proj23):
        assert image_degree(cubic_proj23, seed=0) == 3

    def test_cusp_projection_image_is_line(self, cusp_fx):
        assert image_degree(cusp_fx, seed=0) == 1

    def test_identity_image_is_cusp(self, cusp_identity):
        assert image_degree(cusp_identity, seed=0) == 3

    def test_two_to_one_map_divides_the_slice_count(self, cline):
        # t -> (t^4, t^6) is 2:1 onto the cusp y1^3 = y2^2: 6 slice roots, 3 image points
        f = load_map(cline, map_spec(pj(["x"], {(4,): 1}), pj(["x"], {(6,): 1})))
        assert image_degree(f, seed=0) == 3

    def test_no_numeric_root_finding(self, cubic_proj23, cusp_identity, monkeypatch):
        calls = []
        real = propermaps.roots_univariate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(propermaps, "roots_univariate", counted)
        monkeypatch.setattr(numroots, "roots_univariate", counted)
        assert image_degree(cubic_proj23, seed=0) == 3
        assert image_degree(cusp_identity, seed=0) == 3
        assert calls == []


class TestGraphDegree:
    def test_cusp_fx(self, cusp_fx):
        assert graph_degree(cusp_fx, seed=0) == 3

    def test_parabola_graph(self, cline_f_t2):
        assert graph_degree(cline_f_t2, seed=0) == 2

    def test_line_graph(self, cline_f_t):
        assert graph_degree(cline_f_t, seed=0) == 1

    def test_two_parameter_graph(self, plane2):
        f = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        assert graph_degree(f, seed=0) == 2


class TestProfileInvariants:
    def test_degree_bounded_by_graph_degree(self, cusp_fx, parabola_fx, cubic_proj23, cline_f_t2):
        for f in (cusp_fx, parabola_fx, cubic_proj23, cline_f_t2):
            prof = profile_map(f, seed=0)
            assert prof.d_f <= prof.graph_degree

    def test_profile_fields(self, cusp_fx):
        prof = profile_map(cusp_fx, seed=0)
        assert prof.d_f == 2 and prof.graph_degree == 3


class TestNoNumericSolving:
    def test_counts_and_multiplicities_on_two_parameters(self, plane2, cubic_proj23, cubic_g, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a numeric solver was called")

        for module, name in [
            (propermaps, "fiber_points"),
            (propermaps, "solve_system_2"),
            (propermaps, "roots_univariate"),
            (numroots, "solve_system_2"),
            (numroots, "roots_from_coeffs"),
            (mpmath, "workprec"),
        ]:
            monkeypatch.setattr(module, name, fail)
        plane = load_map(plane2, map_spec(pj(V2, {(2, 0): 1}), pj(V2, {(0, 1): 1})))
        for f, d, a, mult in [(SQUARE22, 4, [F(1, 2), F(-1, 2)], 2), (plane, 2, [F(0), F(0)], 2)]:
            assert check_proper(f, seed=0) is None
            assert geometric_degree(f, seed=0) == graph_degree(f, seed=0) == d
            assert stoll_check(f, [F(0), F(0)], seed=0) == (d, d, True)
            assert local_multiplicity(f, a, seed=0) == mult
            assert cycle_degree_square(f, seed=0).total_degree == d
        assert grad_profile(X1**4 + X2**4 + X1 * X2, seed=0) == (9, 9)
        assert certify_general(cubic_proj23, cubic_g, seed=0).verified
        x1_squared = load_map(plane2, map_spec(pj(V2, {(2, 0): 1})))
        forms = [MPoly(2, {(0, 1): F(1)})]
        assert cycle_degree(x1_squared, [load_variety(axis_x2_spec())], forms, seed=0).total_degree == 2


class TestCheckProper:
    @pytest.mark.parametrize("f", [SQUARE22, *ZEROS_AT_INFINITY], ids=["square(2,2)", "x1+x2^2", "x1x2+x1"])
    def test_proper_square_maps_pass(self, f):
        for seed in range(3):
            check_proper(f, seed=seed)

    @pytest.mark.parametrize(
        "f",
        [polynomial_map([X1, X1 * X2]), polynomial_map([X1, X1 * X2 - MPoly.const(2, 1)])],
        ids=["norm-zero-on-an-axis", "norm-one-on-an-axis"],
    )
    def test_finite_fibers_without_growth_fail_the_gate(self, f):
        # generic fibers are single points, but f is constant on the axis x1 = 0
        assert fiber_count_at(f, [F(2), F(3)]) == 1
        with pytest.raises(NotProper, match="grow"):
            check_proper(f, seed=0)

    def test_growth_gate_reads_twelve_rays_per_sphere(self):
        # 4 fixed and 8 random directions on each of the two spheres: 2 * 8 * 2 draws of gen
        gen, twin = random.Random(5), random.Random(5)
        check_growth(SQUARE22, gen)
        for _ in range(32):
            twin.uniform(-1, 1)
        assert gen.random() == twin.random()
