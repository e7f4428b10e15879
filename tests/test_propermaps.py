from fractions import Fraction

import pytest

from conftest import map_spec, pj
from cnull.errors import NotProper, ParamRequired
from cnull.polycore import MPoly
from cnull.propermaps import (
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
from cnull.variety import load_map, polynomial_map

F = Fraction


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


class TestImageDegree:
    def test_nodal_cubic_image(self, cubic_proj23):
        assert image_degree(cubic_proj23, seed=0) == 3

    def test_cusp_projection_image_is_line(self, cusp_fx):
        assert image_degree(cusp_fx, seed=0) == 1

    def test_identity_image_is_cusp(self, cusp_identity):
        assert image_degree(cusp_identity, seed=0) == 3


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
        prof = profile_map(cusp_fx, seed=0, with_image=True)
        assert prof.d_f == 2 and prof.graph_degree == 3 and prof.image_degree == 1
        assert prof.properness_witnessed
