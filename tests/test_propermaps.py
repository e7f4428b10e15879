import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    axis_x2_spec,
    fiber_coordinates,
    line_poly,
    map_spec,
    pj,
    plane_polys,
    residue_evaluate,
    univariate_coeffs,
)
from cnull import numroots, polycore, propermaps, rng, variety
from cnull.errors import (
    DegenerateSlice,
    InconsistentFiberCounts,
    InvalidInput,
    NonZeroDimensional,
    NotCAlgebraic,
    NotIsolated,
    NotProper,
    ParamRequired,
)
from cnull.gradexp import grad_profile
from cnull.nullcert import certify_general, cycle_degree
from cnull.polycore import (
    MPoly,
    ResidueRing,
    coeffs_in_var,
    compose,
    distinct_root_count,
    evaluate,
    squarefree_factors,
    subresultants,
    univ_coeffs,
)
from cnull.propermaps import (
    ProperMapProfile,
    ShapeLemma,
    check_proper,
    fiber_points_2,
    fiber_poly,
    fiber_t_clusters,
    geometric_degree,
    graph_degree,
    growth_exponent,
    image_degree,
    local_multiplicity,
    profile_map,
)
from cnull.variety import load_map, load_variety, make_map, polynomial_map

F = Fraction
V2 = ["x1", "x2"]
X1, X2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
ONE = MPoly.const(2, 1)
# square(2, 2): the Jacobian 4 x1 x2 + 1 vanishes at (1/2, -1/2)
SQUARE22 = polynomial_map([X1**2 + X2, X2**2 - X1])
SQUARE32 = polynomial_map([X1**3 + X2, X2**2 - X1])
GRAD_QUARTIC = polynomial_map([(X1**3).scale(4) + X2, (X2**3).scale(4) + X1])  # the bench quartic's gradient
# proper with d(f) = 3, short of their Bezout numbers 6 and 4
ZEROS_AT_INFINITY = [
    polynomial_map([X1 + X2**2, X2**3]),
    polynomial_map([X1 * X2 + X1, X2**2 + X1]),
]


def sliced_graph_degree(f, seed):
    """The former graph_degree: the max of the first 3 generic counts of random affine slices."""
    param = f.domain.param
    coords = list(param.components) + list(f.pullbacks)
    counts = []
    for attempt in range(15):
        gen = rng.child_rng(seed, f"graphdeg:{attempt}")
        slices = []
        for _ in range(param.k):
            lam = [F(0)]
            while not any(lam):
                lam = [rng.rand_rational(gen) for _ in coords]
            c = rng.rand_rational(gen)
            slices.append(sum((p.scale(w) for p, w in zip(coords, lam)), MPoly.const(param.k, -c)))
        if any(s.is_constant() for s in slices):
            continue
        try:
            fiber = fiber_poly(polynomial_map(slices), [0] * param.k, gen)
        except NonZeroDimensional:
            continue
        counts.append(0 if fiber.is_constant() else distinct_root_count(fiber))
        if len(counts) == 3:
            return max(counts)
    raise DegenerateSlice("no generic slice within 15 draws")


def close_roots_line():
    """t -> t^2 - 2^-100 t: the fiber over 0 is {0, 2^-100}, two simple points."""
    T = MPoly.variable(1, 0)
    return polynomial_map([T**2 - T.scale(F(1, 2**100))])


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
    def test_draw_on_the_node_is_redrawn(self, cubic_proj23, seed):
        # one draw lands on t = +-1, over the node: its fiber gcd (t - 1)(t + 1) does
        # not generate the pullbacks, so the draw fails the certificate
        assert geometric_degree(cubic_proj23, seed=seed) == 1

    @settings(max_examples=20)
    @given(coeffs=univariate_coeffs(4))
    def test_powers_of_one_polynomial(self, coeffs):
        # t -> (h^2, h^3) is deg h to 1 onto the cusp y1^3 = y2^2
        h = MPoly(1, {(i,): F(c) for i, c in enumerate(coeffs)})
        f = polynomial_map([h**2, h**3])
        with mock.patch.object(variety, "_fiber_gcd", wraps=variety._fiber_gcd) as fiber:
            assert geometric_degree(f, seed=0) == len(coeffs) - 1
        # the first draw, t0 = 11/70, is no root of h, so its fiber gcd h - h(t0) is certified
        assert fiber.call_count == 1
        assert image_degree(f, seed=0) == 3

    def test_square_map_reads_the_properness_resultant(self, monkeypatch):
        calls = []
        real = propermaps.subresultants

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(propermaps, "subresultants", counted)
        assert geometric_degree(SQUARE22, seed=0) == 4
        assert len(calls) == 1  # one elimination, with y symbolic

    @pytest.mark.parametrize("f", [SQUARE22, SQUARE32], ids=["square(2,2)", "square(3,2)"])
    @pytest.mark.parametrize("seed", range(5))
    def test_properness_resultant_is_the_shape_lemma_resultant(self, f, seed, monkeypatch):
        # check_proper eliminates under ShapeLemma's draw from the salt proper-shear
        results = []
        real = propermaps.subresultants

        def recorded(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(propermaps, "subresultants", recorded)
        check_proper(f, seed)
        assert len(results) == 1
        R = results[0][0]
        assert R == ShapeLemma(f, rng.child_rng(seed, "proper-shear")).R

    def test_square_two_parameter_case(self, plane2):
        f = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        assert geometric_degree(f, seed=0) == 2

    def test_no_draw_passing_the_certificate_is_a_genericity_failure(self, cline_f_t, monkeypatch):
        draws = []

        def fiber_gcd(*args):  # t is not a polynomial in t^2
            draws.append(args)
            return MPoly(1, {(2,): F(1)})

        monkeypatch.setattr(variety, "_fiber_gcd", fiber_gcd)
        with pytest.raises(InconsistentFiberCounts):
            geometric_degree(cline_f_t, seed=0)
        assert len(draws) == len(rng.FIXED_NODES)

    def test_not_proper(self, cusp):
        from conftest import map_spec as ms

        const_map = load_map(cusp, ms(pj(["x", "y"], {(0, 0): 3})))
        with pytest.raises(NotProper):
            geometric_degree(const_map, seed=0)


class TestFiberCount:
    def test_node_has_two_preimages(self, cubic_proj23):
        assert distinct_root_count(fiber_poly(cubic_proj23, [F(0), F(0)])) == 2

    def test_cusp_branch_point(self, cusp_fx):
        assert distinct_root_count(fiber_poly(cusp_fx, [F(0)])) == 1

    def test_cusp_regular_value(self, cusp_fx):
        assert distinct_root_count(fiber_poly(cusp_fx, [F(1)])) == 2

    def test_empty_fiber_off_image(self, cubic_proj23):
        assert fiber_poly(cubic_proj23, [F(1), F(10)]).is_constant()

    def test_bounded_by_degree_with_critical_dip(self, cusp_fx):
        d = geometric_degree(cusp_fx, seed=0)
        for y in (F(-2), F(-1), F(0), F(1), F(2)):
            count = distinct_root_count(fiber_poly(cusp_fx, [y]))
            assert count <= d
            if y == 0:
                assert count < d


class TestExactFiberCount:
    def test_roots_closer_than_the_cluster_tolerance_count_apart(self):
        f = close_roots_line()
        assert distinct_root_count(fiber_poly(f, [F(0)])) == 2
        # clustering at 256 bits merges the pair into one coordinate
        assert len(fiber_t_clusters(f, [F(0)])) == 1

    @settings(max_examples=15)
    @given(
        comps=st.lists(univariate_coeffs(8).map(line_poly), min_size=1, max_size=2),
        t0=st.tuples(st.integers(-50, 50), st.integers(1, 20)).map(lambda nd: F(*nd)),
    )
    def test_matches_the_clustered_fiber_at_a_generic_value(self, cline, comps, t0):
        f = load_map(cline, map_spec(*comps))
        y = [evaluate(p, [t0]) for p in f.pullbacks]
        assert distinct_root_count(fiber_poly(f, y)) == len(fiber_t_clusters(f, y)) >= 1

    @settings(max_examples=15)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        t0=st.lists(st.fractions(-9, 9, max_denominator=5), min_size=2, max_size=2),
    )
    def test_square_count_matches_the_numeric_fiber(self, comps, t0):
        f = polynomial_map(comps)
        y = [evaluate(p, t0) for p in comps]
        try:
            numeric = len(fiber_points_2(f, y))
        except NonZeroDimensional:
            with pytest.raises(NonZeroDimensional):
                fiber_poly(f, y)
            return
        assert distinct_root_count(fiber_poly(f, y)) == numeric >= 1

    def test_shear_runs_along_the_accepted_direction(self):
        # the top form 2 t1 (t1 + t2) of p is nonzero at (-lam, 1) = (1, 1) and zero at
        # (lam, 1), so a shear the wrong way round leaves roots at infinity
        f = polynomial_map([(X1**2 + X1 * X2).scale(2), (X1 * X2 + X2**2).scale(-1)])
        polys = propermaps._system(f, [F(6), F(2)])
        draws = iter([0, 1, -1])  # the top form vanishes at (0, 1) and (-1, 1)
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
            fiber_poly(polynomial_map([MPoly.zero(2), X1 + X2]), [F(0), F(0)])


class TestNumericFiberSolvers:
    def test_curve_clusters_are_simple_roots(self, cusp_fx):
        clusters = fiber_t_clusters(cusp_fx, [F(1)])
        assert [count for _, count in clusters] == [1, 1]
        assert len(clusters) == distinct_root_count(fiber_poly(cusp_fx, [F(1)])) == 2
        assert all(abs(t**2 - 1) < 1e-30 for t, _ in clusters)

    def test_square_map_points_are_pairs(self, plane2):
        f = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        pts = fiber_points_2(f, [F(4), F(3)])
        assert all(isinstance(p, tuple) and len(p) == 2 for p in pts)
        assert len(pts) == distinct_root_count(fiber_poly(f, [F(4), F(3)])) == 2

    def test_three_parameters_raise(self):
        f = polynomial_map([MPoly.variable(3, i) for i in range(3)])
        with pytest.raises(ParamRequired):
            fiber_t_clusters(f, [F(0)] * 3)


class TestShapeLemma:
    def test_linear_first_equation_is_its_own_degree_1_member(self):
        # under lam = 0, p = x + t2 - y1 is linear in t2 and q = x - y2 is free of it
        shape = ShapeLemma(polynomial_map([X1 + X2, X1]), SimpleNamespace(randint=lambda lo, hi: 0))
        assert shape.lam == 0
        for y1, y2 in [(F(3), F(-2)), (F(1, 2), F(5))]:
            ring, (t1, t2) = fiber_coordinates(shape, [y1, y2])
            assert ring.d == 1
            assert t1 == ring.element([y2])  # residues are canonical
            assert t2 == ring.element([y1 - y2])

    def test_one_sequence_and_at_most_one_inverse_per_node(self, monkeypatch):
        calls = dict.fromkeys(["subresultants", "inverse", "distinct_root_count", "evaluate", "coeffs_in_var", "charpoly"], 0)

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(propermaps, "subresultants", counted("subresultants", propermaps.subresultants))
        for cls, name in [(ResidueRing, "inverse"), (ResidueRing, "charpoly")]:
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        for name in ["distinct_root_count", "evaluate", "coeffs_in_var"]:
            wrapper = counted(name, getattr(polycore, name))
            monkeypatch.setattr(polycore, name, wrapper)
            monkeypatch.setattr(propermaps, name, wrapper, raising=False)
        shape = ShapeLemma(SQUARE22, random.Random(0))
        assert calls["subresultants"] == 1  # one sequence per shear, with y symbolic
        accepted = 0
        for y in [(F(a), F(b, 2)) for a in range(-3, 4) for b in range(-3, 4)]:
            calls.update(dict.fromkeys(calls, 0))
            if shape.coordinates(y) is not None:
                accepted += 1
                assert calls["inverse"] <= 1
            assert calls["subresultants"] == 0
            assert calls["distinct_root_count"] == 0  # the unit test on s1 is the only test
            # y enters through the integer tables of the shear, and the inverse is Euclid's
            assert calls["evaluate"] == calls["coeffs_in_var"] == calls["charpoly"] == 0
        assert accepted > 40

    @settings(max_examples=40)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        y=st.tuples(*[st.builds(lambda n, d: F(n * d + 1, d), st.integers(-4, 4), st.integers(2, 7))] * 2),
        seed=st.integers(0, 10),
    )
    def test_y_tables_at_a_rational_node(self, comps, y, seed):
        # the grid draws integer nodes only; these have denominators 2..7
        f = polynomial_map(comps)
        shape = ShapeLemma(f, random.Random(seed))
        polys = [shape.R, *(shape.S1 or [])]
        assert len(shape._tables) == len(polys)
        for table, p in zip(shape._tables, polys):
            nums, den = propermaps._at_y(table, list(y))
            assert den > 0
            assert [F(v, den) for v in nums] == [evaluate(c, [0, *y]) for c in coeffs_in_var(p, 0)]
        assert _outcome(shape.coordinates, list(y)) == _outcome(lambda y: _node_coordinates(f, shape.lam, y), list(y))

    def test_non_curvilinear_point_is_rejected_under_every_shear(self):
        # Q[t]/(t1^2, t2^2) has dimension 4, but no element of it has nilpotency order 4
        f = polynomial_map([X1**2, X2**2])
        for lam in range(-12, 13):
            if lam:
                shape = ShapeLemma(f, SimpleNamespace(randint=lambda lo, hi: lam))
                assert shape.coordinates([F(0), F(0)]) is None
                ring, _ = shape.coordinates([F(1), F(4)])
                assert ring.d == 4

    @settings(max_examples=40)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        y=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        seed=st.integers(0, 10),
    )
    @example(comps=[X1**2 + X2, X2**2 - X1], y=(F(-1, 4), F(-1, 4)), seed=0)  # square(2, 2) at its fold value
    def test_accepted_node_solves_the_fiber_equations(self, comps, y, seed):
        f, y = polynomial_map(comps), [F(v) for v in y]
        try:
            d = check_proper(f, seed)
        except NotProper:
            return
        fiber = fiber_coordinates(ShapeLemma(f, random.Random(seed)), y)
        if fiber is None:
            return
        ring, coords = fiber
        assert ring.d == d
        for p, v in zip(f.pullbacks, y):
            assert residue_evaluate(ring, p, coords) == ring.element([v])  # residues are canonical


    @settings(max_examples=80)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        nodes=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=4),
        seed=st.integers(0, 10),
        lam=st.none(),
    )
    @example(comps=[X1 + X2, X1], nodes=[(3, -2), (0, 0)], seed=0, lam=0)
    @example(comps=[X1 * X2, X1], nodes=[(0, 0), (1, 1)], seed=0, lam=None)  # a line over (0, 0)
    @example(comps=[MPoly.const(2, 2), X1 + X2**2], nodes=[(2, 1), (3, 1)], seed=0, lam=None)
    # under lam = 0 the sequence drops from degree 3 to 1: its member of degree 1 is S2
    @example(comps=[X2**3 + X1, X2**3 + X2 + X1**2], nodes=[(0, 0), (1, 2), (-1, 3)], seed=0, lam=0)
    # a triple point over (0, 3), where R = 2 x^3 is not squarefree and s1 is a unit
    @example(comps=[(X1**3).scale(-2) - X2.scale(2), X2 + MPoly.const(2, 3)], nodes=[(0, 3)], seed=5, lam=None)
    def test_substituted_sequence_matches_the_node_sequence(self, comps, nodes, seed, lam):
        f = polynomial_map(comps)
        gen = random.Random(seed) if lam is None else SimpleNamespace(randint=lambda lo, hi: lam)
        shape = ShapeLemma(f, gen)
        for node in nodes:
            y = [F(v) for v in node]
            assert _outcome(shape.coordinates, y) == _outcome(lambda y: _node_coordinates(f, shape.lam, y), y)


def _node_coordinates(f, lam, y):
    """ShapeLemma.coordinates by its own subresultant sequence at the node y, with y fixed."""
    x, t2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    p, q = (compose(h, [x - t2.scale(lam), t2]) - MPoly.const(2, v) for h, v in zip(f.pullbacks, y))
    if p.is_zero() or q.is_zero():
        raise NonZeroDimensional("a zero polynomial")
    R, linear = subresultants(p, q, 1)
    if R.is_zero():
        raise NonZeroDimensional("the fiber contains a curve")
    if R.is_constant():
        return None
    ring = ResidueRing(R)
    if linear is None or (inv := ring.inverse(ring.element(univ_coeffs(linear[1])))) is None:
        return None
    return ring, ring.mul(ring.element([-c for c in univ_coeffs(linear[0])]), inv)


def _outcome(coordinates, y):
    """The modulus and residues, None, or NonZeroDimensional, comparable across two rings."""
    try:
        fiber = coordinates(y)
    except NonZeroDimensional:
        return NonZeroDimensional
    return fiber and (fiber[0]._r, fiber[1])


class TestGrowthExponent:
    def test_cusp_quotient(self, cusp_gyx):
        assert growth_exponent(cusp_gyx) == F(1, 3)

    def test_coordinate(self, cusp_fx):
        assert growth_exponent(cusp_fx) == F(2, 3)

    def test_constant(self, cusp):
        g = load_map(cusp, map_spec(pj(["x", "y"], {(0, 0): 7})))
        assert growth_exponent(g) == 0

    def test_two_components_rejected(self):
        with pytest.raises(InvalidInput, match="single-component"):
            growth_exponent(SQUARE22)

    def test_a_surface_its_top_degree_does_not_dominate_raises(self):
        # y = x + z^2 through (t, t + s^2, s): the degree-2 forms (0, s^2, 0) all vanish at [1:0],
        # where g = x grows like the point, so the degree ratio 1/2 would underestimate 1
        v, ts = ["x", "y", "z"], ["t", "s"]
        surface = load_variety({
            "ambient_vars": v,
            "dim": 2,
            "generators": [pj(v, {(0, 1, 0): 1, (1, 0, 0): -1, (0, 0, 2): -1})],
            "param": {
                "vars": ts,
                "components": [pj(ts, {(1, 0): 1}), pj(ts, {(1, 0): 1, (0, 2): 1}), pj(ts, {(0, 1): 1})],
            },
        })
        g = load_map(surface, map_spec(pj(v, {(1, 0, 0): 1})))
        with pytest.raises(ParamRequired, match="share a zero at infinity"):
            growth_exponent(g)

    def test_identity_parametrization_gives_the_degree_ratio(self, plane2):
        g = load_map(plane2, map_spec(pj(V2, {(2, 0): 1, (0, 1): 3})))
        assert growth_exponent(g) == 2
        x1, x3 = MPoly.variable(3, 0), MPoly.variable(3, 2)
        assert growth_exponent(polynomial_map([x1**2 * x3 + x1])) == 3

    def test_three_parameters_other_than_the_identity_raise(self):
        # y = x + z^2 in C^4 through (t, t + s^2, s, u): g = x grows like the point,
        # exponent 1, but the degree ratio is 1/2; the top forms are checked on two parameters only
        v, ts = ["x", "y", "z", "w"], ["t", "s", "u"]
        hypersurface = load_variety({
            "ambient_vars": v,
            "dim": 3,
            "generators": [pj(v, {(0, 1, 0, 0): 1, (1, 0, 0, 0): -1, (0, 0, 2, 0): -1})],
            "param": {
                "vars": ts,
                "components": [
                    pj(ts, {(1, 0, 0): 1}), pj(ts, {(1, 0, 0): 1, (0, 2, 0): 1}),
                    pj(ts, {(0, 1, 0): 1}), pj(ts, {(0, 0, 1): 1}),
                ],
            },
        })
        g = load_map(hypersurface, map_spec(pj(v, {(1, 0, 0, 0): 1})))
        with pytest.raises(ParamRequired, match="identity parametrization"):
            growth_exponent(g)

    @pytest.mark.parametrize("components, shared", [
        ([{(1, 0): 1}, {(0, 1): 1}], False),  # the identity
        ([{(1, 0): 1}, {(1, 0): 1, (0, 2): 1}, {(0, 1): 1}], True),  # (0, s^2, 0) vanish at [1:0]
        ([{(2, 0): 1, (0, 2): -1}, {(2, 0): 1, (1, 1): -1, (0, 1): 1}], True),  # both vanish at [1:1]
        ([{(2, 0): 1, (0, 2): -1}, {(2, 0): 1, (0, 2): 1}], False),
    ])
    def test_top_forms_share_a_zero(self, components, shared):
        polys = [MPoly(2, c) for c in components]
        e = max(sum(x) for c in components for x in c)
        assert propermaps._top_forms_share_a_zero(polys, e) is shared


# distinct integer roots with multiplicities 1 or 2
ROOTS = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 2)), min_size=1, max_size=2, unique_by=lambda p: p[0])


class TestLocalMultiplicity:
    def test_cusp_origin(self, cusp_fx):
        assert local_multiplicity(cusp_fx, [F(0), F(0)]) == 2

    def test_cusp_regular_point(self, cusp_fx):
        assert local_multiplicity(cusp_fx, [F(1), F(1)]) == 1

    def test_parabola_everywhere_simple(self, parabola_fx):
        assert local_multiplicity(parabola_fx, [F(2), F(4)]) == 1
        assert local_multiplicity(parabola_fx, [F(0), F(0)]) == 1

    def test_point_off_variety_rejected(self, cusp_fx):
        with pytest.raises(ValueError):
            local_multiplicity(cusp_fx, [F(1), F(5)])

    def test_close_simple_roots_are_simple(self):
        # a perturbed-fiber count merged 0 and 2^-100 into one point of multiplicity 2
        assert local_multiplicity(close_roots_line(), [F(0)]) == 1

    def test_square_map_at_its_critical_point(self):
        assert local_multiplicity(SQUARE22, [F(1, 2), F(-1, 2)]) == 2
        assert local_multiplicity(SQUARE22, [F(1), F(1)]) == 1

    def test_value_read_from_the_pullbacks_where_a_denominator_vanishes(self, cusp_gyx):
        # y/x pulls back to t on the cusp (t^2, t^3), and x vanishes at the origin
        assert local_multiplicity(cusp_gyx, [F(0), F(0)]) == 1

    def test_value_read_from_the_pullbacks_under_the_identity(self):
        # (x1^2/x1, x2) on C^2 is the identity, and x1 vanishes at the origin
        identity = make_map(SQUARE22.domain, [(X1**2, X1), (X2, MPoly.const(2, 1))])
        assert local_multiplicity(identity, [F(0), F(0)]) == 1

    def test_two_values_at_a_node_are_not_c_algebraic(self):
        # y/x pulls back to t on the nodal cubic (t^2 - 1, t^3 - t): 1 and -1 over the node
        nodal = load_variety({
            "ambient_vars": ["x", "y"],
            "dim": 1,
            "generators": [pj(["x", "y"], {(0, 2): 1, (3, 0): -1, (2, 0): -1})],
            "param": {"vars": ["t"], "components": [pj(["t"], {(2,): 1, (0,): -1}), pj(["t"], {(3,): 1, (1,): -1})]},
        })
        y_over_x = load_map(nodal, map_spec((pj(["x", "y"], {(0, 1): 1}), pj(["x", "y"], {(1, 0): 1}))))
        with pytest.raises(NotCAlgebraic):
            local_multiplicity(y_over_x, [F(0), F(0)])
        assert local_multiplicity(y_over_x, [F(3), F(6)]) == 1

    def test_value_from_the_components_under_a_two_parameter_parametrization(self):
        # f = (x^2 + z, z^3 - x) on y = x + z^2, through (t, t + s^2, s): no denominator vanishes
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        surface = load_variety(json.loads((fixtures / "surface_xz2.json").read_text()))
        f = load_map(surface, json.loads((fixtures / "f_surface.json").read_text()))
        for point in ([0, 0, 0], [1, 1, 0], [2, 3, 1]):
            assert local_multiplicity(f, [F(v) for v in point]) == 1
        # (x^2/x, z) pulls back to (t, s): f(a) comes from the pullbacks where the denominator x vanishes
        x, z, one = MPoly.variable(3, 0), MPoly.variable(3, 2), MPoly.const(3, 1)
        assert local_multiplicity(make_map(surface, [(x**2, x), (z, one)]), [F(0)] * 3) == 1

    def test_non_square_map_rejected(self, cubic_proj23):
        with pytest.raises(InvalidInput):
            local_multiplicity(cubic_proj23, [F(0), F(0)])

    @pytest.mark.parametrize("comps, a, mult", [
        ([X1**2, X2**2], [0, 0], 4),
        ([X1**2 - X2**2, X1 * X2], [0, 0], 4),
        ([X1**2 - ONE, X2**2], [1, 0], 2),
        (SQUARE22.pullbacks, [F(-1, 2), F(1, 2)], 3),  # a cusp of square(2, 2)
        (SQUARE22.pullbacks, [1, 2], 1),
        ([X1, X2**3 + X1 * X2], [0, 0], 3),
        ([X1**2 * X2 + X2**3, X1**3], [0, 0], 9),
        *((f.pullbacks, [0, 0], mult) for f, mult in zip(ZEROS_AT_INFINITY, [3, 2])),
    ], ids=["x1^2,x2^2", "x1^2-x2^2,x1x2", "x1^2-1,x2^2", "square22-cusp", "square22-simple",
            "t1,t2^3+t1t2", "x1^2x2+x2^3,x1^3", "x1+x2^2", "x1x2+x1"])
    def test_exact_at_the_probes(self, comps, a, mult):
        # non-curvilinear points, cusps and fibers with zeros at infinity included
        assert local_multiplicity(polynomial_map(comps), [F(v) for v in a]) == mult

    @settings(max_examples=20, deadline=None)
    @given(
        us=ROOTS,
        vs=ROOTS,
        ops=st.lists(st.tuples(st.integers(0, 1), st.integers(-2, 2)), max_size=3),
    )
    def test_product_maps(self, us, vs, ops):
        # f = (prod (u - r)^m, prod (v - s)^n) with (u, v) = A x for A unimodular: the zero
        # fiber is the points A^-1 (r, s), of multiplicity m * n, and they sum to d(f)
        A = [[1, 0], [0, 1]]
        for row, c in ops:  # add c times the other row
            A[row] = [A[row][i] + c * A[1 - row][i] for i in range(2)]
        u, v = (X1.scale(p) + X2.scale(q) for p, q in A)
        f = polynomial_map([
            functools.reduce(operator.mul, ((w - ONE.scale(r)) ** m for r, m in roots))
            for w, roots in ((u, us), (v, vs))
        ])
        total = 0
        for (r, m), (s, n) in itertools.product(us, vs):
            point = [A[1][1] * r - A[0][1] * s, A[0][0] * s - A[1][0] * r]
            assert local_multiplicity(f, point) == m * n
            total += m * n
        assert total == check_proper(f, seed=0)

    def test_draws_nothing(self, cusp_fx, monkeypatch):
        def fail(*args):
            raise AssertionError("a random stream was drawn")

        monkeypatch.setattr(rng, "child_rng", fail)
        assert local_multiplicity(cusp_fx, [F(0), F(0)]) == 2
        assert local_multiplicity(SQUARE22, [F(-1, 2), F(1, 2)]) == 3

    def test_two_parameters_need_two_affine_components(self):
        # (t1 + t2^2, t2) has one affine component, so the preimage is not read off phi
        ts = ["t1", "t2"]
        plane = load_variety({
            "ambient_vars": V2, "dim": 2, "generators": [],
            "param": {"vars": ts, "components": [pj(ts, {(1, 0): 1, (0, 2): 1}), pj(ts, {(0, 1): 1})]},
        })
        f = load_map(plane, map_spec(pj(V2, {(1, 0): 1}), pj(V2, {(0, 1): 1})))
        with pytest.raises(ParamRequired):
            local_multiplicity(f, [F(0), F(0)])

    @pytest.mark.parametrize("comps", [[X1 * X2, X1 * X2**2], [ONE, X2]], ids=["two-axes", "constant"])
    def test_fiber_holding_a_curve_raises(self, comps):
        # every line through the origin meets the fiber again, so no shear is accepted
        with pytest.raises(NonZeroDimensional):
            local_multiplicity(polynomial_map(comps), [F(0), F(0)])

    def test_point_off_the_image_is_not_isolated(self):
        # C^3 through (t1, t2, t1^2), declared with no generators: (0, 0, 1) has no preimage
        xs, ts = ["x1", "x2", "x3"], ["t1", "t2"]
        space = load_variety({
            "ambient_vars": xs, "dim": 2, "generators": [],
            "param": {"vars": ts, "components": [pj(ts, {(1, 0): 1}), pj(ts, {(0, 1): 1}), pj(ts, {(2, 0): 1})]},
        })
        f = load_map(space, map_spec(pj(xs, {(1, 0, 0): 1}), pj(xs, {(0, 1, 0): 1})))
        with pytest.raises(NotIsolated):
            local_multiplicity(f, [F(0), F(0), F(1)])


class TestMultiplicitySum:
    """d(f) is the multiplicity sum over every fiber of a proper square map: the fiber polynomial's degree."""

    @settings(max_examples=25)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        seed=st.integers(0, 10**6),
        y=st.lists(st.fractions(-9, 9, max_denominator=5), min_size=2, max_size=2),
    )
    def test_at_random_values(self, comps, seed, y):
        f = polynomial_map(comps)
        try:
            d = check_proper(f, seed)
        except NotProper:
            return
        assert fiber_poly(f, y, random.Random(seed)).degree_in(0) == d

    def test_cusp_at_the_branch_and_a_regular_value(self, cusp_fx):
        assert geometric_degree(cusp_fx, seed=0) == 2
        assert fiber_poly(cusp_fx, [F(0)]).degree_in(0) == fiber_poly(cusp_fx, [F(1)]).degree_in(0) == 2

    def test_parabola(self, parabola_fx):
        assert geometric_degree(parabola_fx, seed=0) == fiber_poly(parabola_fx, [F(0)]).degree_in(0) == 1

    def test_square_case_plane(self, plane2):
        f = load_map(
            plane2,
            map_spec(pj(["x1", "x2"], {(2, 0): 1}), pj(["x1", "x2"], {(0, 1): 1})),
        )
        assert geometric_degree(f, seed=0) == fiber_poly(f, [F(0), F(0)]).degree_in(0) == 2

    @pytest.mark.parametrize("f", ZEROS_AT_INFINITY, ids=["x1+x2^2", "x1x2+x1"])
    def test_zeros_at_infinity(self, f):
        assert geometric_degree(f, seed=0) == fiber_poly(f, [F(0), F(0)]).degree_in(0) == 3

    def test_close_points_stay_two_simple_points(self):
        # t^2 - 2^-100 t: the zero fiber is two simple points, not one double one
        assert [s.degree_in(0) for s in squarefree_factors(fiber_poly(close_roots_line(), [F(0)]))] == [2]


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

    def test_slice_count_on_a_surface_raises(self):
        with pytest.raises(ParamRequired):
            propermaps.image_slice_points(SQUARE22)

    def test_slice_count_draws_nothing(self, cubic_proj23, monkeypatch):
        def fail(*args):
            raise AssertionError("a random stream was drawn")

        monkeypatch.setattr(rng, "child_rng", fail)
        assert propermaps.image_slice_points(cubic_proj23) == 3

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

    def test_graph_over_a_surface_has_the_surface_degree(self):
        # f = (x1, x2) on x3 = x1^2 x2 is one-to-one, and its graph is a cubic surface
        xs, ts = ["x1", "x2", "x3"], ["t1", "t2"]
        surface = load_variety({
            "ambient_vars": xs, "dim": 2, "generators": [pj(xs, {(0, 0, 1): 1, (2, 1, 0): -1})],
            "param": {"vars": ts, "components": [pj(ts, {(1, 0): 1}), pj(ts, {(0, 1): 1}), pj(ts, {(2, 1): 1})]},
        })
        f = load_map(surface, map_spec(pj(xs, {(1, 0, 0): 1}), pj(xs, {(0, 1, 0): 1})))
        assert geometric_degree(f, seed=0) == 1
        for seed in range(3):
            assert graph_degree(f, seed) == sliced_graph_degree(f, seed) == 3

    def test_three_parameters_raise(self):
        with pytest.raises(ParamRequired):
            graph_degree(polynomial_map([MPoly.variable(3, i) for i in range(3)]), seed=0)

    @settings(max_examples=40)
    @given(comps=st.lists(plane_polys(3), min_size=2, max_size=2), seed=st.integers(0, 10))
    @example(comps=ZEROS_AT_INFINITY[0].pullbacks, seed=0)
    @example(comps=ZEROS_AT_INFINITY[1].pullbacks, seed=0)
    def test_projection_agrees_with_the_slice_vote(self, comps, seed):
        f = polynomial_map(comps)
        try:
            check_proper(f, seed)
        except NotProper:
            return
        assert graph_degree(f, seed) == sliced_graph_degree(f, seed)

    @pytest.mark.parametrize(
        "f, seed, degree",
        [(SQUARE32, 44, 6), (SQUARE32, 93, 6), (SQUARE32, 161, 6), (GRAD_QUARTIC, 44, 9)],
        ids=["square(3,2)@44", "square(3,2)@93", "square(3,2)@161", "quartic-gradient@44"],
    )
    def test_no_undercount_where_small_entries_failed(self, f, seed, degree):
        # rational entries of height 10 drew a projection whose centre meets the closure
        # of the graph at these seeds (a singular block on the f-columns) and returned 3
        assert graph_degree(f, seed) == degree

    def test_projections_that_fail_are_drawn_again(self, monkeypatch):
        seen = []

        def third_passes(f, seed=0):
            seen.append(f.pullbacks)
            if len(seen) < 3:
                raise NotProper("not finite on the graph")
            return check_proper(f, seed)

        monkeypatch.setattr(propermaps, "check_proper", third_passes)
        assert graph_degree(SQUARE22, seed=0) == 4
        assert len(seen) == 3 and seen[0] != seen[1] != seen[2]
        gen = rng.child_rng(0, "graphproj:2")
        coords = [X1, X2, *SQUARE22.pullbacks]
        rows = [[gen.randint(-10**6, 10**6) for _ in coords] for _ in range(2)]
        assert seen[2] == [sum((c.scale(w) for c, w in zip(coords, row)), MPoly.zero(2)) for row in rows]

    def test_draw_budget_raises(self, monkeypatch):
        seen = []

        def never_finite(f, seed=0):
            seen.append(f)
            raise NotProper("not finite on the graph")

        monkeypatch.setattr(propermaps, "check_proper", never_finite)
        with pytest.raises(DegenerateSlice):
            graph_degree(SQUARE22, seed=0)
        assert len(seen) == propermaps._DRAW_BUDGET


class TestProfileInvariants:
    def test_degree_bounded_by_graph_degree(self, cusp_fx, parabola_fx, cubic_proj23, cline_f_t2):
        for f in (cusp_fx, parabola_fx, cubic_proj23, cline_f_t2):
            prof = profile_map(f, seed=0)
            assert prof.d_f <= prof.graph_degree

    def test_profile_fields(self, cusp_fx):
        prof = profile_map(cusp_fx, seed=0)
        assert prof.d_f == 2 and prof.graph_degree == 3

    def test_draws_only_shears_fiber_points_and_projections(self, cusp_fx, monkeypatch):
        salts = []
        real = rng.child_rng

        def recorded(seed, salt):
            salts.append(salt.split(":")[0] + ":" if ":" in salt else salt)
            return real(seed, salt)

        monkeypatch.setattr(rng, "child_rng", recorded)
        assert profile_map(SQUARE32, seed=0) == ProperMapProfile(6, 6)
        assert profile_map(cusp_fx, seed=0) == ProperMapProfile(2, 3)
        assert set(salts) == {"proper-shear", "graphproj:"}


class TestNoNumericSolving:
    def test_counts_and_multiplicities_on_two_parameters(self, plane2, cubic_proj23, cubic_g, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a numeric solver was called")

        for module, name in [
            (propermaps, "fiber_t_clusters"),
            (propermaps, "fiber_points_2"),
            (propermaps, "solve_system_2"),
            (propermaps, "roots_univariate"),
            (numroots, "solve_system_2"),
            (numroots, "roots_from_coeffs"),
            (mpmath, "workprec"),
        ]:
            monkeypatch.setattr(module, name, fail)
        plane = load_map(plane2, map_spec(pj(V2, {(2, 0): 1}), pj(V2, {(0, 1): 1})))
        for f, d, a, mult in [(SQUARE22, 4, [F(1, 2), F(-1, 2)], 2), (plane, 2, [F(0), F(0)], 2)]:
            assert check_proper(f, seed=0) == d
            assert geometric_degree(f, seed=0) == graph_degree(f, seed=0) == d
            assert fiber_poly(f, [F(0), F(0)]).degree_in(0) == d
            assert local_multiplicity(f, a) == mult
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
        assert distinct_root_count(fiber_poly(f, [F(2), F(3)])) == 1
        with pytest.raises(NotProper, match="infinity"):
            check_proper(f, seed=0)

    def test_fibers_that_are_curves_fail_on_the_image(self):
        # (u, 2u + 1) with u = x1 + 2 x2: empty fibers off the image line, lines on it
        u = X1 + X2.scale(2)
        f = polynomial_map([u, u.scale(2) + MPoly.const(2, 1)])
        for seed in range(3):
            with pytest.raises(NotProper, match="finite"):
                check_proper(f, seed=seed)

    def test_large_constant_terms_do_not_decide_properness(self):
        # the affine automorphism (3 x1 - 10^12, x2) is proper; (x1 + 10^12, x1 x2)
        # is constant on the axis x1 = -10^12
        C = MPoly.const(2, 10**12)
        check_proper(polynomial_map([X1.scale(3) - C, X2]), seed=0)
        with pytest.raises(NotProper, match="infinity"):
            check_proper(polynomial_map([X1 + C, X1 * X2]), seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_fiber_point_escaping_along_a_hyperbola_is_not_proper(self, seed):
        # along t1 t2 = 1, f = (x1 (x1 x2 - 1), x2) tends to 0 while t goes to infinity
        f = polynomial_map([X1 * (X1 * X2 - MPoly.const(2, 1)), X2])
        with pytest.raises(NotProper, match="infinity"):
            check_proper(f, seed=seed)

    def test_constant_component_is_not_proper(self):
        with pytest.raises(NotProper, match="constant"):
            check_proper(polynomial_map([X1, MPoly.const(2, 5)]), seed=0)

    def test_non_square_and_three_parameter_maps_raise(self):
        with pytest.raises(ParamRequired):
            check_proper(polynomial_map([X1, X2, X1 * X2]), seed=0)
        with pytest.raises(ParamRequired):
            check_proper(polynomial_map([MPoly.variable(3, i) for i in range(3)]), seed=0)

    @settings(max_examples=40)
    @given(comps=st.lists(plane_polys(3), min_size=2, max_size=2), seed=st.integers(0, 10))
    @example(comps=SQUARE22.pullbacks, seed=0)
    @example(comps=ZEROS_AT_INFINITY[0].pullbacks, seed=0)  # d = 3, short of Bezout
    @example(comps=ZEROS_AT_INFINITY[1].pullbacks, seed=0)
    def test_degree_of_the_resultant_is_the_geometric_degree(self, comps, seed):
        # up to a constant, R is the characteristic polynomial of x over Q(y1, y2); a
        # fiber of a proper map never has more points than d(f), and a generic one has d(f)
        f = polynomial_map(comps)
        try:
            d = check_proper(f, seed)
        except NotProper:
            return
        assert ShapeLemma(f, random.Random(seed)).R.degree_in(0) == d
        gen = random.Random(seed)
        counts = []
        for _ in range(4):
            t0 = [F(gen.randint(-50, 50), gen.randint(1, 20)) for _ in range(2)]
            counts.append(distinct_root_count(fiber_poly(f, [evaluate(p, t0) for p in comps], gen)))
        assert max(counts) == d
