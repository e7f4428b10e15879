import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fiber_coordinates, line_poly, map_spec, mpolys, pj, plane_polys, residue_evaluate, univariate_coeffs
from cnull import charpoly, cli, numroots, polycore, propermaps, rng
from cnull.charpoly import (
    CharPoly,
    bounds_table,
    build_charpoly,
    charpoly_resultant_oracle,
    charpoly_to_json,
    coefficient_bounds,
    growth_inclusion_check,
    ploski_delta,
    verify_charpoly,
)
from cnull.errors import (
    CriticalSampleBudgetExhausted,
    ExactVerificationFailed,
    InconsistentSamples,
    InvalidInput,
    NonReal,
    NoReconstruction,
    NonZeroDimensional,
    NotProper,
)
from cnull.numroots import rational_reconstruct
from cnull.polycore import (
    NEG_INF,
    MPoly,
    coeffs_in_var,
    compose,
    distinct_root_count,
    evaluate,
    evaluator,
    squarefree_factors,
    total_degree,
    univ_coeffs,
    univ_from_coeffs,
)
from cnull.propermaps import ShapeLemma, fiber_points_2, profile_map
from cnull.variety import CAMap, Param, Variety, load_map, polynomial_map

F = Fraction
Y = MPoly(1, {(1,): 1})
X = MPoly.variable(1, 0)
X1, X2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


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

    def test_maps_that_do_not_fit_raise(self, cusp_fx, cusp_identity, cubic_proj23, cubic_g, capsys):
        with pytest.raises(InvalidInput, match="as many components"):
            build_charpoly(cubic_proj23, cubic_g, seed=0)
        with pytest.raises(InvalidInput, match="single-component"):
            build_charpoly(cusp_fx, cusp_identity, seed=0)
        argv = ["--variety", fx("graph_cubic.json"), "--f", fx("proj23.json"), "--g", fx("g_sq_minus1.json")]
        assert cli.main(["charpoly", *argv]) == 4
        assert "InvalidInput" in capsys.readouterr().err

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


# square(2, 2): f = (x1^2 + x2, x2^2 - x1), g = x1 + 2 x2
SQUARE22 = polynomial_map([X1**2 + X2, X2**2 - X1])
SQUARE32 = polynomial_map([X1**3 + X2, X2**2 - X1])
G12 = polynomial_map([X1 + X2.scale(2)])


class TestFiberSolves:
    @pytest.mark.parametrize("case,solver", [("curve(4,3)", "fiber_t_clusters")])
    def test_two_fiber_solves_per_grid_node(self, cline, monkeypatch, case, solver):
        # on a curve the non-critical check solves each new node, and the sampling solves it again
        # f = x^4 - x^2 + 3x - 2, g = x^3 + x
        f, g = _line_map(cline, [-2, 3, -1, 0, 1]), _line_map(cline, [0, 1, 0, 1])
        _profile_now(monkeypatch, f)
        real = getattr(charpoly, solver)  # the grid's own binding
        calls, started = [], []

        def counted(f, y, prec=256, start=None):
            calls.append(y)
            started.append(start is not None)
            return real(f, y, prec, start)

        monkeypatch.setattr(charpoly, solver, counted)
        P = build_charpoly(f, g, seed=0)
        assert P.verified
        nodes = len(set(map(tuple, calls)))
        assert nodes >= 1 and len(calls) == 2 * nodes
        assert nodes <= (max(P.bounds) + 1) ** P.k
        # each new node is checked, then sampled from the check's roots: the calls come in pairs
        assert calls[::2] == calls[1::2]
        assert not any(started[::2]) and all(started[1::2])

    def test_square_grid_solves_no_fiber(self, monkeypatch):
        # on two parameters every sample is exact: no root is computed or reconstructed
        _profile_now(monkeypatch, SQUARE22)

        def fail(*args, **kwargs):
            raise AssertionError("a numeric solve in the grid")

        for module, name in [
            (charpoly, "fiber_t_clusters"),
            (propermaps, "fiber_t_clusters"),
            (propermaps, "fiber_points_2"),
            (propermaps, "solve_system_2"),
            (numroots, "solve_system_2"),
            (charpoly, "roots_from_coeffs"),
            (numroots, "roots_from_coeffs"),
            (charpoly, "rational_reconstruct"),
            (numroots, "rational_reconstruct"),
        ]:
            monkeypatch.setattr(module, name, fail)
        P = build_charpoly(SQUARE22, G12, seed=0)
        assert P.verified and P.d == 4


def _sample(shape, g, y):
    """The exact row a_1 .. a_d of g over the node y, as _SampleGrid takes it from shape."""
    ring, theta = shape.coordinates(y)
    return ring.charpoly(charpoly._horner(ring, theta, shape.t2_table(g.pullbacks[0])))


def _reference_sample(shape, g, y):
    """The row by evaluating g at the residues (x - lam*theta, theta) term by term."""
    ring, coords = fiber_coordinates(shape, y)
    return ring.charpoly(residue_evaluate(ring, g.pullbacks[0], coords))


def _value(P, y):
    """P(y, .) as its coefficients a_1 .. a_d."""
    return [evaluate(a, y) for a in P.coeffs]


def _terms(coeffs):
    """The coefficients a_j given as {exponent: value} dicts, as MPolys in (y1, y2)."""
    return [MPoly(2, a) for a in coeffs]


class TestExactSquareSamples:
    def test_critical_node_is_sampled_under_every_shear(self):
        # the Jacobian 4 x1 x2 + 1 of square(2, 2) vanishes at (1/2, -1/2), over (-1/4, -1/4)
        P = build_charpoly(SQUARE22, G12, seed=0)
        for seed in range(5):
            shape = ShapeLemma(SQUARE22, random.Random(seed))
            assert _sample(shape, G12, [F(-1, 4), F(-1, 4)]) == _value(P, [F(-1, 4), F(-1, 4)])
            ring, _ = shape.coordinates([F(-1, 4), F(0)])
            assert ring.d == 4

    def test_whitney_cusp_is_sampled_at_its_cusp(self):
        # a triple point over 0: the fiber algebra is Q[x]/x^3, curvilinear
        cusp = polynomial_map([X1, X2**3 + X1 * X2])
        P = build_charpoly(cusp, G12, seed=0)
        assert P.verified and P.d == 3
        for seed in range(5):
            assert _sample(ShapeLemma(cusp, random.Random(seed)), G12, [F(0), F(0)]) == _value(P, [F(0), F(0)])

    def test_coordinates_solve_the_fiber_equations(self):
        shape = ShapeLemma(SQUARE22, random.Random(0))
        y = [F(2), F(-3)]
        ring, coords = fiber_coordinates(shape, y)
        for p, v in zip(SQUARE22.pullbacks, y):
            assert residue_evaluate(ring, p, coords) == ring.element([v])  # residues are canonical

    @pytest.mark.parametrize(
        "f,coeffs",
        [
            (
                [X1 + X2**2, X2**3],
                [{(1, 0): -3}, {(0, 1): 6, (2, 0): 3}, {(0, 1): -8, (0, 2): 1, (1, 1): -6, (3, 0): -1}],
            ),
            (
                [X1 * X2 + X1, X2**2 + X1],
                [
                    {(0, 0): 3, (0, 1): -1},
                    {(0, 1): -4, (1, 0): -8},
                    {(0, 1): -12, (0, 2): 4, (1, 0): 12, (1, 1): 4, (2, 0): 1},
                ],
            ),
        ],
        ids=["x1+x2^2", "x1x2+x1"],
    )
    def test_zeros_at_infinity(self, f, coeffs):
        # proper with d(f) = 3, short of their Bezout numbers 6 and 4; the
        # coefficients are those of the numeric construction
        P = build_charpoly(polynomial_map(f), G12, seed=0)
        assert P.verified and P.d == 3
        assert P.coeffs == _terms(coeffs)

    def test_coefficients_beyond_any_reconstruction_height(self):
        # g = 10^20 x1 + x2: the samples have heights past 10^16, which the
        # numeric construction could not reconstruct at any rung
        g = polynomial_map([X1.scale(10**20) + X2])
        P = build_charpoly(SQUARE22, g, seed=0)
        assert P.verified and P.d == 4
        assert max(abs(c) for a in P.coeffs for c in a.terms.values()) > 10**16

    @settings(max_examples=15)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        g=plane_polys(3),
        y=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    # the fold value of square(2, 2): R has a double root, under the one double point of the fiber
    @example(comps=[X1**2 + X2, X2**2 - X1], g=X1 + X2.scale(2), y=(F(-1, 4), F(-1, 4)))
    def test_exact_row_equals_the_reconstructed_numeric_row(self, comps, g, y):
        f, y = polynomial_map(comps), [F(c) for c in y]
        try:
            shape = ShapeLemma(f, random.Random(0))
            fiber = shape.coordinates(y)
        except NonZeroDimensional:
            return
        if fiber is None:  # s1 is not a unit: a shear that merges two points, or a non-curvilinear point
            return
        ring = fiber[0]
        exact = _sample(shape, polynomial_map([g]), y)
        points = fiber_points_2(f, y, 512)
        # the roots of R lie under distinct fiber points, one each, and a critical node has fewer than d
        R = univ_from_coeffs([evaluate(c, [0, *y]) for c in coeffs_in_var(shape.R, 0)])
        assert len(points) == distinct_root_count(R)
        if len(points) < ring.d:
            return
        with mp.workprec(532):
            g_at = evaluator([g], use_mp=True)
            asc = charpoly._monic_from_roots([g_at(t)[0] for t in points])
            numeric = [rational_reconstruct(asc[ring.d - j], 10**32, 512) for j in range(1, ring.d + 1)]
        assert exact == numeric

    @settings(max_examples=40)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        g=plane_polys(3),
        seed=st.integers(0, 10**6),
        y=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        lam=st.none(),
    )
    # under lam = 1, g(x - t2, t2) has t2-degree 0 (x), 1 with a constant top (x + t2),
    # 1 with top x (x t2), 3 with a constant top, and 2 with top -x (x^2 t2 - x t2^2)
    @example(comps=[X1**2 + X2, X2**2 - X1], g=X1 + X2, seed=0, y=(2, -3), lam=1)
    @example(comps=[X1**2 + X2, X2**2 - X1], g=X1 + X2.scale(2), seed=0, y=(2, -3), lam=1)
    @example(comps=[X1**2 + X2, X2**2 - X1], g=X1 * X2 + X2**2, seed=0, y=(2, -3), lam=1)
    @example(comps=[X1**2 + X2, X2**2 - X1], g=X2**3 + X1**2, seed=0, y=(2, -3), lam=1)
    @example(comps=[X1**2 + X2, X2**2 - X1], g=X1**2 * X2 + X1 * X2**2, seed=0, y=(2, -3), lam=1)
    def test_grid_sample_equals_the_term_by_term_evaluation(self, comps, g, seed, y, lam):
        # the grid takes g through the shear once and a node by Horner's rule in theta;
        # the reference evaluates g at the residues (x - lam*theta, theta) term by term
        f, g = polynomial_map(comps), polynomial_map([g])
        gen = random.Random(seed) if lam is None else SimpleNamespace(randint=lambda lo, hi: lam)
        try:
            shape = ShapeLemma(f, gen)
            fiber = shape.coordinates(y)
        except NonZeroDimensional:
            return
        if fiber is None:
            return
        grid = charpoly._SampleGrid(f, g, fiber[0].d, 0, 256, 1, shape)
        assert grid._row(y) == _reference_sample(shape, g, y)


class TestLadderFailures:
    def test_a_failing_two_parameter_build_constructs_one_grid(self, monkeypatch):
        # all-zero bounds take constant coefficients on one node, which fail the identity;
        # an exact sample is the same at every rung, so no rung past the first is tried
        monkeypatch.setattr(charpoly, "coefficient_bounds", lambda d, growth, graph_deg: [0] * d)
        precs = _constructed_grids(monkeypatch)
        with pytest.raises(ExactVerificationFailed):
            build_charpoly(SQUARE22, G12, seed=0)
        assert precs == [256]

    def test_no_reconstruction_is_raised_after_every_rung(self, cline, monkeypatch):
        # curve(4, 3): every numeric sample fails to reconstruct, on one grid per rung
        f, g = _line_map(cline, [-2, 3, -1, 0, 1]), _line_map(cline, [0, 1, 0, 1])

        def fails(*args):
            raise NoReconstruction("forced")

        monkeypatch.setattr(charpoly, "rational_reconstruct", fails)
        precs = _constructed_grids(monkeypatch)
        with pytest.raises(NoReconstruction, match="forced"):
            build_charpoly(f, g, seed=0)
        assert precs == [256, 512, 1024]


    @staticmethod
    def _short_samples(monkeypatch, rungs):
        """The sample solve at a working precision in rungs finds one cluster fewer than its check."""
        real = charpoly.fiber_t_clusters

        def fewer(f, y, prec=256, start=None):
            clusters = real(f, y, prec, start)
            return clusters[:-1] if start is not None and prec in rungs else clusters

        monkeypatch.setattr(charpoly, "fiber_t_clusters", fewer)

    def test_a_sample_short_of_its_check_moves_to_the_next_rung(self, cline, monkeypatch):
        # curve(4, 3): the 256-bit grid raises InconsistentSamples at its first node, the 512-bit one builds P
        f, g = _line_map(cline, [-2, 3, -1, 0, 1]), _line_map(cline, [0, 1, 0, 1])
        self._short_samples(monkeypatch, {256})
        precs = _constructed_grids(monkeypatch)
        P = build_charpoly(f, g, seed=0)
        assert precs == [256, 512]
        assert P.verified and P.coeffs == charpoly_resultant_oracle(f, g).coeffs

    def test_samples_short_at_every_rung_fail_verification(self, cline, monkeypatch, capsys):
        f, g = _line_map(cline, [-2, 3, -1, 0, 1]), _line_map(cline, [0, 1, 0, 1])
        self._short_samples(monkeypatch, set(numroots.PREC_LADDER))
        precs = _constructed_grids(monkeypatch)
        with pytest.raises(ExactVerificationFailed) as info:
            build_charpoly(f, g, seed=0)
        assert isinstance(info.value.__cause__, InconsistentSamples)
        assert precs == [256, 512, 1024]
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        argv = ["charpoly", *(f"--{k}={fixtures / v}" for k, v in
                              [("variety", "cline.json"), ("f", "f_line8.json"), ("g", "g_line4.json")])]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "ExactVerificationFailed" in err and "Traceback" not in err


class TestCriticalNodes:
    def test_no_node_clear_of_critical_values_exhausts_the_pool(self, cusp_fx, cusp_gyx, monkeypatch, capsys):
        monkeypatch.setattr(charpoly._SampleGrid, "_row", lambda self, y: None)
        with pytest.raises(CriticalSampleBudgetExhausted):
            build_charpoly(cusp_fx, cusp_gyx, seed=0)
        assert cli.main(["charpoly", "--variety", fx("cusp.json"), "--f", fx("fx.json"), "--g", fx("gyx.json")]) == 3
        assert "CriticalSampleBudgetExhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [5, 6])
    @pytest.mark.parametrize("seed", [6, 15])
    def test_an_m_fold_root_is_skipped_as_critical(self, cline, monkeypatch, m, seed):
        # f = (x - 1)^m, g = x^2 + 1: at these seeds the node 0 has an m-fold root, whose
        # clusters pass the count of d = m points; its sample does not reconstruct, and the
        # exact fiber polynomial, with one distinct root, marks the node critical
        f = _line_map(cline, [math.comb(m, i) * (-1) ** (m - i) for i in range(m + 1)])
        g = _line_map(cline, [1, 0, 1])
        rows = _counted_rows(monkeypatch)
        P = build_charpoly(f, g, seed=seed)
        assert P.verified and P.coeffs == charpoly_resultant_oracle(f, g).coeffs
        assert ((0,), 256, False) in rows

    def test_a_noncritical_node_that_does_not_reconstruct_still_raises(self, cline, monkeypatch):
        # the exact test skips only a critical node: curve(4, 3) has none at its grid nodes
        f, g = _line_map(cline, [-2, 3, -1, 0, 1]), _line_map(cline, [0, 1, 0, 1])

        def nonreal(*args):
            raise NonReal("forced")

        monkeypatch.setattr(charpoly, "rational_reconstruct", nonreal)
        with pytest.raises(NonReal, match="forced"):
            build_charpoly(f, g, seed=0)


class TestShearRedraw:
    @pytest.mark.parametrize("rejected,redraws", [(0, 1), (1, 0)])
    def test_only_a_rejected_first_node_redraws_the_shear(self, monkeypatch, rejected, redraws):
        # coordinates rejects its call number `rejected`: the first node, whose shear may merge
        # two points of every fiber, or a node after the first accepted one, which keeps it
        expected = build_charpoly(SQUARE22, G12, seed=0)
        _, redrawn = _reject_call(monkeypatch, rejected)
        P = build_charpoly(SQUARE22, G12, seed=0)
        assert redrawn == [propermaps._shear(SQUARE22.pullbacks[0], rng.child_rng(0, "charpoly-shear"))][:redraws]
        assert P.verified and P.coeffs == expected.coeffs


class TestOneElimination:
    @pytest.mark.parametrize("f", [SQUARE22, SQUARE32], ids=["square(2,2)", "square(3,2)"])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rejected,eliminations", [(None, 2), (0, 3)])
    def test_the_grid_samples_through_the_properness_elimination(self, monkeypatch, f, seed, rejected, eliminations):
        # properness and the graph projection eliminate once each, and the grid's first shear is
        # the properness shear; only a rejected first node eliminates again, under a new shear
        sequences = []
        real = polycore.subresultants

        def counted(*args):
            sequences.append(args)
            return real(*args)

        monkeypatch.setattr(polycore, "subresultants", counted)
        monkeypatch.setattr(propermaps, "subresultants", counted)
        lams, _ = _reject_call(monkeypatch, rejected)
        assert build_charpoly(f, G12, seed=seed).verified
        assert len(sequences) == eliminations
        assert lams[0] == propermaps._shear(f.pullbacks[0], rng.child_rng(seed, "proper-shear"))


def _reject_call(monkeypatch, rejected):
    """Have ShapeLemma.coordinates reject its call number `rejected` (None: no call).

    Returns the shear of every coordinates call, and the shears the grid
    draws again, in order.
    """
    real = ShapeLemma.coordinates
    lams, redrawn = [], []

    def coordinates(shape, y):
        lams.append(shape.lam)
        return None if len(lams) - 1 == rejected else real(shape, y)

    class Redrawn(ShapeLemma):
        def __init__(self, f, gen):
            super().__init__(f, gen)
            redrawn.append(self.lam)

    monkeypatch.setattr(ShapeLemma, "coordinates", coordinates)
    monkeypatch.setattr(charpoly, "ShapeLemma", Redrawn)
    return lams, redrawn


def _constructed_grids(monkeypatch):
    """The working precision of every _SampleGrid constructed from here on."""
    real = charpoly._SampleGrid.__init__
    precs = []

    def recorded(grid, *args):
        real(grid, *args)
        precs.append(grid.wp)

    monkeypatch.setattr(charpoly._SampleGrid, "__init__", recorded)
    return precs


def _counted_rows(monkeypatch):
    """Record (node, working precision, accepted) of every grid node sampled from here on."""
    real = charpoly._SampleGrid._row
    rows = []

    def counted(grid, y):
        row = real(grid, y)
        rows.append((tuple(y), grid.wp, row is not None))
        return row

    monkeypatch.setattr(charpoly._SampleGrid, "_row", counted)
    return rows


def _counted_solves(monkeypatch):
    """Record (node, prec, start, clusters) of every curve fiber solve of the sample grid from here on."""
    real = charpoly.fiber_t_clusters
    calls = []

    def counted(f, y, prec=256, start=None):
        clusters = real(f, y, prec, start)
        calls.append((tuple(y), prec, start, clusters))
        return clusters

    monkeypatch.setattr(charpoly, "fiber_t_clusters", counted)
    return calls


SQUARE_CHARPOLYS = {  # components of f, grid nodes, bounds, a_1 .. a_d as for _terms
    "square(2,2)": (
        [X1**2 + X2, X2**2 - X1],
        6,
        [1, 2, 3, 4],
        [
            {},
            {(1, 0): -2, (0, 1): -8, (0, 0): 6},
            {(1, 0): -16, (0, 1): 8, (0, 0): 7},
            {(2, 0): 1, (1, 1): -8, (0, 2): 16, (1, 0): -14, (0, 1): 7},
        ],
    ),
    "square(3,2)": (
        [X1**3 + X2, X2**2 - X1],
        10,
        [1, 2, 3, 4, 5, 6],
        [
            {},
            {(0, 1): -12},
            {(1, 0): -2, (0, 0): 10},
            {(0, 2): 48, (1, 0): -36, (0, 1): 12, (0, 0): 40},
            {(1, 1): -24, (1, 0): -96, (0, 1): 56, (0, 0): 31},
            {(0, 3): -64, (2, 0): 1, (1, 1): -48, (0, 2): 16, (1, 0): -62, (0, 1): 31},
        ],
    ),
    "square(4,3)": (
        [X1**4 + X2, X2**3 - X1],
        15,
        list(range(1, 13)),
        [
            {},
            {},
            {(0, 1): -32},
            {(1, 0): -3},
            {(0, 0): 88},
            {(0, 2): 384, (1, 0): -320, (0, 1): 120},
            {(1, 1): -384, (0, 0): 1056},
            {(2, 0): 3, (1, 0): -2688, (0, 1): 2336, (0, 0): -22},
            {(0, 3): -2048, (1, 1): -4096, (0, 2): 1536, (1, 0): 104, (0, 1): -24, (0, 0): 2816},
            {(1, 2): -1920, (2, 0): -192, (1, 1): 72, (1, 0): -6144, (0, 1): 5376, (0, 0): 176},
            {(2, 1): -96, (1, 1): -6144, (0, 2): 3328, (1, 0): -416, (0, 1): 224, (0, 0): 2049},
            {(0, 4): 4096, (3, 0): -1, (1, 2): -2048, (0, 3): 768, (2, 0): 128, (1, 1): -160,
             (0, 2): 48, (1, 0): -4098, (0, 1): 2049},
        ],
    ),
}


def _recorded_grids(monkeypatch):
    """The _SampleGrid behind every interpolated P from here on."""
    real = charpoly._SampleGrid.charpoly
    grids = []

    def recorded(grid, *args):
        grids.append(grid)
        return real(grid, *args)

    monkeypatch.setattr(charpoly._SampleGrid, "charpoly", recorded)
    return grids


def _caps(f, g, bounds, seed=0):
    """The grid caps of build_charpoly(f, g, seed), for the theorem bounds that it reports."""
    return charpoly._grid_caps(f, g, bounds, profile_map(f, seed).shape)


def _theorem_grid(monkeypatch):
    """Have build_charpoly size its grid by the theorem bounds, as the caps' reference."""
    monkeypatch.setattr(charpoly, "_grid_caps", lambda f, g, bounds, shape: bounds)


class TestCapGrid:
    @pytest.fixture
    def curve_8_4(self, cline, monkeypatch):
        # f = x^8 - x^2 + 3x - 2, g = x^4 + x: the theorem bounds reach 32, the true degrees 4
        f = _line_map(cline, [-2, 3, -1, 0, 0, 0, 0, 0, 1])
        g = _line_map(cline, [0, 1, 0, 0, 1])
        _profile_now(monkeypatch, f)
        return f, g

    def test_curve_stops_after_the_true_degree(self, curve_8_4, monkeypatch):
        f, g = curve_8_4
        rows = _counted_rows(monkeypatch)
        P = build_charpoly(f, g, seed=0)
        assert P.verified and P.bounds == coefficient_bounds(8, F(4), 8)
        assert P.coeffs == charpoly_resultant_oracle(f, g).coeffs
        # the caps floor(j * 4 / 8) top out at 4 = deg a_8: 4 + 1 nodes, against 33 theorem nodes
        assert charpoly._grid_caps(f, g, P.bounds, None) == [0, 1, 1, 2, 2, 3, 3, 4]
        assert len({y for y, _, _ in rows}) == 5
        assert {wp for _, wp, _ in rows} == {256}
        assert all(accepted for _, _, accepted in rows)

    def test_two_solves_per_node_refined_in_integers(self, curve_8_4, monkeypatch):
        # every grid node is solved twice: its count at the ladder's first rung, then its
        # sample at the working precision, started from the count's representatives, so the
        # double-precision stage runs once per node; mpmath runs no Aberth sweep, so every
        # _aberth_sweeps call is that stage
        f, g = curve_8_4
        calls = _counted_solves(monkeypatch)
        real = numroots._aberth_sweeps
        targets = []

        def recorded(coeffs, deriv, z, target, max_iter):
            targets.append(target)
            return real(coeffs, deriv, z, target, max_iter)

        monkeypatch.setattr(numroots, "_aberth_sweeps", recorded)
        P = build_charpoly(f, g, seed=0)
        assert P.verified
        nodes = {y for y, *_ in calls}
        assert len(calls) == 2 * len(nodes) == 10
        checks, samples = calls[::2], calls[1::2]
        assert [y for y, *_ in checks] == [y for y, *_ in samples]
        assert all(prec == numroots.PREC_LADDER[0] == 128 and start is None for _, prec, start, _ in checks)
        assert all(prec == 256 for _, prec, _, _ in samples)
        for (_, _, _, check), (_, _, start, sample) in zip(checks, samples):
            assert start == [t for t, _ in check] and len(start) == len(sample) == 8
        assert len(targets) == len(nodes)
        assert all(type(t) is float for t in targets)

    def test_no_early_termination_is_left(self):
        # the caps determine P, so no grid is fitted early or asked whether g separates a fiber
        assert not hasattr(charpoly, "grid_interpolant") and not hasattr(charpoly, "ZETA")
        assert not hasattr(charpoly._SampleGrid, "confirmed") and not hasattr(charpoly._SampleGrid, "separates")

    @pytest.mark.parametrize("case", ["square(4,3)", "curve(8,4)"])
    def test_each_coefficient_is_interpolated_once_on_every_row(self, cline, monkeypatch, case):
        # every a_j is interpolated once, on all of the grid's rows, and the grid has
        # max cap + 1 nodes per axis: the benchmark counts interpolate's samples as grid nodes
        if case == "square(4,3)":
            f, g = polynomial_map([X1**4 + X2, X2**3 - X1]), G12
        else:  # f = x^8 - x^2 + 3x - 2, g = x^4 + x
            f, g = _line_map(cline, [-2, 3, -1, 0, 0, 0, 0, 0, 1]), _line_map(cline, [0, 1, 0, 0, 1])
        calls = []
        real_interpolate = polycore.interpolate

        def recorded(*args):
            calls.append(args)
            return real_interpolate(*args)

        for module in (charpoly, polycore):
            monkeypatch.setattr(module, "interpolate", recorded)
        grids = _recorded_grids(monkeypatch)
        P = build_charpoly(f, g, seed=0)
        caps = _caps(f, g, P.bounds)
        assert P.verified and len(grids) == 1
        grid = grids[0]
        assert grid.n == max(caps) + 1 < max(P.bounds) + 1
        assert [bound for _, bound in calls] == caps and len(calls) == P.d
        assert all([y for y, _ in samples] == [y for y, _ in grid.rows] for samples, _ in calls)

    @pytest.mark.parametrize(
        "comps", [[X1**4 + X2, X2**3 - X1], [X1**3 + X2, X2**2 - X1]], ids=["square(4,3)", "square(3,2)"]
    )
    def test_a_builds_interpolation_makes_no_evaluate_call(self, monkeypatch, comps):
        # square(4,3) and square(3,2) at seed 0: the surplus samples of a grid are checked by
        # its vanishing Newton coefficients, so no interpolant is evaluated at a grid node
        visits = []
        real_evaluate = polycore.evaluate

        def counted(p, y):
            visits.append(tuple(y))
            return real_evaluate(p, y)

        monkeypatch.setattr(polycore, "evaluate", counted)
        assert not hasattr(charpoly, "evaluate")  # nor can charpoly call it unseen
        P = build_charpoly(polynomial_map(comps), G12, seed=0)
        assert P.verified
        assert visits == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "comps",
        [
            [X1**2 + X2, X2**2 - X1],
            [X1**3 + X2, X2**2 - X1],
            [X1**3 + X2, X2**3 - X1],
            [X1 + X2**2, X2**3],
            [X1 * X2 + X1, X2**2 + X1],
        ],
        ids=["square(2,2)", "square(3,2)", "square(3,3)", "x1+x2^2", "x1x2+x1"],
    )
    def test_the_cap_grid_result_equals_the_theorem_grid_result(self, monkeypatch, comps, seed):
        # the cap grid has max cap + 1 nodes per axis, and the grid of the theorem bounds
        # max bound + 1; both give the same P
        f = polynomial_map(comps)
        grids = _recorded_grids(monkeypatch)
        P = build_charpoly(f, G12, seed=seed)
        assert [grid.n for grid in grids] == [max(_caps(f, G12, P.bounds, seed)) + 1]
        _theorem_grid(monkeypatch)
        grids.clear()
        Q = build_charpoly(f, G12, seed=seed)
        assert [grid.n for grid in grids] == [max(P.bounds) + 1]
        assert P.verified and Q.verified and P.coeffs == Q.coeffs

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", ["square(2,2)", "square(3,2)", "square(4,3)"])
    def test_a_square_samples_the_total_degree_simplex(self, monkeypatch, case, seed):
        # a grid keeps the nodes whose indices sum to at most max cap: square(2,2), (3,2)
        # and (4,3) have max caps 2, 3 and 4, so C(max cap + 2, 2) = 6, 10 and 15 rows at
        # every seed; the nodes are ints
        comps, nodes, bounds, coeffs = SQUARE_CHARPOLYS[case]
        grids = _recorded_grids(monkeypatch)
        P = build_charpoly(polynomial_map(comps), G12, seed=seed)
        assert [len(grid.rows) for grid in grids] == [nodes]
        assert all(type(c) is int for grid in grids for axis in grid.axes for c in axis)
        assert all(type(c) is int for grid in grids for y, _ in grid.rows for c in y)
        expected = CharPoly(len(coeffs), _terms(coeffs), bounds, "interpolated", ["y1", "y2"], verified=True)
        assert charpoly_to_json(P) == charpoly_to_json(expected)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", ["curve(4,3)", "curve(8,4)"])
    def test_a_curve_grid_has_integer_nodes(self, cline, monkeypatch, case, seed):
        # curve(d, e): f = x^d - x^2 + 3x - 2, g = x^e + x; P is the resultant oracle's
        d, e = {"curve(4,3)": (4, 3), "curve(8,4)": (8, 4)}[case]
        f = _line_map(cline, [-2, 3, -1] + [0] * (d - 3) + [1])
        g = _line_map(cline, [0, 1] + [0] * (e - 2) + [1])
        grids = _recorded_grids(monkeypatch)
        P = build_charpoly(f, g, seed=seed)
        assert grids and all(type(c) is int for grid in grids for c in grid.axes[0])
        expected = replace(charpoly_resultant_oracle(f, g), bounds=P.bounds, provenance="interpolated")
        assert charpoly_to_json(P) == charpoly_to_json(expected)

    def test_a_non_separating_g_grows_to_its_caps(self, cline_f_t2, cline, monkeypatch):
        # g = x^4 = f^2 takes one value on each fiber of f = x^2; the grid grows to its caps,
        # floor(j * 4 / 2), and not to the theorem bounds it reports
        g = _line_map(cline, [0, 0, 0, 0, 1])
        _profile_now(monkeypatch, cline_f_t2)
        rows = _counted_rows(monkeypatch)
        P = build_charpoly(cline_f_t2, g, seed=0)
        assert P.verified and P.bounds == [4, 8]
        assert P.coeffs == [(Y**2).scale(-2), Y**4]
        assert charpoly._grid_caps(cline_f_t2, g, P.bounds, None) == [2, 4]
        assert len({y for y, _, _ in rows}) == 5
        assert {wp for _, wp, _ in rows} == {256}
        assert all(accepted for _, _, accepted in rows)


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


    @settings(max_examples=15)
    @given(
        f_coeffs=univariate_coeffs(6),
        g_coeffs=st.one_of(univariate_coeffs(4), st.lists(st.integers(-3, 3), max_size=1)),
    )
    @example(f_coeffs=[0, 0, 2], g_coeffs=[])  # g = 0
    @example(f_coeffs=[1, -1, 0, 3], g_coeffs=[5])  # g constant
    def test_resultant_has_degree_deg_f_and_a_constant_lead(self, cline, f_coeffs, g_coeffs):
        # Res_t(F - y, s - G) = lc(F)^(deg G) prod (s - G(t_i)) over the roots of F - y
        f, g = _line_map(cline, f_coeffs), _line_map(cline, g_coeffs)
        deg_f, deg_g = total_degree(f.pullbacks[0]), max(total_degree(g.pullbacks[0]), 0)
        results = []
        real = charpoly.sylvester_resultant
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(charpoly, "sylvester_resultant", lambda *args: results.append(real(*args)) or results[-1])
            oracle = charpoly_resultant_oracle(f, g)
        s_coeffs = coeffs_in_var(results[0], 1)
        assert len(s_coeffs) - 1 == deg_f == oracle.d
        assert s_coeffs[-1].is_constant()
        assert s_coeffs[-1].constant_term() == F(univ_coeffs(f.pullbacks[0])[-1]) ** deg_g
        assert build_charpoly(f, g, seed=0).coeffs == oracle.coeffs


def _linear_param_map(polys):
    """The polynomials in (x1, x2) as a map on C^2 parametrized by (t1 + t2, t1 - t2)."""
    phi = [X1 + X2, X1 - X2]
    domain = Variety(["x1", "x2"], 2, [], Param(["t1", "t2"], phi))
    one = MPoly.const(2, 1)
    return CAMap(domain, [(p, one) for p in polys], [compose(p, phi) for p in polys])


class TestGridCaps:
    @settings(max_examples=12)
    @given(pair=_line_pairs)
    def test_caps_hold_are_reached_and_size_the_grid(self, cline, pair):
        # deg a_j <= floor(j deg G / deg F), with equality at j = d; the grid has max cap + 1 nodes
        f, g = _line_map(cline, pair[0]), _line_map(cline, pair[1])
        deg_f, deg_g = total_degree(f.pullbacks[0]), total_degree(g.pullbacks[0])
        oracle = charpoly_resultant_oracle(f, g)
        caps = [j * deg_g // deg_f for j in range(1, oracle.d + 1)]
        degrees = [total_degree(a) for a in oracle.coeffs]
        assert all(deg <= cap for deg, cap in zip(degrees, caps))
        assert degrees[-1] == caps[-1]
        assert ploski_delta(oracle) == F(deg_g, deg_f)
        with pytest.MonkeyPatch.context() as patch:
            grids = _recorded_grids(patch)
            built = build_charpoly(f, g, seed=0)
        assert built.verified and built.coeffs == oracle.coeffs
        assert charpoly._grid_caps(f, g, built.bounds, None) == caps
        assert [grid.n for grid in grids] == [max(caps) + 1]

    def test_zero_g_caps_at_zero(self, cline):
        f, g = _line_map(cline, [-2, 3, -1, 0, 1]), _line_map(cline, [0])
        assert charpoly._grid_caps(f, g, [5, 10, 15, 20], None) == [0, 0, 0, 0]
        P = build_charpoly(f, g, seed=0)
        assert P.verified and all(a.is_zero() for a in P.coeffs)

    def test_two_parameter_caps_are_below_the_bounds(self):
        P = build_charpoly(SQUARE22, G12, seed=0)
        assert P.bounds == [1, 2, 3, 4]
        assert _caps(SQUARE22, G12, P.bounds) == [0, 1, 1, 2]

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)])
    def test_a_square_has_caps_j_over_its_lesser_degree(self, a, b):
        # every fiber point of (x1^a + x2, x2^b - x1) over y is O(|y|^(1/min(a, b))), and
        # a_d = prod g(t_i) reaches its cap max(a, b)
        f = polynomial_map([X1**a + X2, X2**b - X1])
        P = build_charpoly(f, G12, seed=0)
        caps = _caps(f, G12, P.bounds)
        assert P.verified and caps == [j // min(a, b) for j in range(1, a * b + 1)]
        assert [total_degree(c) <= cap for c, cap in zip(P.coeffs, caps)] == [True] * P.d
        assert total_degree(P.coeffs[-1]) == caps[-1] == max(a, b)

    @settings(max_examples=20)
    @given(
        comps=st.lists(plane_polys(3), min_size=2, max_size=2),
        g=plane_polys(2),
        linear=st.booleans(),
    )
    @example(comps=[X1**2 + X2, X2**2 - X1], g=X1 * X2 + X2, linear=True)
    @example(comps=[X1 * X2 + X1, X2**2 + X1], g=X1**2 - X2, linear=False)
    def test_random_proper_maps_stay_under_their_caps(self, comps, g, linear):
        # the caps hold on random proper square maps, under the identity parametrization or
        # (t1 + t2, t1 - t2), the grid is their simplex, and the cap grid's P is the theorem grid's
        f, g = (_linear_param_map(comps), _linear_param_map([g])) if linear else (polynomial_map(comps), polynomial_map([g]))
        with pytest.MonkeyPatch.context() as patch:
            grids = _recorded_grids(patch)
            try:
                P = build_charpoly(f, g, seed=0)
            except NotProper:
                return
        caps = _caps(f, g, P.bounds)
        assert P.verified and [len(grid.rows) for grid in grids] == [math.comb(max(caps) + 2, 2)]
        assert all(total_degree(a) <= cap for a, cap in zip(P.coeffs, caps))
        with pytest.MonkeyPatch.context() as patch:
            _theorem_grid(patch)
            assert build_charpoly(f, g, seed=0).coeffs == P.coeffs

    def test_a_slow_g_samples_past_its_true_degrees(self):
        # g = x1 on (x1^5, x2): P = s^5 - y1 has degree 1 in y, but t2 = y2 grows like |y|,
        # so delta = 1 and the caps reach 5: the grid holds C(7, 2) = 21 rows, where the
        # true degrees need C(3, 2) = 3
        f, g = polynomial_map([X1**5, X2]), polynomial_map([X1])
        with pytest.MonkeyPatch.context() as patch:
            rows = _counted_rows(patch)
            P = build_charpoly(f, g, seed=0)
        assert P.verified and P.coeffs == [MPoly.zero(2)] * 4 + [MPoly(2, {(1, 0): -1})]
        assert _caps(f, g, P.bounds) == [1, 2, 3, 4, 5]
        assert len(rows) == math.comb(7, 2) == 21


class TestResultantOracle:
    def test_two_parameters_raise(self, capsys):
        with pytest.raises(InvalidInput, match="on curves"):
            charpoly_resultant_oracle(polynomial_map([X1**2 + X2, X2**2 - X1]), polynomial_map([X1]))
        argv = ["--variety", fx("plane2.json"), "--f", fx("f_square22.json"), "--g", fx("g_x1.json")]
        assert cli.main(["charpoly", *argv, "--oracle"]) == 4
        assert "InvalidInput" in capsys.readouterr().err

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


CUSP_P = CharPoly(2, [MPoly(1, {}), -Y], None, "resultant", ["y1"])


class TestGrowthInclusion:
    def test_holds_at_half(self):
        res = growth_inclusion_check(CUSP_P, F(1, 2), samples=1000, seed=0)
        assert res.holds
        # the certified C of the cusp: C^2 >= 2^2 ||-y||_1 = 4
        assert res.witness_C == 2.0

    def test_violated_at_quarter(self):
        res = growth_inclusion_check(CUSP_P, F(1, 4), samples=1000, seed=0)
        assert not res.holds
        assert res.violation == ((1,), 2)

    def test_pure_power_holds_everywhere(self):
        P = CharPoly(3, [MPoly(1, {})] * 3, None, "resultant", ["y1"])
        for q in (F(1, 4), F(1), F(3)):
            res = growth_inclusion_check(P, q, samples=200, seed=0)
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
        at_delta = growth_inclusion_check(P, delta, samples=600, seed=0)
        assert at_delta.holds
        below = delta * (1 - F(1, 8))
        at_below = growth_inclusion_check(P, below, samples=600, seed=0)
        assert not at_below.holds

    def test_zero_coefficients_certify_C_zero(self):
        # P = s^2: every root is 0
        P = CharPoly(2, [MPoly(1, {})] * 2, None, "resultant", ["y1"])
        res = growth_inclusion_check(P, F(1), samples=200, seed=0)
        assert (res.holds, res.witness_C, res.violation) == (True, 0.0, None)

    def test_q_must_be_positive(self):
        with pytest.raises(InvalidInput):
            growth_inclusion_check(CUSP_P, F(0))

    def test_a_constant_beyond_the_doubles_is_refused(self):
        P = CharPoly(1, [MPoly.const(1, 10**400) * Y], None, "resultant", ["y1"])
        with pytest.raises(InvalidInput, match="outside the range of a double"):
            growth_inclusion_check(P, F(1))

    def test_the_witness_direction_avoids_the_zeros_of_the_top_form(self):
        # a_2 = y1 y2 + y1^2 - 5: its top form y1 (y1 + y2) vanishes at (0, 1), (0, 2) and (0, 3)
        y1, y2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
        P = CharPoly(2, [MPoly(2, {}), y1 * y2 + y1 * y1 - MPoly.const(2, 5)], None, "resultant", ["y1", "y2"])
        assert growth_inclusion_check(P, F(1, 2)).violation == ((1, 0), 2)


def _one_norm(a: MPoly) -> Fraction:
    return sum((abs(c) for c in a.terms.values()), F(0))


def _assert_least_certified_C(P: CharPoly, C: float) -> None:
    """C^j >= 2^j ||a_j||_1 for every j, in rationals, and the double below C fails one of them."""
    needs = [(j, 2**j * _one_norm(a)) for j, a in enumerate(P.coeffs, start=1)]
    assert all(F(C) ** j >= need for j, need in needs)
    if C > 0:
        below = F(math.nextafter(C, 0.0))
        assert any(below**j < need for j, need in needs)


# the certified C of the benchmark's curve and square inputs at q = delta, to two decimals
GROWTH_PROBES = {
    "curve(4,3)": (lambda: charpoly_resultant_oracle(
        polynomial_map([X**4 - X**2 + X.scale(3) - MPoly.const(1, 2)]), polynomial_map([X**3 + X])
    ), F(3, 4), 18.0),
    "curve(8,4)": (lambda: charpoly_resultant_oracle(
        polynomial_map([X**8 - X**2 + X.scale(3) - MPoly.const(1, 2)]), polynomial_map([X**4 + X])
    ), F(1, 2), 6.93),
    "square(2,2)": (lambda: build_charpoly(SQUARE22, G12, seed=0), F(1, 2), 8.0),
    "square(3,2)": (lambda: build_charpoly(SQUARE32, G12, seed=0), F(1, 2), 6.93),
}


def _mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


@st.composite
def monic_charpolys(draw):
    """A monic P of degree 1..4 in 1 or 2 variables, with small random coefficients a_j."""
    k = draw(st.integers(1, 2))
    d = draw(st.integers(1, 4))
    coeffs = draw(st.lists(mpolys(k, max_deg=3, max_terms=3), min_size=d, max_size=d))
    return CharPoly(d, coeffs, None, "resultant", [f"y{i + 1}" for i in range(k)])


class TestGrowthCertificate:
    @pytest.mark.parametrize("name", list(GROWTH_PROBES))
    def test_the_probe_table(self, name):
        build, delta, C = GROWTH_PROBES[name]
        P = build()
        assert ploski_delta(P) == delta
        res = growth_inclusion_check(P, delta)
        assert res.holds and res.violation is None
        assert round(res.witness_C, 2) == C
        _assert_least_certified_C(P, res.witness_C)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=F(1, 10**30), max_value=10**30), st.integers(1, 8))
    @example(F(4), 2)  # an exact square: C = 2.0, and the double below fails
    @example(F(48), 2)  # curve(8,4): C = 4 sqrt 3
    def test_the_least_double_root(self, bound, j):
        c = charpoly._least_double_root(bound, j)
        assert F(c) ** j >= bound > F(math.nextafter(c, 0.0)) ** j

    @settings(max_examples=60, deadline=None)
    @given(monic_charpolys(), st.data())
    def test_the_certified_C_bounds_every_root(self, P, data):
        delta = ploski_delta(P)
        res = growth_inclusion_check(P, delta if delta > 0 else F(1))
        assert res.holds
        _assert_least_certified_C(P, res.witness_C)
        # at rational points y with max |y_i| >= 1, every root of P(y, .) has |t| <= C |y|^delta
        rational = st.fractions(min_value=-20, max_value=20, max_denominator=5)
        for _ in range(3):
            y = data.draw(st.lists(rational, min_size=P.k, max_size=P.k).filter(lambda y: max(map(abs, y)) >= 1))
            fiber = univ_from_coeffs([evaluate(a, y) for a in reversed(P.coeffs)] + [F(1)])
            with mp.workdps(50):
                # each squarefree factor has simple roots, on which polyroots converges
                roots = [
                    t
                    for factor in squarefree_factors(fiber) if total_degree(factor) > 0
                    for t in mp.polyroots([_mpf(c) for c in reversed(univ_coeffs(factor))], maxsteps=200, extraprec=200)
                ]
                bound = mp.mpf(res.witness_C) * _mpf(max(map(abs, y))) ** _mpf(delta)
                assert all(abs(t) <= bound * (1 + mp.mpf(10) ** -20) for t in roots)

    @settings(max_examples=60, deadline=None)
    @given(monic_charpolys())
    def test_the_witness_grows_at_exactly_delta(self, P):
        delta = ploski_delta(P)
        if delta == 0:
            return
        res = growth_inclusion_check(P, delta / 2)
        assert not res.holds and res.witness_C is None
        v, j = res.violation
        assert j == min(j for j, a in enumerate(P.coeffs, start=1) if total_degree(a) == j * delta)
        line = [MPoly(1, {(1,): c}) for c in v]  # x = r v
        assert total_degree(compose(P.coeffs[j - 1], line)) == j * delta


class TestNoRootSolve:
    """The growth check reads P's coefficients only: no call reaches the root solver."""

    @pytest.fixture
    def no_roots(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("roots_from_coeffs was called")

        monkeypatch.setattr(numroots, "roots_from_coeffs", refuse)
        monkeypatch.setattr(charpoly, "roots_from_coeffs", refuse)

    def test_growth_inclusion_check(self, no_roots):
        # the probes' exact builds (the resultant oracle, residue-ring samples) solve no root either
        for build, delta, _ in GROWTH_PROBES.values():
            P = build()
            assert [growth_inclusion_check(P, q).holds for q in (delta, delta / 2)] == [True, False]

    def test_the_refusal_reaches_a_curve_build(self, no_roots, cusp_fx, cusp_gyx):
        # a curve's fiber samples are numeric: the patch is seen through every module
        with pytest.raises(AssertionError, match="roots_from_coeffs was called"):
            build_charpoly(cusp_fx, cusp_gyx, seed=0)

    @pytest.mark.parametrize("q", [[], ["--q", "1/10"]], ids=["delta", "1/10"])
    def test_cnull_ploski(self, no_roots, capsys, q):
        # a two-parameter build samples in the residue ring, so the whole command solves no root
        argv = ["ploski", "--variety", fx("plane2.json"), "--f", fx("f_square22.json"), "--g", fx("g_x1_2x2.json")]
        assert cli.main(argv + q) == 0
        assert "growth_check" in capsys.readouterr().out
