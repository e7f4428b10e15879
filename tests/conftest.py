"""Shared fixtures: the varieties and maps used across the suite."""

from fractions import Fraction

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from cnull import polycore
from cnull.polycore import MPoly
from cnull.variety import load_map, load_variety

# Property tests draw the same examples on every run, and keep no example
# database, so that the suite is reproducible.  A failing example is
# reported as drawn: shrinking would replay the numeric solves for minutes.
settings.register_profile(
    "cnull", derandomize=True, database=None, deadline=None, phases=(Phase.explicit, Phase.generate)
)
settings.load_profile("cnull")


def univariate_coeffs(max_degree):
    """Hypothesis strategy: ascending integer coefficients of degree 1..max_degree."""
    return st.integers(1, max_degree).flatmap(
        lambda deg: st.tuples(
            st.lists(st.integers(-4, 4), min_size=deg, max_size=deg),
            st.integers(-3, 3).filter(bool),
        )
    ).map(lambda t: t[0] + [t[1]])


def mpolys(var_count, max_deg=2, max_terms=4):
    """Hypothesis strategy: sparse MPolys with small rational coefficients (zero ones dropped)."""
    expo = st.tuples(*[st.integers(0, max_deg)] * var_count)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    return st.dictionaries(expo, coeff, max_size=max_terms).map(lambda terms: MPoly(var_count, terms))


def plane_polys(max_degree):
    """Hypothesis strategy: polynomials in 2 variables of total degree <= max_degree."""
    expo = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(
        lambda e: sum(e) <= max_degree
    )
    coeff = st.integers(-4, 4).filter(bool)
    return st.dictionaries(expo, coeff, min_size=2, max_size=4).map(lambda terms: MPoly(2, terms))


def residue_evaluate(ring, p, point):
    """p at a point of residues of ring: each term is its coefficient times a product of powers.

    The reference for a node's sample: g at the residues of (t1, t2),
    term by term, against the sample grid's Horner form in theta.
    """
    one = ring.element([1])
    powers = [[one, v] for v in point]

    def power(i, e):
        while len(powers[i]) <= e:
            powers[i].append(ring.mul(powers[i][-1], point[i]))
        return powers[i][e]

    total = ring.element([])
    for expo, coeff in p.terms.items():
        term = one
        for i, e in enumerate(expo):
            if e:
                term = power(i, e) if term is one else ring.mul(term, power(i, e))
        total = ring.add(total, ring.scale(term, coeff))
    return total


def counted_evaluator(built, points):
    """polycore.evaluator that appends each list of polynomials it is made for to built, and each point to points."""
    real_evaluator = polycore.evaluator

    def make(polys, use_mp=False):
        built.append(list(polys))
        at = real_evaluator(polys, use_mp)

        def counted_at(x):
            points.append(x)
            return at(x)
        return counted_at
    return make


def fiber_coordinates(shape, y):
    """ShapeLemma.coordinates with t1 = x - lam*theta put in: (ring, [t1, theta]), or None."""
    fiber = shape.coordinates(y)
    if fiber is None:
        return None
    ring, theta = fiber
    return ring, [ring.add(ring.element([0, 1]), ring.scale(theta, -shape.lam)), theta]


def line_poly(coeffs):
    """Polynomial JSON in x from ascending coefficients."""
    return pj(["x"], {(i,): c for i, c in enumerate(coeffs)})


def pj(var_names, terms):
    """Polynomial JSON from {exponent tuple: coefficient}."""
    return {
        "vars": list(var_names),
        "terms": [
            {"c": str(Fraction(c)), "e": list(e)} for e, c in terms.items() if Fraction(c) != 0
        ],
    }


def cusp_spec():
    return {
        "ambient_vars": ["x", "y"],
        "dim": 1,
        "generators": [pj(["x", "y"], {(3, 0): -1, (0, 2): 1})],
        "param": {
            "vars": ["t"],
            "components": [pj(["t"], {(2,): 1}), pj(["t"], {(3,): 1})],
        },
    }


def parabola_spec():
    return {
        "ambient_vars": ["x", "y"],
        "dim": 1,
        "generators": [pj(["x", "y"], {(0, 1): 1, (2, 0): -1})],
        "param": {
            "vars": ["t"],
            "components": [pj(["t"], {(1,): 1}), pj(["t"], {(2,): 1})],
        },
    }


def diag_line_spec():
    return {
        "ambient_vars": ["x", "y"],
        "dim": 1,
        "generators": [pj(["x", "y"], {(1, 0): 1, (0, 1): -1})],
        "param": {
            "vars": ["t"],
            "components": [pj(["t"], {(1,): 1}), pj(["t"], {(1,): 1})],
        },
    }


def cline_spec():
    # the affine line C itself, parametrized by t
    return {
        "ambient_vars": ["x"],
        "dim": 1,
        "generators": [],
        "param": {"vars": ["t"], "components": [pj(["t"], {(1,): 1})]},
    }


def ex_graph_cubic_spec():
    # graph of t -> (t^2 - 1, t(t^2 - 1)) inside C^3
    v = ["x1", "x2", "x3"]
    return {
        "ambient_vars": v,
        "dim": 1,
        "generators": [
            pj(v, {(0, 1, 0): 1, (2, 0, 0): -1, (0, 0, 0): 1}),
            pj(v, {(0, 0, 1): 1, (3, 0, 0): -1, (1, 0, 0): 1}),
        ],
        "param": {
            "vars": ["t"],
            "components": [
                pj(["t"], {(1,): 1}),
                pj(["t"], {(2,): 1, (0,): -1}),
                pj(["t"], {(3,): 1, (1,): -1}),
            ],
        },
    }


def plane2_spec():
    # C^2 with the identity parametrization
    return {
        "ambient_vars": ["x1", "x2"],
        "dim": 2,
        "generators": [],
        "param": {
            "vars": ["t1", "t2"],
            "components": [
                pj(["t1", "t2"], {(1, 0): 1}),
                pj(["t1", "t2"], {(0, 1): 1}),
            ],
        },
    }


def axis_x2_spec():
    # the line {x1 = 0} in C^2, parametrized by (0, s)
    return {
        "ambient_vars": ["x1", "x2"],
        "dim": 1,
        "generators": [pj(["x1", "x2"], {(1, 0): 1})],
        "param": {
            "vars": ["s"],
            "components": [pj(["s"], {}), pj(["s"], {(1,): 1})],
        },
    }


def axis_x1_spec():
    # the line {x2 = 0} in C^2, parametrized by (s, 0)
    return {
        "ambient_vars": ["x1", "x2"],
        "dim": 1,
        "generators": [pj(["x1", "x2"], {(0, 1): 1})],
        "param": {
            "vars": ["s"],
            "components": [pj(["s"], {(1,): 1}), pj(["s"], {})],
        },
    }


def map_spec(*numden):
    comps = []
    for item in numden:
        if isinstance(item, tuple):
            comps.append({"num": item[0], "den": item[1]})
        else:
            comps.append({"num": item})
    return {"components": comps}


XY = ["x", "y"]
V3 = ["x1", "x2", "x3"]
V2 = ["x1", "x2"]


@pytest.fixture(scope="session")
def cusp():
    return load_variety(cusp_spec())


@pytest.fixture(scope="session")
def parabola():
    return load_variety(parabola_spec())


@pytest.fixture(scope="session")
def diag_line():
    return load_variety(diag_line_spec())


@pytest.fixture(scope="session")
def cline():
    return load_variety(cline_spec())


@pytest.fixture(scope="session")
def graph_cubic():
    return load_variety(ex_graph_cubic_spec())


@pytest.fixture(scope="session")
def plane2():
    return load_variety(plane2_spec())


@pytest.fixture(scope="session")
def cusp_fx(cusp):
    return load_map(cusp, map_spec(pj(XY, {(1, 0): 1})))


@pytest.fixture(scope="session")
def cusp_gyx(cusp):
    return load_map(cusp, map_spec((pj(XY, {(0, 1): 1}), pj(XY, {(1, 0): 1}))))


@pytest.fixture(scope="session")
def cusp_gy(cusp):
    return load_map(cusp, map_spec(pj(XY, {(0, 1): 1})))


@pytest.fixture(scope="session")
def cusp_identity(cusp):
    return load_map(cusp, map_spec(pj(XY, {(1, 0): 1}), pj(XY, {(0, 1): 1})))


@pytest.fixture(scope="session")
def parabola_fx(parabola):
    return load_map(parabola, map_spec(pj(XY, {(1, 0): 1})))


@pytest.fixture(scope="session")
def parabola_gy(parabola):
    return load_map(parabola, map_spec(pj(XY, {(0, 1): 1})))


@pytest.fixture(scope="session")
def cubic_proj23(graph_cubic):
    return load_map(
        graph_cubic, map_spec(pj(V3, {(0, 1, 0): 1}), pj(V3, {(0, 0, 1): 1}))
    )


@pytest.fixture(scope="session")
def cubic_g(graph_cubic):
    return load_map(graph_cubic, map_spec(pj(V3, {(2, 0, 0): 1, (0, 0, 0): -1})))
