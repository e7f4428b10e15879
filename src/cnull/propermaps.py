"""Geometric invariants of proper c-algebraic maps along a parametrization.

Fibers are computed in parameter space.  One exact univariate fiber
polynomial (fiber_poly) owns every fiber count and local multiplicity
for k in {1, 2}: the gcd of the pulled-back components minus y for a
curve, and for a square map on two parameters the resultant
Res_t2(f - y) after a random shear that leaves it no roots at infinity.
A fiber count is its squarefree degree, and its squarefree factor S_i
holds the fiber points of multiplicity i, so its degree sum_i i * deg S_i
is the multiplicity sum over the fiber: d(f) over every y for a proper
square map.  On two parameters the fiber itself is exact too: ShapeLemma
eliminates with y kept symbolic, one subresultant sequence per shear,
and a node substitutes its y to get its fiber polynomial and the
coordinates of its points as residues mod it.  check_proper decides
properness from that same elimination, and profile_map keeps it, so the
characteristic polynomial samples its grid without eliminating again.
Two numeric solvers give complex coordinates: fiber_t_clusters clusters
the roots of the gcd on a curve, for the one-parameter grid, and
fiber_points_2 solves the system on two parameters, a numeric
cross-check of the exact fiber.  check_proper decides properness and
returns the geometric degree d(f), both exactly: from the resultant
with y symbolic on two parameters, from a certified fiber gcd on a curve.
The image degree of a curve is the top degree of its pullbacks over
d(f).  So is the degree of a graph on a curve; on two parameters it is
d(L o Gamma) for one random linear projection L of the graph that
check_proper certifies finite (exact for L off a proper algebraic set;
see graph_degree).  Only the two numeric solvers take a precision.

Generic sample points are always taken on the image, as f(phi(t0)) for
random rational t0, so maps with non-dominant image (more components
than parameters) get nonempty generic fibers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import rng as _rng
from .errors import (
    DegenerateSlice,
    InvalidInput,
    NonZeroDimensional,
    NotCAlgebraic,
    NotIsolated,
    NotProper,
    ParamRequired,
)
from .numroots import roots_univariate, solve_system_2
from .polycore import (
    MPoly,
    ResidueRing,
    _univ_rem,
    coeffs_in_var,
    compose,
    distinct_root_count,
    evaluate,
    exact_divide,
    squarefree_factors,
    subresultants,
    total_degree,
    univ_derivative,
    univ_from_coeffs,
    univ_gcd,
)
from .variety import CAMap, Param, curve_degree, curve_generic_degree, polynomial_map

_DRAW_BUDGET = 15


@dataclass(frozen=True)
class ProperMapProfile:
    """d(f), the graph degree and, on two parameters, the properness elimination as a ShapeLemma."""
    d_f: int
    graph_degree: int
    shape: ShapeLemma | None = field(default=None, compare=False)  # None on curves


def check_proper(f: CAMap, seed: int = 0) -> int:
    """Exact properness along phi, and the geometric degree d(f); raises NotProper on failure.

    A square map f on two parameters is proper exactly when it is finite,
    and after a shear t1 = x - lam*t2 that gives f1 a constant leading
    t2-coefficient it is finite exactly when R = Res_t2(f1 - y1, f2 - y2)
    in Q[y1, y2][x], one elimination with y symbolic under a shear from
    the salt proper-shear (a ShapeLemma: profile_map keeps its lam, R and
    S1 for the sample grid), has a nonzero constant leading coefficient
    in x (the criterion behind Jelonek's non-properness set).  Proof: if
    it has, then x, then t2, then t1 are integral over Q[f1, f2]; if f is finite, R is
    a constant times a power of the equation of the surface {(x(t), f(t))},
    which is monic in x.  The verdict does not depend on the shear drawn.
    Up to a constant, R is then the characteristic polynomial of x over
    Q(y1, y2), and with no roots at infinity it counts the generic fiber
    with multiplicity, so d(f) = deg_x R.  A constant component is
    NotProper before any shear is drawn.

    For curves some pullback must be nonconstant, and d(f) is
    variety.curve_generic_degree of the pullbacks at t0 in
    rng.FIXED_NODES, with no draw: deg h for the fiber gcd h over F(t0)
    once every pullback F_j is in Q[h].
    """
    return _properness(f, seed)[0]


def _properness(f: CAMap, seed: int) -> tuple[int, ShapeLemma | None]:
    """check_proper's d(f), and on two parameters the ShapeLemma of its elimination (None on curves)."""
    k = f.domain.param.k
    if k == 1:
        if all(p.is_constant() for p in f.pullbacks):
            raise NotProper("all pullbacks are constant")
        return curve_generic_degree(f.pullbacks, _rng.FIXED_NODES), None
    if any(p.is_constant() for p in _system(f, [0] * f.n)):  # ParamRequired unless square, k = 2
        raise NotProper("a component is constant")
    shape = ShapeLemma(f, _rng.child_rng(seed, "proper-shear"))
    if shape.R.degree_in(0) < 1:
        raise NotProper("fibers are not finite")
    if not coeffs_in_var(shape.R, 0)[-1].is_constant():
        raise NotProper("a fiber point escapes to infinity over a zero of the leading coefficient")
    return shape.R.degree_in(0), shape


# ---------------------------------------------------------------------------
# fibers


def _system(f: CAMap, y) -> list[MPoly]:
    """The pulled-back components minus the rational point y (k = 1, or a square map on k = 2)."""
    k = f.domain.param.k
    if k > 2:
        raise ParamRequired("fibers implemented for 1 or 2 parameters")
    if k == 2 and f.n != 2:
        raise ParamRequired("two-parameter fibers implemented for 2 components")
    if len(y) != f.n:
        raise ValueError("fiber point length does not match component count")
    return [p - MPoly.const(k, Fraction(v)) for p, v in zip(f.pullbacks, y)]


def _shear(p: MPoly, gen=None) -> int | None:
    """lam with the top form of p nonzero at (-lam, 1); None for one parameter.

    After t1 = x - lam*t2 the leading t2-coefficient of p is then a
    nonzero constant.  lam is a small integer drawn from gen, or from a
    fixed stream when None.
    """
    if p.var_count == 1:
        return None
    if p.is_zero():  # checked first: a zero p never passes the test below
        raise NonZeroDimensional("a zero polynomial has a positive-dimensional zero set")
    gen = gen or _rng.child_rng(0, "shear")
    height = 10 + int(total_degree(p))  # more integers than roots of the top form of p
    while True:
        lam = gen.randint(-height, height)
        if _top_form_at(p, lam):
            return lam


def _top_form_at(p: MPoly, lam) -> Fraction:
    """The top form of p at (-lam, 1)."""
    d = total_degree(p)
    return sum(c * (-lam) ** e[0] for e, c in p.terms.items() if sum(e) == d)


def _sheared(polys: list[MPoly], lam, var_count: int = 2) -> list[MPoly]:
    """The polys in (x, t2) under t1 = x - lam*t2, as polynomials in var_count variables."""
    x, t2 = MPoly.variable(var_count, 0), MPoly.variable(var_count, 1)
    return [compose(h, [x - t2.scale(lam), t2]) for h in polys]


def _fiber_poly(polys: list[MPoly], lam: int | None) -> MPoly:
    """Univariate polynomial whose roots are the common zeros of polys.

    For one parameter their gcd, in t.  For two, Res_t2(p, q) under the
    shear t1 = x - lam*t2 from _shear, in x: it has no roots at infinity,
    as p has a constant t2-lead, and it is zero exactly when p and q share
    a curve.
    """
    if lam is None:
        g = polys[0]
        for p in polys[1:]:
            g = univ_gcd(g, p)  # gcd with 0 passes the other argument through
        if g.is_zero():
            raise NotIsolated("fiber is the whole curve")
        return g
    p, q = _sheared(polys, lam)
    if q.is_zero():
        raise NonZeroDimensional("a zero polynomial has a positive-dimensional zero set")
    res = subresultants(p, q, 1)[0]
    if res.is_zero():
        raise NonZeroDimensional("the fiber contains a curve")
    return res


def fiber_poly(f: CAMap, y, gen=None) -> MPoly:
    """Exact univariate polynomial whose roots are the fiber over the rational point y.

    For k = 2 the roots are the x = t1 + lam*t2 of the fiber points, under
    a shear drawn from gen (see _shear).  When the shear separates the
    fiber, a root's multiplicity is its point's intersection multiplicity
    (Fulton, Algebraic Curves, ch. 3), the local multiplicity.
    """
    polys = _system(f, y)
    return _fiber_poly(polys, _shear(polys[0], gen))


class ShapeLemma:
    """Exact fibers of a square map on two parameters, by the shape lemma.

    Under one shear t1 = x - lam*t2 the fiber over a rational point y is
    the zero set of R = Res_t2(f1 - y1, f2 - y2) (as in fiber_poly) and of
    t2 - theta(x), with theta a residue mod R (Gianni and Mora 1989;
    Rouillier 1999).  One subresultant sequence gives both: R is its
    last member, and theta = -s0/s1 mod R comes from its member
    S1 = s0 + s1*t2 of degree 1; no root is computed.  The sequence is
    taken once per shear, with y symbolic, and a node substitutes its y
    into R and S1.  That is exact: resultants and subresultants are
    determinants of the Sylvester matrix of the t2-coefficients (Collins
    1967), and its shape is the same at every node, as under the shear
    f1 - y1 has a nonzero constant t2-lead and y2 moves no t2-degree of
    f2 - y2 for a nonconstant f2.  So R(x; y) is the node's resultant and
    S1(x; y) its subresultant of degree 1, proportional to the member of
    degree 1 of the node's own sequence, with the same theta.  lam is
    drawn from gen by _shear.  The first node that asks writes R, s0 and
    s1 as integer tables in y (_y_table), and a node evaluates them in
    integers (_at_y); a shape that only decides properness builds none.
    A polynomial in t reaches a node through t2_table: its t2-coefficients
    under the shear are polynomials in x, so no node needs t1.
    """

    def __init__(self, f: CAMap, gen):
        self.lam = _shear(f.pullbacks[0], gen)
        ys = (MPoly.variable(4, i) for i in (2, 3))  # f - y in (x, t2, y1, y2), y symbolic
        system = [h - y for h, y in zip(_sheared(f.pullbacks, self.lam, 4), ys)]
        self.R, self.S1 = subresultants(*system, 1)  # in (x, y1, y2)

    @cached_property
    def _tables(self) -> list[tuple]:
        return [_y_table(h) for h in (self.R, *(self.S1 or ()))]  # R, s0, s1

    def t2_table(self, p: MPoly) -> tuple[list[list[int]], int]:
        """p(x - lam*t2, t2) by its t2-coefficients G_0(x) .. G_m(x), integer x-coefficients over one den."""
        (sheared,) = _sheared([p], self.lam)
        den = math.lcm(1, *(c.denominator for c in sheared.terms.values()))
        rows: list[list[int]] = [[] for _ in range(1 + max((e[1] for e in sheared.terms), default=0))]
        for (i, j), c in sheared.terms.items():
            rows[j] += [0] * (i + 1 - len(rows[j]))
            rows[j][i] = c.numerator * (den // c.denominator)
        return rows, den

    def coordinates(self, y) -> tuple[ResidueRing, tuple[list[int], int]] | None:
        """Q[x]/R and the residue theta of t2 on the fiber over the point y of ints or Fractions.

        None unless s1 is a unit mod R; then Q[x]/R is the fiber algebra
        Q[t]/I, I = (f1 - y1, f2 - y2), multiplicities included.  Under
        the shear f1 - y1 has a constant t2-lead, so deg R = dim Q[t]/I.
        R and S1 = s0 + s1*t2 lie in I, so t2 = -s0/s1 in Q[t]/I when s1
        is a unit mod R: Q[x]/R maps onto Q[t]/I, and the two have the
        same dimension, so the map is an isomorphism.  The characteristic
        polynomial of g on this ring is therefore P(y, .) at a critical
        node too.  s1 fails to be a unit only where a root of R lies
        under two fiber points, or under one point that is not
        curvilinear (Basu, Pollack and Roy, ch. 8: subresultants
        specialize).  NonZeroDimensional when R is zero at y: the fiber
        contains a curve.
        """
        r = _at_y(self._tables[0], y)[0]  # den * R at y
        while r and not r[-1]:
            r.pop()
        if not r:
            raise NonZeroDimensional("the fiber contains a curve")
        if len(r) == 1:
            return None
        ring = ResidueRing.from_integers(r)
        if self.S1 is None or (inv := ring.inverse(ring.reduce(*_at_y(self._tables[2], y)))) is None:
            return None
        s0, den = _at_y(self._tables[1], y)
        return ring, ring.mul(ring.reduce([-v for v in s0], den), inv)


def _y_table(p: MPoly) -> tuple:
    """p in (x, y1, y2) as integer terms (c, a, b) of c*y1^a*y2^b per x-degree, their denominator and top y-degrees."""
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(1 + max((e[0] for e in p.terms), default=-1))]
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    for (j, a, b), c in p.terms.items():
        rows[j].append((c.numerator * (den // c.denominator), a, b))
    return rows, den, [max((e[i] for e in p.terms), default=0) for i in (1, 2)]


def _at_y(table, y) -> tuple[list[int], int]:
    """A _y_table's x-coefficients at y, of ints or Fractions, as integers over one den > 0.

    With y_i = n_i/d_i and top degrees A, B, the term c*y1^a*y2^b adds
    c*n1^a*d1^(A-a)*n2^b*d2^(B-b) over den*d1^A*d2^B.
    """
    rows, den, tops = table
    p1, p2 = ([v.numerator**a * v.denominator ** (top - a) for a in range(top + 1)] for v, top in zip(y, tops))
    den *= math.prod(v.denominator**top for v, top in zip(y, tops))
    return [sum(c * p1[a] * p2[b] for c, a, b in row) for row in rows], den


def fiber_t_clusters(f: CAMap, y, prec: int = 256, start=None):
    """Distinct parameter-space fiber clusters over exact rational y (curves).

    Clusters the roots of the exact fiber gcd; returns a list of
    (representative, count).  start, approximate roots, starts the solve
    (see numroots.roots_from_coeffs).
    """
    g = fiber_poly(f, y)
    if g.is_constant():
        return []
    return roots_univariate(g, prec, start).roots


def fiber_points_2(f: CAMap, y, prec: int = 256):
    """Isolated fiber points in a 2-parameter square case over rational y."""
    p, q = _system(f, y)
    return solve_system_2(p, q, prec)


def geometric_degree(f: CAMap, seed: int = 0) -> int:
    """Cardinality of the generic fiber (sheet number over the image), exactly: see check_proper."""
    return check_proper(f, seed)


def growth_exponent(g: CAMap) -> Fraction:
    """Growth exponent at infinity as the exact pullback degree ratio.

    deg of the pulled-back component over the top degree e of phi; 0 for a
    constant map.  The ratio is exact when |phi(t)| is of the order of
    |t|^e, that is when the degree-e forms of phi's components have no
    common zero but 0.  That always holds on a curve and under the
    identity parametrization, and it is checked on two parameters: where
    the forms share a zero, the ratio can under- or overestimate (the
    surface y = x + z^2 through (t, t + s^2, s) with g = x gives 1/2, not
    1), and ParamRequired is raised.  On three or more parameters it is
    not checked, so any parametrization but the identity raises
    ParamRequired.
    """
    if g.n != 1:
        raise InvalidInput("growth exponent takes a single-component map")
    param = g.domain.param
    num = total_degree(g.pullbacks[0])
    if num == float("-inf") or num == 0:
        return Fraction(0)
    den = max(
        d for d in (total_degree(c) for c in param.components) if d != float("-inf")
    )
    if param.k == 2 and _top_forms_share_a_zero(param.components, den):
        raise ParamRequired(
            "the top-degree forms of the parametrization share a zero at infinity, "
            "so its degree does not give the growth exponent"
        )
    if param.k > 2 and not param.is_identity:
        raise ParamRequired("growth exponent on three or more parameters needs the identity parametrization")
    return Fraction(int(num), int(den))


def _top_forms_share_a_zero(components: list[MPoly], e: int) -> bool:
    """Whether the degree-e forms of components in (t1, t2) have a common zero in P^1.

    They share [1:0] when none has a t1^e term, and any other zero [a:1]
    when their values at t2 = 1 have a nonconstant gcd.
    """
    forms = [{(a,): c for (a, b), c in p.terms.items() if a + b == e} for p in components]
    forms = [MPoly._raw(1, f) for f in forms if f]
    if all((e,) not in f.terms for f in forms):
        return True
    common = forms[0]
    for f in forms[1:]:
        common = univ_gcd(common, f)
    return not common.is_constant()


# ---------------------------------------------------------------------------
# local multiplicities and the degree formula over a fiber


def local_multiplicity(f: CAMap, a) -> int:
    """Local geometric multiplicity of the square map f at the point a of the set, exactly and with no draw.

    It is sum_i i * deg gcd(S_i, H), for S_i the squarefree factors of a
    fiber polynomial R over f(a) and H squarefree with the preimages of a
    as its roots among R's: from _curve_fiber on a curve, from
    _isolating_line on two parameters.
    """
    param = f.domain.param
    if f.n != param.k:
        raise InvalidInput("local multiplicity needs a square (k-component) map")
    a = [Fraction(v) for v in a]
    if not f.domain.contains(a):
        raise InvalidInput("point does not satisfy the variety's generators")
    R, H = (_curve_fiber if param.k == 1 else _isolating_line)(f, a)
    return sum(i * univ_gcd(s, H).degree_in(0) for i, s in enumerate(squarefree_factors(R), 1))


def _curve_fiber(f: CAMap, a) -> tuple[MPoly, MPoly]:
    """The fiber gcd over f(a) on a curve, and H, the squarefree part of gcd_i(phi_i - a_i).

    The roots of H are the parameter preimages of a, so f(a) is read from
    the pullbacks even where a denominator vanishes (y/x at the cusp):
    F_j mod H is the constant f_j(a), and NotCAlgebraic when it is not
    constant, as the components then take two values at a.
    """
    h = _fiber_poly([c - MPoly.const(1, v) for c, v in zip(f.domain.param.components, a)], None)
    if h.is_constant():
        raise NotIsolated("the point has no parameter preimage")
    h = exact_divide(h, univ_gcd(h, univ_derivative(h)))
    values = [_univ_rem(p, h) for p in f.pullbacks]
    if not all(v.is_constant() for v in values):
        raise NotCAlgebraic("the map takes two values at the point")
    return _fiber_poly(_system(f, [v.constant_term() for v in values]), None), h


def _isolating_line(f: CAMap, a) -> tuple[MPoly, MPoly]:
    """R = Res_t2(f - f(a)) under a shear x = t1 + lam*t2, and H = x - x0 for the preimage t of a.

    t is _preimage_2's and f(a) = F(t).  lam walks 0, 1, -1, 2, ... past
    each zero of the top form of F_1 at (-lam, 1), to the first whose line
    x = x0 = t1 + lam*t2 meets the fiber only at t: the two sheared
    equations at x0 have a gcd in Q[t2] with one distinct root.  F_1 -
    f_1(a) then has a constant t2-lead, so the order of x0 as a root of
    R is the sum of the intersection multiplicities on the line (Fulton,
    Algebraic Curves, ch. 3): the local multiplicity at t.  Over a
    finite fiber each other point rules out at most one lam, so the walk
    ends; R is built first at each lam, so a curve in the fiber, which
    would meet every line again, raises NonZeroDimensional at the first.
    """
    t = _preimage_2(f.domain.param, a)
    polys = _system(f, [evaluate(p, t) for p in f.pullbacks])
    if polys[0].is_zero():
        raise NonZeroDimensional("a zero polynomial has a positive-dimensional zero set")
    walk = ((n + 1) // 2 * (-1) ** (n + 1) for n in itertools.count())  # 0, 1, -1, 2, -2, ...
    t2 = MPoly.variable(1, 0)
    for lam in (lam for lam in walk if _top_form_at(polys[0], lam)):
        R = _fiber_poly(polys, lam)
        x0 = t[0] + lam * t[1]
        on_line = [compose(h, [MPoly.const(1, x0) - t2.scale(lam), t2]) for h in polys]
        if distinct_root_count(univ_gcd(*on_line)) == 1:
            return R, univ_from_coeffs([-x0, 1])


def _preimage_2(param: Param, a) -> list[Fraction]:
    """The one parameter preimage of a, read off two affine components of phi with independent linear parts.

    The identity, every polynomial_map, plane2 and surface_xz2 have two.
    ParamRequired without them, NotIsolated when phi(t) is not a.
    """
    affine = [(i, c) for i, c in enumerate(param.components) if param.k == 2 and total_degree(c) <= 1]
    for (i, p), (j, q) in itertools.combinations(affine, 2):
        (p1, p2), (q1, q2) = ([c.terms.get(e, Fraction(0)) for e in ((1, 0), (0, 1))] for c in (p, q))
        if det := p1 * q2 - p2 * q1:
            u, v = a[i] - p.terms.get((0, 0), 0), a[j] - q.terms.get((0, 0), 0)
            t = [(u * q2 - p2 * v) / det, (p1 * v - q1 * u) / det]
            if [evaluate(c, t) for c in param.components] != a:
                raise NotIsolated("the point has no parameter preimage")
            return t
    raise ParamRequired("local multiplicities need a curve, or two parameters and two affine components of phi")


# ---------------------------------------------------------------------------
# image and graph degrees, read exactly


def image_slice_points(f: CAMap) -> int:
    """d(f) * deg f(A) for a curve: the parameter points on a generic hyperplane slice of f(A)."""
    if f.domain.param.k != 1:
        raise ParamRequired("image degree implemented for curves")
    return curve_degree(f.pullbacks)


def image_degree(f: CAMap, seed: int = 0) -> int:
    """Degree of the image curve f(A), exactly: image_slice_points over d(f), which divides it (check_proper)."""
    d_f = geometric_degree(f, seed)
    return image_slice_points(f) // d_f


def graph_degree(f: CAMap, seed: int = 0) -> int:
    """Degree of the graph X of f in ambient x target space.

    X is parametrized by Gamma = (phi, f o phi), generically one-to-one
    as phi is.  On a curve deg X is curve_degree of Gamma, with no draw.
    On k parameters take a random linear map L to C^k and the square map
    L o Gamma.  If check_proper passes it, L is finite on X: a point of X
    escaping with bounded L-image would pull back to an escaping t.  Its
    generic fiber is X cut by a linear space of complementary dimension,
    so d(L o Gamma) <= deg X, with equality when the centre of L (at
    infinity) misses the closure of X.  That holds for every L off a
    proper algebraic set, and is not checked: the projection of the graph
    of (x1, x2) on x3 = x1^2 x2 onto the target is finite of degree 1,
    and the graph has degree 3.  So the entries of L are integers drawn
    from [-10^6, 10^6] (salt graphproj:{attempt}), where a small range
    hits that set often: rationals of height 10 gave 3 for 6 on
    square(3,2) at 4 of 200 seeds.  A generic L is finite on X (Noether
    normalization), and L o Gamma is then proper whenever phi is: in
    charpoly f o phi is proper, so phi is, and in gradexp phi is the
    identity.  NotProper (dependent rows included) draws L again;
    DegenerateSlice after _DRAW_BUDGET draws.  ParamRequired from
    check_proper for k >= 3.
    """
    param = f.domain.param
    coords = list(param.components) + list(f.pullbacks)
    if param.k == 1:
        return curve_degree(coords)
    for attempt in range(_DRAW_BUDGET):
        gen = _rng.child_rng(seed, f"graphproj:{attempt}")
        rows = [[gen.randint(-10**6, 10**6) for _ in coords] for _ in range(param.k)]
        projection = [sum((c.scale(w) for c, w in zip(coords, row)), MPoly.zero(param.k)) for row in rows]
        try:
            return check_proper(polynomial_map(projection), seed)
        except NotProper:
            continue
    raise DegenerateSlice(f"no linear projection within {_DRAW_BUDGET} draws is finite on the graph")


def profile_map(f: CAMap, seed: int = 0) -> ProperMapProfile:
    """Assemble the degree profile used by the characteristic polynomial.

    Properness of f is checked once, as in check_proper, and on two
    parameters its elimination is kept as the profile's ShapeLemma, from
    which the sample grid takes its fibers.  graph_degree checks its
    projections the same way.  Nothing else is drawn: only check_proper's
    shear on two parameters and the projections.
    """
    d_f, shape = _properness(f, seed)
    return ProperMapProfile(d_f=d_f, graph_degree=graph_degree(f, seed), shape=shape)
