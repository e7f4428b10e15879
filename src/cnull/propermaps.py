"""Geometric invariants of proper c-algebraic maps along a parametrization.

Fibers are computed in parameter space.  One exact univariate fiber
polynomial (fiber_poly) owns every fiber count and local multiplicity
for k in {1, 2}: the gcd of the pulled-back components minus y for a
curve, and for a square map on two parameters the resultant
Res_t2(f - y) after a random shear that leaves it no roots at infinity.
A fiber count is its squarefree degree, and its squarefree factor S_i
holds the fiber points of multiplicity i.  fiber_points is the one place
that picks a numeric solver by k, for callers that need coordinates:
clustered roots of the gcd for a curve (fiber_t_clusters), the bivariate
resultant solver for k = 2 (fiber_points_2).  Every fiber point is a
k-tuple.  The image degree of a curve is exact as well: the squarefree
degree of a random hyperplane slice over d(f), and so is the properness
growth gate, at rational points.  Only the fiber_points family takes a
precision.

Generic sample points are always taken on the image, as f(phi(t0)) for
random rational t0, so maps with non-dominant image (more components
than parameters) get nonempty generic fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import rng as _rng
from .errors import (
    InconsistentFiberCounts,
    InvalidInput,
    NonZeroDimensional,
    NotIsolated,
    NotProper,
    ParamRequired,
)
from .numroots import roots_univariate, solve_system_2
from .polycore import (
    MPoly,
    compose,
    distinct_root_count,
    evaluate,
    squarefree_factors,
    sylvester_resultant,
    total_degree,
    univ_gcd,
)
from .variety import CAMap, curve_slice_count, polynomial_map, random_slice, slice_count

_FIBER_DRAWS = 5
_DRAW_BUDGET = 15


@dataclass(frozen=True)
class ProperMapProfile:
    d_f: int
    graph_degree: int


def check_proper(f: CAMap, seed: int = 0) -> None:
    """Growth-criterion properness along phi; raises NotProper on failure.

    For curves the criterion is exact: some pullback must be nonconstant.
    For surfaces it is the exact finite-fiber test (fiber_poly) plus the
    norm-growth gate check_growth, computed exactly at sampled rational
    points; a validation, not a proof.
    """
    k = f.domain.require_param().k
    degs = [d for d in (total_degree(p) for p in f.pullbacks) if d != float("-inf")]
    if not degs or max(degs) < 1:
        raise NotProper("all pullbacks are constant")
    if k == 1:
        return
    gen = _rng.child_rng(seed, "proper")
    y = [_rng.rand_rational(gen) for _ in range(2)]
    try:
        fiber_poly(f, y, _rng.child_rng(seed, "proper-shear"))  # ParamRequired unless square, k = 2
    except NonZeroDimensional as exc:
        raise NotProper("fibers are not finite") from exc
    check_growth(f, gen)


def check_growth(f: CAMap, gen) -> None:
    """Norm-growth sampling along two parameters; raises NotProper on failure.

    The least image norm over 4 axis and 8 random directions (drawn from
    gen for each sphere) must grow 4-fold from the parameter sphere of
    radius 10 to that of radius 1000.  The spheres are in the max norm,
    so the point on a direction d is the rational point
    radius * d / max(|d1|, |d2|), and the squared image norms are
    compared exactly.  A validation, not a proof.
    """
    lo = _min_norm_on_sphere(f, 10, gen)
    hi = _min_norm_on_sphere(f, 1000, gen)
    if hi < max(16 * lo, Fraction(1, 10**12)):
        raise NotProper("image norm does not grow along the parameter sphere")


def _min_norm_on_sphere(f: CAMap, radius: int, gen) -> Fraction:
    """Least squared image norm at the rational points radius * d / max(|d1|, |d2|)."""
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1)]
    dirs += [(gen.uniform(-1, 1), gen.uniform(-1, 1)) for _ in range(8)]
    sizes = []
    for d in dirs:
        d = [Fraction(c) for c in d]
        top = max(abs(c) for c in d)
        if top:
            t = [radius * c / top for c in d]
            sizes.append(sum(evaluate(p, t) ** 2 for p in f.pullbacks))
    return min(sizes)


# ---------------------------------------------------------------------------
# fibers


def _system(f: CAMap, y) -> list[MPoly]:
    """The pulled-back components minus the rational point y (k = 1, or a square map on k = 2)."""
    k = f.domain.require_param().k
    if k > 2:
        raise ParamRequired("fibers implemented for 1 or 2 parameters")
    if k == 2 and f.n != 2:
        raise ParamRequired("two-parameter fibers implemented for 2 components")
    if len(y) != f.n:
        raise ValueError("fiber point length does not match component count")
    return [p - MPoly.const(k, Fraction(v)) for p, v in zip(f.pullbacks, y)]


def _shear(p: MPoly, gen=None) -> Fraction | None:
    """lam with the top form of p nonzero at (-lam, 1); None for one parameter.

    After t1 = x - lam*t2 the leading t2-coefficient of p is then a
    nonzero constant.  lam is drawn from gen, or a fixed stream when None.
    """
    if p.var_count == 1:
        return None
    if p.is_zero():  # checked first: a zero p never passes the test below
        raise NonZeroDimensional("a zero polynomial has a positive-dimensional zero set")
    d = total_degree(p)
    gen = gen or _rng.child_rng(0, "shear")
    while True:
        lam = _rng.rand_rational(gen)
        if sum(c * (-lam) ** e[0] for e, c in p.terms.items() if sum(e) == d):
            return lam


def _fiber_poly(polys: list[MPoly], lam: Fraction | None) -> MPoly:
    """Univariate polynomial whose roots are the common zeros of polys.

    For one parameter their gcd, in t.  For two, Res_t2(p, q) under the
    shear t1 = x - lam*t2 from _shear, in x: p's leading t2-coefficient is
    constant, so it has no roots at infinity, and it is zero exactly when
    p and q share a curve.
    """
    if lam is None:
        g = polys[0]
        for p in polys[1:]:
            g = univ_gcd(g, p)  # gcd with 0 passes the other argument through
        if g.is_zero():
            raise NotIsolated("fiber is the whole curve")
        return g
    x, t2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    p, q = (compose(h, [x - t2.scale(lam), t2]) for h in polys)
    if q.is_zero():
        raise NonZeroDimensional("a zero polynomial has a positive-dimensional zero set")
    res = sylvester_resultant(p, q, 1)
    if res.is_zero():
        raise NonZeroDimensional("the fiber contains a curve")
    return MPoly(1, {(e[0],): c for e, c in res.terms.items()})


def fiber_poly(f: CAMap, y, gen=None) -> MPoly:
    """Exact univariate polynomial whose roots are the fiber over the rational point y.

    For k = 2 the roots are the x = t1 + lam*t2 of the fiber points, under
    a shear drawn from gen (see _shear).  When the shear separates the
    fiber, a root's multiplicity is its point's intersection multiplicity
    (Fulton, Algebraic Curves, ch. 3), the local multiplicity.
    """
    polys = _system(f, y)
    return _fiber_poly(polys, _shear(polys[0], gen))


def fiber_t_clusters(f: CAMap, y, prec: int = 256):
    """Distinct parameter-space fiber clusters over exact rational y (curves).

    Clusters the roots of the exact fiber gcd; returns a list of
    (representative, count).
    """
    g = fiber_poly(f, y)
    if g.is_constant():
        return []
    return roots_univariate(g, prec).roots


def fiber_points_2(f: CAMap, y, prec: int = 256):
    """Isolated fiber points in a 2-parameter square case over rational y."""
    p, q = _system(f, y)
    return solve_system_2(p, q, prec)


def fiber_points(f: CAMap, y, prec: int = 256) -> list[tuple]:
    """Distinct parameter-space points of the fiber over rational y, as k-tuples.

    The one dispatch on the number k of parameters: k = 1 goes through
    fiber_t_clusters, k = 2 through fiber_points_2 (ParamRequired above).
    """
    if f.domain.require_param().k == 1:
        return [(rep,) for rep, _ in fiber_t_clusters(f, y, prec)]
    return fiber_points_2(f, y, prec)


def fiber_count_at(f: CAMap, y, gen=None) -> int:
    """Number of distinct fiber points over the exact rational point y.

    The squarefree degree of fiber_poly, an exact count.  For k = 2 a
    shear (from gen) that merges two fiber points undercounts, so callers
    draw a new one on each of their draws.
    """
    p = fiber_poly(f, y, gen)
    return 0 if p.is_constant() else distinct_root_count(p)


def geometric_degree(f: CAMap, seed: int = 0) -> int:
    """Cardinality of the generic fiber (sheet number over the image).

    Samples y = f(phi(t0)) for random rational t0 and counts distinct
    fiber points with fiber_count_at (the shear drawn after t0); the
    consensus is the first count to recur on 5 draws.
    A draw at a critical value of f, or a merging shear, gives fewer
    points, and a draw at a point of the set with several parameter
    preimages (a node of a curve) gives more; neither recurs on 5 draws.
    """
    check_proper(f, seed)
    counts = []
    for attempt in range(_DRAW_BUDGET):
        gen = _rng.child_rng(seed, f"geomdeg:{attempt}")
        t0 = _rng.rand_rational_vector(gen, f.domain.param.k)
        counts.append(fiber_count_at(f, [evaluate(p, t0) for p in f.pullbacks], gen))
        if counts.count(counts[-1]) >= _FIBER_DRAWS:
            return counts[-1]
    raise InconsistentFiberCounts(f"fiber counts did not stabilize: {counts}")


def growth_exponent(g: CAMap) -> Fraction:
    """Growth exponent at infinity as the exact pullback degree ratio.

    deg of the pulled-back component over the top degree of phi; 0 for a
    constant map.  Exact for parametrizations dominated by their top
    degree; parametrizations with cancellations at infinity may make this
    an overestimate of the true infimum.
    """
    if g.n != 1:
        raise InvalidInput("growth exponent takes a single-component map")
    param = g.domain.require_param()
    num = total_degree(g.pullbacks[0])
    if num == float("-inf") or num == 0:
        return Fraction(0)
    den = max(
        d for d in (total_degree(c) for c in param.components) if d != float("-inf")
    )
    return Fraction(int(num), int(den))


# ---------------------------------------------------------------------------
# local multiplicities and the degree formula over a fiber


def local_multiplicity(f: CAMap, a, seed: int = 0) -> int:
    """Local geometric multiplicity of the square map f at the point a of the set.

    With S_i the squarefree factors of the fiber polynomial R over f(a),
    it is sum_i i * deg gcd(S_i, P_a).  P_a is the fiber polynomial of
    (f_1 - f_1(a), h) under the same shear, for h = sum_j c_j (phi_j - a_j)
    with random rational c: its common roots with R are the parameter
    preimages of a.  A collision of another fiber point with a preimage,
    under the shear or on h = 0, can only raise the count, and so can an
    h that vanishes on a curve of f_1 = f_1(a) (P_a is then taken as 0);
    the least value over 3 draws of (lam, c) is kept.
    """
    param = f.domain.require_param()
    if f.n != param.k:
        raise InvalidInput("local multiplicity needs a square (k-component) map")
    a = [Fraction(v) for v in a]
    if not f.domain.contains(a):
        raise InvalidInput("point does not satisfy the variety's generators")
    polys = _system(f, _map_value_exact(f, a))
    coords = [c - MPoly.const(param.k, v) for c, v in zip(param.components, a)]
    counts = []
    for draw in range(3):
        gen = _rng.child_rng(seed, f"multiplicity:{draw}")
        lam = _shear(polys[0], gen)
        weights = _rng.rand_nonzero_vector(gen, len(coords))
        h = sum((c.scale(w) for c, w in zip(coords, weights)), MPoly.zero(param.k))
        factors = squarefree_factors(_fiber_poly(polys, lam))
        try:
            preimages = _fiber_poly([polys[0], h], lam)
        except NonZeroDimensional:  # h vanishes on a curve of f_1 = f_1(a)
            preimages = MPoly.zero(1)
        at_a = [univ_gcd(s, preimages).degree_in(0) for s in factors]
        counts.append(sum(i * n for i, n in enumerate(at_a, 1)))
    if not min(counts):
        raise NotIsolated("no parameter preimage of the point lies in the fiber over f(a)")
    return min(counts)


def _map_value_exact(f: CAMap, a) -> list[Fraction]:
    out = []
    for num, den in f.components:
        dv = evaluate(den, a)
        if dv == 0:
            raise NotIsolated("denominator vanishes at the point")
        out.append(evaluate(num, a) / dv)
    return out


def stoll_check(f: CAMap, y0, seed: int = 0):
    """Degree versus the multiplicity sum over one fiber.

    Returns (lhs, rhs, ok) with lhs the geometric degree and rhs the sum
    of local multiplicities over the fiber at y0: sum_i i * deg S_i over
    the fiber polynomial's squarefree factors, which is its degree.
    """
    if f.n != f.domain.require_param().k:
        raise InvalidInput("multiplicity sum check needs a square (k-component) map")
    lhs = geometric_degree(f, seed)
    rhs = fiber_poly(f, y0).degree_in(0)
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# image and graph degrees by random affine slicing


def image_slice_count(f: CAMap, seed: int = 0) -> int:
    """d(f) * deg f(A) for a curve: parameter points on a random hyperplane slice of f(A).

    A slice through a special point of f(A) counts fewer, and
    curve_slice_count keeps the max of 3.
    """
    if f.domain.require_param().k != 1:
        raise ParamRequired("image degree implemented for curves")
    return curve_slice_count(f.pullbacks, seed, "imagedeg")


def image_degree(f: CAMap, seed: int = 0) -> int:
    """Degree of the image curve f(A), exactly: image_slice_count over d(f)."""
    d_f = geometric_degree(f, seed)
    points, rest = divmod(image_slice_count(f, seed), d_f)
    if rest:
        raise InconsistentFiberCounts(f"d(f) = {d_f} does not divide the slice count")
    return points


def graph_slice_count(f: CAMap, gen) -> int | None:
    """Points of the graph of f on k random affine slices of ambient x target space.

    The slices pull back to k polynomials in the k parameters, whose
    common zeros are the fiber over 0 of the map they form (the shear
    drawn after the slices); None when the draw is not generic.
    """
    param = f.domain.require_param()
    coords = list(param.components) + list(f.pullbacks)
    slices = [random_slice(gen, coords) for _ in range(param.k)]
    if any(s.is_constant() for s in slices):
        return None
    try:
        return fiber_count_at(polynomial_map(slices), [0] * param.k, gen)
    except NonZeroDimensional:
        return None


def graph_degree(f: CAMap, seed: int = 0) -> int:
    """Degree of the graph of f, sliced inside ambient x target space."""
    return slice_count(seed, "graphdeg", lambda gen: graph_slice_count(f, gen))


def profile_map(f: CAMap, seed: int = 0) -> ProperMapProfile:
    """Assemble the degree profile used by the characteristic polynomial.

    Properness is checked once, inside geometric_degree.
    """
    return ProperMapProfile(
        d_f=geometric_degree(f, seed),
        graph_degree=graph_degree(f, seed),
    )
