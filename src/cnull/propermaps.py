"""Geometric invariants of proper c-algebraic maps along a parametrization.

Fibers are computed in parameter space.  For a curve (k = 1) the fiber
over y is the common-root set of the pulled-back components minus y,
intersected exactly by a univariate gcd (_fiber_gcd).  fiber_count_at is
the one fiber count: for a curve it is the squarefree degree of that gcd,
an exact count, and for k = 2 it counts the points the numeric solver
finds.  fiber_points is the one place that picks a solver by k, for
callers that need coordinates: clustered roots of the gcd for a curve
(fiber_t_clusters), the bivariate resultant solver for the square case
k = 2 (fiber_points_2).  Every fiber point is a k-tuple.  Generic fibers
and graph slices are counted through fiber_count_at, which counts
fiber_points for k >= 2, so a solver for k >= 3 would plug into
fiber_points alone.  The image degree of a curve is exact as well: the
squarefree degree of a random hyperplane slice over d(f).

Generic sample points are always taken on the image, as f(phi(t0)) for
random rational t0, so maps with non-dominant image (more components
than parameters) get nonempty generic fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import rng as _rng
from .errors import (
    InconsistentFiberCounts,
    InvalidInput,
    NonZeroDimensional,
    NotIsolated,
    NotProper,
    ParamRequired,
    PrecisionExhausted,
)
from .numroots import ladder_from, roots_univariate, solve_system_2
from .polycore import MPoly, distinct_root_count, evaluate, total_degree, univ_gcd
from .variety import CAMap, polynomial_map, random_slice, slice_count

_FIBER_DRAWS = 5
_DRAW_BUDGET = 15


@dataclass(frozen=True)
class ProperMapProfile:
    d_f: int
    graph_degree: int


def _require_k(f: CAMap) -> int:
    param = f.domain.require_param()
    return param.k


def check_proper(f: CAMap, seed: int = 0, prec: int = 256) -> None:
    """Growth-criterion properness along phi; raises NotProper on failure.

    For curves the criterion is exact: some pullback must be nonconstant.
    For surfaces it is the finite-fiber resultant test plus norm-growth
    sampling on parameter spheres; a validation, not a proof.
    """
    k = _require_k(f)
    degs = [d for d in (total_degree(p) for p in f.pullbacks) if d != float("-inf")]
    if not degs or max(degs) < 1:
        raise NotProper("all pullbacks are constant")
    if k == 1:
        return
    if k == 2:
        if f.n != 2:
            raise ParamRequired("two-parameter properness implemented for 2 components")
        gen = _rng.child_rng(seed, "proper")
        try:
            fiber_points(f, [_rng.rand_rational(gen) for _ in range(2)], prec)
        except NonZeroDimensional as exc:
            raise NotProper("fibers are not finite") from exc
        check_growth(f, gen, prec)
        return
    raise ParamRequired("properness check implemented for 1 or 2 parameters")


def check_growth(f: CAMap, gen, prec: int = 256) -> None:
    """Norm-growth sampling along two parameters; raises NotProper on failure.

    The least image norm over 4 axis and 8 random directions (drawn from
    gen for each sphere) must grow 4-fold from the parameter sphere of
    radius 10 to that of radius 1000.
    """
    lo = _min_norm_on_sphere(f, 10, gen, prec)
    hi = _min_norm_on_sphere(f, 1000, gen, prec)
    if hi < max(4 * lo, mp.mpf("1e-6")):
        raise NotProper("image norm does not grow along the parameter sphere")


def _min_norm_on_sphere(f: CAMap, radius, gen, prec):
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1)]
    dirs += [(gen.uniform(-1, 1), gen.uniform(-1, 1)) for _ in range(8)]
    best = None
    with mp.workprec(prec):
        for dx, dy in dirs:
            norm = mp.sqrt(mp.mpf(dx) ** 2 + mp.mpf(dy) ** 2)
            if norm == 0:
                continue
            t = [radius * mp.mpf(dx) / norm, radius * mp.mpf(dy) / norm]
            vals = [evaluate(p, t) for p in f.pullbacks]
            size = mp.sqrt(sum(abs(v) ** 2 for v in vals))
            best = size if best is None else min(best, size)
    return best


# ---------------------------------------------------------------------------
# fibers


def _fiber_gcd(f: CAMap, y) -> MPoly:
    """Exact gcd of the pulled-back components minus the rational point y (curves).

    Its roots are the fiber over y; raises NotIsolated when it is zero.
    """
    if len(y) != f.n:
        raise ValueError("fiber point length does not match component count")
    polys = [p - MPoly.const(1, Fraction(v)) for p, v in zip(f.pullbacks, y)]
    g = polys[0]
    for p in polys[1:]:
        g = univ_gcd(g, p)  # gcd with 0 passes the other argument through
    if g.is_zero():
        raise NotIsolated("fiber is the whole curve")
    return g


def fiber_t_clusters(f: CAMap, y, prec: int = 256):
    """Distinct parameter-space fiber clusters over exact rational y (curves).

    Clusters the roots of the exact fiber gcd; returns a list of
    (representative, count).
    """
    g = _fiber_gcd(f, y)
    if g.is_constant():
        return []
    return roots_univariate(g, prec).roots


def fiber_points_2(f: CAMap, y, prec: int = 256):
    """Isolated fiber points in a 2-parameter square case over rational y."""
    if f.n != 2:
        raise ParamRequired("two-parameter fibers implemented for 2 components")
    sys = [p - MPoly.const(2, Fraction(v)) for p, v in zip(f.pullbacks, y)]
    return solve_system_2(sys[0], sys[1], prec)


def fiber_points(f: CAMap, y, prec: int = 256) -> list[tuple]:
    """Distinct parameter-space points of the fiber over rational y, as k-tuples.

    The one dispatch on the number k of parameters: k = 1 goes through
    fiber_t_clusters, k = 2 through fiber_points_2.
    """
    k = _require_k(f)
    if k == 1:
        return [(rep,) for rep, _ in fiber_t_clusters(f, y, prec)]
    if k == 2:
        return fiber_points_2(f, y, prec)
    raise ParamRequired("fibers implemented for 1 or 2 parameters")


def fiber_count_at(f: CAMap, y, prec: int = 256) -> int:
    """Number of distinct fiber points over the exact rational point y.

    Exact for a curve: the squarefree degree of the fiber gcd, so roots
    closer than any clustering tolerance still count apart.  For k = 2 it
    counts the points of fiber_points.
    """
    y = [Fraction(v) for v in y]
    if _require_k(f) == 1:
        g = _fiber_gcd(f, y)
        return 0 if g.is_constant() else distinct_root_count(g)
    return len(fiber_points(f, y, prec))


def _generic_value(f: CAMap, gen) -> list[Fraction]:
    k = f.domain.param.k
    t0 = _rng.rand_rational_vector(gen, k)
    return [evaluate(p, t0) for p in f.pullbacks]


def geometric_degree(f: CAMap, seed: int = 0, prec: int = 256) -> int:
    """Cardinality of the generic fiber (sheet number over the image).

    Samples y = f(phi(t0)) for random rational t0 and counts distinct
    fiber points with fiber_count_at (exactly for a curve); the consensus
    is the first count to recur on 5 draws.
    A draw at a critical value of f gives fewer points, and a draw at a
    point of the set with several parameter preimages (a node of a curve)
    gives more; neither recurs on 5 random draws.
    """
    check_proper(f, seed, prec)
    counts = []
    for attempt in range(_DRAW_BUDGET):
        gen = _rng.child_rng(seed, f"geomdeg:{attempt}")
        counts.append(fiber_count_at(f, _generic_value(f, gen), prec))
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


def _perturbed_count_near(f: CAMap, y0, anchors, radius, seed: int, prec: int) -> int:
    """Stable count of perturbed-fiber points within radius of the anchors.

    Perturbations are exact rationals of size 2^(-prec/8) relative to the
    local value scale, so the perturbed systems stay rational.
    """
    scale = max([Fraction(1)] + [abs(Fraction(v)) for v in y0])
    eps = Fraction(1, 2 ** (prec // 8)) * scale
    counts = []
    for draw in range(3):
        gen = _rng.child_rng(seed, f"localmult:{draw}")
        direction = _rng.rand_nonzero_vector(gen, f.n, height=9)
        y1 = [Fraction(v) + eps * w for v, w in zip(y0, direction)]
        counts.append(count_near(fiber_points(f, y1, prec), anchors, radius))
    if len(set(counts)) == 1:
        return counts[0]
    raise InconsistentFiberCounts(f"perturbed counts disagree: {counts}")


def _point_dist(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


def count_near(points, anchors, radius) -> int:
    """Number of points within l1-distance radius of some anchor."""
    return sum(1 for p in points if any(_point_dist(p, a) < radius for a in anchors))


def _anchor_radius(anchor, others):
    gaps = [gap for gap in (_point_dist(anchor, other) for other in others) if gap > 0]
    cap = mp.mpf("0.25") * (1 + sum(abs(x) for x in anchor))
    if not gaps:
        return cap
    return min(min(gaps) / 2, cap)


def _stable_count_near(f: CAMap, y0, anchors, radius, seed: int, prec: int) -> int:
    for wp in ladder_from(prec):
        try:
            return _perturbed_count_near(f, y0, anchors, radius, seed, wp)
        except InconsistentFiberCounts:
            continue
    raise PrecisionExhausted("local multiplicity did not stabilize on the precision ladder")


def local_multiplicity_at(f: CAMap, y0, anchor, others, seed: int = 0, prec: int = 256) -> int:
    """Multiplicity of the fiber point anchored at a parameter-space point."""
    return _stable_count_near(f, y0, [anchor], _anchor_radius(anchor, others), seed, prec)


def local_multiplicity(f: CAMap, a, seed: int = 0, prec: int = 256) -> int:
    """Local geometric multiplicity of f at the point a of the set.

    Counts perturbed-fiber points collapsing to a: solutions of
    f(phi(t)) = f(a) + eps*v near the parameter preimages of a, stable
    over 3 random rational directions v.
    """
    f.domain.require_param()
    a = [Fraction(v) for v in a]
    if not f.domain.contains(a):
        raise InvalidInput("point does not satisfy the variety's generators")
    y0 = _map_value_exact(f, a)
    reps = fiber_points(f, y0, prec)
    if not reps:
        raise NotIsolated("empty fiber over f(a)")
    anchors = _preimage_anchors(f, a, reps, prec)
    radius = min(_anchor_radius(anchor, reps) for anchor in anchors)
    return _stable_count_near(f, y0, anchors, radius, seed, prec)


def _map_value_exact(f: CAMap, a) -> list[Fraction]:
    out = []
    for num, den in f.components:
        dv = evaluate(den, a)
        if dv == 0:
            raise NotIsolated(
                "denominator vanishes at the point; pass the fiber anchor explicitly"
            )
        out.append(evaluate(num, a) / dv)
    return out


def _preimage_anchors(f: CAMap, a, reps, prec: int):
    """Fiber points whose image under phi is the point a."""
    param = f.domain.param
    anchors = []
    with mp.workprec(prec):
        a_num = [mp.mpf(v.numerator) / mp.mpf(v.denominator) for v in a]
        tol = mp.mpf(2) ** (-prec // 4)
        for rep in reps:
            img = [evaluate(c, rep) for c in param.components]
            gap = sum(abs(i - w) for i, w in zip(img, a_num))
            size = 1 + sum(abs(w) for w in a_num)
            if gap <= tol * size:
                anchors.append(rep)
    if not anchors:
        raise NotIsolated("no parameter preimage of the point was found in the fiber")
    return anchors


def stoll_check(f: CAMap, y0, seed: int = 0, prec: int = 256):
    """Degree versus the multiplicity sum over one fiber.

    Returns (lhs, rhs, ok) with lhs the geometric degree and rhs the sum
    of local multiplicities over the fiber at y0.
    """
    k = _require_k(f)
    if f.n != k:
        raise InvalidInput("multiplicity sum check needs a square (k-component) map")
    y0 = [Fraction(v) for v in y0]
    lhs = geometric_degree(f, seed, prec)
    reps = fiber_points(f, y0, prec)
    rhs = sum(local_multiplicity_at(f, y0, rep, reps, seed, prec) for rep in reps)
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# image and graph degrees by random affine slicing


def image_degree(f: CAMap, seed: int = 0, prec: int = 256) -> int:
    """Degree of the image curve f(A): points of f(A) on a random hyperplane, exactly.

    A generic hyperplane meets f(A) in points with d(f) parameter
    preimages each, so the count is the squarefree degree of the
    pulled-back slice over d(f); a slice whose count d(f) does not divide
    is not generic.  geometric_degree also runs check_proper.
    """
    if _require_k(f) != 1:
        raise ParamRequired("image degree implemented for curves")
    d_f = geometric_degree(f, seed, prec)

    def count(gen):
        sliced = random_slice(gen, f.pullbacks)
        if sliced.is_constant():
            return None
        points, rest = divmod(distinct_root_count(sliced), d_f)
        return None if rest else points

    return slice_count(seed, "imagedeg", count)


def graph_slice_count(f: CAMap, gen, prec: int = 256) -> int | None:
    """Points of the graph of f on k random affine slices of ambient x target space.

    The slices pull back to k polynomials in the k parameters, whose
    common zeros are the fiber over 0 of the map they form; None when
    the draw is not generic.
    """
    param = f.domain.require_param()
    coords = list(param.components) + list(f.pullbacks)
    slices = [random_slice(gen, coords) for _ in range(param.k)]
    if any(s.is_constant() for s in slices):
        return None
    try:
        return fiber_count_at(polynomial_map(slices), [0] * param.k, prec)
    except NonZeroDimensional:
        return None


def graph_degree(f: CAMap, seed: int = 0, prec: int = 256) -> int:
    """Degree of the graph of f, sliced inside ambient x target space."""
    return slice_count(seed, "graphdeg", lambda gen: graph_slice_count(f, gen, prec))


def profile_map(f: CAMap, seed: int = 0, prec: int = 256) -> ProperMapProfile:
    """Assemble the degree profile used by the characteristic polynomial.

    Properness is checked once, inside geometric_degree.
    """
    return ProperMapProfile(
        d_f=geometric_degree(f, seed, prec),
        graph_degree=graph_degree(f, seed, prec),
    )
