"""Characteristic polynomial of g relative to a proper map f.

The construction samples the coefficients on an integer grid, then
interpolates them and verifies the result exactly, as the polynomial
identity P(f(phi), g(phi)) = 0 in the parameter ring.  On two parameters
each sample is exact: the characteristic polynomial of multiplication by
g on the fiber algebra Q[x]/R of the shape lemma (propermaps.ShapeLemma),
with no root finding, through the elimination that checked properness
and with g written once in that shear's coordinates.  That algebra keeps
the multiplicities, so a critical node is sampled too.  On a curve it is
numeric but self-certifying: each fiber is counted at the first rung of
the precision ladder and solved again at working precision from the
count's roots, and the signed elementary symmetric functions of the
g-values are rationally reconstructed.

Each coefficient a_j has a cap on its total degree, by one rule on one
and two parameters (_grid_caps): cap_j = min(bound_j, floor(j deg G delta))
for G = g(phi), where every fiber point over y has |t| <= C (1 + |y|)^delta.
Then a_j, up to sign the j-th elementary symmetric function of the values
of g on the fiber, is O(|y|^(j deg G delta)), so its degree is at most
floor(j deg G delta).  The grid keeps the points whose node indices sum
to at most the largest cap, the simplex that determines a polynomial of
that degree, and grows to it; every a_j is interpolated under its cap,
the surplus samples serving as checks.  The reported bounds stay the
theorem's.  A failed verification escalates the precision ladder on a
curve; exact two-parameter samples try one rung.  A g that grows more
slowly than |t|^deg G on the fibers leaves its coefficients below their
caps, and its grid samples more nodes than their true degrees need.

An independent exact construction via a Sylvester resultant is provided
as an oracle for the curve case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

from . import rng as _rng
from .errors import (
    CriticalSampleBudgetExhausted,
    ExactVerificationFailed,
    InconsistentSamples,
    InvalidInput,
    NonReal,
    NoReconstruction,
    PrecisionExhausted,
)
from . import numroots
from .numroots import PREC_LADDER, ladder_from, rational_reconstruct
from .polycore import (
    MPoly,
    NEG_INF,
    coeffs_in_var,
    compose,
    distinct_root_count,
    drop_var,
    evaluator,
    interpolate,
    poly_to_json,
    sylvester_resultant,
    total_degree,
    univ_coeffs,
)
from .propermaps import ShapeLemma, fiber_poly, fiber_t_clusters, growth_exponent, profile_map
from .variety import CAMap

# bench/test_bench.py checks that a traced run restores this binding of the root solver;
# charpoly solves no root through it, and it goes when the benchmark next changes
roots_from_coeffs = numroots.roots_from_coeffs


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial t^d + a_1(y) t^(d-1) + ... + a_d(y)."""

    d: int
    coeffs: list[MPoly]  # a_1 .. a_d in the k image variables
    bounds: list[int] | None
    provenance: str
    y_vars: list[str]
    verified: bool = False

    @property
    def k(self) -> int:
        return self.coeffs[0].var_count if self.coeffs else 1


def coefficient_bounds(d: int, growth: Fraction, graph_deg: int) -> list[int]:
    """Per-coefficient degree bounds floor(j * B * (deg graph - d + 1))."""
    spread = graph_deg - d + 1
    return [math.floor(Fraction(j) * growth * spread) for j in range(1, d + 1)]


def charpoly_to_json(p: CharPoly) -> dict:
    return {
        "d": p.d,
        "coeffs": [poly_to_json(a, p.y_vars) for a in p.coeffs],
        "provenance": p.provenance,
        "bounds": list(p.bounds) if p.bounds is not None else None,
        "verified": p.verified,
    }


def verify_charpoly(P: CharPoly, f: CAMap, g: CAMap) -> bool:
    """Exact check of the identity P(f(phi), g(phi)) = 0 in the parameter ring, by Horner's rule in g."""
    fp = list(f.pullbacks)
    gp = g.pullbacks[0]
    acc = MPoly.const(gp.var_count, 1)
    for a in P.coeffs:
        acc = acc * gp + compose(a, fp)
    return acc.is_zero()


def build_charpoly(
    f: CAMap,
    g: CAMap,
    seed: int = 0,
    prec: int = 256,
) -> CharPoly:
    """Characteristic polynomial by fiber sampling and interpolation.

    Samples are exact on two parameters and rationally reconstructed from
    numeric fiber solves on a curve.

    Fails hard (ExactVerificationFailed) if the exact identity does not
    hold after the precision ladder is exhausted; a successful return is
    always exactly verified.
    """
    param = f.domain.param
    k = param.k
    if f.n != k:
        raise InvalidInput("the map must have as many components as the set has dimensions")
    if g.n != 1:
        raise InvalidInput("g must be a single-component map")
    prof = profile_map(f, seed)
    d = prof.d_f
    growth = growth_exponent(g)
    bounds = coefficient_bounds(d, growth, prof.graph_degree)
    caps = _grid_caps(f, g, bounds, prof.shape)
    last_error: Exception | None = None
    # a two-parameter sample is exact, so a higher rung would rebuild the same grid
    for wp in ladder_from(prec) if k == 1 else [prec]:
        try:
            grid = _SampleGrid(f, g, d, seed, wp, max(caps) + 1, prof.shape)
            while grid.n < grid.need:
                grid.grow()
            P = grid.charpoly(caps)
            if verify_charpoly(P, f, g):
                return replace(P, bounds=bounds, verified=True)
            last_error = ExactVerificationFailed(
                "interpolated characteristic polynomial failed the exact identity"
            )
        except (NoReconstruction, InconsistentSamples, PrecisionExhausted) as exc:
            last_error = exc
    if isinstance(last_error, (NoReconstruction, PrecisionExhausted)):
        raise last_error
    raise ExactVerificationFailed(
        "characteristic polynomial could not be certified on the precision ladder"
    ) from last_error


def _grid_caps(f: CAMap, g: CAMap, bounds: list[int], shape: ShapeLemma | None) -> list[int]:
    """Caps on deg a_j for the sample grid: min(bound_j, floor(j deg G delta)).

    Write F = f(phi) and G = g(phi), with deg G = 0 for g = 0, and let
    delta be a rational with |t| <= C (1 + |y|)^delta at every point t of
    every fiber.  Then each value of g on the fiber over y is
    O(|y|^(delta deg G)), and a_j, up to sign the j-th elementary
    symmetric function of the d values, is O(|y|^(j delta deg G)).  A
    polynomial in y that grows no faster along every line has degree at
    most j delta deg G, so deg a_j <= floor(j delta deg G).  delta comes
    from Fujiwara's bound (1916): every root of a polynomial with a
    constant lead c and coefficients c_i lies within
    2 max_(i >= 1) |c_(m-i) / c|^(1/i) of 0.

    On a curve F(t) - y has a constant lead, so delta = 1/deg F.  The cap
    of a_d is reached: a_d = +-prod G(t_i) has degree exactly
    d deg G / deg F.  On two parameters take shape's shear
    x = t1 + lam*t2, under which the x of every fiber point is a root of
    R(x; y) = sum_i r_i(y) x^i, of x-degree d with r_d constant
    (check_proper).  So |x| = O(|y|^delta_x) for
    delta_x = max_j deg r_(d-j) / j.  Under the same shear
    f1(x - lam*t2, t2) - y1 has a constant t2-lead of degree deg F1, and
    its t2^i coefficient has x-degree at most deg F1 - i, so
    |t2| = O(1 + |x| + |y|^(1/deg F1)), and t1 = x - lam*t2.  So
    delta = max(delta_x, 1/deg F1): no elimination beyond check_proper's.
    """
    deltas = [Fraction(1, total_degree(f.pullbacks[0]))]
    if shape is not None:
        r = coeffs_in_var(shape.R, 0)[::-1]  # r_d, r_(d-1), .., r_0
        deltas += [Fraction(total_degree(c), j) for j, c in enumerate(r) if j and not c.is_zero()]
    deg_g = max(total_degree(g.pullbacks[0]), 0)
    return [min(b, math.floor(j * deg_g * max(deltas))) for j, b in enumerate(bounds, start=1)]


class _SampleGrid:
    """A growing grid of integer nodes on the total-degree simplex, and the samples on it.

    Axis i holds nodes x_(i,0), x_(i,1), ... in the order drawn, as ints
    (interpolate then runs on integer nodes throughout), and the grid
    holds the points (x_(1,alpha_1), ..., x_(k,alpha_k)) with every
    alpha_i < n and |alpha| < need, where need is the largest cap + 1.
    build_charpoly grows it to n = need, the simplex of total degree
    need - 1, on which every a_j is interpolated under its cap (_grid_caps).
    Nodes come from one shuffled span, sized by need, under the salt
    charpoly-grid; a candidate node whose new slab of the
    grid has a point that cannot be sampled is skipped.  On two parameters
    a sample is exact: the characteristic polynomial of g on the fiber
    algebra Q[x]/R of a ShapeLemma, at first the properness elimination
    of the map's profile.  It is P(y, .) at every node the ShapeLemma
    accepts, critical values included; a node is skipped only where a
    root of R lies under two fiber points, or under one point that is not
    curvilinear.  The shear is drawn again, from the salt charpoly-shear,
    with every rejected candidate for the first node, since a shear that
    merges two points of every fiber would reject every node; once a node
    passes, it merges them only over a proper algebraic subset.  Each
    shear writes g under t1 = x - lam*t2 once, as its t2-coefficients
    G_k(x) (ShapeLemma.t2_table), and a node takes g as sum_k G_k theta^k
    for the residue theta of t2, by Horner's rule.  On one parameter a
    node with a critical fiber is skipped: each node is solved twice by
    fiber_t_clusters, once at the ladder's first rung to check that its
    fiber has d points, then at working precision from those d points to
    sample, and the second solve must find d points too
    (InconsistentSamples).  g is evaluated on the fiber by one evaluator
    made at the sample precision.  A node whose sample does not
    reconstruct is tested exactly, and skipped when its fiber polynomial
    has fewer than d distinct roots: the clusters of an m-fold root can
    pass the count.
    """

    def __init__(self, f: CAMap, g: CAMap, d: int, seed: int, wp: int, need: int, shape: ShapeLemma | None):
        self.f, self.gp, self.d, self.wp, self.need = f, g.pullbacks[0], d, wp, need
        self.axes: list[list[int]] = [[] for _ in range(f.domain.param.k)]
        self.rows: list[tuple[tuple, list[Fraction]]] = []  # (node, [a_1 .. a_d]) as sampled
        gen = _rng.child_rng(seed, "charpoly-grid")
        span = list(range(-3 * (need + 2), 3 * (need + 2) + 1))
        gen.shuffle(span)
        self.pool = iter(span)
        self.shears = _rng.child_rng(seed, "charpoly-shear")  # draws only a rejected first node's shear
        self._sample_through(shape)
        if shape is None:  # a curve: g on the fiber points
            with mp.workprec(wp + 20):
                self.g_at = evaluator([self.gp], use_mp=True)

    def _sample_through(self, shape: ShapeLemma | None) -> None:
        """Sample through shape (None on a curve), with g written in its shear's coordinates once."""
        self.shape, self.g_table = shape, shape.t2_table(self.gp) if shape else None

    @property
    def n(self) -> int:
        return len(self.axes[0])

    def grow(self) -> None:
        """Add one node to every axis.

        The first nodes of all axes are drawn together, as one grid point;
        after that each axis in turn adds a node against the nodes of the
        others, so every accepted node has its whole slab checked.  A slab
        keeps the points whose node indices sum to less than need.
        """
        k = len(self.axes)
        for new in [range(k)] if self.n == 0 else [[axis] for axis in range(k)]:
            while True:
                drawn = list(itertools.islice(self.pool, len(new)))
                if len(drawn) < len(new):
                    raise CriticalSampleBudgetExhausted(
                        "could not draw a grid clear of critical values"
                    )
                nodes = {axis: [(len(self.axes[axis]), c)] for axis, c in zip(new, drawn)}
                choices = (nodes.get(i, list(enumerate(ax))) for i, ax in enumerate(self.axes))
                slab = [
                    tuple(c for _, c in point)
                    for point in itertools.product(*choices)
                    if sum(m for m, _ in point) < self.need
                ]
                rows = self._slab_rows(slab)
                if rows is not None:
                    break
            for axis, c in zip(new, drawn):
                self.axes[axis].append(c)
            self.rows += rows

    def _slab_rows(self, slab) -> list | None:
        """(node, row) over every node of the slab, or None at its first node that cannot be sampled."""
        rows = []
        for y in slab:
            row = self._row(y)
            if row is None:
                return None
            rows.append((y, row))
        return rows

    def _row(self, y) -> list[Fraction] | None:
        """a_1 .. a_d over the node y, or None when it cannot be sampled (see the class docstring)."""
        d, wp = self.d, self.wp
        if self.shape is not None:
            fiber = self.shape.coordinates(y)
            if fiber is None or fiber[0].d != d:
                if not self.rows:
                    self._sample_through(ShapeLemma(self.f, self.shears))
                return None
            return fiber[0].charpoly(_horner(*fiber, self.g_table))
        check = fiber_t_clusters(self.f, list(y), PREC_LADDER[0])
        if len(check) != d:
            return None
        height = 10 ** max(6, wp // 16)
        with mp.workprec(wp + 20):
            clusters = fiber_t_clusters(self.f, list(y), wp, [t for t, _ in check])
            if len(clusters) != d:
                raise InconsistentSamples(f"fiber over {y} has {len(clusters)} points, expected {d}")
            asc = _monic_from_roots([self.g_at([t])[0] for t, _ in clusters])
            try:
                return [rational_reconstruct(asc[d - j], height, wp) for j in range(1, d + 1)]
            except (NonReal, NoReconstruction):
                if distinct_root_count(fiber_poly(self.f, list(y))) < d:
                    return None
                raise

    def charpoly(self, caps: list[int]) -> CharPoly:
        """P on the grid: each a_j interpolated under cap_j, the surplus samples as checks.

        P.bounds holds the caps; build_charpoly reports the theorem bounds.
        """
        k = len(self.axes)
        coeffs = [interpolate([(y, row[j]) for y, row in self.rows], b) for j, b in enumerate(caps)]
        return CharPoly(
            d=self.d,
            coeffs=coeffs,
            bounds=list(caps),
            provenance="interpolated",
            y_vars=[f"y{i + 1}" for i in range(k)],
            verified=False,
        )


def _horner(ring, theta, table):
    """sum_k G_k(x) theta^k mod R for a ShapeLemma.t2_table, by Horner's rule in theta.

    A constant accumulator, such as a constant top G_m, multiplies theta by a scale, not a product.
    """
    rows, den = table
    acc = ring.reduce(rows[-1][:], den)
    for row in reversed(rows[:-1]):
        c, acc_den = acc
        acc = ring.mul(acc, theta) if any(c[1:]) else ring.scale(theta, Fraction(c[0], acc_den))
        acc = ring.add(acc, ring.reduce(row[:], den))
    return acc


def _monic_from_roots(values):
    """Ascending coefficients of prod (X - v)."""
    coeffs = [mp.mpc(1)]
    for v in values:
        new = [mp.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] += c * (-v)
        coeffs = new
    return coeffs


# ---------------------------------------------------------------------------
# exact resultant construction (independent oracle, curve case)


def charpoly_resultant_oracle(f: CAMap, g: CAMap) -> CharPoly:
    """Exact characteristic polynomial as a normalized Sylvester resultant.

    Eliminates the curve parameter from (F(t) - y, s - G(t)), for
    F = f(phi) and G = g(phi): the resultant is
    lc(F)^(deg G) prod (s - G(t_i)) over the roots t_i of F(t) - y, of
    degree deg F in s with a constant lead, which is divided out.
    """
    param = f.domain.param
    if param.k != 1 or f.n != 1 or g.n != 1:
        raise InvalidInput("resultant oracle covers single-component maps on curves")
    fp = f.pullbacks[0]
    gp = g.pullbacks[0]
    fp_c = univ_coeffs(fp)
    if len(fp_c) <= 1:
        raise InvalidInput("f pulls back to a constant; not proper")
    deg_f = len(fp_c) - 1
    # variables (t, y, s)
    def embed_t(p: MPoly) -> MPoly:
        return MPoly(3, {(e, 0, 0): c for (e,), c in p.terms.items()})

    y = MPoly(3, {(0, 1, 0): Fraction(1)})
    s = MPoly(3, {(0, 0, 1): Fraction(1)})
    res = sylvester_resultant(embed_t(fp) - y, s - embed_t(gp), 0)  # in (y, s)
    s_coeffs = coeffs_in_var(res, 1)
    lead_c = s_coeffs[-1].constant_term()
    coeffs = []
    for j in range(1, deg_f + 1):
        a = s_coeffs[deg_f - j].scale(Fraction(1) / lead_c)
        coeffs.append(drop_var(a, 1))
    P = CharPoly(
        d=deg_f,
        coeffs=coeffs,
        bounds=None,
        provenance="resultant",
        y_vars=["y1"],
        verified=False,
    )
    if not verify_charpoly(P, f, g):
        raise ExactVerificationFailed("resultant characteristic polynomial failed the exact identity")
    return replace(P, verified=True)


# ---------------------------------------------------------------------------
# root growth


def ploski_delta(P: CharPoly) -> Fraction:
    """Max over nonzero coefficients of deg(a_j)/j; 0 when all vanish."""
    best = Fraction(0)
    for j, a in enumerate(P.coeffs, start=1):
        deg = total_degree(a)
        if deg == NEG_INF:
            continue
        best = max(best, Fraction(int(deg), j))
    return best


@dataclass(frozen=True)
class GrowthCheck:
    holds: bool
    q: Fraction
    witness_C: float | None  # certified: |t| <= C |x|^q for |x| >= 1 in the max norm
    violation: tuple | None  # (v, j*): on x = r v the roots grow like r^delta


def growth_inclusion_check(
    P: CharPoly,
    q: Fraction,
    samples: int = 1000,
    seed: int = 0,
    prec: int = 256,
) -> GrowthCheck:
    """Exact decision of the root-growth inclusion |t| <= C |x|^q for |x| >= 1, in the max norm.

    Both halves read P's coefficients only; no root is solved.  Write
    ||a||_1 for the sum of the absolute values of a's coefficients.

    For q >= delta the inclusion holds, and witness_C is the least double
    C with C^j >= 2^j ||a_j||_1 for every j, checked in rationals: for
    |x| >= 1, |a_j(x)| <= ||a_j||_1 |x|^(deg a_j), so Fujiwara's bound
    |t| <= 2 max_j |a_j(x)|^(1/j) gives |t| <= C max_j |x|^(deg a_j / j) <= C |x|^q.

    For q < delta it fails, and violation is (v, j*) for the least j* with
    deg a_j* = j* delta and the first v of {0 .. deg a_j*}^k, in
    lexicographic order, at which the top form of a_j* does not vanish
    (a nonzero form of degree D has a nonzero on any grid S^k with
    |S| > D).  On x = r v, a_j*(r v) is up to sign the j*-th elementary
    symmetric function of the d roots, of degree j* delta in r, so
    max_i |t_i| >= (|a_j*(r v)| / binom(d, j*))^(1/j*) grows like r^delta.

    samples, seed and prec are accepted for the callers of the sampled
    check this replaced, and ignored.
    """
    if q <= 0:
        raise InvalidInput("q must be positive")
    delta = ploski_delta(P)
    if q >= delta:
        return GrowthCheck(holds=True, q=Fraction(q), witness_C=_fujiwara_constant(P), violation=None)
    return GrowthCheck(holds=False, q=Fraction(q), witness_C=None, violation=_growth_witness(P, delta))


def _fujiwara_constant(P: CharPoly) -> float:
    """The least double C with Fraction(C)^j >= 2^j ||a_j||_1 for every j (0.0 when every a_j is 0)."""
    C = 0.0
    for j, a in enumerate(P.coeffs, start=1):
        bound = 2**j * sum(abs(c) for c in a.terms.values())
        if bound:
            C = max(C, _least_double_root(bound, j))
    return C


def _least_double_root(bound: Fraction, j: int) -> float:
    """The least double c with Fraction(c)^j >= bound > 0.

    One Newton step on c^j - bound from a float estimate, its correction
    computed exactly, lands at or above the root (c^j is convex for
    j >= 2, and linear for j = 1), within far less than an ulp; rounded,
    it is the least such double or the one just below it.
    """
    try:
        c = math.exp((math.log(bound.numerator) - math.log(bound.denominator)) / j)
        power = Fraction(c) ** (j - 1)
        c -= float((power * Fraction(c) - bound) / (j * power))
        while Fraction(c) ** j < bound:
            c = math.nextafter(c, math.inf)
    except (OverflowError, ZeroDivisionError):
        raise InvalidInput("the growth constant C is outside the range of a double") from None
    return c


def _growth_witness(P: CharPoly, delta: Fraction) -> tuple[tuple[int, ...], int]:
    """(v, j*): the least j* with deg a_j* = j* delta, and the first v in {0 .. deg a_j*}^k where its top form is nonzero."""
    j, a = next((j, a) for j, a in enumerate(P.coeffs, start=1) if total_degree(a) == j * delta)
    D = total_degree(a)
    top = [(e, c) for e, c in a.terms.items() if sum(e) == D]
    grid = itertools.product(range(D + 1), repeat=P.k)
    return next(v for v in grid if sum(c * math.prod(x**n for x, n in zip(v, e)) for e, c in top)), j


def bounds_table(P: CharPoly):
    """Rows (j, deg a_j, bound, ok) for the coefficient degree bounds recorded in P."""
    rows = []
    for j, (a, bound) in enumerate(zip(P.coeffs, P.bounds), start=1):
        deg = total_degree(a)
        ok = deg == NEG_INF or deg <= bound
        rows.append((j, deg, bound, ok))
    return rows
