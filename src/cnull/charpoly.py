"""Characteristic polynomial of g relative to a proper map f.

The construction is numeric but self-certifying: fibers over a rational
sample grid are solved at working precision, the signed elementary
symmetric functions of the g-values are rationally reconstructed and
interpolated, and the result is then verified exactly, as the polynomial
identity P(f(phi), g(phi)) = 0 in the parameter ring.

The grid grows one node per axis at a time.  The theorem bounds on the
coefficient degrees are the cap: the grid stops early once every
coefficient's interpolant on all but the last ZETA nodes per axis
reproduces the samples on the rest (early termination in the manner of
Kaltofen and Lee, 2003).  An early result is returned only when it
verifies and g separates the fiber over some grid node, since only then
does the identity force P to be the characteristic polynomial;
otherwise the grid grows to the theorem bounds at the same precision.
A failed verification there escalates the precision ladder and is never
returned silently.

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
    NonMonicizable,
    NoReconstruction,
    PrecisionExhausted,
)
from .numroots import ladder_from, rational_reconstruct, roots_from_coeffs
from .polycore import (
    MPoly,
    NEG_INF,
    coeffs_in_var,
    compose,
    distinct_root_count,
    evaluate,
    grid_interpolant,
    interpolate,
    poly_to_json,
    sylvester_resultant,
    total_degree,
    univ_coeffs,
    univ_from_coeffs,
)
from .propermaps import fiber_points, growth_exponent, profile_map
from .variety import CAMap


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
    """Exact check of the identity P(f(phi), g(phi)) = 0 in the parameter ring."""
    fp = list(f.pullbacks)
    gp = g.pullbacks[0]
    acc = gp**P.d
    for j, a in enumerate(P.coeffs, start=1):
        acc = acc + compose(a, fp) * gp ** (P.d - j)
    return acc.is_zero()


def build_charpoly(
    f: CAMap,
    g: CAMap,
    seed: int = 0,
    prec: int = 256,
) -> CharPoly:
    """Characteristic polynomial by fiber sampling, reconstruction and interpolation.

    Fails hard (ExactVerificationFailed) if the exact identity does not
    hold after the precision ladder is exhausted; a successful return is
    always exactly verified.
    """
    param = f.domain.require_param()
    k = param.k
    if f.n != k:
        raise InvalidInput("the map must have as many components as the set has dimensions")
    if g.n != 1:
        raise InvalidInput("g must be a single-component map")
    prof = profile_map(f, seed)
    d = prof.d_f
    growth = growth_exponent(g)
    bounds = coefficient_bounds(d, growth, prof.graph_degree)
    last_error: Exception | None = None
    for wp in ladder_from(prec):
        try:
            for P in _candidates(f, g, d, bounds, seed, wp):
                if verify_charpoly(P, f, g):
                    return replace(P, verified=True)
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


ZETA = 2  # confirming nodes per axis beyond those an early interpolant is taken on


def _candidates(f: CAMap, g: CAMap, d: int, bounds: list[int], seed: int, wp: int):
    """Interpolated characteristic polynomials at precision wp, on one growing grid.

    The grid gains one node per axis at a time.  It stops early once every
    coefficient a_j is confirmed: the interpolant on the first n - ZETA
    nodes per axis reproduces the samples on the rest of the grid.  That
    early result is offered only when g separates the fiber over some grid
    node, for then the identity P(f, g) = 0 forces P to be the
    characteristic polynomial.  Otherwise, and when the early result is
    rejected, the grid grows to the theorem grid, max_j bound_j + 1 nodes
    per axis, and the result interpolated under the theorem bounds follows.
    """
    need = max(bounds, default=0) + 1
    grid = _SampleGrid(f, g, d, seed, wp, need)
    degrees = None
    while degrees is None and grid.n < need:
        grid.grow()
        degrees = grid.confirmed_degrees(bounds)
    if grid.n < need and grid.separates():
        yield grid.charpoly(bounds, degrees)
    while grid.n < need:
        grid.grow()
    yield grid.charpoly(bounds, bounds)


class _SampleGrid:
    """A growing tensor grid of rational nodes clear of critical values, and the samples on it.

    Nodes come from one shuffled span under the salt charpoly-grid; a
    candidate node whose new slab of the grid has a critical fiber is
    skipped.  Each new slab is solved twice: once to check that every fiber
    has d points, once to sample.
    """

    def __init__(self, f: CAMap, g: CAMap, d: int, seed: int, wp: int, need: int):
        self.f, self.gp, self.d, self.wp = f, g.pullbacks[0], d, wp
        self.axes: list[list[Fraction]] = [[] for _ in range(f.domain.param.k)]
        self.rows: list[tuple[tuple, list[Fraction]]] = []  # (node, [a_1 .. a_d]) as sampled
        # per coefficient: an early interpolant and the number of leading rows it reproduces
        self.early: list[tuple[MPoly, int] | None] = [None] * d
        gen = _rng.child_rng(seed, "charpoly-grid")
        span = list(range(-3 * (need + 2), 3 * (need + 2) + 1))
        gen.shuffle(span)
        self.pool = iter(span)

    @property
    def n(self) -> int:
        return len(self.axes[0])

    def grow(self) -> None:
        """Add one node to every axis.

        The first nodes of all axes are drawn together, as one grid point;
        after that each axis in turn adds a node against the nodes of the
        others, so every accepted node has its whole slab checked.
        """
        k = len(self.axes)
        for new in [range(k)] if self.n == 0 else [[axis] for axis in range(k)]:
            while True:
                drawn = [Fraction(c) for c in itertools.islice(self.pool, len(new))]
                if len(drawn) < len(new):
                    raise CriticalSampleBudgetExhausted(
                        "could not draw a grid clear of critical values"
                    )
                nodes = {axis: [c] for axis, c in zip(new, drawn)}
                slab = list(itertools.product(*(nodes.get(i, ax) for i, ax in enumerate(self.axes))))
                if all(len(fiber_points(self.f, list(y), self.wp)) == self.d for y in slab):
                    break
            for axis, c in zip(new, drawn):
                self.axes[axis].append(c)
            self._sample(slab)

    def _sample(self, slab) -> None:
        d, wp = self.d, self.wp
        height = 10 ** max(6, wp // 16)
        with mp.workprec(wp + 20):
            for y in slab:
                tpoints = fiber_points(self.f, list(y), wp)
                if len(tpoints) != d:
                    raise InconsistentSamples(
                        f"fiber over {y} has {len(tpoints)} points, expected {d}"
                    )
                asc = _monic_from_roots([evaluate(self.gp, t) for t in tpoints])
                row = [rational_reconstruct(asc[d - j], height, wp) for j in range(1, d + 1)]
                self.rows.append((y, row))

    def confirmed_degrees(self, bounds: list[int]) -> list[int] | None:
        """Per-variable degrees of the coefficients, or None while one is unconfirmed.

        a_j is settled by its theorem bound once the grid has bound_j + 1
        nodes per axis, and confirmed earlier when the interpolant on the
        first n - ZETA nodes per axis reproduces every sample.  An
        interpolant that keeps reproducing the samples is checked only on
        the new ones.
        """
        k, m = len(self.axes), self.n - ZETA
        degrees = []
        for j, bound in enumerate(bounds):
            if self.n > bound:
                degrees.append(bound)
                continue
            if m < 1:
                return None
            poly, matched = self.early[j] or (None, 0)
            if poly is None or not self._reproduces(poly, j, matched):
                first = [set(axis[:m]) for axis in self.axes]
                sub = [(y, row[j]) for y, row in self.rows if all(c in s for c, s in zip(y, first))]
                poly = grid_interpolant(sub, [m - 1] * k)
                if not self._reproduces(poly, j, 0):
                    self.early[j] = None
                    return None
            self.early[j] = (poly, len(self.rows))
            degrees.append(0 if poly.is_zero() else max(poly.degree_in(i) for i in range(k)))
        return degrees

    def _reproduces(self, poly: MPoly, j: int, start: int) -> bool:
        return all(evaluate(poly, y) == row[j] for y, row in self.rows[start:])

    def separates(self) -> bool:
        """g takes d distinct values on the fiber over some grid node."""
        return any(
            distinct_root_count(univ_from_coeffs(row[::-1] + [Fraction(1)])) == self.d
            for _, row in self.rows
        )

    def charpoly(self, bounds: list[int], degrees: list[int]) -> CharPoly:
        """Interpolation on all nodes under min(bound_j, degree_j), surplus nodes as exact checks."""
        k = len(self.axes)
        coeffs = [
            interpolate([(y, row[j]) for y, row in self.rows], [min(b, e)] * k)
            for j, (b, e) in enumerate(zip(bounds, degrees))
        ]
        return CharPoly(
            d=self.d,
            coeffs=coeffs,
            bounds=list(bounds),
            provenance="interpolated",
            y_vars=[f"y{i + 1}" for i in range(k)],
            verified=False,
        )


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

    Eliminates the curve parameter from (f(phi)(t) - y, s - g(phi)(t));
    requires the leading parameter coefficient of f(phi) - y to be free
    of y, which holds whenever f(phi) is a nonconstant polynomial.
    """
    param = f.domain.require_param()
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
    res = sylvester_resultant(embed_t(fp) - y, s - embed_t(gp), 0)
    s_coeffs = coeffs_in_var(res, 2)
    if len(s_coeffs) - 1 != deg_f:
        raise NonMonicizable("resultant degree in the new variable is not deg f(phi)")
    lead = s_coeffs[-1]
    if not lead.is_constant():
        raise NonMonicizable("leading coefficient depends on y")
    lead_c = lead.constant_term()
    coeffs = []
    for j in range(1, deg_f + 1):
        a = s_coeffs[deg_f - j].scale(Fraction(1) / lead_c)
        coeffs.append(_project_to_y(a))
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


def _project_to_y(a: MPoly) -> MPoly:
    out = {}
    for (et, ey, es), c in a.terms.items():
        if et or es:
            raise NonMonicizable("resultant coefficient still involves an eliminated variable")
        out[(ey,)] = c
    return MPoly(1, out)


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
    witness_C: float | None
    violation: tuple | None  # ((x...), t) achieving the excess growth
    low_max: float
    high_max: float


def growth_inclusion_check(
    P: CharPoly,
    q: Fraction,
    R: float = 100.0,
    samples: int = 1000,
    seed: int = 0,
    prec: int = 256,
) -> GrowthCheck:
    """Sample test of the root-growth inclusion |t| <= C |x|^q for |x| >= R.

    Draws |x| log-uniform in [R, 10^4 R]; the inclusion holds when the
    max of |t|/|x|^q over the top half of the range does not exceed the
    bottom-half max by more than a factor 1.25.  On violation the sample
    achieving the top-half max is the witness.
    """
    if q <= 0:
        raise InvalidInput("q must be positive")
    if samples < 1:
        raise InvalidInput("samples must be at least 1")
    if R <= 1:
        raise InvalidInput("R must exceed 1")
    gen = _rng.child_rng(seed, "growth")
    k = P.k
    q_f = float(q)
    mid = R * 100.0
    low_max = 0.0
    high_max = 0.0
    best = 0.0
    top_witness = None
    with mp.workprec(prec):
        for _ in range(samples):
            r = R * 10.0 ** (4 * gen.random())
            x = _sample_point_of_norm(gen, k, r)
            # identically-zero coefficients stay exact so zero roots strip fast
            asc = [evaluate(a, x) for a in reversed(P.coeffs)] + [1]
            rs = roots_from_coeffs(asc, prec)
            denom = mp.mpf(r) ** q_f
            for root, _ in rs.roots:
                ratio = float(abs(root) / denom)
                best = max(best, ratio)
                if r <= mid:
                    low_max = max(low_max, ratio)
                elif ratio > high_max:
                    high_max = ratio
                    top_witness = (tuple(x), root)
    holds = high_max <= 1.25 * low_max or (high_max == 0.0 and low_max == 0.0)
    return GrowthCheck(
        holds=holds,
        q=Fraction(q),
        witness_C=best if holds else None,
        violation=None if holds else top_witness,
        low_max=low_max,
        high_max=high_max,
    )


def _sample_point_of_norm(gen, k: int, r: float):
    # one dominant coordinate of modulus r with a random phase; the rest zero
    phase = mp.expjpi(2 * mp.mpf(gen.random()))
    point = [mp.mpc(0)] * k
    point[gen.randrange(k)] = r * phase
    return point


def bounds_table(P: CharPoly):
    """Rows (j, deg a_j, bound, ok) for the coefficient degree bounds recorded in P."""
    rows = []
    for j, (a, bound) in enumerate(zip(P.coeffs, P.bounds), start=1):
        deg = total_degree(a)
        ok = deg == NEG_INF or deg <= bound
        rows.append((j, deg, bound, ok))
    return rows
