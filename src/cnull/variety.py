"""Algebraic sets with implicit generators and polynomial parametrizations.

A Variety holds the ambient dimension, the pure dimension, implicit
generators, and optionally a polynomial parametrization phi assumed to be
generically one-to-one onto the set.  Loading validates exactly that
every generator vanishes identically after substituting phi.

A CAMap is a tuple of rational-function components on the ambient space;
its continuity contract is that each component, composed with phi,
divides exactly, i.e. the rational function extends polynomially along
the parametrization.  The resulting pullbacks are cached eagerly and are
the workhorse of every downstream computation.  polynomial_map views
polynomials in m variables as such a map on C^m with the identity
parametrization; gradients and graph slices are counted that way, through
propermaps.fiber_count_at, the one fiber count for k in {1, 2}, exact.

Degrees by slicing share one loop: random_slice draws an affine form in
the coordinates, and slice_count retries non-generic draws under the
caller's salt and keeps the max of the first 3 generic counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import rng as _rng
from .errors import (
    DegenerateSlice,
    GeneratorNotAnnihilated,
    NotCAlgebraic,
    NotDivisible,
    ParamRequired,
    SchemaError,
)
from .polycore import MPoly, compose, distinct_root_count, evaluate, exact_divide, poly_from_json


@dataclass(frozen=True)
class Param:
    var_names: list[str]
    components: list[MPoly]  # m polynomials in k parameters

    @property
    def k(self) -> int:
        return len(self.var_names)


@dataclass(frozen=True)
class Variety:
    ambient_vars: list[str]
    dim: int
    generators: list[MPoly]
    param: Param | None = None

    @property
    def m(self) -> int:
        return len(self.ambient_vars)

    @property
    def k(self) -> int:
        return self.dim

    def require_param(self) -> Param:
        if self.param is None:
            raise ParamRequired("operation requires a polynomial parametrization")
        return self.param

    def contains(self, point) -> bool:
        """Exact membership test against the implicit generators."""
        return all(evaluate(g, point) == 0 for g in self.generators)


@dataclass(frozen=True)
class CAMap:
    """c-algebraic map given by rational components with polynomial pullbacks."""

    domain: Variety
    components: list[tuple[MPoly, MPoly]]  # (num, den) in ambient variables
    pullbacks: list[MPoly] = field(default_factory=list)  # in the k parameters

    @property
    def n(self) -> int:
        return len(self.components)


def load_variety(spec: dict) -> Variety:
    """Validated Variety from its JSON form."""
    if not isinstance(spec, dict):
        raise SchemaError("variety document must be a JSON object")
    names = spec.get("ambient_vars")
    if not isinstance(names, list) or not names or not all(isinstance(v, str) for v in names):
        raise SchemaError("'ambient_vars' must be a nonempty list of strings")
    dim = spec.get("dim")
    if type(dim) is not int or dim < 1:  # bool is an int subclass
        raise SchemaError("'dim' must be a positive integer")
    if dim > len(names):
        raise SchemaError("dim exceeds ambient dimension")
    gen_specs = spec.get("generators", [])
    if not isinstance(gen_specs, list):
        raise SchemaError("'generators' must be a list")
    gens = []
    for g in gen_specs:
        poly, _ = poly_from_json(g, expected_vars=names)
        gens.append(poly)
    param = None
    if spec.get("param") is not None:
        pspec = spec["param"]
        if not isinstance(pspec, dict):
            raise SchemaError("'param' must be a JSON object")
        pvars = pspec.get("vars")
        if not isinstance(pvars, list) or len(pvars) != dim:
            raise SchemaError("'param.vars' must list exactly dim parameter names")
        comps = pspec.get("components")
        if not isinstance(comps, list) or len(comps) != len(names):
            raise SchemaError("'param.components' must give one polynomial per ambient variable")
        components = []
        for c in comps:
            poly, _ = poly_from_json(c, expected_vars=pvars)
            components.append(poly)
        if all(p.is_constant() for p in components):
            raise SchemaError("parametrization is constant")
        param = Param(var_names=list(pvars), components=components)
        for g in gens:
            if not compose(g, components).is_zero():
                raise GeneratorNotAnnihilated(
                    "a generator does not vanish along the parametrization"
                )
    return Variety(ambient_vars=list(names), dim=dim, generators=gens, param=param)


def load_map(domain: Variety, spec: dict) -> CAMap:
    """Validated CAMap; computes and caches the pullbacks when phi exists."""
    if not isinstance(spec, dict) or not isinstance(spec.get("components"), list):
        raise SchemaError("map document must have a 'components' list")
    comps = []
    for item in spec["components"]:
        if not isinstance(item, dict) or "num" not in item:
            raise SchemaError("each map component needs 'num' (and optional 'den')")
        num, _ = poly_from_json(item["num"], expected_vars=domain.ambient_vars)
        if item.get("den") is None:
            den = MPoly.const(domain.m, 1)
        else:
            den, _ = poly_from_json(item["den"], expected_vars=domain.ambient_vars)
        if den.is_zero():
            raise SchemaError("zero denominator")
        comps.append((num, den))
    if not comps:
        raise SchemaError("map needs at least one component")
    return make_map(domain, comps)


def make_map(domain: Variety, comps: list[tuple[MPoly, MPoly]]) -> CAMap:
    pullbacks = []
    if domain.param is not None:
        phi = domain.param.components
        for num, den in comps:
            num_t = compose(num, phi)
            den_t = compose(den, phi)
            if den_t.is_zero():
                raise NotCAlgebraic("denominator vanishes identically on the set")
            try:
                pullbacks.append(exact_divide(num_t, den_t))
            except NotDivisible as exc:
                raise NotCAlgebraic(
                    "component does not extend polynomially along the parametrization"
                ) from exc
    return CAMap(domain=domain, components=comps, pullbacks=pullbacks)


def polynomial_map(polys: list[MPoly]) -> CAMap:
    """The polynomials in m variables as a map on C^m with the identity parametrization."""
    m = polys[0].var_count
    identity = [MPoly.variable(m, i) for i in range(m)]
    domain = Variety(
        ambient_vars=[f"x{i + 1}" for i in range(m)],
        dim=m,
        generators=[],
        param=Param(var_names=[f"t{i + 1}" for i in range(m)], components=identity),
    )
    one = MPoly.const(m, 1)
    return CAMap(domain=domain, components=[(p, one) for p in polys], pullbacks=list(polys))


# ---------------------------------------------------------------------------
# degrees by random affine slicing

_SLICE_DRAWS = 15
_SLICES_KEPT = 3


def random_slice(gen, coords: list[MPoly]) -> MPoly:
    """sum lam_i coords_i - c for a random nonzero rational vector lam and rational c."""
    lam = _rng.rand_nonzero_vector(gen, len(coords))
    c = _rng.rand_rational(gen)
    var_count = coords[0].var_count
    sliced = MPoly(var_count, {})
    for coeff, p in zip(lam, coords):
        sliced = sliced + p.scale(coeff)
    return sliced - MPoly.const(var_count, c)


def slice_count(seed: int, salt: str, count) -> int:
    """Max of the first 3 generic slice counts within 15 draws.

    Draw i calls count(child_rng(seed, f"{salt}:{i}")), which returns the
    number of points on its random slices, or None for a non-generic draw.
    """
    counts = []
    for attempt in range(_SLICE_DRAWS):
        n = count(_rng.child_rng(seed, f"{salt}:{attempt}"))
        if n is not None:
            counts.append(n)
            if len(counts) == _SLICES_KEPT:
                return max(counts)
    raise DegenerateSlice("no generic slice found within the retry budget")


def curve_slice_count(coords: list[MPoly], seed: int, salt: str) -> int:
    """Points of the curve t -> coords(t) on a random affine hyperplane, exactly.

    Counts the distinct roots of <lam, coords(t)> - c for random rational
    (lam, c) as its squarefree degree; the maximum over 3 independent
    slices is reported, retrying non-generic draws within a fixed budget.
    """

    def count(gen):
        sliced = random_slice(gen, coords)
        return None if sliced.is_constant() else distinct_root_count(sliced)

    return slice_count(seed, salt, count)


def degree_by_slicing(v: Variety, seed: int = 0) -> int:
    """Degree of a parametrized curve: curve_slice_count of its parametrization."""
    param = v.require_param()
    if param.k != 1:
        raise ParamRequired("slicing degree implemented for curves (one parameter)")
    return curve_slice_count(param.components, seed, "slice")


def sample_point(v: Variety, seed: int = 0) -> list[Fraction]:
    """phi(t0) for a pseudo-random rational parameter point of height <= 100."""
    param = v.require_param()
    gen = _rng.child_rng(seed, "sample")
    t0 = _rng.rand_rational_vector(gen, param.k)
    return [evaluate(c, t0) for c in param.components]
