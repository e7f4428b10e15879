"""Algebraic sets with implicit generators and polynomial parametrizations.

A Variety holds the ambient dimension, the pure dimension, implicit
generators, and a polynomial parametrization phi, generically one-to-one
onto the set.  Every computation runs through phi, so loading rejects a
set without one (ParamRequired).  It validates exactly that every
generator vanishes identically after substituting phi, and on a curve
that phi is one-to-one (ParamNotOneToOne); a two-parameter phi is not
checked.

A CAMap is a tuple of rational-function components on the ambient space;
its continuity contract is that each component, composed with phi,
divides exactly, i.e. the rational function extends polynomially along
the parametrization.  The resulting pullbacks are cached eagerly and are
the workhorse of every downstream computation.  polynomial_map views
polynomials in m variables as such a map on C^m with the identity
parametrization.  A gradient is profiled that way, through
propermaps.profile_map like any map, and so is a linear projection of
a graph, whose degree propermaps.graph_degree reads.

The degree of a parametrized curve needs no slice: a generic hyperplane
meets it in max_i deg phi_i points (curve_degree).  Nothing in this
module draws at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import (
    DegenerateSlice,
    GeneratorNotAnnihilated,
    InconsistentFiberCounts,
    NotCAlgebraic,
    NotDivisible,
    ParamNotOneToOne,
    ParamRequired,
    SchemaError,
)
from .polycore import MPoly, _univ_rem, compose, evaluate, exact_divide, poly_from_json, total_degree, univ_gcd
from .rng import FIXED_NODES


@dataclass(frozen=True)
class Param:
    var_names: list[str]
    components: list[MPoly]  # m polynomials in k parameters

    @property
    def k(self) -> int:
        return len(self.var_names)

    @property
    def is_identity(self) -> bool:
        return self.components == [MPoly.variable(self.k, i) for i in range(self.k)]


@dataclass(frozen=True)
class Variety:
    ambient_vars: list[str]
    dim: int
    generators: list[MPoly]
    param: Param

    @property
    def m(self) -> int:
        return len(self.ambient_vars)

    @property
    def k(self) -> int:
        return self.dim

    def contains(self, point) -> bool:
        """Exact membership test against the implicit generators."""
        return all(evaluate(g, point) == 0 for g in self.generators)


@dataclass(frozen=True)
class CAMap:
    """c-algebraic map given by rational components with polynomial pullbacks."""

    domain: Variety
    components: list[tuple[MPoly, MPoly]]  # (num, den) in ambient variables
    pullbacks: list[MPoly]  # in the k parameters

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
    if len(set(names)) != len(names):
        raise SchemaError(f"'ambient_vars' repeats a name: {names}")
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
    pspec = spec.get("param")
    if pspec is None:
        raise ParamRequired("'param' is required: every operation runs through a polynomial parametrization")
    if not isinstance(pspec, dict):
        raise SchemaError("'param' must be a JSON object")
    pvars = pspec.get("vars")
    if not isinstance(pvars, list) or len(pvars) != dim or not all(isinstance(v, str) for v in pvars):
        raise SchemaError("'param.vars' must list exactly dim parameter names")
    if len(set(pvars)) != len(pvars):
        raise SchemaError(f"'param.vars' repeats a name: {pvars}")
    comps = pspec.get("components")
    if not isinstance(comps, list) or len(comps) != len(names):
        raise SchemaError("'param.components' must give one polynomial per ambient variable")
    components = []
    for c in comps:
        poly, _ = poly_from_json(c, expected_vars=pvars)
        components.append(poly)
    if all(p.is_constant() for p in components):
        raise SchemaError("parametrization is constant")
    for g in gens:
        if not compose(g, components).is_zero():
            raise GeneratorNotAnnihilated(
                "a generator does not vanish along the parametrization"
            )
    if dim == 1 and (m := curve_generic_degree(components, FIXED_NODES)) != 1:
        raise ParamNotOneToOne(f"the parametrization is {m}-to-one onto the curve; it must be one-to-one")
    param = Param(var_names=list(pvars), components=components)
    return Variety(ambient_vars=list(names), dim=dim, generators=gens, param=param)


def load_map(domain: Variety, spec: dict) -> CAMap:
    """Validated CAMap with its pullbacks along phi computed and cached."""
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
    phi = domain.param.components
    pullbacks = []
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
# curve degrees


def curve_degree(coords: list[MPoly]) -> int:
    """Parameter points of t -> coords(t) on a generic affine hyperplane: max_i deg coords_i.

    <lam, coords(t)> - c keeps that degree for lam off finitely many
    hyperplanes, and has distinct roots for c off finitely many critical
    values.  DegenerateSlice for a constant curve, which no hyperplane
    meets in finitely many points.
    """
    degree = max(total_degree(c) for c in coords)
    if degree < 1:
        raise DegenerateSlice("a constant curve has no generic hyperplane slice")
    return int(degree)


def curve_generic_degree(polys: list[MPoly], points) -> int:
    """The generic number of parameter preimages of t -> polys(t), exactly, for polys not all constant.

    At each t0 of points in turn take the fiber gcd h = gcd_i(p_i - p_i(t0)).
    Once every p_i lies in Q[h], deg h is that number: then h(t) - h(s)
    divides every p_i(t) - p_i(s), so the generic fiber has at least deg h
    points, and the generic fiber gcd specialises into h, so it has at most
    deg h.  By polynomial Lueroth every t0 off a finite set passes; a t0
    over a node of the image fails, and the next is tried.
    InconsistentFiberCounts when none passes.
    """
    for t0 in points:
        h = _fiber_gcd(polys, t0)
        if all(_in_subring(p, h) for p in polys):
            return h.degree_in(0)
    raise InconsistentFiberCounts("no fiber gcd at the points tried generates the components")


def _fiber_gcd(polys: list[MPoly], t0) -> MPoly:
    """gcd_i(p_i - p_i(t0)): the fiber of t -> polys(t) through t0, with multiplicity."""
    return reduce(univ_gcd, [p - MPoly.const(1, evaluate(p, [t0])) for p in polys])


def _in_subring(p: MPoly, h: MPoly) -> bool:
    """Whether the univariate p lies in Q[h] for a nonconstant h: its digits in base h are constants."""
    while not p.is_constant():
        digit = _univ_rem(p, h)
        if not digit.is_constant():
            return False
        p = exact_divide(p - digit, h)
    return True


def degree_by_slicing(v: Variety) -> int:
    """Degree of a parametrized curve: curve_degree of its generically one-to-one parametrization."""
    param = v.param
    if param.k != 1:
        raise ParamRequired("slicing degree implemented for curves (one parameter)")
    return curve_degree(param.components)
