"""Extraction and exact verification of Nullstellensatz certificates.

Each route produces an identity g^N = sum h_j f_j on the set, witnessed
by expressions h_j in the symbols (y_1..y_n, t) that are evaluated at
(f(x), g(x)).  Verification is always the same exact computation: pull
everything back along the parametrization and check that the difference
is the zero polynomial of the parameter ring.  A certificate is returned
only after that check passes; verify_certificate recomputes it from
scratch for any certificate, however it was produced.

Routes: the partial case using only the first l components, which
builds every characteristic-polynomial certificate and decides the
vanishing hypothesis exactly (every a_j(0) = 0), the square case (as
many components as dimensions) as the partial case with l = k, the
overdetermined case on a curve (the vanishing hypothesis decided by one
exact gcd, then the linear-algebra search up to the theorem's exponent
and Jelonek's degree cap), and the underdetermined strictly regular case
through an affine completion, with the exponent taken from the degree of
the cycle of zeroes.  Cycle multiplicities are local multiplicities of
the completed map, computed exactly by propermaps.local_multiplicity
from the squarefree factors of a fiber polynomial.  The cycle of a
square map is its zero fiber, of degree d(f) (propermaps.fiber_poly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import rng as _rng
from .charpoly import build_charpoly
from .errors import (
    ComponentNotInFiber,
    CycleDataUnavailable,
    ExactVerificationFailed,
    InvalidInput,
    NoSolutionWithinCap,
    NotInIdeal,
    NotProper,
    NotStrictlyRegular,
    SchemaError,
    VanishingHypothesisFailed,
)
from .polycore import (
    MPoly,
    _grlex_key,
    _integer_terms,
    _primitive,
    compose,
    distinct_root_count,
    evaluate,
    poly_from_json,
    poly_to_json,
    total_degree,
    univ_gcd,
)
from .propermaps import (
    check_proper,
    fiber_poly,
    image_degree,
    image_slice_points,
    local_multiplicity,
)
from .variety import CAMap, Variety, degree_by_slicing, load_variety


@dataclass(frozen=True)
class Certificate:
    exponent: int
    h_exprs: list[MPoly]  # in (y_1..y_n [, v_1..v_aux], t)
    theorem: str
    verified: bool
    diagnostics: str = ""
    aux_forms: list[MPoly] | None = None  # affine forms whose values feed the v symbols


@dataclass(frozen=True)
class CycleData:
    components: list[tuple[Variety, int, int]]  # (component, multiplicity, degree)
    total_degree: int


def _h_var_names(n: int, aux: int) -> list[str]:
    names = [f"y{i + 1}" for i in range(n)]
    names += [f"v{i + 1}" for i in range(aux)]
    return names + ["t"]


def certificate_to_json(cert: Certificate, ambient_vars: list[str] | None = None) -> dict:
    aux = len(cert.aux_forms) if cert.aux_forms else 0
    n = (cert.h_exprs[0].var_count - 1 - aux) if cert.h_exprs else 0
    names = _h_var_names(n, aux)
    out = {
        "N": cert.exponent,
        "theorem": cert.theorem,
        "h": [poly_to_json(h, names) for h in cert.h_exprs],
        "verified": cert.verified,
        "diagnostics": cert.diagnostics,
    }
    if cert.aux_forms:
        if ambient_vars is None:
            raise ValueError("ambient variable names needed to serialize auxiliary forms")
        out["aux_forms"] = [poly_to_json(a, ambient_vars) for a in cert.aux_forms]
    return out


def certificate_from_json(obj: dict, ambient_vars: list[str] | None = None) -> Certificate:
    if not isinstance(obj, dict) or "N" not in obj or "h" not in obj:
        raise SchemaError("certificate JSON must have 'N' and 'h'")
    try:
        if isinstance(obj["N"], (bool, float)) or int(obj["N"]) < 0:
            raise ValueError("booleans, floats and negative integers are not exponents")
        exponent = int(obj["N"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"'N' must be a nonnegative integer, got {obj['N']!r}") from exc
    if not isinstance(obj["h"], list):
        raise SchemaError("'h' must be a list")
    h = []
    for item in obj["h"]:
        poly, _ = poly_from_json(item)
        h.append(poly)
    aux = None
    if obj.get("aux_forms"):
        if not isinstance(obj["aux_forms"], list):
            raise SchemaError("'aux_forms' must be a list")
        aux = []
        for item in obj["aux_forms"]:
            poly, _ = poly_from_json(item, expected_vars=ambient_vars)
            aux.append(poly)
    return Certificate(
        exponent=exponent,
        h_exprs=h,
        theorem=str(obj.get("theorem", "unknown")),
        verified=False,  # only _certified sets the flag
        diagnostics=str(obj.get("diagnostics", "")),
        aux_forms=aux,
    )


# ---------------------------------------------------------------------------
# coefficient splitting


def split_coeff(a: MPoly, ell: int) -> list[MPoly]:
    """Write a = sum_{i<=ell} y_i * a_i by the lowest-dividing-index rule.

    Raises NotInIdeal when some monomial avoids y_1..y_ell, which is
    exactly the failure of a to vanish on {0}^ell x C^(k-ell).
    """
    if not 1 <= ell <= a.var_count:
        raise InvalidInput("ell out of range")
    parts: list[dict] = [dict() for _ in range(ell)]
    for expo, coeff in a.terms.items():
        idx = next((i for i in range(ell) if expo[i] > 0), None)
        if idx is None:
            raise NotInIdeal(
                f"monomial {expo} involves none of the first {ell} variables"
            )
        reduced = list(expo)
        reduced[idx] -= 1
        key = tuple(reduced)
        parts[idx][key] = parts[idx].get(key, Fraction(0)) + coeff
    return [MPoly(a.var_count, p) for p in parts]


# ---------------------------------------------------------------------------
# verification


def verify_certificate(f: CAMap, g: CAMap, cert: Certificate) -> bool:
    """Exact recomputation of g^N(phi) - sum f_j(phi) h_j(f(phi), g(phi)) = 0."""
    subs = list(f.pullbacks)
    if cert.aux_forms:
        phi = f.domain.param.components
        subs += [compose(form, phi) for form in cert.aux_forms]
    subs.append(g.pullbacks[0])
    if len(cert.h_exprs) != f.n:
        return False
    acc = g.pullbacks[0] ** cert.exponent
    for fp, h in zip(f.pullbacks, cert.h_exprs):
        if h.var_count != len(subs):
            return False
        acc = acc - fp * compose(h, subs)
    return acc.is_zero()


def _certified(f: CAMap, g: CAMap, cert: Certificate) -> Certificate:
    if not verify_certificate(f, g, cert):
        raise ExactVerificationFailed(
            f"{cert.theorem} certificate failed the exact identity"
        )
    return replace(cert, verified=True)


# ---------------------------------------------------------------------------
# the square (proper) and partial routes


def certify_proper(f: CAMap, g: CAMap, seed: int = 0, prec: int = 256) -> Certificate:
    """Certificate with exponent d(f) for a square proper map: the partial route on all components."""
    return certify_partial(f, f.domain.param.k, g, seed, prec)


def certify_partial(f: CAMap, ell: int, g: CAMap, seed: int = 0, prec: int = 256) -> Certificate:
    """Certificate with exponent d(f) using only the first ell components.

    The coefficients of the characteristic polynomial of g relative to f
    vanish on {0}^ell x C^(k-ell) (checked exactly); regrouping the
    identity P(f, g) = 0 by the lowest dividing variable yields the h_j.
    """
    k = f.domain.param.k
    if f.n != k:
        raise InvalidInput("partial route needs as many components as dimensions")
    if not 1 <= ell <= k:
        raise InvalidInput("ell out of range")
    P = build_charpoly(f, g, seed, prec)
    d = P.d
    if ell == k:
        # square route: nonzero a_j(0) is the vanishing-hypothesis failure;
        # with ell < k the constant monomial surfaces as NotInIdeal below
        for a in P.coeffs:
            if a.constant_term() != 0:
                raise VanishingHypothesisFailed(
                    "a coefficient of the characteristic polynomial has a nonzero constant term"
                )
    splits = []
    for a in P.coeffs:
        splits.append(split_coeff(a, ell))
    h_exprs = []
    for i in range(f.n):
        acc = MPoly(k + 1)
        if i < ell:
            for j in range(1, d + 1):
                part = splits[j - 1][i]
                acc = acc - _embed_with_t(part) * _t_power(k + 1, d - j)
        h_exprs.append(acc)
    theorem = "proper" if ell == k else "partial"
    cert = Certificate(exponent=d, h_exprs=h_exprs, theorem=theorem, verified=False)
    return _certified(f, g, cert)


def _embed_with_t(a: MPoly) -> MPoly:
    return MPoly(a.var_count + 1, {e + (0,): c for e, c in a.terms.items()})


def _t_power(var_count: int, e: int) -> MPoly:
    expo = [0] * var_count
    expo[-1] = e
    return MPoly(var_count, {tuple(expo): Fraction(1)})


# ---------------------------------------------------------------------------
# the overdetermined route: an exact hypothesis test, then a capped search


def certify_general(f: CAMap, g: CAMap, seed: int = 0) -> Certificate:
    """Certificate with exponent at most d(f) * deg f(A) for an overdetermined map on a curve.

    The vanishing hypothesis f^-1(0) in g^-1(0) is decided exactly: the
    zero fiber is the root set of the fiber gcd D, and g vanishes on it
    when gcd(D, g o phi) has as many distinct roots as D.  Then the
    bounded-degree search runs with degree caps 1, 2, ... up to
    2 deg W - 1, where W = (f, g)(A): Jelonek's effective Nullstellensatz
    on the curve W bounds the exponent by deg W and deg(h_j f_j) by
    (1 + deg g) deg W.  A search that runs out raises NoSolutionWithinCap,
    a search limit and not a verdict.
    """
    k = f.domain.param.k
    n = f.n
    if n <= k:
        raise InvalidInput("overdetermined route needs more components than dimensions")
    check_proper(f, seed)
    product = image_slice_points(f)  # d(f) * deg f(A), the theorem's exponent
    fiber = fiber_poly(f, [0] * n)
    if not fiber.is_constant():
        common = univ_gcd(fiber, g.pullbacks[0])
        if common.is_constant() or distinct_root_count(common) != distinct_root_count(fiber):
            raise VanishingHypothesisFailed("g does not vanish on all of f^-1(0) (exact gcd test)")
    fg = CAMap(f.domain, f.components + g.components, f.pullbacks + g.pullbacks)
    deg_w = image_degree(fg, seed)  # W = (f, g)(A)
    for cap in range(1, 2 * deg_w):
        try:
            found = certify_fallback(f, g, product, cap)
        except NoSolutionWithinCap:
            continue
        return replace(
            found,
            theorem="general",
            diagnostics=f"vanishing hypothesis holds (exact gcd test); least N {found.exponent} "
            f"at degree cap {cap}; d(f)*deg f(A) = {product}; deg (f, g)(A) = {deg_w}",
        )
    raise NoSolutionWithinCap(
        f"no certificate with N <= {product} and degree cap <= 2 deg (f, g)(A) - 1 = {2 * deg_w - 1}"
    )


# ---------------------------------------------------------------------------
# bounded-degree linear-algebra search


def certify_fallback(
    f: CAMap,
    g: CAMap,
    exponent: int,
    degree_cap: int = 4,
) -> Certificate:
    """Exact search for h_j of bounded degree with g^N = sum h_j f_j.

    Sets up the identity in the parameter ring as a rational linear
    system in the coefficients of the h_j and solves it exactly; the
    smallest workable exponent up to the given one is reported.
    """
    if exponent < 1:
        raise InvalidInput("exponent must be positive")
    param = f.domain.param
    n = f.n
    gp = g.pullbacks[0]
    subs = list(f.pullbacks) + [gp]
    monos = _monomials_up_to(n + 1, degree_cap)
    values = _monomial_values(monos, subs, param.k)
    columns = [(j, e, f.pullbacks[j] * values[e]) for j in range(n) for e in monos]  # (j, expo, basis poly)
    powers = [gp]  # g^1 .. g^exponent, one right-hand side each
    while len(powers) < exponent:
        powers.append(powers[-1] * gp)
    solutions = _solve_exact([c[2] for c in columns], powers)
    found = next((N for N, solution in enumerate(solutions, start=1) if solution is not None), None)
    if found is None:
        raise NoSolutionWithinCap(
            f"no bounded-degree certificate with exponent <= {exponent} and cap {degree_cap}"
        )
    h = [dict() for _ in range(n)]
    for (j, expo, _), value in zip(columns, solutions[found - 1]):
        if value != 0:
            h[j][expo] = h[j].get(expo, Fraction(0)) + value
    cert = Certificate(
        exponent=found,
        h_exprs=[MPoly(n + 1, t) for t in h],
        theorem="fallback",
        verified=False,
    )
    return _certified(f, g, cert)


def _monomials_up_to(var_count: int, cap: int):
    out = []

    def rec(prefix, remaining, left):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(left + 1):
            rec(prefix + [e], remaining - 1, left - e)

    rec([], var_count, cap)
    out.sort(key=_grlex_key)
    return out


def _monomial_values(monos, subs, k: int) -> dict:
    """The monomials monos (all up to a degree, in grlex order) at subs: one product each."""
    values = {monos[0]: MPoly.const(k, 1)}
    for expo in monos[1:]:  # the monomial below expo in its first variable, times that substitution
        i = next(i for i, e in enumerate(expo) if e)
        values[expo] = values[expo[:i] + (expo[i] - 1,) + expo[i + 1:]] * subs[i]
    return values


def _solve_exact(basis: list[MPoly], rhss: list[MPoly]) -> list:
    """For each rhs of rhss, the particular rational solution of sum x_i basis_i = rhs, or None.

    One fraction-free Gauss-Jordan elimination, which carries every rhs
    as a column after the basis.  The rows are the monomials of the
    basis; a rhs with a term outside them is None at once.  Each column
    is cleared of its denominators, which rescales the unknowns and
    moves no zero entry, and each row is divided by its content.  A row
    operation replaces a row by (p/g) row - (e/g) pivot row, for the
    pivot p, the row's entry e in the pivot column and g = gcd(p, e),
    and divides it by its content.  Up to the column scales, each row
    stays a nonzero multiple of its row in the elimination over the
    rationals, so the pivots (the first row at or below the current one
    with a nonzero entry, columns in their given order) and each
    solution are those of solving for that rhs alone: free variables are
    set to zero.
    """
    keys = sorted(set().union(*(b.terms for b in basis)), key=_grlex_key)
    key_index = {e: i for i, e in enumerate(keys)}
    live = [m for m, rhs in enumerate(rhss) if all(e in key_index for e in rhs.terms)]
    rows = len(keys)
    cols = len(basis)
    columns = [_integer_terms(b.terms) for b in basis + [rhss[m] for m in live]]  # (integer terms, denominator)
    a = [[0] * len(columns) for _ in range(rows)]
    for c, (terms, _) in enumerate(columns):
        for e, v in terms.items():
            a[key_index[e]][c] = v
    a = [_primitive(row) for row in a]
    pivot_rows: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        pv = prow[c]
        for i in range(rows):
            row = a[i]
            if i != r and row[c]:
                g = math.gcd(pv, row[c])
                m, f = pv // g, row[c] // g
                a[i] = _primitive([m * x - f * y for x, y in zip(row, prow)])
        pivot_rows.append((r, c))
        r += 1
        if r == rows:
            break
    solutions = [None] * len(rhss)
    for rc, m in enumerate(live, start=cols):
        if any(a[i][rc] for i in range(r, rows)):
            continue
        solution = [Fraction(0)] * cols
        for row, col in pivot_rows:  # x_col = den(basis_col) * (the row's rhs over its pivot) / den(rhs)
            solution[col] = Fraction(a[row][rc] * columns[col][1], a[row][col] * columns[rc][1])
        solutions[m] = solution
    return solutions


# ---------------------------------------------------------------------------
# the underdetermined (strictly regular) route


def _affine_completion(f: CAMap, forms: list[MPoly]) -> CAMap:
    m = f.domain.m
    one = MPoly.const(m, 1)
    phi = f.domain.param.components
    comps = list(f.components) + [(form, one) for form in forms]
    pulls = list(f.pullbacks) + [compose(form, phi) for form in forms]
    return CAMap(domain=f.domain, components=comps, pullbacks=pulls)


def _random_affine_forms(domain: Variety, count: int, gen) -> list[MPoly]:
    forms = []
    for _ in range(count):
        terms = {}
        for i in range(domain.m):
            coeff = _rng.rand_rational(gen, height=20)
            if coeff != 0:
                expo = [0] * domain.m
                expo[i] = 1
                terms[tuple(expo)] = coeff
        const = _rng.rand_rational(gen, height=20)
        if const != 0:
            terms[(0,) * domain.m] = const
        forms.append(MPoly(domain.m, terms))
    return forms


def _proper_completion(f: CAMap, forms: list[MPoly], seed: int) -> CAMap:
    """f completed by the affine forms to a square map; NotStrictlyRegular unless proper."""
    if len(forms) != f.domain.param.k - f.n:
        raise InvalidInput("need exactly dim - components affine forms")
    if any(total_degree(form) > 1 for form in forms):
        raise InvalidInput("completion forms must be affine")
    completed = _affine_completion(f, forms)
    try:
        check_proper(completed, seed)
    except NotProper as exc:
        raise NotStrictlyRegular("the affine completion is not proper") from exc
    return completed


def certify_strictly_regular(
    f: CAMap,
    g: CAMap,
    forms: list[MPoly] | None = None,
    cycle: list | None = None,
    seed: int = 0,
) -> Certificate:
    """Certificate with exponent deg Z_f for a strictly regular map.

    Completes f with affine forms (drawn at random when forms is None) to
    a proper map, runs the partial route there, and pads the identity by
    the required power of g so the final exponent is the degree of the
    cycle of zeroes, whose components (as cycle_degree takes them) must
    be given.
    """
    k = f.domain.param.k
    n = f.n
    if n >= k:
        raise InvalidInput("strictly regular route needs fewer components than dimensions")
    if cycle is None:
        raise CycleDataUnavailable(
            "cycle estimation needs parametrized components of the zero fiber"
        )
    if forms is None:
        for attempt in range(5):
            gen = _rng.child_rng(seed, f"forms:{attempt}")
            forms = _random_affine_forms(f.domain, k - n, gen)
            try:
                completed = _proper_completion(f, forms, seed)
                break
            except NotStrictlyRegular:
                continue
        else:
            raise NotStrictlyRegular(
                "no affine completion became proper within the retry budget"
            )
    else:
        completed = _proper_completion(f, forms, seed)
    deg_cycle = _zero_cycle(f, completed, cycle, seed).total_degree
    inner = certify_partial(completed, n, g, seed)
    d_completed = inner.exponent
    if deg_cycle < d_completed:
        raise NotStrictlyRegular(
            f"cycle degree {deg_cycle} is below the completed map degree {d_completed}"
        )
    pad = deg_cycle - d_completed
    h = []
    uses_aux = False
    for expr in inner.h_exprs[:n]:
        padded = expr * _t_power(k + 1, pad)
        if any(any(e[n:k]) for e in padded.terms):
            uses_aux = True
        h.append(padded)
    if not uses_aux:
        h = [_drop_middle_axes(expr, n) for expr in h]
        aux_forms = None
    else:
        aux_forms = forms
    cert = Certificate(
        exponent=deg_cycle,
        h_exprs=h,
        theorem="strictly_regular",
        verified=False,
        diagnostics=f"completed-map degree {d_completed}, pad {pad}",
        aux_forms=aux_forms,
    )
    return _certified(f, g, cert)


def _drop_middle_axes(expr: MPoly, n: int) -> MPoly:
    return MPoly(n + 1, {e[:n] + (e[-1],): c for e, c in expr.terms.items()})


# ---------------------------------------------------------------------------
# degree of the cycle of zeroes


def cycle_degree(f: CAMap, components, forms: list[MPoly], seed: int = 0) -> CycleData:
    """Multiplicity-weighted degree sum over the components of the zero fiber.

    components: list of Variety (or (Variety, multiplicity) with a
    user-supplied multiplicity overriding the computed one).  Each
    component must be a parametrized curve contained in the zero fiber,
    checked exactly through the pullbacks.  The computed multiplicity is
    the exact local multiplicity (propermaps.local_multiplicity) of f
    completed by the forms, at a random point of the component.
    """
    return _zero_cycle(f, _proper_completion(f, forms, seed), components, seed)


def _zero_cycle(f: CAMap, completed: CAMap, components, seed: int) -> CycleData:
    """cycle_degree on a completion that _proper_completion has checked."""
    rows = []
    total = 0
    for entry in components:
        comp, override = entry if isinstance(entry, tuple) else (entry, None)
        _check_component_in_fiber(f, comp)
        deg_v = degree_by_slicing(comp)
        mult = override if override is not None else _component_multiplicity(completed, comp, seed)
        rows.append((comp, mult, deg_v))
        total += mult * deg_v
    return CycleData(components=rows, total_degree=total)


def _check_component_in_fiber(f: CAMap, comp: Variety):
    param = comp.param
    if comp.m != f.domain.m:
        raise InvalidInput("component lives in a different ambient space")
    for num, den in f.components:
        den_c = compose(den, param.components)
        if den_c.is_zero():
            raise ComponentNotInFiber("a denominator vanishes identically on the component")
        if not compose(num, param.components).is_zero():
            raise ComponentNotInFiber(
                "a map component does not vanish on the supplied component"
            )


def _component_multiplicity(completed: CAMap, comp: Variety, seed: int) -> int:
    """Local multiplicity of the completed map at a random point of the component."""
    gen = _rng.child_rng(seed, "cycle-point")
    s0 = [_rng.rand_rational(gen, height=30) for _ in range(comp.param.k)]
    point = [evaluate(c, s0) for c in comp.param.components]
    return local_multiplicity(completed, point)


def load_cycle_components(obj: dict) -> list:
    """Parse {"components": [{"variety": {...}, "multiplicity": int?}, ...]}."""
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise SchemaError("cycle JSON must have a 'components' list")
    out = []
    for item in obj["components"]:
        if not isinstance(item, dict) or "variety" not in item:
            raise SchemaError("each cycle component needs a 'variety'")
        comp = load_variety(item["variety"])
        mult = item.get("multiplicity")
        if mult is not None and (type(mult) is not int or mult < 1):  # bool is an int subclass
            raise SchemaError("multiplicity must be a positive integer")
        out.append((comp, mult))
    return out
