"""Extraction and exact verification of Nullstellensatz certificates.

Each route produces an identity g^N = sum h_j f_j on the set, witnessed
by expressions h_j in the symbols (y_1..y_n, t) that are evaluated at
(f(x), g(x)).  Verification is always the same exact computation: pull
everything back along the parametrization and check that the difference
is the zero polynomial of the parameter ring.  A certificate is returned
only after that check passes; verify_certificate recomputes it from
scratch for any certificate, however it was produced.

Routes: the square case (as many components as dimensions), the partial
case using only the first l components, the overdetermined case through
a random linear epimorphism (with the vanishing hypothesis checked per
draw and a linear-algebra fallback search when every draw fails), and
the underdetermined strictly regular case through an affine completion,
with the exponent taken from the degree of the cycle of zeroes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import rng as _rng
from .charpoly import CharPoly, build_charpoly
from .errors import (
    ComponentNotInFiber,
    CycleDataUnavailable,
    ExactVerificationFailed,
    InconsistentFiberCounts,
    InvalidInput,
    NoSolutionWithinCap,
    NotInIdeal,
    NotProper,
    NotStrictlyRegular,
    ParamRequired,
    PrecisionExhausted,
    SchemaError,
    VanishingHypothesisFailed,
)
from .numroots import ladder_from, solve_system_2
from .polycore import (
    MPoly,
    _grlex_key,
    compose,
    evaluate,
    poly_from_json,
    poly_to_json,
    total_degree,
)
from .propermaps import (
    check_proper,
    count_near,
    fiber_points,
    geometric_degree,
    image_degree,
    local_multiplicity_at,
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

    @property
    def N(self) -> int:
        return self.exponent


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
        exponent = int(obj["N"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"'N' must be an integer, got {obj['N']!r}") from exc
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
        verified=bool(obj.get("verified", False)),
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
        phi = f.domain.require_param().components
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
    return Certificate(
        exponent=cert.exponent,
        h_exprs=cert.h_exprs,
        theorem=cert.theorem,
        verified=True,
        diagnostics=cert.diagnostics,
        aux_forms=cert.aux_forms,
    )


# ---------------------------------------------------------------------------
# the square (proper) and partial routes


def certify_proper(
    f: CAMap,
    g: CAMap,
    seed: int = 0,
    prec: int = 256,
    theorem: str = "proper",
) -> Certificate:
    """Certificate with exponent d(f) for a square proper map.

    The coefficients of the characteristic polynomial of g relative to f
    vanish at the origin (checked exactly); regrouping the identity
    P(f, g) = 0 by the lowest dividing variable yields the h_j.
    """
    k = f.domain.require_param().k
    if f.n != k:
        raise InvalidInput("square route needs as many components as dimensions")
    with mp.workprec(prec):
        zero_fiber = fiber_points(f, [Fraction(0)] * k, prec)
        gaps = [abs(evaluate(g.pullbacks[0], t)) for t in zero_fiber]
    if gaps and max(gaps) > mp.mpf(2) ** (-prec // 4):
        raise VanishingHypothesisFailed(
            "g does not vanish on the fiber of f above the origin"
        )
    P = build_charpoly(f, g, seed, prec)
    return _certificate_from_charpoly(f, g, P, ell=k, theorem=theorem)


def certify_partial(f: CAMap, ell: int, g: CAMap, seed: int = 0, prec: int = 256) -> Certificate:
    """Certificate with exponent d(f) using only the first ell components."""
    k = f.domain.require_param().k
    if f.n != k:
        raise InvalidInput("partial route needs as many components as dimensions")
    if not 1 <= ell <= k:
        raise InvalidInput("ell out of range")
    P = build_charpoly(f, g, seed, prec)
    theorem = "proper" if ell == k else "partial"
    return _certificate_from_charpoly(f, g, P, ell=ell, theorem=theorem)


def _certificate_from_charpoly(f: CAMap, g: CAMap, P: CharPoly, ell: int, theorem: str) -> Certificate:
    k = P.k
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
    cert = Certificate(exponent=d, h_exprs=h_exprs, theorem=theorem, verified=False)
    return _certified(f, g, cert)


def _embed_with_t(a: MPoly) -> MPoly:
    return MPoly(a.var_count + 1, {e + (0,): c for e, c in a.terms.items()})


def _t_power(var_count: int, e: int) -> MPoly:
    expo = [0] * var_count
    expo[-1] = e
    return MPoly(var_count, {tuple(expo): Fraction(1)})


# ---------------------------------------------------------------------------
# the overdetermined route through a random epimorphism


def _linear_combination_map(f: CAMap, matrix: list[list[Fraction]]) -> CAMap:
    """The composite of f with the linear map given by the k x n matrix."""
    m = f.domain.m
    dens = [den for _, den in f.components]
    full_den = MPoly.const(m, 1)
    for den in dens:
        full_den = full_den * den
    comps = []
    pulls = []
    for row in matrix:
        num = MPoly(m)
        pull = MPoly(f.domain.param.k)
        for j, alpha in enumerate(row):
            if alpha == 0:
                continue
            cross = f.components[j][0].scale(alpha)
            for i, den in enumerate(dens):
                if i != j:
                    cross = cross * den
            num = num + cross
            pull = pull + f.pullbacks[j].scale(alpha)
        comps.append((num, full_den))
        pulls.append(pull)
    return CAMap(domain=f.domain, components=comps, pullbacks=pulls)


def certify_general(
    f: CAMap,
    g: CAMap,
    seed: int = 0,
    prec: int = 256,
    degree_cap: int = 4,
    exponent: int | None = None,
) -> Certificate:
    """Certificate with exponent d(f) * deg f(A) for an overdetermined map.

    Draws random rational epimorphisms pi, checks d(pi o f) equals the
    target exponent, and runs the square route on pi o f.  A draw whose
    zero fiber is not contained in the zero set of g is recorded and
    retried; after the retry budget the conclusion is witnessed directly
    by the bounded-degree linear-algebra search.
    """
    k = f.domain.require_param().k
    n = f.n
    if n == k:
        return certify_proper(f, g, seed, prec)
    if n < k:
        raise InvalidInput("overdetermined route needs more components than dimensions")
    d_f = geometric_degree(f, seed, prec)
    deg_image = image_degree(f, seed, prec)
    product = d_f * deg_image  # the theorem's exponent d(f) * deg f(A)
    target = exponent if exponent is not None else product
    notes: list[str] = []
    for attempt in range(5):
        gen = _rng.child_rng(seed, f"epi:{attempt}")
        matrix = [
            [_rng.rand_rational(gen, height=20) for _ in range(n)] for _ in range(k)
        ]
        if any(all(a == 0 for a in row) for row in matrix):
            continue
        composed = _linear_combination_map(f, matrix)
        try:
            d_comp = geometric_degree(composed, seed, prec)
        except (NotProper, InconsistentFiberCounts):
            notes.append(f"draw {attempt}: composite map degenerate")
            continue
        if d_comp != product:
            notes.append(
                f"draw {attempt}: composite degree {d_comp} != d(f)*deg image = {product}"
            )
            continue
        try:
            inner = certify_proper(composed, g, seed, prec)
        except VanishingHypothesisFailed:
            notes.append(
                f"draw {attempt}: vanishing hypothesis failed, g misses part of the composite zero fiber"
            )
            continue
        h = _expand_through_matrix(inner.h_exprs, matrix, n)
        cert = Certificate(
            exponent=inner.exponent,
            h_exprs=h,
            theorem="general",
            verified=False,
            diagnostics="; ".join(notes) if notes else "",
        )
        return _certified(f, g, cert)
    notes.append("constructive route exhausted, falling back to the linear search")
    try:
        fallback = certify_fallback(f, g, exponent=target, degree_cap=degree_cap)
    except NoSolutionWithinCap as exc:
        raise VanishingHypothesisFailed(
            "no certificate found: " + "; ".join(notes)
        ) from exc
    return Certificate(
        exponent=fallback.exponent,
        h_exprs=fallback.h_exprs,
        theorem="fallback",
        verified=fallback.verified,
        diagnostics="; ".join(notes),
        aux_forms=None,
    )


def _expand_through_matrix(h_tilde: list[MPoly], matrix, n: int) -> list[MPoly]:
    """Rewrite expressions in (pi(y), t) as expressions in (y, t)."""
    k = len(matrix)
    subs = []
    for row in matrix:
        terms = {}
        for j, alpha in enumerate(row):
            if alpha != 0:
                expo = [0] * (n + 1)
                expo[j] = 1
                terms[tuple(expo)] = alpha
        subs.append(MPoly(n + 1, terms))
    subs.append(_t_power(n + 1, 1))
    h = []
    for j in range(n):
        acc = MPoly(n + 1)
        for i in range(k):
            alpha = matrix[i][j]
            if alpha == 0:
                continue
            acc = acc + compose(h_tilde[i], subs).scale(alpha)
        h.append(acc)
    return h


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
    param = f.domain.require_param()
    n = f.n
    gp = g.pullbacks[0]
    subs = list(f.pullbacks) + [gp]
    monos = _monomials_up_to(n + 1, degree_cap)
    columns = []  # (j, expo, basis poly in the parameter ring)
    for j in range(n):
        for expo in monos:
            basis = f.pullbacks[j] * _compose_monomial(expo, subs, param.k)
            columns.append((j, expo, basis))
    for target_n in range(1, exponent + 1):
        rhs = gp**target_n
        solution = _solve_exact([c[2] for c in columns], rhs)
        if solution is None:
            continue
        h = [dict() for _ in range(n)]
        for (j, expo, _), value in zip(columns, solution):
            if value != 0:
                h[j][expo] = h[j].get(expo, Fraction(0)) + value
        cert = Certificate(
            exponent=target_n,
            h_exprs=[MPoly(n + 1, t) for t in h],
            theorem="fallback",
            verified=False,
        )
        return _certified(f, g, cert)
    raise NoSolutionWithinCap(
        f"no bounded-degree certificate with exponent <= {exponent} and cap {degree_cap}"
    )


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


def _compose_monomial(expo, subs, k: int) -> MPoly:
    acc = MPoly.const(k, 1)
    for e, s in zip(expo, subs):
        if e:
            acc = acc * s**e
    return acc


def _solve_exact(basis: list[MPoly], rhs: MPoly):
    """Particular rational solution of sum x_i basis_i = rhs, or None.

    Gaussian elimination over the exact coefficients; free variables are
    set to zero, with columns taken in their given order, so the result
    is deterministic.
    """
    row_keys = set(rhs.terms)
    for b in basis:
        row_keys.update(b.terms)
    keys = sorted(row_keys, key=_grlex_key)
    key_index = {e: i for i, e in enumerate(keys)}
    rows = len(keys)
    cols = len(basis)
    a = [[Fraction(0)] * (cols + 1) for _ in range(rows)]
    for c, b in enumerate(basis):
        for e, v in b.terms.items():
            a[key_index[e]][c] = v
    for e, v in rhs.terms.items():
        a[key_index[e]][cols] = v
    pivot_rows: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        support = [j for j, x in enumerate(prow) if x]  # zero entries change no row
        pv = prow[c]
        for j in support:
            prow[j] /= pv
        for i in range(rows):
            row = a[i]
            if i != r and row[c]:
                factor = row[c]
                for j in support:
                    row[j] -= factor * prow[j]
        pivot_rows.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    solution = [Fraction(0)] * cols
    for row, col in pivot_rows:
        solution[col] = a[row][cols]
    return solution


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


def certify_strictly_regular(
    f: CAMap,
    g: CAMap,
    forms: list[MPoly] | str = "auto",
    cycle: CycleData | list | str = "estimate",
    seed: int = 0,
    prec: int = 256,
) -> Certificate:
    """Certificate with exponent deg Z_f for a strictly regular map.

    Completes f with affine forms to a proper map, runs the partial route
    there, and pads the identity by the required power of g so the final
    exponent is the degree of the cycle of zeroes.
    """
    k = f.domain.require_param().k
    n = f.n
    if n == k:
        inner = certify_proper(f, g, seed, prec)
        return Certificate(
            exponent=inner.exponent,
            h_exprs=inner.h_exprs,
            theorem=inner.theorem,
            verified=inner.verified,
            diagnostics="square case: cycle degree equals the geometric degree",
        )
    if n > k:
        raise InvalidInput("strictly regular route needs fewer components than dimensions")
    completed = None
    chosen: list[MPoly] = []
    if forms != "auto":
        chosen = list(forms)
        if len(chosen) != k - n:
            raise InvalidInput("need exactly dim - components affine forms")
        for form in chosen:
            if total_degree(form) > 1:
                raise InvalidInput("completion forms must be affine")
        completed = _affine_completion(f, chosen)
        try:
            check_proper(completed, seed, prec)
        except NotProper as exc:
            raise NotStrictlyRegular("the supplied affine completion is not proper") from exc
    else:
        for attempt in range(5):
            gen = _rng.child_rng(seed, f"forms:{attempt}")
            candidate = _random_affine_forms(f.domain, k - n, gen)
            try:
                trial = _affine_completion(f, candidate)
                check_proper(trial, seed, prec)
            except NotProper:
                continue
            completed, chosen = trial, candidate
            break
        if completed is None:
            raise NotStrictlyRegular(
                "no affine completion became proper within the retry budget"
            )
    d_completed = geometric_degree(completed, seed, prec)
    cycle_data = _resolve_cycle(f, chosen, cycle, seed, prec)
    deg_cycle = cycle_data.total_degree
    if deg_cycle < d_completed:
        raise NotStrictlyRegular(
            f"cycle degree {deg_cycle} is below the completed map degree {d_completed}"
        )
    inner = certify_partial(completed, n, g, seed, prec)
    pad = deg_cycle - d_completed
    h = []
    uses_aux = False
    for expr in inner.h_exprs[:n]:
        padded = expr * _t_power(k + 1, pad)
        if any(any(e[n:k]) for e in padded.terms):
            uses_aux = True
        h.append(padded)
    if not uses_aux:
        h = [_drop_middle_axes(expr, n, k) for expr in h]
        aux_forms = None
    else:
        aux_forms = chosen
    cert = Certificate(
        exponent=deg_cycle,
        h_exprs=h,
        theorem="strictly_regular",
        verified=False,
        diagnostics=f"completed-map degree {d_completed}, pad {pad}",
        aux_forms=aux_forms,
    )
    return _certified(f, g, cert)


def _drop_middle_axes(expr: MPoly, n: int, k: int) -> MPoly:
    out = {}
    for e, c in expr.terms.items():
        key = e[:n] + (e[-1],)
        out[key] = c
    return MPoly(n + 1, out)


def _resolve_cycle(f: CAMap, forms: list[MPoly], cycle, seed: int, prec: int) -> CycleData:
    if isinstance(cycle, CycleData):
        return cycle
    if isinstance(cycle, list):
        return cycle_degree(f, cycle, forms, seed, prec)
    if cycle == "estimate":
        raise CycleDataUnavailable(
            "cycle estimation needs parametrized components of the zero fiber"
        )
    raise ValueError("cycle must be CycleData, a component list, or 'estimate'")


# ---------------------------------------------------------------------------
# degree of the cycle of zeroes


def cycle_degree(
    f: CAMap,
    components,
    forms: list[MPoly],
    seed: int = 0,
    prec: int = 256,
) -> CycleData:
    """Multiplicity-weighted degree sum over the components of the zero fiber.

    components: list of Variety (or (Variety, multiplicity) with a
    user-supplied multiplicity overriding the numeric estimate).  Each
    component must be a parametrized curve contained in the zero fiber,
    checked exactly through the pullbacks.
    """
    k = f.domain.require_param().k
    n = f.n
    if len(forms) != k - n:
        raise InvalidInput("need exactly dim - components affine forms")
    completed = _affine_completion(f, forms)
    try:
        check_proper(completed, seed, prec)
    except NotProper as exc:
        raise NotStrictlyRegular("the affine completion is not proper") from exc
    rows = []
    total = 0
    for entry in components:
        comp, override = entry if isinstance(entry, tuple) else (entry, None)
        _check_component_in_fiber(f, comp)
        deg_v = degree_by_slicing(comp, seed)
        mult = override if override is not None else _component_multiplicity(
            f, completed, comp, forms, seed, prec
        )
        rows.append((comp, mult, deg_v))
        total += mult * deg_v
    return CycleData(components=rows, total_degree=total)


def _check_component_in_fiber(f: CAMap, comp: Variety):
    param = comp.require_param()
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


def _component_multiplicity(
    f: CAMap,
    completed: CAMap,
    comp: Variety,
    forms: list[MPoly],
    seed: int,
    prec: int,
) -> int:
    """Perturbation estimate of the intersection multiplicity along a component."""
    if f.domain.param.k != 2:
        raise ParamRequired("cycle multiplicities implemented for two parameters")
    gen = _rng.child_rng(seed, "cycle-point")
    s0 = [_rng.rand_rational(gen, height=30) for _ in range(comp.param.k)]
    point = [evaluate(c, s0) for c in comp.param.components]
    value = [evaluate(form, point) for form in forms]
    anchors = _parameter_preimages(f.domain, point, prec)
    base = [Fraction(0)] * f.n + value
    for wp in ladder_from(prec):
        counts = []
        for draw in range(3):
            gen_d = _rng.child_rng(seed, f"cycle-perturb:{draw}")
            direction = _rng.rand_nonzero_vector(gen_d, f.n, height=9)
            eps = Fraction(1, 2 ** (wp // 8))
            y = [Fraction(b) for b in base]
            for i, w in enumerate(direction):
                y[i] = y[i] + eps * w
            radius = mp.mpf("0.25") * (1 + sum(abs(a) for a in anchors[0]))
            counts.append(count_near(fiber_points(completed, y, wp), anchors, radius))
        if len(set(counts)) == 1 and counts[0] > 0:
            return counts[0]
    raise PrecisionExhausted("component multiplicity did not stabilize")


def _parameter_preimages(domain: Variety, point, prec: int):
    """Parameter-space preimages of an ambient rational point (two parameters)."""
    param = domain.require_param()
    eqs = []
    for comp, target in zip(param.components, point):
        delta = comp - MPoly.const(param.k, Fraction(target))
        if not delta.is_zero() and not delta.is_constant():
            eqs.append(delta)
    if len(eqs) < 2:
        raise ParamRequired("parametrization does not isolate the point")
    sols = solve_system_2(eqs[0], eqs[1], prec)
    good = []
    with mp.workprec(prec):
        tol = mp.mpf(2) ** (-prec // 4)
        for s in sols:
            imgs = [evaluate(c, list(s)) for c in param.components]
            gap = sum(abs(i - mp.mpf(t.numerator) / t.denominator) for i, t in zip(imgs, [Fraction(v) for v in point]))
            if gap <= tol * (1 + sum(abs(v) for v in imgs)):
                good.append(s)
    if not good:
        raise ParamRequired("no parameter preimage found for the sampled point")
    return good


def cycle_degree_square(f: CAMap, seed: int = 0, prec: int = 256) -> CycleData:
    """Cycle degree in the square case: isolated points with their multiplicities."""
    k = f.domain.require_param().k
    if f.n != k:
        raise InvalidInput("square cycle degree needs as many components as dimensions")
    zero = [Fraction(0)] * f.n
    reps = fiber_points(f, zero, prec)
    rows = [(None, local_multiplicity_at(f, zero, rep, reps, seed, prec), 1) for rep in reps]
    return CycleData(components=rows, total_degree=sum(mult for _, mult, _ in rows))


def load_cycle_components(obj: dict) -> list:
    """Parse {"components": [{"variety": {...}, "multiplicity": int?}, ...]}."""
    if not isinstance(obj, dict) or "components" not in obj:
        raise SchemaError("cycle JSON must have 'components'")
    out = []
    for item in obj["components"]:
        if not isinstance(item, dict) or "variety" not in item:
            raise SchemaError("each cycle component needs a 'variety'")
        comp = load_variety(item["variety"])
        mult = item.get("multiplicity")
        if mult is not None and (not isinstance(mult, int) or mult < 1):
            raise SchemaError("multiplicity must be a positive integer")
        out.append((comp, mult))
    return out
