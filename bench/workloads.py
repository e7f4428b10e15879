"""Workloads of the cnull benchmark: generated inputs, tasks and reference views.

The probe families are the ones ROADMAP.md measures:

- curve(d, e): the affine line, f = x^d - x^2 + 3x - 2 and g = x^e + x;
- square(a, b): C^2 with the identity parametrization,
  f = (x1^a + x2, x2^b - x1) and g = x1 + 2*x2.

Every task is a call into the public functions of cnull.  Tasks call
through module attributes (``charpoly.build_charpoly``, not a name bound
here), so the tracer's wrappers see them.  A task's view is the exact,
seed-independent part of its result; it is compared with a reference
that the code under test did not produce in the same run: the exact
resultant oracle for curves, or a value recorded in reference.json.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cnull import charpoly, cli, gradexp, nullcert, polycore, variety

PREC = 256
GROWTH_SAMPLES = 30
FALLBACK_EXPONENT = 2
FALLBACK_DEGREE_CAP = 6
REFERENCE_PATH = Path(__file__).with_name("reference.json")
SEED_STRIDE = 1000  # pass i of a run at seed s uses cnull seed s + i * SEED_STRIDE


@dataclass
class Task:
    name: str  # also the key of the task's entry in reference.json
    run: Callable[[int], object]  # the timed call, given the cnull seed of the pass
    view: Callable[[object], object]  # exact view of the result, computed untimed
    expected: Callable[[dict], object] | None = None  # reference view; None: reference[name]
    verified: Callable[[object], bool] = lambda result: True
    recorded: bool = True  # reference.json holds this task's view


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    det_argv: list[str]  # CLI form of the first task at the run's seed, for the determinism check
    # Draw a new cnull seed for every pass, so that a run averages the work over
    # several draws; False: every pass runs at the run's seed.
    seed_per_pass: bool = True

    def pass_seed(self, seed: int, index: int) -> int:
        """The cnull seed of pass `index` (from 0) of a run at `seed`; pass 0 runs at `seed`."""
        return seed + index * SEED_STRIDE if self.seed_per_pass else seed

    def expected_views(self, reference: dict) -> dict:
        return {
            t.name: t.expected(reference) if t.expected else reference[t.name]
            for t in self.tasks
        }


@dataclass
class Input:
    name: str
    files: list[str]  # --variety, --f, --g paths
    f: variety.CAMap
    g: variety.CAMap


def _poly(names, terms) -> dict:
    return {"vars": list(names), "terms": [{"c": str(c), "e": list(e)} for c, e in terms]}


def curve_specs(d: int, e: int):
    line = {
        "ambient_vars": ["x"],
        "dim": 1,
        "generators": [],
        "param": {"vars": ["t"], "components": [_poly(["t"], [(1, [1])])]},
    }
    f = {"components": [{"num": _poly(["x"], [(1, [d]), (-1, [2]), (3, [1]), (-2, [0])])}]}
    g = {"components": [{"num": _poly(["x"], [(1, [e]), (1, [1])])}]}
    return line, f, g


def square_specs(a: int, b: int):
    xs, ts = ["x1", "x2"], ["t1", "t2"]
    plane = {
        "ambient_vars": xs,
        "dim": 2,
        "generators": [],
        "param": {"vars": ts, "components": [_poly(ts, [(1, [1, 0])]), _poly(ts, [(1, [0, 1])])]},
    }
    f = {
        "components": [
            {"num": _poly(xs, [(1, [a, 0]), (1, [0, 1])])},
            {"num": _poly(xs, [(1, [0, b]), (-1, [1, 0])])},
        ]
    }
    g = {"components": [{"num": _poly(xs, [(1, [1, 0]), (2, [0, 1])])}]}
    return plane, f, g


def load_input(name: str, specs, workdir: Path) -> Input:
    """Write the specs as CLI input files and load them (pullbacks are computed here)."""
    files = []
    for role, spec in zip(("variety", "f", "g"), specs):
        path = workdir / f"{name}.{role}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        files.append(str(path))
    v = variety.load_variety(specs[0])
    return Input(name, files, variety.load_map(v, specs[1]), variety.load_map(v, specs[2]))


def cli_text(argv) -> str:
    """The report `cnull <argv>` prints, as text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(list(argv))
    return out.getvalue()


def charpoly_view(P) -> dict:
    out = charpoly.charpoly_to_json(P)
    return {"d": out["d"], "coeffs": out["coeffs"]}


def _charpoly_argv(inp: Input, seed: int) -> list[str]:
    v, f, g = inp.files
    return ["charpoly", "--variety", v, "--f", f, "--g", g, "--seed", str(seed)]


def _build_task(inp: Input, expected, recorded: bool = True) -> Task:
    return Task(
        inp.name,
        run=lambda seed: charpoly.build_charpoly(inp.f, inp.g, seed, PREC),
        view=charpoly_view,
        expected=expected,
        verified=lambda P: P.verified,
        recorded=recorded,
    )


def curve_charpoly(root: Path, seed: int, workdir: Path) -> Workload:
    inputs = [load_input(f"curve({d},{e})", curve_specs(d, e), workdir) for d, e in ((4, 3), (6, 3), (8, 4))]

    def oracle(inp):
        return lambda reference: charpoly_view(charpoly.charpoly_resultant_oracle(inp.f, inp.g))

    tasks = [_build_task(inp, oracle(inp), recorded=False) for inp in inputs]
    return Workload("curve-charpoly", tasks, _charpoly_argv(inputs[0], seed))


def square_charpoly(root: Path, seed: int, workdir: Path) -> Workload:
    tasks, first = [], None
    for a, b in ((2, 2), (3, 2)):
        inp = load_input(f"square({a},{b})", square_specs(a, b), workdir)
        first = first or inp
        # Bezout: the generic fiber of (x1^a + x2, x2^b - x1) has a*b points
        bezout = lambda reference, name=inp.name, d=a * b: {**reference[name], "d": d}
        tasks.append(_build_task(inp, bezout))
    return Workload("square-charpoly", tasks, _charpoly_argv(first, seed))


def _all_verified(obj) -> bool:
    """Every "verified" flag in a CLI result is true."""
    if isinstance(obj, dict):
        return all(
            (value is True) if key == "verified" else _all_verified(value)
            for key, value in obj.items()
        )
    if isinstance(obj, list):
        return all(_all_verified(v) for v in obj)
    return True


def _drop_floats(obj):
    """obj without float fields: those may move when the numerics change, exact ones may not."""
    if isinstance(obj, dict):
        return {k: _drop_floats(v) for k, v in obj.items() if not isinstance(v, float)}
    if isinstance(obj, list):
        return [_drop_floats(v) for v in obj if not isinstance(v, float)]
    return obj


def _roundtrip_verified(f, g, cert_json: dict) -> bool:
    """verify_certificate on a certificate rebuilt from its JSON text."""
    obj = json.loads(json.dumps(cert_json))
    cert = nullcert.certificate_from_json(obj, f.domain.ambient_vars)
    return nullcert.verify_certificate(f, g, cert)


def _cert_view(f, g, cert_json: dict, max_exponent: int | None = None) -> dict:
    """Exponent and round-trip verification; h and the diagnostics depend on the draws.

    With max_exponent, the exponent depends on the draws too (the general
    route returns its theorem exponent, or falls back to the smallest one),
    and only N <= max_exponent is checked.
    """
    n = cert_json["N"]
    view = {"roundtrip_verified": _roundtrip_verified(f, g, cert_json)}
    if max_exponent is None:
        view["N"] = n
    else:
        view["N_at_most_theorem_exponent"] = n <= max_exponent
    return view


# Exponent of the general route's theorem, d(f) * deg f(A) = 1 * 3, for graph_cubic and proj23
MAX_EXPONENT = {"certify-general": 3}

# README.md command lines: (task name, subcommand and fixture arguments)
README_COMMANDS = [
    ("certify-proper", ["certify", "--variety", "cusp", "--f", "fx", "--g", "gyx"]),
    ("geomdeg", ["geomdeg", "--variety", "graph_cubic", "--f", "proj23"]),
    ("charpoly-oracle", ["charpoly", "--variety", "cusp", "--f", "fx", "--g", "gyx", "--oracle"]),
    ("check-bounds", ["check-bounds", "--variety", "cusp", "--f", "fx", "--g", "gyx"]),
    ("ploski", ["ploski", "--variety", "cusp", "--f", "fx", "--g", "gyx"]),
    ("certify-general", ["certify", "--variety", "graph_cubic", "--f", "proj23", "--g", "g_sq_minus1"]),
    (
        "certify-strictly-regular",
        ["certify", "--variety", "plane2", "--f", "f_x1sq", "--g", "g_x1", "--L", "form_x2", "--cycle", "cycle_axis"],
    ),
    ("cycle", ["cycle", "--variety", "plane2", "--f", "f_x1sq", "--components", "cycle_axis", "--L", "form_x2"]),
    ("verify", ["verify", "--variety", "cusp", "--f", "fx", "--g", "gyx", "--cert", None]),
    ("gradexp", ["gradexp", "--poly", "sum_squares"]),
]


def exact_fixtures(root: Path, seed: int, workdir: Path) -> Workload:
    fixtures = root / "fixtures"

    def load(name):
        return json.loads((fixtures / f"{name}.json").read_text(encoding="utf-8"))

    maps = {}
    for v_name, f_name, g_name in (("cusp", "fx", "gyx"), ("graph_cubic", "proj23", "g_sq_minus1"), ("plane2", "f_x1sq", "g_x1")):
        v = variety.load_variety(load(v_name))
        maps[v_name] = (variety.load_map(v, load(f_name)), variety.load_map(v, load(g_name)))
    cusp_f, cusp_g = maps["cusp"]
    cert = nullcert.certify_proper(cusp_f, cusp_g, seed, PREC)
    cert_json = nullcert.certificate_to_json(cert, cusp_f.domain.ambient_vars)
    cert_path = workdir / "cert.json"
    cert_path.write_text(json.dumps(cert_json), encoding="utf-8")

    def cli_task(name, args):
        argv = [args[0]]
        for i, arg in enumerate(args[1:], start=1):
            if args[i - 1] == "--cert":
                argv.append(str(cert_path))
            elif arg.startswith("--"):
                argv.append(arg)
            else:
                argv.append(str(fixtures / f"{arg}.json"))

        def view(text):
            result = json.loads(text)["result"]
            if "certificate" in result:
                f, g = maps[args[2]]
                return _cert_view(f, g, result["certificate"], MAX_EXPONENT.get(name))
            return _drop_floats(result)

        task = Task(f"readme:{name}", run=lambda seed: cli_text(argv + ["--seed", str(seed)]), view=view,
                    verified=lambda text: _all_verified(json.loads(text)["result"]))
        return task, argv

    tasks, argvs = zip(*(cli_task(name, args) for name, args in README_COMMANDS))
    tasks = list(tasks)
    for d, e in ((12, 5), (16, 6)):
        inp = load_input(f"curve({d},{e})", curve_specs(d, e), workdir)
        tasks.append(Task(
            f"oracle:{inp.name}",
            run=lambda seed, inp=inp: charpoly.charpoly_resultant_oracle(inp.f, inp.g),
            view=charpoly_view,
            verified=lambda P: P.verified,
        ))
    gc_f, gc_g = maps["graph_cubic"]
    tasks.append(Task(
        "fallback:graph_cubic",
        run=lambda seed: nullcert.certify_fallback(gc_f, gc_g, FALLBACK_EXPONENT, degree_cap=FALLBACK_DEGREE_CAP),
        view=lambda c: _cert_view(gc_f, gc_g, nullcert.certificate_to_json(c, gc_f.domain.ambient_vars)),
        verified=lambda c: c.verified,
    ))
    tasks.append(Task(
        "verify-roundtrip:cusp",
        run=lambda seed: _roundtrip_verified(cusp_f, cusp_g, cert_json),
        view=lambda ok: ok,
        expected=lambda reference: True,
        recorded=False,
    ))
    # Its work hardly depends on the draws, and README commands run at the run's seed.
    return Workload("exact-fixtures", tasks, argvs[0] + ["--seed", str(seed)], seed_per_pass=False)


GRADEXP_POLYS = {
    "x1^2+x2^2": [(1, [2, 0]), (1, [0, 2])],
    "x1^4+x2^4+x1*x2": [(1, [4, 0]), (1, [0, 4]), (1, [1, 1])],
}


def growth_sampling(root: Path, seed: int, workdir: Path) -> Workload:
    inp = load_input("curve(4,3)", curve_specs(4, 3), workdir)
    P = charpoly.build_charpoly(inp.f, inp.g, seed, PREC)
    delta = charpoly.ploski_delta(P)
    tasks = [Task(
        f"growth:{inp.name}",
        run=lambda seed: charpoly.growth_inclusion_check(P, delta, samples=GROWTH_SAMPLES, seed=seed, prec=PREC),
        view=lambda check: {"q": polycore.rat_to_str(check.q), "holds": check.holds},
    )]
    for name, terms in GRADEXP_POLYS.items():
        poly, _ = polycore.poly_from_json(_poly(["x1", "x2"], terms))
        tasks.append(Task(
            f"gradexp:{name}",
            run=lambda seed, poly=poly: gradexp.gradexp_report(poly, seed=seed, prec=PREC),
            view=lambda r: {"d": r.d, "mu": r.mu, "D": r.D, "theta": polycore.rat_to_str(r.theta), "validated": r.validated},
        ))
    v, f, g = inp.files
    argv = ["ploski", "--variety", v, "--f", f, "--g", g, "--samples", str(GROWTH_SAMPLES), "--seed", str(seed)]
    return Workload("growth-sampling", tasks, argv)


BUILDERS = {
    "curve-charpoly": curve_charpoly,
    "square-charpoly": square_charpoly,
    "exact-fixtures": exact_fixtures,
    "growth-sampling": growth_sampling,
}


def build(name: str, root: Path, seed: int, workdir: Path) -> Workload:
    """Load the inputs of a workload and run its set-up computations at seed."""
    return BUILDERS[name](root, seed, workdir)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
