"""Benchmark runner for cnull: end-to-end times untraced, layer split traced.

Run from the repository root:

    python3 bench/run.py --workload curve-charpoly --seed 0 --seconds 15 --trace 0

One process, one thread: a closed loop runs the workload's tasks one after
another, in passes, for about --seconds of wall time and at least three
passes; each pass of a charpoly or growth run draws a new cnull seed from
--seed.
Task times are process CPU seconds (time.process_time): the loop does no
I/O and starts no thread, so on an idle machine they equal wall time, and
on a shared one they leave out the time the process was not running.
Reported times are scaled to the host's reference speed with the reference
loop of refloop.py, timed between tasks.  Results are checked against
references outside the timed calls.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from refloop import REF_LOOP_S, time_reference_loop
from spantrace import Stats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the keys of workloads.BUILDERS, named here because workloads needs cnull on the path
WORKLOADS = ("curve-charpoly", "square-charpoly", "exact-fixtures", "growth-sampling")
SETUP_REPEATS = 5
MIN_PASSES = 3  # a task's median needs three samples to leave out one slow one
REF_EVERY = 1.0  # untraced task CPU seconds between two samples of the reference loop
CLOCK = time.process_time
IMPORT_REF_LOOPS = 5
# prints the import time of cnull.cli in the probe's interpreter, at the reference speed
IMPORT_PROBE = (
    "import statistics, time; t = time.process_time(); import cnull.cli; s = time.process_time() - t; "
    f"import refloop; ref = statistics.median(refloop.time_reference_loop() for _ in range({IMPORT_REF_LOOPS})); "
    "print(s * refloop.REF_LOOP_S / ref)"
)

# Functions the traced run wraps, by cnull module.
TRACED = {
    "numroots": ("roots_from_coeffs", "roots_univariate", "solve_system_2", "rational_reconstruct"),
    "polycore": ("compose", "interpolate", "sylvester_resultant", "exact_divide", "univ_gcd"),
    "propermaps": ("profile_map", "check_proper", "geometric_degree", "graph_degree", "fiber_t_clusters",
                   "fiber_points_2", "image_degree"),
    "variety": ("load_variety", "load_map", "degree_by_slicing"),
    "charpoly": ("build_charpoly", "verify_charpoly", "charpoly_resultant_oracle", "growth_inclusion_check"),
    "nullcert": ("certify_proper", "certify_partial", "certify_general", "certify_strictly_regular",
                 "certify_fallback", "verify_certificate", "cycle_degree"),
    "gradexp": ("grad_profile", "validate_inequality", "gradexp_report"),
    "cli": ("run",),
}
# ROADMAP layers, by module; the verify_* functions count as exact algebra.
LAYERS = {"numerics": ("numroots",), "geometry": ("propermaps", "variety"), "exact": ("polycore",)}
EXACT_FUNCTIONS = ("charpoly.verify_charpoly", "nullcert.verify_certificate")
# Per-layer metrics read straight from the span statistics: name -> fields.
FUNCTION_METRICS = {
    "numroots.roots_from_coeffs": ("calls", "self_s", "failed"),
    "numroots.solve_system_2": ("calls", "self_s"),
    "polycore.sylvester_resultant": ("calls", "self_s"),
    "polycore.interpolate": ("calls", "self_s"),
    "charpoly.verify_charpoly": ("calls", "total_s"),
    "propermaps.profile_map": ("total_s",),
    "propermaps.geometric_degree": ("total_s",),
    "propermaps.graph_degree": ("total_s",),
    "propermaps.check_proper": ("total_s",),
    "propermaps.fiber_t_clusters": ("calls", "self_s"),
    "variety.degree_by_slicing": ("total_s",),
    "nullcert.certify_proper": ("total_s",),
    "nullcert.certify_general": ("total_s",),
    "nullcert.certify_strictly_regular": ("total_s",),
    "nullcert.certify_fallback": ("total_s",),
    "nullcert.verify_certificate": ("total_s",),
    "polycore.compose": ("self_s",),
    "cli.run": ("self_s",),
    "charpoly.growth_inclusion_check": ("self_s",),
    "gradexp.grad_profile": ("total_s",),
    "gradexp.validate_inequality": ("total_s",),
}
SRC_MODULES = ("__init__", "charpoly", "cli", "errors", "gradexp", "nullcert", "numroots", "polycore",
               "propermaps", "rng", "variety")
FIBER_SOLVES = ("propermaps.fiber_t_clusters", "propermaps.fiber_points_2")
END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    passes: list[float] = field(default_factory=list)  # untraced pass times
    traced_passes: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)  # untraced task times, by task
    ref_samples: list[float] = field(default_factory=list)  # reference loop times
    ref_due: float = 0.0  # task time since the last reference loop sample
    attempted: int = 0
    failed: int = 0  # raised, or returned an unverified result
    wrong: int = 0  # exact view differs from the reference


def _log(message: str) -> None:
    sys.stderr.write(message + "\n")


def run_pass(workload, expected: dict, seed: int, outcome: Outcome, tracer: Tracer | None) -> float:
    """One pass over the tasks at cnull seed `seed`; returns the summed task time.  Checks are untimed."""
    elapsed = 0.0
    for task in workload.tasks:
        outcome.attempted += 1
        start = CLOCK()
        try:
            result = tracer.call("task", task.run, (seed,)) if tracer else task.run(seed)
        except Exception:
            outcome.failed += 1
            _log(f"task {task.name} raised:\n{traceback.format_exc()}")
            elapsed += CLOCK() - start
            continue
        seconds = CLOCK() - start
        elapsed += seconds
        if tracer is None:
            outcome.samples.setdefault(task.name, []).append(seconds)
            outcome.ref_due += seconds
            while outcome.ref_due >= REF_EVERY:
                outcome.ref_samples.append(time_reference_loop())
                outcome.ref_due -= REF_EVERY
        if not task.verified(result):
            outcome.failed += 1
            _log(f"task {task.name} returned an unverified result")
        view = task.view(result)
        if view != expected[task.name]:
            outcome.wrong += 1
            _log(f"task {task.name} is wrong: {json.dumps(view)[:400]}")
    return elapsed


def measure(workload, expected: dict, seconds: float, seed: int, tracer: Tracer | None = None,
            modules=(), targets=(), min_passes: int = 1) -> Outcome:
    """Passes over the tasks for about `seconds` of wall time, from run seed `seed`.

    Pass i runs at cnull seed workload.pass_seed(seed, i).  The loop stops
    after the pass that ends nearest the deadline, but not before
    `min_passes` passes.  With a tracer, each untraced pass is followed by
    a traced pass at the same cnull seed.
    """
    outcome = Outcome()
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        pass_seed = workload.pass_seed(seed, len(outcome.passes))
        outcome.passes.append(run_pass(workload, expected, pass_seed, outcome, None))
        if tracer is not None:
            tracer.install(modules, targets)
            try:
                outcome.traced_passes.append(run_pass(workload, expected, pass_seed, outcome, tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if len(outcome.passes) >= min_passes and now + (now - start) / 2 >= deadline:
            return outcome


def deterministic(workload_module, argv) -> bool:
    """The CLI report of the first task is byte-identical over two runs."""
    try:
        return workload_module.cli_text(argv) == workload_module.cli_text(argv)
    except Exception:
        _log(f"determinism check raised:\n{traceback.format_exc()}")
        return False


def import_seconds() -> float:
    """Time to import cnull in a fresh interpreter, measured by that interpreter at the reference speed.

    The probe scales by its own reference loops: the host's speed differs
    from one process to the next.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(Path(__file__).parent))))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def trace_targets() -> tuple[list, list]:
    """The loaded cnull modules, and the (module, attribute, note) targets to wrap in them."""
    notes = {
        ("numroots", "roots_from_coeffs"): _escalated,
        ("polycore", "interpolate"): _node_count,
        ("charpoly", "build_charpoly"): _grid_shape,
    }
    targets = [
        (importlib.import_module(f"cnull.{m}"), attr, notes.get((m, attr)))
        for m, names in TRACED.items()
        for attr in names
    ]
    modules = [m for n, m in list(sys.modules.items()) if n == "cnull" or n.startswith("cnull.")]
    return modules, targets


def _escalated(args, kwargs, result) -> bool:
    # roots_from_coeffs(coeffs, prec=256): the ladder went past the requested rung
    prec = args[1] if len(args) > 1 else kwargs.get("prec", 256)
    return result.prec > prec


def _node_count(args, kwargs, result) -> int:
    samples = args[0] if args else kwargs["samples"]
    return len(samples)


def _grid_shape(args, kwargs, result) -> tuple:
    # (d, k, theorem-bound grid size)
    bmax = max(result.bounds) if result.bounds else 0
    return result.d, result.k, (bmax + 1) ** result.k


def layer_metrics(tracer: Tracer, outcome: Outcome) -> dict:
    """Per-layer metrics, per traced pass."""
    passes = len(outcome.traced_passes)
    traced_time = sum(outcome.traced_passes)
    stats = tracer.summary()
    out = {}
    for name, fields in FUNCTION_METRICS.items():
        s = stats.get(name, Stats())
        for f in fields:
            out[f"{name}.{f}"] = getattr(s, f) / passes
    spans = tracer.spans
    escalated = systems_roots = 0
    solves, nodes, grids = Counter(), Counter(), Counter()
    layer_self = Counter()
    for i, span in enumerate(spans):
        layer = _layer(span.name)
        if layer:
            layer_self[layer] += span.self_s
        if span.name == "numroots.roots_from_coeffs":
            escalated += bool(span.note)
            systems_roots += tracer.ancestor(i, ("numroots.solve_system_2",)) is not None
        elif span.name in FIBER_SOLVES:
            top = tracer.ancestor(i, ("charpoly.build_charpoly", "propermaps.profile_map"))
            if top is not None and spans[top].name == "charpoly.build_charpoly":
                solves[top] += 1
        elif span.name == "polycore.interpolate" and span.note is not None:
            top = tracer.ancestor(i, ("charpoly.build_charpoly",))
            if top is not None:
                nodes[top] += span.note
                grids[top] += 1
    builds = [i for i, s in enumerate(spans) if s.name == "charpoly.build_charpoly" and s.note]
    # interpolate runs once per coefficient (d times) on each grid
    grid_nodes = sum(nodes[i] / spans[i].note[0] for i in builds)
    bound_nodes = sum(grids[i] / spans[i].note[0] * spans[i].note[2] for i in builds)
    systems = stats.get("numroots.solve_system_2", Stats()).calls
    out["numroots.roots_from_coeffs.escalated"] = escalated / passes
    out["numroots.roots_per_system"] = systems_roots / systems if systems else 0.0
    out["charpoly.fiber_solves_per_node"] = sum(solves[i] for i in builds) / grid_nodes if grid_nodes else 0.0
    out["polycore.interpolate.nodes"] = sum(s.note for s in spans if s.name == "polycore.interpolate") / passes
    out["charpoly.nodes_over_bound"] = grid_nodes / bound_nodes if bound_nodes else 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = layer_self[layer] / traced_time
    out["trace_overhead"] = statistics.median(outcome.traced_passes) / statistics.median(outcome.passes)
    out.update(source_lines())
    return out


def _layer(name: str) -> str | None:
    if name in EXACT_FUNCTIONS:
        return "exact"
    module = name.split(".", 1)[0]
    return next((layer for layer, mods in LAYERS.items() if module in mods), None)


def source_lines() -> dict:
    package = SRC / "cnull"
    out = {}
    for module in SRC_MODULES:
        path = package / f"{module}.py"
        out[f"src.{module}.lines"] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    out["src.total.lines"] = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in package.rglob("*.py"))
    return out


UNITS = {"calls": "count", "failed": "count", "escalated": "count", "nodes": "count",
         "self_s": "s", "total_s": "s", "lines": "lines"}


def _unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="cnull seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cnull").is_dir() or not (ROOT / "fixtures").is_dir():
        _log(f"no cnull checkout at {ROOT}: src/cnull and fixtures/ are required")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).parent))
    try:
        imports, builds = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            start = CLOCK()
            workload = workloads.build(args.workload, ROOT, args.seed, workdir)
            builds.append(CLOCK() - start)
        expected = workload.expected_views(workloads.load_reference())
        tracer, modules, targets = None, (), ()
        if args.trace:
            tracer = Tracer(CLOCK)
            modules, targets = trace_targets()
        # a traced run reports counts and shares, not a gated time: one pass may do
        min_passes = 1 if args.trace else MIN_PASSES
        outcome = measure(workload, expected, args.seconds, args.seed, tracer, modules, targets, min_passes)
        outcome.attempted += 1
        if not deterministic(workloads, workload.det_argv):
            outcome.failed += 1
            _log("the CLI report of the first task differs between two runs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        values = layer_metrics(tracer, outcome)
    else:
        if not outcome.ref_samples:
            outcome.ref_samples.append(time_reference_loop())
        # times at the host's reference speed (refloop.py)
        scale = REF_LOOP_S / statistics.median(outcome.ref_samples)
        # one pass, as the sum of each task's median: one slow pass moves no task
        pass_cpu = sum(statistics.median(v) for v in outcome.samples.values())
        values = {
            "pass_s": pass_cpu * scale,
            "setup_s": statistics.median(i + b * scale for i, b in zip(imports, builds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        _log(f"unscaled: pass {pass_cpu:.4f} s, setup build {statistics.median(builds):.4f} s; "
             f"scale {scale:.4f} from {len(outcome.ref_samples)} reference loops")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or _unit(k)} for k, v in values.items()}
    _log(f"{args.workload} seed {args.seed}: untraced passes {[round(p, 3) for p in outcome.passes]}, "
         f"traced passes {[round(p, 3) for p in outcome.traced_passes]}, {outcome.failed} failed, {outcome.wrong} wrong")
    print(json.dumps({"correct": outcome.wrong == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
