"""Benchmark of the pjac command line, one warm process per workload.

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 45 --trace 0

Run from the repository root.  The job list comes from ``--seed``
(``workloads.py``); each job is passed to ``pjac.cli.main`` and its output is
checked.  Jobs run one after another (closed loop, one client, one thread),
and the whole list repeats while another pass fits in ``--seconds``; the
fresh interpreters timed for ``setup_s`` come on top of that budget.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced and one
traced pass and reports the per-layer metrics.  A full report (environment,
every argv, per-job times and check results, spans) is written to
``.bench_out/``.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# fresh-interpreter setup samples per run: one before each pass, the rest
# after the last pass, so that they spread over the run's drift in host speed;
# single samples on a 2-vCPU guest range over +-30%
SETUP_SAMPLES = 5
IMPORTTIME_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("answer_err", "1"),
)

_CALLS_SELF = ("calls", "count"), ("self_s", "s")
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import_scipy_stats_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"radial.sobolev_energy_1d.{k}", u) for k, u in _CALLS_SELF),
    *((f"radial.profile_from_datum.{k}", u) for k, u in _CALLS_SELF),
    *((f"energy.build_grid.{k}", u) for k, u in _CALLS_SELF),
    ("energy.build_grid.nodes", "count"),
    ("energy.region_energy.self_s", "s"),
    *((f"energy.circle_energy.{k}", u) for k, u in _CALLS_SELF),
    ("energy.jacobian_residual.self_s", "s"),
    *((f"maps.PlanarMap.jacobian.{k}", u) for k, u in _CALLS_SELF),
    ("maps.PlanarMap.jacobian.points", "count"),
    ("maps.jacobian_ns_per_point", "ns"),
    *((f"constructions.assemble_counterexample.{k}", u) for k, u in _CALLS_SELF),
    *((f"regions.quasi_random_points.{k}", u) for k, u in _CALLS_SELF),
    ("regions.quasi_random_points.points", "count"),
    ("isoperimetry.image_curve.self_s", "s"),
    ("isoperimetry.isoperimetric_check.self_s", "s"),
    *((f"moser.VectorField.direct_eval.{k}", u) for k, u in _CALLS_SELF),
    ("moser.VectorField.direct_eval.points", "count"),
    ("moser.direct_eval_us_per_point", "us"),
    *((f"moser.VectorField.eval.{k}", u) for k, u in _CALLS_SELF),
    ("moser.VectorField.eval.points", "count"),
    *((f"moser.MoserCorrector.sigma.{k}", u) for k, u in _CALLS_SELF),
    ("moser.MoserCorrector.sigma.points", "count"),
    ("moser.MoserCorrector.jacobian.self_s", "s"),
    ("moser.MoserCorrector.jacobian.points", "count"),
    *((f"moser.moser_flow.{k}", u) for k, u in _CALLS_SELF),
    ("moser.constant_jacobian_corrector.iterations", "count"),
    ("moser.flow_points_per_jacobian_point", "ratio"),
    ("moser.eval_points_per_flow_point", "ratio"),
    ("moser.corrector.useful_iter_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("trace_uncovered_frac", "ratio"),
)


# -- environment -----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc = max(((_read(f"{c}/level").strip(), _read(f"{c}/size").strip()) for c in caches),
              default=("", "unknown"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": f"L{llc[0]} {llc[1]}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports pjac.cli and builds its parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pjac.cli; pjac.cli.build_parser()"],
                   env=_child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def import_times() -> dict[str, float]:
    """Median cumulative import time of pjac.cli and scipy.stats (-X importtime)."""
    found: dict[str, list[float]] = {"pjac.cli": [], "scipy.stats": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pjac.cli"],
                              env=_child_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(vals) for name, vals in found.items()}


# -- running jobs ------------------------------------------------------------------


def run_job(cli, job: workloads.Job) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception:  # a crash is a failed job; the run goes on
        rc = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    text = out.getvalue()
    failures = [f"exit code {rc}"] if rc != 0 else []
    if not failures:
        try:
            failures = job.check(text)
        except (ValueError, KeyError, TypeError) as exc:
            failures = [f"unreadable output: {exc!r}"]
    return {"argv": list(job.argv), "rc": rc, "seconds": seconds, "output": text,
            "stderr": err.getvalue(), "failures": failures}


def run_pass(cli, jobs: list[workloads.Job], tracer=None) -> list[dict]:
    gc.collect()
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.run_id = i
        results.append(run_job(cli, job))
    return results


def pass_seconds(results: list[dict]) -> float:
    return sum(r["seconds"] for r in results)


def best_seconds(passes: list[list[dict]]) -> float:
    """Sum over jobs of each job's fastest time in any pass.

    Other tenants of the host only ever slow a job down, and they do so for
    seconds at a time, so the fastest repeat of each job is the steadiest
    estimate of its own cost (the same reasoning as ``timeit``'s minimum).
    """
    return sum(min(p[j]["seconds"] for p in passes) for j in range(len(passes[0])))


def answer_err(workload: str, results: list[dict]) -> float:
    """The workload's accuracy witness, from its first pass."""
    if workload == "paper-tables":
        rows = workloads.table(results[0]["output"], workloads.GAP_HEADER)
        return abs(workloads.gap_slope(rows) / math.pi - 1.0)
    return workloads.table(results[0]["output"], workloads.MOSER_HEADER)[-1][1]


def mark_nondeterminism(passes: list[list[dict]]) -> None:
    """A job whose output differs between passes fails."""
    for later in passes[1:]:
        for first, again in zip(passes[0], later):
            if again["rc"] == 0 and again["output"] != first["output"]:
                again["failures"].append("output differs from the first pass")


# -- metrics -------------------------------------------------------------------------


def layer_metrics(tracer: tracing.Tracer, untraced_s: float, traced_s: float,
                  imports: dict[str, float]) -> dict[str, float]:
    totals = tracer.layer_totals()
    values = {"cli.import_s": imports["pjac.cli"],
              "cli.import_scipy_stats_s": imports["scipy.stats"]}
    for name, entry in totals.items():
        for key, value in entry.items():
            values[f"{name}.{key}"] = value

    def get(name):
        return values.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    values["maps.jacobian_ns_per_point"] = 1e9 * ratio(
        get("maps.PlanarMap.jacobian.self_s"), get("maps.PlanarMap.jacobian.points"))
    values["moser.direct_eval_us_per_point"] = 1e6 * ratio(
        get("moser.VectorField.direct_eval.self_s"),
        get("moser.VectorField.direct_eval.points"))
    values["moser.flow_points_per_jacobian_point"] = ratio(
        tracer.flow_points_under_jacobian(), get("moser.MoserCorrector.jacobian.points"))
    values["moser.eval_points_per_flow_point"] = ratio(
        get("moser.VectorField.eval.points"), get("moser.MoserCorrector.sigma.points"))
    values["moser.corrector.useful_iter_frac"] = ratio(
        get("moser.constant_jacobian_corrector.best_iteration"),
        get("moser.constant_jacobian_corrector.iterations"))
    values["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    covered = sum(e["self_s"] for name, e in totals.items() if name != "cli.main")
    values["trace_uncovered_frac"] = 1.0 - covered / traced_s
    return {name: get(name) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pjac" / "cli.py").is_file():
        print(f"bench: no pjac sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS/OpenMP read these when numpy loads, so set them before the import
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import pjac.cli as cli

    jobs = workloads.jobs_for(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "argv": [["pjac", *job.argv] for job in jobs]}

    tracer = None
    if args.trace:
        imports = import_times()
        passes = [run_pass(cli, jobs)]
        with tracing.Tracer() as tracer:
            passes.append(run_pass(cli, jobs, tracer))
    else:
        setup, passes = [], []
        while True:
            setup.append(setup_seconds())
            passes.append(run_pass(cli, jobs))
            measured = sum(pass_seconds(p) for p in passes)
            if measured + pass_seconds(passes[-1]) > args.seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds())
        report["setup_runs_s"] = setup
    mark_nondeterminism(passes)

    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["failures"])
    walls = [pass_seconds(p) for p in passes]
    if args.trace:
        metrics = layer_metrics(tracer, walls[0], walls[1], imports)
        units = dict(PER_LAYER)
        report["spans"] = tracer.to_records()
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": best_seconds(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        try:
            metrics["answer_err"] = answer_err(args.workload, passes[0])
        except (ValueError, IndexError, ZeroDivisionError):  # its job failed
            metrics["answer_err"] = math.nan
        units = dict(END_TO_END)
    report["pass_wall_s"] = walls
    report["jobs"] = results
    report["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))
    for r in results:
        if r["failures"]:
            print(f"FAILED pjac {' '.join(r['argv'])}: {'; '.join(r['failures'])}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
