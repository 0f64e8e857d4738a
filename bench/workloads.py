"""Seeded job lists for the benchmark workloads and the check for each job.

A job is one ``pjac`` command line.  The benchmark passes it verbatim to
``pjac.cli.main``, so every recorded argv can be replayed by hand as
``pjac <argv...>``.  Inputs are drawn only from documented-valid ranges; the
``annulus`` datum is left out because it exits 3 by design.

Each check takes the job's standard output and returns a list of failure
messages (empty when the output is correct).  The bounds are those of the
acceptance suite and the CLI tests, or, for ``check-map``, a margin of at
least a thousand over the residuals the command prints today.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("paper-tables", "corrector")

MAPS = ("eta", "shear", "wedge", "counterexample")
COMPETITORS = ("phi1", "phi2", "phi3", "rot-phi1")

# Jitter of each energy-gap exponent, in decades.  One decade of jitter moves
# |slope/pi - 1| by +-50% across seeds; a twentieth of a decade keeps that
# within a few percent while still varying every input.
GAP_JITTER = 0.05


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


def _num(x: float) -> str:
    return f"{x:.6g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def table(text: str, header: str) -> list[list[float]]:
    """Rows of a CSV table; ValueError unless the header matches and all values are finite."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad header {lines[:1]!r}")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("non-finite value in table")
    return rows


def gap_slope(rows: list[list[float]]) -> float:
    """Least-squares slope of E_radial against log(1/eps) in energy-gap rows."""
    xs = [math.log(1.0 / row[0]) for row in rows]
    ys = [row[2] for row in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# -- checks ------------------------------------------------------------------
# A check may also raise ValueError, KeyError or TypeError on unreadable output.

GAP_HEADER = "epsilon,p,E_radial,E_competitor,ratio"
MOSER_HEADER = "iter,max_residual,mass_error"


def check_gap_sweep(text: str) -> list[str]:
    rows = table(text, GAP_HEADER)
    if len(rows) < 2:
        return [f"expected a sweep, got {len(rows)} rows"]
    out = []
    slope = gap_slope(rows)
    if not 0.8 * math.pi <= slope <= 1.2 * math.pi:
        out.append(f"slope {slope:.4f} outside [0.8pi, 1.2pi]")
    comp = [row[3] for row in rows]
    if max(comp) / min(comp) >= 2.0:
        out.append(f"competitor variation {max(comp) / min(comp):.3f} >= 2")
    return out


def check_zhukovsky(text: str) -> list[str]:
    rows = table(text, "r,lhs,rhs,ratio,lambda_star")
    if not rows:
        return ["no audit rows"]
    worst = max(row[3] for row in rows)
    return [f"circle ratio {worst:.9f} > 1 + 1e-6"] if worst > 1 + 1e-6 else []


def check_nonuniqueness(text: str) -> list[str]:
    doc = json.loads(text)
    out = []
    res = doc["constraint_residuals"]
    for key in ("mass_ball2", "mass_total", "c1_value_gap", "c1_slope_gap"):
        if not abs(res[key]) < 1e-8:
            out.append(f"{key} residual {res[key]:.3e} >= 1e-8")
    if not doc["rotation_energy_spread"] < 1e-6:
        out.append(f"rotation spread {doc['rotation_energy_spread']:.3e} >= 1e-6")
    slope = doc["truncated_energy"]["slope_vs_log_inv_delta"]
    if not abs(slope - 1.0) < 0.25:
        out.append(f"truncated-energy slope {slope:.4f} not within 0.25 of 1")
    return out


# check-map keys and the largest value each may take
MAP_LIMITS = {
    "eta": {"jacobian_fd_residual_max": 1e-6, "l1_identity_residual_max": 1e-12},
    "shear": {"continuity_max": 1e-12, "jacobian_residual_max": 1e-12,
              "jacobian_residual_mean": 1e-12},
    "wedge": {"continuity_max": 1e-12, "jacobian_residual_max": 1e-12,
              "jacobian_residual_mean": 1e-12},
    "counterexample": {"boundary_identity_residual": 1e-12,
                       "jacobian_residual_max_inner": 1e-12,
                       "jacobian_residual_mean_inner": 1e-12},
}


def check_map(text: str) -> list[str]:
    doc = json.loads(text)
    out = [
        f"{key} = {doc[key]:.3e} > {limit:g}"
        for key, limit in MAP_LIMITS[doc["map"]].items()
        if not abs(doc[key]) <= limit
    ]
    if doc["map"] == "wedge" and not doc["jacobian_min"] >= 0.5 - 1e-12:
        out.append(f"wedge Jacobian minimum {doc['jacobian_min']:.6f} < 1/2")
    if doc["map"] == "counterexample":
        out += [f"isoperimetry fails at r={row['r']}"
                for row in doc["isoperimetry"] if not row["holds"]]
    return out


def check_moser_demo(text: str) -> list[str]:
    rows = table(text, MOSER_HEADER)
    if len(rows) < 2:
        return ["corrector trace has no iterations"]
    initial, final = rows[0][1], rows[-1][1]
    mass = max(row[2] for row in rows[1:])
    out = []
    if not final < 0.5 * initial:
        out.append(f"final residual {final:.4f} not below half of {initial:.4f}")
    if not final < 0.1:
        out.append(f"final residual {final:.4f} >= 0.1")
    if not mass < 1e-3:
        out.append(f"mass error {mass:.3e} >= 1e-3")
    return out


# -- job lists -----------------------------------------------------------------


def _paper_tables(rng: random.Random) -> list[Job]:
    # one exponent per decade of [1e-5, 1e-1], each jittered by GAP_JITTER
    step = (4.0 - GAP_JITTER) / 4.0
    eps = [10.0 ** -(1.0 + k * step + GAP_JITTER * rng.random()) for k in range(5)]
    jobs = [
        Job(("energy-gap", "--eps", ",".join(_num(e) for e in eps), "--grid", "1024"),
            check_gap_sweep),
        Job(("nonuniqueness", "--grid", "512"), check_nonuniqueness),
    ]
    power = f"power:{_num(rng.uniform(0.05, 1.0))}"
    for datum in ("uniform", "gauss", power):
        for comp in COMPETITORS:
            jobs.append(Job(("zhukovsky", "--datum", datum, "--competitor", comp),
                            check_zhukovsky))
    map_eps = _num(rng.uniform(0.05, 1.0))
    map_seed = str(rng.randrange(2**31))
    for name in MAPS:
        jobs.append(Job(("check-map", "--map", name, "--eps", map_eps, "--seed", map_seed),
                        check_map))
    return jobs


def _corrector(rng: random.Random) -> list[Job]:
    # the final residual stays within 0.019-0.020 on this range; over [0.02, 1]
    # it runs from 0.020 to 0.034 and would swamp the bound on answer_err
    return [Job(("moser-demo", "--eps", _num(_log_uniform(rng, 0.04, 0.1))),
                check_moser_demo)]


_BUILDERS = {
    "paper-tables": _paper_tables,
    "corrector": _corrector,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the same seed always gives the same argv."""
    jobs = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    return [Job(job.argv + ("--out", "-"), job.check) for job in jobs]
