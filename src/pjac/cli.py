"""Batch experiment runner emitting CSV/JSON tables.

Subcommands: energy-gap, zhukovsky, nonuniqueness, check-map, moser-demo.
Exit codes: 0 success, 2 configuration error, 3 numerical failure (any
exception while computing or writing, reported on one stderr line).
Outputs are written atomically (temp file + rename) so a failed run never
leaves a partial table behind; identical config + seed gives identical bytes.
CSV and JSON refuse non-finite numbers, which exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import constructions, energy, isoperimetry, moser, radial
from .geometry import det2
from .maps import continuity_report, fd_jacobian, rotate_map
from .radial import GeneralisedStretching, profile_from_datum
from .regions import disc


def _fmt(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x} in a CSV table")
    return f"{x:.17g}"


def _write_atomic(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pjac-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _competitor_from_name(name: str, datum):
    phi = GeneralisedStretching(profile_from_datum(datum, int(name[-1]))).as_planar_map()
    return rotate_map(phi, 0.7) if name == "rot-phi1" else phi


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_energy_gap(args) -> str:
    corrector = None
    rows = ["epsilon,p,E_radial,E_competitor,ratio"]
    for eps in args.eps:
        stretch = constructions.layered_profile(eps)
        e_radial = radial.sobolev_energy_1d(stretch, args.p, 3.0)
        if args.corrector == "on":
            _, jdet = constructions.wedge_map(eps)
            corrector, _ = moser.constant_jacobian_corrector(
                jdet, (6.0 - eps) / 5.0, moser.wedge_domain(), iterations=args.iters
            )
        competitor = constructions.assemble_counterexample(eps, corrector=corrector)
        e_comp = energy.region_energy(competitor, args.p, disc(3.0), n=args.grid).value
        rows.append(
            ",".join(_fmt(v) for v in (eps, args.p, e_radial, e_comp, e_radial / e_comp))
        )
    return "\n".join(rows) + "\n"


def run_zhukovsky(args) -> str:
    datum = args.datum
    competitor = _competitor_from_name(args.competitor, datum)
    R = datum.support_radius
    radii = np.linspace(0.08 * R, 0.94 * R, args.radii)
    breaks = [b for b in datum.breakpoints() if 0 < b < R]
    for b in breaks:  # keep circles off derivative jumps
        radii = radii[np.abs(radii - b) > 0.02 * R]
    rows, lam = energy.zhukovsky_comparison(datum, competitor, args.p, radii)
    out = ["r,lhs,rhs,ratio,lambda_star"]
    for row in rows:
        out.append(",".join(_fmt(v) for v in (row.r, row.lhs, row.rhs, row.ratio, lam)))
    return "\n".join(out) + "\n"


def run_nonuniqueness(args) -> str:
    datum, report = constructions.nonuniqueness_datum()
    profile = constructions.nonuniqueness_inner_profile()
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    energies = radial.truncated_derivative_energy(profile, 2.0, deltas)
    slope = float(np.polyfit(np.log(1.0 / deltas), energies, 1)[0])

    twisted = GeneralisedStretching(
        profile,
        beta=lambda r: 0.4 * np.sin(1.3 * np.asarray(r)),
        beta_dot=lambda r: 0.52 * np.cos(1.3 * np.asarray(r)),
    ).as_planar_map(1.9)
    values = [
        energy.region_energy(rotate_map(twisted, a), args.p, disc(1.85), n=args.grid).value
        for a in (0.0, math.pi / 3.0, 1.0)
    ]
    spread = (max(values) - min(values)) / max(values)

    doc = {
        "constraint_residuals": {
            "mass_ball2": report.mass_ball2_residual,
            "mass_total": report.mass_total_residual,
            "c1_value_gap": report.c1_value_gap,
            "c1_slope_gap": report.c1_slope_gap,
            "tail_value_at_3.5": report.tail_value,
        },
        "truncated_energy": {
            "deltas": list(map(float, deltas)),
            "values": list(map(float, energies)),
            "slope_vs_log_inv_delta": slope,
        },
        "rotation_energy_spread": spread,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def run_check_map(args) -> str:
    doc: dict = {"map": args.map}
    if args.map == "eta":
        eta, rot = constructions.ball_to_square()
        pts = 0.2 + 0.6 * np.random.default_rng(args.seed).random((20000, 2))
        keep = eta.break_distance(pts) > 1e-4
        res = np.abs(det2(fd_jacobian(eta.fn, pts[keep])) - 2.0 / math.pi)
        w = eta(pts) @ rot.T
        l1 = np.abs(np.abs(w[:, 0]) + np.abs(w[:, 1]) - np.hypot(pts[:, 0], pts[:, 1]))
        doc["jacobian_fd_residual_max"] = float(np.max(res))
        doc["l1_identity_residual_max"] = float(np.max(l1))
    elif args.map in ("shear", "wedge"):
        if args.map == "shear":
            pmap = constructions.shear_map(args.eps)
            jdet = lambda pts: np.where(  # noqa: E731
                np.abs(pts[..., 0]) + np.abs(pts[..., 1]) <= 1.0, args.eps, 1.0
            )
        else:
            pmap, jdet = constructions.wedge_map(args.eps)
        doc["continuity_max"] = max(continuity_report(pmap).values())
        mx, mean = energy.jacobian_residual(pmap, jdet, pmap.domain, seed=args.seed)
        doc["jacobian_residual_max"] = mx
        doc["jacobian_residual_mean"] = mean
        if args.map == "wedge":
            grid = moser._interior_samples(moser.wedge_domain(), 4000, seed=args.seed)
            doc["jacobian_min"] = float(np.min(jdet(grid)))
    elif args.map == "counterexample":
        u = constructions.assemble_counterexample(args.eps)
        doc["boundary_identity_residual"] = constructions.boundary_identity_residual(u)
        datum = constructions.layered_datum(args.eps)
        mx, mean = energy.jacobian_residual(u, datum.as_field(), disc(2.0), seed=args.seed)
        doc["jacobian_residual_max_inner"] = mx
        doc["jacobian_residual_mean_inner"] = mean
        iso = []
        for r in (0.5, 1.5, 2.5):
            curve = isoperimetry.image_curve(u, r, n=1024)
            # enclosed area is the integral of the actual Jacobian: on the
            # outer ring the corrector-free assembly does not carry the datum
            grid = energy.build_grid(disc(r), n=max(args.grid, 128),
                                     break_radii=u.break_radii,
                                     break_angles=u.break_angles)
            area = float(np.sum(grid.weights * det2(u.jacobian(grid.nodes))))
            result = isoperimetry.isoperimetric_check(curve, area)
            iso.append(
                {"r": r, "lhs": result.lhs, "rhs": result.rhs,
                 "holds": result.holds, "equality": result.equality}
            )
        doc["isoperimetry"] = iso
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def run_moser_demo(args) -> str:
    _, jdet = constructions.wedge_map(args.eps)
    corrector, trace = moser.constant_jacobian_corrector(
        jdet,
        (6.0 - args.eps) / 5.0,
        moser.wedge_domain(),
        iterations=args.iters,
        n_panels=args.resolution,
        seed=args.seed,
    )
    if args.json:
        doc = {
            "trace": [
                {"iter": row.iteration, "max_residual": row.max_residual,
                 "mass_error": row.mass_error}
                for row in trace
            ],
            "boundary_displacement": corrector.boundary_displacement,
        }
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    rows = ["iter,max_residual,mass_error"]
    for row in trace:
        rows.append(f"{row.iteration},{_fmt(row.max_residual)},{_fmt(row.mass_error)}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------


def _within(kind, what: str, low, high=math.inf):
    """argparse type: a finite ``kind`` value in [low, high]; anything else exits 2."""

    def parse(text: str):
        value = kind(text)
        if not (low <= value <= high and math.isfinite(value)):
            bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{what} must be finite and {bound}, not {text}")
        return value

    parse.__name__ = what  # argparse names the type in its own messages
    return parse


def _eps_list(text: str) -> list[float]:
    """argparse type: a comma-separated list of epsilons in [1e-16, 1].

    The range is the one over which E_radial is tested against its closed
    form.
    """
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values or not all(1e-16 <= e <= 1.0 for e in values):
        raise argparse.ArgumentTypeError(f"need epsilons in [1e-16, 1], not {text!r}")
    return values


def _datum(name: str):
    """argparse type: the radial datum named uniform, gauss, annulus or power:ALPHA."""
    if name == "uniform":
        return radial.uniform_datum(1.0, 3.0)
    if name == "gauss":
        return radial.truncated_gaussian_datum(1.0, 2.5)
    if name == "annulus":
        return radial.annulus_indicator_datum(1.0, 2.0, 4.0 / 3.0)
    if name.startswith("power:"):
        try:
            alpha = float(name.split(":", 1)[1])
        except ValueError:
            alpha = math.nan
        # alpha <= -2 leaves r f(r) non-integrable at the origin
        if not -2.0 < alpha < math.inf:
            raise argparse.ArgumentTypeError(
                f"power exponent must be finite and > -2 in {name!r}")
        return radial.power_law_datum(alpha)
    raise argparse.ArgumentTypeError(f"unknown datum {name!r}")


# flags that some subcommands read; the others do not take them
_SHARED = {
    "--p": dict(type=_within(float, "exponent p", 1.0), default=1.0,
                help="energy exponent (finite, >= 1)"),
    "--grid": dict(type=_within(int, "grid", 8), default=256,
                   help="quadrature resolution (>= 8)"),
    "--eps": dict(type=_within(float, "eps", 0.0, 1.0), default=0.5,
                  help="construction parameter (in [0, 1])"),
    "--iters": dict(type=_within(int, "iters", 1), default=3,
                    help="corrector iterations (>= 1)"),
    "--seed": dict(type=_within(int, "seed", 0), default=0,
                   help="seed of the sampled points (>= 0)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pjac",
        description="prescribed-Jacobian experiments: energies, audits, tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        for flag in flags:
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(fn=fn)
        return p

    p = command("energy-gap", run_energy_gap, "radial blow-up vs bounded competitor",
                "--p", "--grid", "--iters")
    p.add_argument("--eps", type=_eps_list, default="1e-1,1e-2,1e-3",
                   help="comma-separated epsilons in [1e-16, 1]")
    p.add_argument("--corrector", choices=("off", "on"), default="off")

    p = command("zhukovsky", run_zhukovsky, "circle-energy comparison audit", "--p")
    p.add_argument("--datum", type=_datum, default="uniform",
                   help="uniform, gauss, annulus or power:ALPHA (finite ALPHA > -2)")
    p.add_argument("--competitor", choices=("phi1", "phi2", "phi3", "rot-phi1"),
                   default="phi2")
    p.add_argument("--radii", type=_within(int, "radii", 1), default=32,
                   help="number of audit circles (>= 1)")

    command("nonuniqueness", run_nonuniqueness, "balanced-datum construction report",
            "--p", "--grid")

    p = command("check-map", run_check_map, "continuity/Jacobian/isoperimetry audits",
                "--grid", "--eps", "--seed")
    p.add_argument("--map", required=True,
                   choices=("eta", "shear", "wedge", "counterexample"))

    p = command("moser-demo", run_moser_demo, "constant-Jacobian corrector trace",
                "--eps", "--iters", "--seed")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--resolution", type=_within(int, "resolution", 2), default=20,
                   help="Bogovskii quadrature panels per side (>= 2)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text = args.fn(args)
        _write_atomic(args.out, text)
    except Exception as exc:  # any failure is one line naming its type, exit 3
        print(f"pjac: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
