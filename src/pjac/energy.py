"""Quadrature of 2p-Dirichlet energies, Jacobian residuals, circle energies.

Region energies use break-aligned composite Gauss-Legendre grids in polar
coordinates over Euclidean discs and annuli, restricted to the map's
declared sector when its energy density repeats around the circle.
Circle energies use the periodic trapezoid rule, which is spectrally accurate
for smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BreakRadius, EvaluationFailure, JacobianMismatch
from .geometry import TWO_PI, det2, frobenius
from .maps import FD_SCALE, PlanarMap
from .radial import (
    GeneralisedStretching,
    RadialDatum,
    condition_report,
    profile_from_datum,
    zhukovsky,
)
from .regions import Region, annulus, quasi_random_points

_GL_ORDER = 4
# grid nodes per Jacobian call: each (block, 2, 2) temporary stays at 1 MB
# instead of growing with the whole grid
_BLOCK = 1 << 15


def composite_gl(edges, n_target: int):
    """Composite Gauss-Legendre nodes/weights over consecutive edge intervals."""
    edges = np.asarray(sorted(set(float(e) for e in edges)))
    lengths = np.diff(edges)
    total = float(np.sum(lengths))
    x0, w0 = np.polynomial.legendre.leggauss(_GL_ORDER)
    nodes, weights = [], []
    for a, b, ln in zip(edges[:-1], edges[1:], lengths):
        chunks = max(1, int(round(n_target * ln / total / _GL_ORDER)))
        sub = np.linspace(a, b, chunks + 1)
        for s0, s1 in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
            nodes.append(mid + half * x0)
            weights.append(half * w0)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights for a region, aligned with declared breaks."""

    nodes: np.ndarray
    weights: np.ndarray


def build_grid(
    region: Region,
    n: int = 256,
    break_radii=(),
    break_angles=(),
    sector=(0.0, TWO_PI),
) -> QuadratureGrid:
    """A polar tensor quadrature grid with roughly n x n nodes over a disc or
    an annulus without constraints.

    A ``sector`` (lo, hi) that tiles the circle in k = 2 pi / (hi - lo)
    copies keeps the nodes of the full-circle angular rule, with lo and hi
    among its breaks, that fall inside the sector, with k times their
    weights: the grid integrates a density that repeats on the k copies.  Its
    nodes are then a subset of the full grid's, bit for bit, and for k a
    power of two its weights are exactly k times theirs.
    """
    if region.kind not in ("disc", "annulus") or region.constraints:
        raise ValueError(f"cannot grid region {region}")
    lo, hi = sector
    copies = round(TWO_PI / (hi - lo)) if 0.0 <= lo < hi <= TWO_PI else 0
    if copies < 1 or abs(copies * (hi - lo) - TWO_PI) > 1e-12:
        raise ValueError(f"sector {sector} does not tile the circle")
    r_edges = [region.r_in, region.r_out] + [
        float(b) for b in break_radii if region.r_in < b < region.r_out
    ]
    t_edges = [0.0, TWO_PI, lo, hi] + [float(a) for a in break_angles if 0.0 < a < TWO_PI]
    rs, wr = composite_gl(r_edges, n)
    ts, wt = composite_gl(t_edges, n)
    inside = (lo < ts) & (ts < hi)
    ts, wt = ts[inside], copies * wt[inside]
    nodes = np.stack([np.multiply.outer(rs, np.cos(ts)),
                      np.multiply.outer(rs, np.sin(ts))], axis=-1).reshape(-1, 2)
    weights = ((wr * rs)[:, None] * wt[None, :]).reshape(-1)
    return QuadratureGrid(nodes, weights)


@dataclass(frozen=True)
class EnergyReport:
    """A quadrature value of the 2p-energy with a two-level error estimate."""

    value: float
    refinement_estimate: float


def _energy_on_grid(u: PlanarMap, p: float, grid: QuadratureGrid) -> float:
    total = 0.0
    for start in range(0, len(grid.weights), _BLOCK):
        block = slice(start, start + _BLOCK)
        jac = u.jacobian(grid.nodes[block])
        dens = np.sum(jac * jac, axis=(-2, -1))
        if not np.all(np.isfinite(dens)):
            raise EvaluationFailure(f"{u.name} returned non-finite derivatives")
        total += float(np.sum(grid.weights[block] * dens**p))
    return total


def region_energy(u: PlanarMap, p: float, region: Region, n: int = 256) -> EnergyReport:
    """Quadrature of the 2p-energy over the region, on a break-aligned grid.

    Two grid levels are used; the report carries the finest value and the
    difference between levels as the refinement estimate.  Both levels cover
    only ``u.sector`` and count it 2 pi / (its width) times, so a map that
    declares a quarter sector (the counterexample) costs a quarter of the
    Jacobian evaluations.  Each level is summed over consecutive blocks of
    2^15 nodes, one Jacobian call per block, so the temporaries stay a few MB
    at any grid size; a non-finite derivative in any block raises
    EvaluationFailure.
    """
    fine = build_grid(region, n, u.break_radii, u.break_angles, u.sector)
    coarse = build_grid(region, max(n // 2, 8), u.break_radii, u.break_angles, u.sector)
    v_fine = _energy_on_grid(u, p, fine)
    v_coarse = _energy_on_grid(u, p, coarse)
    return EnergyReport(value=v_fine, refinement_estimate=abs(v_fine - v_coarse))


def circle_energy(u: PlanarMap, p: float, r: float, n: int = 1024) -> float:
    """integral_0^{2pi} |Du(r e^{i theta})|^{2p} d theta by periodic trapezoid."""
    if n < 256:
        raise ValueError("need at least 256 angular samples")
    margin = 10 * FD_SCALE * max(1.0, r)
    for b in u.break_radii:
        if abs(r - b) <= margin:
            raise BreakRadius(f"circle r={r} touches the break radius {b}")
    theta = np.arange(n) * (TWO_PI / n)
    pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    jac = u.jacobian(pts)
    dens = np.sum(jac * jac, axis=(-2, -1))
    if not np.all(np.isfinite(dens)):
        raise EvaluationFailure(f"{u.name} returned non-finite derivatives on S_r")
    return float(np.sum(dens**p) * (TWO_PI / n))


def _points_off_breaks(u: PlanarMap, region: Region, n: int, seed: int | None,
                       margin: float | None = None) -> np.ndarray:
    """Quasi-random samples of the region farther than margin from u's breaks;
    the default margin is ten finite-difference steps at the region's scale."""
    if margin is None:
        lo, hi = region.bbox()
        scale = float(np.max(np.abs(np.concatenate([lo, hi]))))
        margin = 10 * FD_SCALE * max(1.0, scale)
    return quasi_random_points(region, n, seed=seed, min_break_distance=margin,
                               break_distance=u.break_distance)


def jacobian_residual(
    u: PlanarMap,
    f_field,
    region: Region,
    n: int = 4096,
    seed: int | None = None,
    margin: float | None = None,
) -> tuple[float, float]:
    """(max, mean) of |det Du - f| over quasi-random samples off the breaks."""
    pts = _points_off_breaks(u, region, n, seed, margin)
    res = np.abs(det2(u.jacobian(pts)) - np.asarray(f_field(pts)))
    return float(np.max(res)), float(np.mean(res))


def lipschitz_estimate(
    u: PlanarMap,
    region: Region | None = None,
    n: int = 20000,
    seed: int | None = None,
) -> float:
    """Sampled maximum of the Frobenius norm |Du|; a lower bound for the sup."""
    pts = _points_off_breaks(u, region or u.domain, n, seed)
    return float(np.max(frobenius(u.jacobian(pts))))


@dataclass(frozen=True)
class ZhukovskyRow:
    r: float
    lhs: float
    rhs: float
    ratio: float


def zhukovsky_comparison(
    datum: RadialDatum,
    u: PlanarMap,
    p: float,
    radii,
) -> tuple[list[ZhukovskyRow], float]:
    """Per-circle comparison of the symmetric stretching against a competitor.

    For each radius r: lhs is the circle energy of the degree-one stretching
    for the datum, rhs is Z(lambda*) times the circle energy of u.  When u
    solves the same Jacobian equation and satisfies the parametric
    isoperimetric inequality, lhs <= rhs up to quadrature error; a competitor
    that does not solve it is refused before any circle energy.
    """
    radii = np.asarray(radii, dtype=float)
    report = condition_report(datum)
    if not math.isfinite(report.lambda_star):
        raise JacobianMismatch("datum has no finite lambda*; comparison undefined")
    shell = annulus(0.5 * float(np.min(radii)), float(np.max(radii)))
    worst, _ = jacobian_residual(u, datum.as_field(), shell, n=2048, seed=0)
    if worst >= 1e-3:
        raise JacobianMismatch(
            f"competitor violates the Jacobian constraint (max {worst:.3e})"
        )
    k = -1 if report.orientation == "nonpositive" else 1
    phi1 = GeneralisedStretching(profile_from_datum(datum, k)).as_planar_map()
    z = float(zhukovsky(report.lambda_star))
    rows = []
    for r in radii:
        lhs = circle_energy(phi1, p, float(r), n=2048)
        rhs = z * circle_energy(u, p, float(r), n=2048)
        rows.append(ZhukovskyRow(r=float(r), lhs=lhs, rhs=rhs, ratio=lhs / rhs))
    return rows, report.lambda_star
