"""Quadrature of 2p-Dirichlet energies, Jacobian residuals, circle energies.

Region energies use a tensor Gauss-Legendre rule on each polygon that a map
declares in a chart between its breaks (``maps.ChartPieces``), and
break-aligned composite Gauss-Legendre grids in polar coordinates over
Euclidean discs and annuli for every other map.  Circle energies use nested
periodic trapezoid rules, which are spectrally accurate for smooth
integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BreakRadius, EvaluationFailure, JacobianMismatch
from .geometry import TWO_PI, det2, frobenius
from .maps import FD_SCALE, ChartPieces, PlanarMap
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
# circle rules: the first level, the last level and the relative agreement
# of two consecutive levels that stops the doubling
_CIRCLE_START, _CIRCLE_CAP, _CIRCLE_RTOL = 256, 2048, 1e-13


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
) -> QuadratureGrid:
    """A polar tensor quadrature grid with roughly n x n nodes over a disc or
    an annulus without constraints."""
    if region.kind not in ("disc", "annulus") or region.constraints:
        raise ValueError(f"cannot grid region {region}")
    r_edges = [region.r_in, region.r_out] + [
        float(b) for b in break_radii if region.r_in < b < region.r_out
    ]
    t_edges = [0.0, TWO_PI] + [float(a) for a in break_angles if 0.0 < a < TWO_PI]
    rs, wr = composite_gl(r_edges, n)
    ts, wt = composite_gl(t_edges, n)
    nodes = np.stack([np.multiply.outer(rs, np.cos(ts)),
                      np.multiply.outer(rs, np.sin(ts))], axis=-1).reshape(-1, 2)
    weights = ((wr * rs)[:, None] * wt[None, :]).reshape(-1)
    return QuadratureGrid(nodes, weights)


def pieces_grid(pieces: ChartPieces, order: int) -> QuadratureGrid:
    """The order x order tensor Gauss-Legendre rule on each polygon of
    ``pieces``, in the polygon's graded unit-square coordinates (see
    ``maps.ChartPieces``), with its nodes mapped into the domain and its
    weights scaled by the pieces' weight."""
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    nodes, weights = [], []
    for vertices, (qs, qt) in pieces.polygons:
        v = np.asarray(vertices, dtype=float)
        s, ws = x**qs, w * qs * x ** (qs - 1)
        t, wt = x**qt, w * qt * x ** (qt - 1)
        e1 = v[1] - v[0]
        if len(v) == 3:  # the square collapsed at v0: area element s ds dt
            e2, t2, ws = v[2] - v[1], np.multiply.outer(s, t), ws * s
        else:
            e2, t2 = v[3] - v[0], np.broadcast_to(t, (order, order))
        area = abs(e1[0] * e2[1] - e1[1] * e2[0])
        chart = v[0] + s[:, None, None] * e1 + t2[..., None] * e2
        nodes.append(pieces.to_domain(chart.reshape(-1, 2)))
        weights.append((pieces.weight * area * np.multiply.outer(ws, wt)).reshape(-1))
    return QuadratureGrid(np.concatenate(nodes), np.concatenate(weights))


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
    """Quadrature of the 2p-energy over the region, on two levels of a rule
    aligned with u's breaks.

    Over its own domain a map that declares ``pieces`` (the counterexample)
    is integrated by ``pieces_grid``: order m = max(n // 16, 8) on the fine
    level and m // 2 on the coarse one, 6 m^2 + 6 (m/2)^2 = 30,720 nodes for
    the counterexample at n = 1024; ValueError unless the pieces tile the
    domain's area.  Every other map and region gets the polar grids of
    ``build_grid`` at n and max(n // 2, 8).  The report carries the fine
    value and, as the refinement estimate, the difference between the two
    levels: an indication of the error, not a bound.  Each level is summed
    over consecutive blocks of 2^15 nodes, one Jacobian call per block, so
    the temporaries stay a few MB at any grid size; a non-finite derivative
    in any block raises EvaluationFailure.
    """
    if u.pieces is not None and region == u.domain:
        order = max(n // 16, 8)
        fine, coarse = (pieces_grid(u.pieces, m) for m in (order, order // 2))
        area = region.area()
        if abs(float(np.sum(fine.weights)) - area) > 1e-12 * area:
            raise ValueError(f"the pieces of {u.name} do not tile its domain")
    else:
        fine = build_grid(region, n, u.break_radii, u.break_angles)
        coarse = build_grid(region, max(n // 2, 8), u.break_radii, u.break_angles)
    v_fine = _energy_on_grid(u, p, fine)
    v_coarse = _energy_on_grid(u, p, coarse)
    return EnergyReport(value=v_fine, refinement_estimate=abs(v_fine - v_coarse))


def circle_energy(u: PlanarMap, p: float, radii):
    """integral_0^{2pi} |Du(r e^{i theta})|^{2p} d theta for each r in radii
    (a scalar or an array), by nested periodic trapezoid rules.

    Every circle starts on 256 equally spaced angles.  Each doubling
    evaluates only the odd nodes of the finer rule, for all circles still
    open in one Jacobian call, and a circle stops once two consecutive
    levels agree to 1e-13 relative, or at 2,048 nodes.  A density that does
    not depend on theta (every stretching) stops at 512 nodes.
    """
    r = np.asarray(radii, dtype=float)
    flat = r.reshape(-1)
    for b in u.break_radii:
        near = np.abs(flat - b) <= 10 * FD_SCALE * np.maximum(1.0, flat)
        if np.any(near):
            raise BreakRadius(f"circle r={flat[near][0]} touches the break radius {b}")
    sums, values = np.zeros(flat.size), np.full(flat.size, np.nan)
    pending, n = np.arange(flat.size), _CIRCLE_START
    theta = np.arange(n) * (TWO_PI / n)
    while pending.size:
        pts = flat[pending, None, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        jac = u.jacobian(pts)
        dens = np.sum(jac * jac, axis=(-2, -1))
        if not np.all(np.isfinite(dens)):
            raise EvaluationFailure(f"{u.name} returned non-finite derivatives on S_r")
        sums[pending] += np.sum(dens**p, axis=-1)
        level = sums[pending] * (TWO_PI / n)
        done = (n >= _CIRCLE_CAP) | (np.abs(level - values[pending]) <= _CIRCLE_RTOL * level)
        values[pending] = level
        pending = pending[~done]
        theta = (np.arange(n) + 0.5) * (TWO_PI / n)
        n *= 2
    return values.reshape(r.shape)[()]


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
    lhs = circle_energy(phi1, p, radii)
    rhs = z * circle_energy(u, p, radii)
    rows = [ZhukovskyRow(r=float(r), lhs=float(left), rhs=float(right), ratio=float(left / right))
            for r, left, right in zip(radii, lhs, rhs)]
    return rows, report.lambda_star
