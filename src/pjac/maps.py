"""Evaluatable planar maps with closed-form Jacobians: ``PlanarMap``, the
polygon pieces a map may declare for quadrature (``ChartPieces``), central
finite differences, interface continuity reports and rotations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regions import Region

FD_SCALE = 1e-6  # central-difference step is FD_SCALE * max(1, |x|)


def fd_jacobian(fn, pts: np.ndarray, scale: float = FD_SCALE) -> np.ndarray:
    """Central-difference Jacobian matrices of fn at pts, shape (..., 2, 2)."""
    pts = np.asarray(pts, dtype=float)
    h = scale * np.maximum(1.0, np.hypot(pts[..., 0], pts[..., 1]))
    out = np.empty(pts.shape[:-1] + (2, 2), dtype=float)
    for j in range(2):
        e = np.zeros_like(pts)
        e[..., j] = h
        diff = (np.asarray(fn(pts + e)) - np.asarray(fn(pts - e))) / (2 * h[..., None])
        out[..., 0, j] = diff[..., 0]
        out[..., 1, j] = diff[..., 1]
    return out


@dataclass(frozen=True)
class Interface:
    """A curve where two branches of a piecewise map meet.

    ``curve(t)`` parametrises the interface for t in [0, 1]; ``left`` and
    ``right`` evaluate the adjoining branches on its closure.
    """

    curve: callable
    left: callable
    right: callable
    label: str = ""


@dataclass(frozen=True)
class ChartPieces:
    """The domain of a map, cut into polygons of a chart on which the map's
    energy density is smooth.

    ``polygons`` holds (vertices, grading) pairs.  Three vertices make a
    triangle, the unit square collapsed onto it at vertex 0:
    w = v0 + s (v1 - v0) + s t (v2 - v1).  Four make a parallelogram with
    v2 = v1 + v3 - v0: w = v0 + s (v1 - v0) + t (v3 - v0).  grading = (qs, qt)
    substitutes s = a^qs and t = b^qt before the tensor Gauss rule in (a, b)
    is applied; an exponent above 1 clusters nodes toward s = 0 (vertex v0
    of a triangle, the edge v0 v3 of a parallelogram) or t = 0 (the edge
    v0 v1 of either), where the density has a layer.  ``to_domain``
    maps (..., 2) chart points into the domain.  ``weight`` is the constant
    factor from chart area to domain area, times the number of mirror copies
    of the polygons' union whose images tile the domain with the same energy
    density; together the polygons, counted ``weight`` times, must have the
    domain's area (``energy.region_energy`` checks it).
    """

    polygons: tuple
    to_domain: callable
    weight: float


@dataclass(frozen=True)
class PlanarMap:
    """A map from a planar region to the plane.

    ``fn`` maps (..., 2) arrays of points to (..., 2) arrays of values and
    ``jac`` to (..., 2, 2) Jacobian matrices.  ``break_distance`` returns, for
    each point, a conservative lower bound for the distance to any curve
    across which derivatives may jump; ``break_radii``/``break_angles`` list
    the polar-aligned subset of those curves for the polar quadrature grid.

    ``pieces``, when not None, declares polygons of a chart between all of
    the map's breaks (``ChartPieces``); region energies over ``domain``
    itself then use a tensor Gauss rule on each polygon instead of the polar
    grid (``energy.region_energy``).
    """

    fn: callable
    domain: Region
    jac: callable
    break_distance: callable
    break_radii: tuple = ()
    break_angles: tuple = ()
    interfaces: tuple = ()
    name: str = "map"
    pieces: ChartPieces | None = None

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(pts, dtype=float)))

    def jacobian(self, pts) -> np.ndarray:
        return np.asarray(self.jac(np.asarray(pts, dtype=float)))


def continuity_report(pmap: PlanarMap, n: int = 1000) -> dict:
    """Max trace mismatch of each declared interface, sampled at n points."""
    t = (np.arange(n) + 0.5) / n
    report = {}
    for iface in pmap.interfaces:
        pts = np.asarray(iface.curve(t))
        gap = np.asarray(iface.left(pts)) - np.asarray(iface.right(pts))
        report[iface.label or "interface"] = float(np.max(np.hypot(gap[..., 0], gap[..., 1])))
    return report


def rotate_map(u: PlanarMap, alpha: float) -> PlanarMap:
    """Precompose with the rotation by alpha: u_alpha(z) = u(e^{i alpha} z).

    The domain must be rotation invariant (disc or annulus without
    constraints); energies over it are unchanged and the Jacobian field
    rotates with alpha.  The result declares neither break angles nor
    pieces, since the rotation moves u's breaks; its region energies use the
    polar grid.
    """
    if u.domain.kind not in ("disc", "annulus") or u.domain.constraints:
        raise ValueError("rotate_map needs a rotation-invariant domain")
    c, s = np.cos(alpha), np.sin(alpha)
    rot = np.array([[c, -s], [s, c]])

    def fn(pts):
        return u.fn(pts @ rot.T)

    def jac(pts):
        return u.jac(pts @ rot.T) @ rot

    def bd(pts):
        return u.break_distance(pts @ rot.T)

    return PlanarMap(
        fn=fn,
        domain=u.domain,
        jac=jac,
        break_distance=bd,
        break_radii=u.break_radii,
        name=f"{u.name}_rot{alpha:g}",
    )
