"""Evaluatable planar maps with closed-form Jacobians: ``PlanarMap``, central
finite differences, interface continuity reports and rotations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI
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
class PlanarMap:
    """A map from a planar region to the plane.

    ``fn`` maps (..., 2) arrays of points to (..., 2) arrays of values and
    ``jac`` to (..., 2, 2) Jacobian matrices.  ``break_distance`` returns, for
    each point, a conservative lower bound for the distance to any curve
    across which derivatives may jump; ``break_radii``/``break_angles`` list
    the polar-aligned subset of those curves for quadrature alignment.

    ``sector`` = (lo, hi), with 0 <= lo < hi <= 2 pi, is one fundamental
    sector of the symmetry group of the energy density |Du|^2: a group of k =
    2 pi / (hi - lo) orthogonal maps T, each with |Du(Tz)| = |Du(z)|, whose
    images of the sector tile the circle.  Region energies over discs and
    annuli centred at the origin integrate the sector alone and count it k
    times (``energy.build_grid``).  The default, the whole circle, declares
    no symmetry.
    """

    fn: callable
    domain: Region
    jac: callable
    break_distance: callable
    break_radii: tuple = ()
    break_angles: tuple = ()
    interfaces: tuple = ()
    name: str = "map"
    sector: tuple = (0.0, TWO_PI)

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
    rotates with alpha.  The result declares neither break angles nor a
    sector: the rotation moves u's mirror axes, so u's sector is no longer a
    fundamental sector of the rotated density's symmetries.
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
