"""Evaluatable planar maps with closed-form Jacobians."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IncompatibleTrace
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
    """

    fn: callable
    domain: Region
    jac: callable
    break_distance: callable
    break_radii: tuple = ()
    break_angles: tuple = ()
    interfaces: tuple = ()
    name: str = "map"

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(pts, dtype=float)))

    def jacobian(self, pts) -> np.ndarray:
        return np.asarray(self.jac(np.asarray(pts, dtype=float)))

    def breaks_clear(self, pts, margin: float) -> np.ndarray:
        return np.asarray(self.break_distance(np.asarray(pts, dtype=float))) > margin


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
    rotates with alpha.
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


def _mirrored_domain(domain: Region, axes: tuple) -> Region:
    # a reflection across the x axis mirrors y > 0 onto y < 0 and one across
    # the y axis mirrors x > 0 onto x < 0, so each drops the other letter
    dropped = {"y>0" if ax == "x" else "x>0" for ax in axes}
    kept = tuple(c for c in domain.constraints if c not in dropped)
    return replace(domain, constraints=kept)


def reflect_extend(u: PlanarMap, axes: tuple = ("x", "y"), trace_tol: float = 1e-8) -> PlanarMap:
    """Extend a quadrant or half-plane map by odd/even reflections.

    Across the x axis the extension is (u1(x,-y), -u2(x,-y)); across the y
    axis it is (-u1(-x,y), u2(-x,y)).  Both reflections have determinant -1
    on source and target, so the composition preserves the Jacobian.  The
    glued map is continuous iff the relevant component vanishes on the axis;
    that trace is checked on 512 samples and IncompatibleTrace is raised
    above trace_tol.
    """
    if not set(axes) <= {"x", "y"}:
        raise ValueError("axes must be drawn from {'x', 'y'}")

    lo, hi = u.domain.bbox()
    for ax in axes:
        # sample the axis segment adjacent to the existing domain
        if ax == "x":  # reflection across y = 0 needs u2 = 0 there
            span = np.linspace(lo[0], hi[0], 514)[1:-1]
            pts = np.stack([span, np.zeros_like(span)], axis=-1)
            comp = 1
        else:  # reflection across x = 0 needs u1 = 0 there
            span = np.linspace(lo[1], hi[1], 514)[1:-1]
            pts = np.stack([np.zeros_like(span), span], axis=-1)
            comp = 0
        eps = 1e-9 * max(1.0, float(np.max(np.abs(hi - lo))))
        inward = np.array([0.0, eps]) if ax == "x" else np.array([eps, 0.0])
        probe = pts + inward
        keep = u.domain.contains(probe)
        if np.any(keep):
            trace = np.abs(u(probe[keep])[:, comp])
            if float(np.max(trace)) > trace_tol:
                raise IncompatibleTrace(
                    f"component {comp + 1} does not vanish on the {ax} axis "
                    f"(max {np.max(trace):.3e})"
                )

    reflect_x = "x" in axes
    reflect_y = "y" in axes

    def fold(pts):
        pts = np.asarray(pts, dtype=float)
        src = pts.copy()
        sx = np.ones(pts.shape[:-1])
        sy = np.ones(pts.shape[:-1])
        if reflect_y:
            neg = src[..., 0] < 0
            src[..., 0] = np.abs(src[..., 0])
            sx = np.where(neg, -1.0, 1.0)
        if reflect_x:
            neg = src[..., 1] < 0
            src[..., 1] = np.abs(src[..., 1])
            sy = np.where(neg, -1.0, 1.0)
        return src, sx, sy

    def fn(pts):
        src, sx, sy = fold(pts)
        val = np.asarray(u.fn(src)).copy()
        val[..., 0] *= sx
        val[..., 1] *= sy
        return val

    def jac(pts):
        src, sx, sy = fold(pts)
        m = np.asarray(u.jac(src)).copy()
        # D(S u S) = S Du S with S = diag(sx, sy)
        m[..., 0, 1] *= sx * sy
        m[..., 1, 0] *= sx * sy
        return m

    def bd(pts):
        src, _, _ = fold(pts)
        inner = np.asarray(u.break_distance(src))
        pts = np.asarray(pts, dtype=float)
        # the axes themselves become potential derivative breaks
        axis_d = np.full(pts.shape[:-1], np.inf)
        if reflect_x:
            axis_d = np.minimum(axis_d, np.abs(pts[..., 1]))
        if reflect_y:
            axis_d = np.minimum(axis_d, np.abs(pts[..., 0]))
        return np.minimum(inner, axis_d)

    return PlanarMap(
        fn=fn,
        domain=_mirrored_domain(u.domain, axes),
        jac=jac,
        break_distance=bd,
        break_radii=u.break_radii,
        name=f"{u.name}_reflected",
    )
