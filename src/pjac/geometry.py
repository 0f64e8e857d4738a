"""Planar 2x2 linear algebra, polar lifts of sampled circles, winding numbers.

Matrices are numpy arrays of shape (..., 2, 2); points are arrays of shape
(..., 2).  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonPositiveRadius,
    OriginHit,
    PointOnCurve,
    UndersampledCurve,
)

TWO_PI = 2.0 * np.pi


def det2(a: np.ndarray) -> np.ndarray:
    """Determinant of a stack of 2x2 matrices."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def frobenius(a: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm tr(A A^T)^(1/2) of a stack of matrices."""
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


def cofactor(a: np.ndarray) -> np.ndarray:
    """Cofactor matrix: cof([[a, b], [c, d]]) = [[d, -c], [-b, a]].

    Satisfies det A = <A v, cof(A) v> and |cof(A) v| = |A v_perp| for every
    unit vector v.
    """
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 1, 0]
    out[..., 1, 0] = -a[..., 0, 1]
    out[..., 1, 1] = a[..., 0, 0]
    return out


def polar_jacobian(pts: np.ndarray, r: np.ndarray, ur: np.ndarray,
                   ut: np.ndarray) -> np.ndarray:
    """Du from the polar partials ur = d_r u and ut = (1/r) d_theta u.

    Du = ur (x, y)/r + ut (-y, x)/r, with r = |(x, y)| passed in by the caller.
    """
    x, y = pts[..., 0], pts[..., 1]
    out = np.empty(pts.shape[:-1] + (2, 2))
    out[..., :, 0] = ur * (x / r)[..., None] + ut * (-y / r)[..., None]
    out[..., :, 1] = ur * (y / r)[..., None] + ut * (x / r)[..., None]
    return out


def wrap_angle(x):
    """Reduce angles to the principal branch [-pi, pi)."""
    return (np.asarray(x) + np.pi) % TWO_PI - np.pi


@dataclass(frozen=True)
class CircleSamples:
    """Values of a planar map on N uniform angles of the circle |z| = radius.

    Angles start at 0, increase strictly, and cover [0, 2*pi).
    """

    radius: float
    theta: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if self.radius <= 0:
            raise NonPositiveRadius(f"radius {self.radius}")
        n = theta.shape[0]
        if n < 16:
            raise ValueError("need at least 16 samples")
        if theta[0] != 0.0 or np.any(np.diff(theta) <= 0):
            raise ValueError("angles must start at 0 and increase strictly")
        if not np.allclose(np.diff(theta), TWO_PI / n, rtol=0, atol=1e-12):
            raise ValueError("angles must be uniformly spaced over [0, 2pi)")
        if values.shape != (n, 2) or not np.all(np.isfinite(values)):
            raise ValueError("values must be a finite (n, 2) array")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", values)


def sample_circle(fn, radius: float, n: int = 256) -> CircleSamples:
    """Sample a planar map on n uniform angles of the circle |z| = radius."""
    theta = np.arange(n) * (TWO_PI / n)
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return CircleSamples(radius=radius, theta=theta, values=np.asarray(fn(pts)))


@dataclass(frozen=True)
class PolarLift:
    """Continuous polar representation psi * exp(i gamma) of circle samples.

    ``gamma`` is unwrapped by nearest-branch continuation so successive jumps
    stay below pi; ``winding`` is the integer closure defect divided by 2*pi.
    """

    psi: np.ndarray
    gamma: np.ndarray
    winding: int

    def reconstruct(self) -> np.ndarray:
        return self.psi[:, None] * np.stack(
            [np.cos(self.gamma), np.sin(self.gamma)], axis=-1
        )


def polar_lift(samples: CircleSamples) -> PolarLift:
    """Lift circle samples to (psi, gamma) with a continuous argument.

    Raises OriginHit when a sample sits at the origin and UndersampledCurve
    when a raw angular jump exceeds pi/2, which would make the unwrapping
    (and hence the winding number) ambiguous.
    """
    v = samples.values
    psi = np.hypot(v[:, 0], v[:, 1])
    if np.any(psi == 0.0):
        raise OriginHit("curve passes through the origin")
    raw = np.arctan2(v[:, 1], v[:, 0])
    jumps = wrap_angle(np.diff(raw))
    closing = wrap_angle(raw[0] - raw[-1])
    if np.max(np.abs(jumps), initial=0.0) > np.pi / 2 or abs(closing) > np.pi / 2:
        raise UndersampledCurve("raw argument jump exceeds pi/2")
    gamma = raw[0] + np.concatenate([[0.0], np.cumsum(jumps)])
    total = gamma[-1] + closing - gamma[0]
    winding = int(np.rint(total / TWO_PI))
    return PolarLift(psi=psi, gamma=gamma, winding=winding)


def _closed_vertices(curve) -> np.ndarray:
    if isinstance(curve, CircleSamples):
        return curve.values
    pts = np.asarray(curve, dtype=float)
    if np.allclose(pts[0], pts[-1], rtol=0, atol=0):
        pts = pts[:-1]
    return pts


def _min_distance_to_polyline(pts: np.ndarray, point: np.ndarray) -> float:
    a = pts
    b = np.roll(pts, -1, axis=0)
    d = b - a
    w = point[None, :] - a
    denom = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", w, d) / np.where(denom == 0, 1.0, denom), 0, 1)
    proj = a + t[:, None] * d
    return float(np.min(np.hypot(*(point[None, :] - proj).T)))


def winding_number(curve, point) -> int:
    """Signed winding number of a closed polyline around a point.

    The polyline is the closure of the given vertices.  Points closer to the
    polyline than 1e-12 times the curve diameter are rejected (PointOnCurve)
    rather than perturbed: the result must be an exact integer, never a
    heuristic rounding.
    """
    pts = _closed_vertices(curve)
    point = np.asarray(point, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    diameter = float(np.hypot(*(hi - lo)))
    if _min_distance_to_polyline(pts, point) <= 1e-12 * max(diameter, 1e-300):
        raise PointOnCurve(f"point {point} lies on the curve")
    rel = pts - point[None, :]
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    total = np.sum(wrap_angle(np.diff(ang))) + wrap_angle(ang[0] - ang[-1])
    return int(np.rint(total / TWO_PI))

