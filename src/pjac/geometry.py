"""Planar 2x2 linear algebra and winding numbers of closed polylines.

Matrices are numpy arrays of shape (..., 2, 2); points are arrays of shape
(..., 2).  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import PointOnCurve

TWO_PI = 2.0 * np.pi


def det2(a: np.ndarray) -> np.ndarray:
    """Determinant of a stack of 2x2 matrices."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def frobenius(a: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm tr(A A^T)^(1/2) of a stack of matrices."""
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


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

    The polyline is the closure of the given vertices (a repeated closing
    vertex only adds an edge of length zero).  Points closer to the polyline
    than 1e-12 times the curve diameter are rejected (PointOnCurve) rather
    than perturbed: the result must be an exact integer, never a heuristic
    rounding.
    """
    pts = np.asarray(curve, dtype=float)
    point = np.asarray(point, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    diameter = float(np.hypot(*(hi - lo)))
    if _min_distance_to_polyline(pts, point) <= 1e-12 * max(diameter, 1e-300):
        raise PointOnCurve(f"point {point} lies on the curve")
    rel = pts - point[None, :]
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    total = np.sum(wrap_angle(np.diff(ang))) + wrap_angle(ang[0] - ang[-1])
    return int(np.rint(total / TWO_PI))

