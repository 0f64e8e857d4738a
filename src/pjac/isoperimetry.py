"""Curve length, winding-number fields, and isoperimetric inequalities.

The image of a source circle under a map is handled as a closed polyline.
Degree moments integrate the integer winding number (and its square) of that
polyline over a pixel grid; together with the length they express both the
classical inequality 4 pi * enclosed area <= length^2 and its generalised
form 4 pi * integral(w^2) <= length^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExcessiveMasking, PjacError
from .geometry import TWO_PI, winding_number

MASK_RADIUS_FACTOR = 5e-4  # grid points this close to the curve (x diameter) are masked


@dataclass(frozen=True)
class ImageCurve:
    """A closed polyline u(r e^{i theta}); samples include the closing point."""

    samples: np.ndarray  # (n + 1, 2), last row equals the first

    def __post_init__(self):
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            raise ValueError("samples must be an (n, 2) array, n >= 4")
        if not np.all(np.isfinite(pts)):
            raise ValueError("curve samples must be finite")
        if not np.allclose(pts[0], pts[-1], rtol=0, atol=1e-9 * (1 + np.abs(pts).max())):
            raise ValueError("curve must close (first and last samples equal)")
        object.__setattr__(self, "samples", pts)

    @property
    def vertices(self) -> np.ndarray:
        """Open vertex list (closing duplicate removed)."""
        return self.samples[:-1]

    def diameter(self) -> float:
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        return float(np.hypot(*(hi - lo)))


def image_curve(u, r: float, n: int = 1024) -> ImageCurve:
    """Sample the image of the circle |z| = r under the map u."""
    if n < 256:
        raise ValueError("image curves need at least 256 samples")
    theta = np.arange(n + 1) * (TWO_PI / n)
    theta[-1] = 0.0  # close exactly
    pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return ImageCurve(samples=np.asarray(u(pts)))


def curve_length(curve: ImageCurve) -> float:
    d = np.diff(curve.samples, axis=0)
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


@dataclass(frozen=True)
class WindingField:
    """Integer winding numbers of a closed curve on a pixel grid.

    Pixels whose centre lies within the mask radius of the curve are marked
    invalid and excluded from both degree moments symmetrically.
    """

    winding: np.ndarray  # (ny, nx) int
    masked: np.ndarray   # (ny, nx) bool
    cell_area: float

    @property
    def masked_fraction(self) -> float:
        return float(np.mean(self.masked))


def _scanline_winding(verts: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Winding numbers on the tensor grid by signed ray crossings.

    For each horizontal line, every edge crossing strictly to the right of a
    grid point contributes its direction (+1 upward, -1 downward), using the
    half-open rule on edge endpoints so vertices are never double counted.
    """
    a = verts
    b = np.roll(verts, -1, axis=0)
    w = np.zeros((len(ys), len(xs)), dtype=np.int64)
    for j, y in enumerate(ys):
        up = (a[:, 1] <= y) & (b[:, 1] > y)
        dn = (b[:, 1] <= y) & (a[:, 1] > y)
        hit = up | dn
        if not np.any(hit):
            continue
        ah, bh = a[hit], b[hit]
        t = (y - ah[:, 1]) / (bh[:, 1] - ah[:, 1])
        xc = ah[:, 0] + t * (bh[:, 0] - ah[:, 0])
        direction = np.where(up[hit], 1, -1)
        order = np.argsort(xc)
        xc, direction = xc[order], direction[order]
        suffix = np.concatenate([np.cumsum(direction[::-1])[::-1], [0]])
        w[j, :] = suffix[np.searchsorted(xc, xs, side="right")]
    return w


def _mask_near_curve(verts: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     radius: float) -> np.ndarray:
    """Pixels within ``radius`` of any curve segment (segment-window sweep)."""
    mask = np.zeros((len(ys), len(xs)), dtype=bool)
    a = verts
    b = np.roll(verts, -1, axis=0)
    dx = xs[1] - xs[0] if len(xs) > 1 else radius
    dy = ys[1] - ys[0] if len(ys) > 1 else radius
    for s in range(len(a)):
        x0, x1 = sorted((a[s, 0], b[s, 0]))
        y0, y1 = sorted((a[s, 1], b[s, 1]))
        i0 = np.searchsorted(xs, x0 - radius - dx)
        i1 = np.searchsorted(xs, x1 + radius + dx)
        j0 = np.searchsorted(ys, y0 - radius - dy)
        j1 = np.searchsorted(ys, y1 + radius + dy)
        X, Y = np.meshgrid(xs[i0:i1], ys[j0:j1], indexing="xy")
        d = b[s] - a[s]
        denom = float(d @ d) or 1.0
        t = np.clip(((X - a[s, 0]) * d[0] + (Y - a[s, 1]) * d[1]) / denom, 0.0, 1.0)
        px = a[s, 0] + t * d[0] - X
        py = a[s, 1] + t * d[1] - Y
        mask[j0:j1, i0:i1] |= px * px + py * py <= radius * radius
    return mask


def winding_field(curve: ImageCurve, resolution: int = 512) -> WindingField:
    """Winding numbers of the curve on a grid over its bounding box, inflated
    by a tenth of its extent on each side."""
    verts = curve.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    pad = 0.1 * np.maximum(hi - lo, 1e-12)
    lo, hi = lo - pad, hi + pad
    xs = lo[0] + (np.arange(resolution) + 0.5) * (hi[0] - lo[0]) / resolution
    ys = lo[1] + (np.arange(resolution) + 0.5) * (hi[1] - lo[1]) / resolution
    cell_area = float((hi[0] - lo[0]) * (hi[1] - lo[1]) / resolution**2)
    winding = _scanline_winding(verts, xs, ys)
    mask = _mask_near_curve(verts, xs, ys, MASK_RADIUS_FACTOR * curve.diameter())
    winding[mask] = 0
    return WindingField(winding=winding, masked=mask, cell_area=cell_area)


def degree_moments(curve: ImageCurve, resolution: int = 512) -> tuple[float, float]:
    """(I1, I2) = Riemann sums of the winding number and its square.

    I1 approximates the integral of the topological degree (the signed area
    swept by the curve); I2 enters the generalised isoperimetric inequality
    4 pi I2 <= length^2.  Raises ExcessiveMasking when more than 1% of the
    grid is too close to the curve to classify.
    """
    field = winding_field(curve, resolution=resolution)
    if field.masked_fraction >= 0.01:
        raise ExcessiveMasking(
            f"{100 * field.masked_fraction:.2f}% of grid points sit on the curve"
        )
    w = field.winding[~field.masked]
    i1 = float(np.sum(w)) * field.cell_area
    i2 = float(np.sum(w.astype(float) ** 2)) * field.cell_area
    return i1, i2


def fit_circle(pts: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Algebraic circle fit; returns (centre, radius, max relative deviation)."""
    pts = np.asarray(pts, dtype=float)
    A = np.column_stack([2 * pts[:, 0], 2 * pts[:, 1], np.ones(len(pts))])
    rhs = pts[:, 0] ** 2 + pts[:, 1] ** 2
    (cx, cy, c), *_ = np.linalg.lstsq(A, rhs, rcond=None)
    radius = math.sqrt(max(c + cx * cx + cy * cy, 0.0))
    dist = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    residual = float(np.max(np.abs(dist - radius))) / max(radius, 1e-300)
    return np.array([cx, cy]), radius, residual


@dataclass(frozen=True)
class IsoperimetricResult:
    lhs: float        # 4 pi * area enclosed according to the Jacobian
    rhs: float        # squared curve length
    holds: bool
    equality: bool


def isoperimetric_check(curve: ImageCurve, area_from_jacobian: float) -> IsoperimetricResult:
    """Check 4 pi * area <= length^2 and detect the equality case.

    Equality is flagged only when the ratio is within tol of 1 AND the
    samples fit a circle to relative residual tol AND the winding number
    about the fitted centre is +-1; the ratio alone cannot distinguish a
    circle traversed once from a near-circle at finite sampling.
    """
    tol = 1e-3
    length = curve_length(curve)
    lhs = 4.0 * math.pi * area_from_jacobian
    rhs = length * length
    holds = lhs <= rhs * (1.0 + tol)
    equality = False
    if abs(lhs / rhs - 1.0) < tol:
        centre, _, resid = fit_circle(curve.vertices)
        if resid < tol:
            try:
                w = winding_number(curve.vertices, centre)
            except PjacError:
                w = 0
            equality = abs(w) == 1
    return IsoperimetricResult(lhs=lhs, rhs=rhs, holds=holds, equality=equality)
