"""Numerical prescribed-Jacobian correction on convex trapezoids.

Pipeline: an explicit integral-operator solution of div xi = h with zero
boundary values (Bogovskii formula over a smooth bump supported in an
interior ball), then a mass-transport flow

    dY/ds = xi(Y) / (s + (1 - s) g(Y)),    s: 0 -> 1,

whose time-one map sigma satisfies J sigma = g: along trajectories the
quantity (s + (1-s) g)(Y_s) * det DY_s is conserved and equals g at s = 0.

The domain is a convex trapezoid whose sides P0P3 and P1P2 are parallel, so
the bilinear chart onto it inverts with one division.  The quadrature works in
chart coordinates (s, q) on [0, 1]^2, with composite Gauss-Legendre panels;
the 1/|x - y| kernel singularity is split by a smooth radial cutoff in chart
distance: the mollified far part rides the fixed panel grid, and the
complementary near part is a local polar integral (the area element cancels
the singularity) clipped exactly to the chart square.  The ray integral of the bump behind each kernel term has a closed
form: on the chord where the ray meets the star ball the bump is a cubic in a
quadratic weight, so the integrand is a polynomial of degree 7 in the ray
parameter, integrated exactly by two Horner polynomials.  Field values get
cached on a chart grid, pinned to the operator's exact zero boundary rows, and
interpolated with one bicubic vector-valued spline for flow use; direct
(non-cached) evaluation remains available for divergence checks.

Cost per evaluation point: a direct evaluation sums (4 N)^2 far-field kernel
terms over the panel nodes (N = ``n_panels``) plus 48 x 14 near-field terms
(midpoint angles times Gauss-Legendre radii), each a few dozen flops with no
inner quadrature.  The near field runs for 32 points at a time, so ``h``, the
chart and the kernel see one array of 32 x 672 nodes per chunk.  The far
field runs for 4 points at a time against all panel nodes, with both vector
components as contiguous blocks; only the pairs whose ray meets the star
ball reach the square root and the closed form, and the cutoff ramp, which is
1 beyond chart distance 2.5 / N, is computed only on the slice of panel rows
within that distance in s.  A cached evaluation is one chart inversion and one
spline query that shares the B-spline basis between both components.  A flow
takes 4 cached evaluations per RK4 step, and each field gets the fewest of 8,
16, 32 or 64 steps whose end-point coordinates change by at most
1e-4 x sqrt(area) when the steps double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import NdBSpline, RectBivariateSpline

from .errors import (
    CorrectorDiverged,
    DegenerateDomain,
    FlowEscapedDomain,
    NonPositiveDensity,
    NonZeroMean,
    PreconditionViolated,
)
from .energy import composite_gl
from .geometry import det2
from .maps import fd_jacobian

_ESCAPE_TOL = 5e-4  # chart units
# RK4 steps of one flow: the step-doubling choice tries 8, 16, 32 and falls
# back to 64; a flow that escapes retries with doubled steps up to 256
_MIN_STEPS, _STEPS, _MAX_STEPS = 8, 64, 256
_STEP_TOL = 1e-4  # step-doubling tolerance on end points, in units of scale()
_CHUNK = 32  # points per near-field batch: 32 x 672 nodes keep the temporaries small
# points per far-field batch against all panel nodes: 4 x 6400 pairs at 20
# panels; larger blocks run no faster and raise the peak memory
_FAR_BLOCK = 4
# near-field rule: midpoint angles times Gauss-Legendre radii per angle
_N_PHI = 48
_U_GL = np.polynomial.legendre.leggauss(14)


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass(frozen=True)
class QuadDomain:
    """Convex trapezoid with a bilinear chart from the unit square.

    Corners are counterclockwise; the chart is
    Y(s, q) = (1-s)(1-q) P0 + s (1-q) P1 + s q P2 + (1-s) q P3.
    The sides P0P3 and P1P2 must be parallel: then the equation for q in the
    chart's inverse loses its q^2 term and ``from_xy`` is one division.
    ``star_center``/``star_radius`` give an interior ball with respect to
    which the domain is star-shaped (automatic for convex quads).  The chart,
    its inverse and its Jacobian determinant compute on x and y arrays, one
    scalar corner coefficient at a time.
    """

    corners: tuple
    star_center: tuple
    star_radius: float

    def __post_init__(self):
        P = np.asarray(self.corners, dtype=float)
        if P.shape != (4, 2):
            raise DegenerateDomain("need exactly four corners")
        if self.area() <= 0:
            raise DegenerateDomain("corners must be counterclockwise")
        for i in range(4):
            a, b, c = P[i], P[(i + 1) % 4], P[(i + 2) % 4]
            if _cross(b - a, c - b) <= 0:
                raise DegenerateDomain("quadrilateral must be convex")
        _, _, c, d = self._abcd
        if abs(_cross(c, d)) >= 1e-14:
            raise DegenerateDomain("sides P0P3 and P1P2 must be parallel")
        ctr = np.asarray(self.star_center, dtype=float)
        if self.star_radius <= 0 or not self.contains(ctr[None, :])[0]:
            raise DegenerateDomain("star ball must sit inside the domain")

    @property
    def _abcd(self):
        P = np.asarray(self.corners, dtype=float)
        a = P[0]
        b = P[1] - P[0]
        c = P[3] - P[0]
        d = P[2] - P[1] - P[3] + P[0]
        return a, b, c, d

    def area(self) -> float:
        P = np.asarray(self.corners, dtype=float)
        x, y = P[:, 0], P[:, 1]
        return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def scale(self) -> float:
        return math.sqrt(self.area())

    def to_xy(self, s, q) -> np.ndarray:
        a, b, c, d = self._abcd
        s = np.asarray(s, dtype=float)
        q = np.asarray(q, dtype=float)
        return np.stack([a[k] + b[k] * s + c[k] * q + d[k] * s * q for k in (0, 1)],
                        axis=-1)

    def chart_jdet(self, s, q) -> np.ndarray:
        """det DY(s, q) = cross(Y_s, Y_q), Y_s = b + d q and Y_q = c + d s."""
        a, b, c, d = self._abcd
        s = np.asarray(s, dtype=float)
        q = np.asarray(q, dtype=float)
        return (b[0] + d[0] * q) * (c[1] + d[1] * s) - (b[1] + d[1] * q) * (c[0] + d[0] * s)

    def from_xy(self, pts) -> tuple[np.ndarray, np.ndarray]:
        a, b, c, d = self._abcd
        pts = np.asarray(pts, dtype=float)
        ex, ey = pts[..., 0] - a[0], pts[..., 1] - a[1]
        # q solves cross(e - c q, b + d q) = 0: its q^2 coefficient
        # -cross(c, d) vanishes for parallel P0P3, P1P2
        B = (ex * d[1] - ey * d[0]) - _cross(c, b)
        C = ex * b[1] - ey * b[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            qv = -C / B
        # s projects e - c q onto Y_s = b + d q
        gx, gy = b[0] + d[0] * qv, b[1] + d[1] * qv
        sv = ((ex - c[0] * qv) * gx + (ey - c[1] * qv) * gy) / (gx * gx + gy * gy)
        return sv, qv

    def outside_by(self, pts) -> np.ndarray:
        s, q = self.from_xy(pts)
        return np.maximum.reduce([-s, s - 1.0, -q, q - 1.0])

    def contains(self, pts) -> np.ndarray:
        return self.outside_by(pts) <= 0.0

    def boundary_points(self, n_per_edge: int = 64) -> np.ndarray:
        t = (np.arange(n_per_edge) + 0.5) / n_per_edge
        z = np.zeros_like(t)
        o = np.ones_like(t)
        sq = np.concatenate(
            [
                np.stack([t, z], axis=-1),
                np.stack([o, t], axis=-1),
                np.stack([1 - t, o], axis=-1),
                np.stack([z, 1 - t], axis=-1),
            ]
        )
        return self.to_xy(sq[:, 0], sq[:, 1])


def unit_square_domain() -> QuadDomain:
    return QuadDomain(
        corners=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        star_center=(0.5, 0.5),
        star_radius=0.22,
    )


def wedge_domain() -> QuadDomain:
    """The quarter-ring trapezoid {x, y > 0, 2 < x + y < 3}.

    The star ball is the largest that comfortably fits (the inradius is
    about 0.354); a bigger ball means a gentler bump weight and a smoother
    kernel.
    """
    return QuadDomain(
        corners=((2.0, 0.0), (3.0, 0.0), (0.0, 3.0), (0.0, 2.0)),
        star_center=(1.25, 1.25),
        star_radius=0.34,
    )


def panel_nodes(domain: QuadDomain, n_panels: int):
    """Composite 4-point Gauss-Legendre tensor nodes over the chart square.

    Returns (sq, xy, weights) with weights carrying the chart Jacobian, so
    sums approximate integrals over the physical domain.
    """
    nodes_1d, weights_1d = composite_gl([0.0, 1.0], 4 * n_panels)
    S, Q = np.meshgrid(nodes_1d, nodes_1d, indexing="ij")
    WS, WQ = np.meshgrid(weights_1d, weights_1d, indexing="ij")
    sq = np.stack([S.ravel(), Q.ravel()], axis=-1)
    xy = domain.to_xy(sq[:, 0], sq[:, 1])
    w = WS.ravel() * WQ.ravel() * domain.chart_jdet(sq[:, 0], sq[:, 1])
    return sq, xy, w


def _vector_spline(grid: np.ndarray, values: np.ndarray) -> NdBSpline:
    """Bicubic interpolant of an (m, m, 2) grid of vectors as one spline.

    Knots and coefficients are those of a RectBivariateSpline per component,
    stacked on a last axis, so each query computes the B-spline basis once for
    both components.  Unlike FITPACK it does not clamp: callers keep queries
    inside [grid[0], grid[-1]]^2.
    """
    parts = [RectBivariateSpline(grid, grid, values[..., j], kx=3, ky=3)
             for j in range(2)]
    knots = parts[0].get_knots()
    shape = (len(knots[0]) - 4, len(knots[1]) - 4)
    coeffs = np.stack([p.get_coeffs().reshape(shape) for p in parts], axis=-1)
    return NdBSpline(knots, coeffs, 3)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """0 for t <= 1/2, 1 for t >= 1, C^1 cubic ramp in between."""
    tau = np.clip(2.0 * np.asarray(t) - 1.0, 0.0, 1.0)
    return tau * tau * (3.0 - 2.0 * tau)


class VectorField:
    """div xi = h with xi = 0 on (and outside) the domain boundary.

    ``direct_eval`` performs the full singular quadrature; ``eval`` uses the
    bicubic chart-grid cache and returns zero outside the domain.  The
    1/|x-y| kernel is split with a smooth radial cutoff (in chart distance):
    the mollified far part rides the fixed panel grid while the complementary
    near part is integrated in local polar coordinates, keeping the computed
    field continuous in x.  Each kernel term carries the ray integral of the
    bump in closed form (see ``_kernel``), with the y-only terms of the panel
    grid computed once per field.

    Cost: ``direct_eval`` evaluates the 48 x 14 polar nodes of 32 points at
    a time in one array, then the far field of 4 points at a time against
    the 16 n_panels^2 panel nodes, with the ramp only on the panel rows
    within the cutoff radius of each point; ``eval`` builds the cache once,
    (cache - 1)^2 direct evaluations at the interior chart nodes, then costs
    one vector spline query per point.
    """

    def __init__(self, h, domain: QuadDomain, n_panels: int = 20, cache: int = 48):
        self.domain = domain
        self.h = h
        self.n_panels = n_panels
        # cutoff radius in chart units: 2.5 panels wide, so the mollified
        # far part stays resolvable by the (equally anisotropic) panel grid
        self._delta = 2.5 / n_panels
        # the bump is the unit-mass C^2 profile 4/(pi r^2) (1 - |y-c|^2/r^2)^3
        # on the star ball: it varies on the whole ball scale instead of
        # piling a boundary layer at its rim
        self._center = np.asarray(domain.star_center, dtype=float)
        self._radius = float(domain.star_radius)

        self._sq, self._xy, self._w = panel_nodes(domain, n_panels)
        self._hy = np.asarray(h(self._xy), dtype=float)
        # the panel grid component-first, (2, 1, K), for blocks of points,
        # and the y-only terms of the far-field kernel on it
        self._xyt = self._xy.T[:, None, :].copy()
        self._yc = self._xyt - self._center[:, None, None]
        self._c2 = np.sum(self._yc * self._yc, axis=0) - self._radius**2
        self._wh = self._w * self._hy

        total = float(np.sum(self._w * self._hy))
        scale = float(np.sum(self._w * np.abs(self._hy)))
        if abs(total) > 1e-8 * max(1.0, scale):
            raise NonZeroMean(f"divergence data has mean {total:.3e}")

        self._cache_n = cache
        self._spline = None

    # -- direct singular quadrature -----------------------------------------

    def _kernel(self, d: np.ndarray, yc: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """integral_1^inf bump(y + t d) t dt for each pair with d = x - y.

        ``d = x - y`` and ``yc = y - c`` hold their two components on the
        first axis, so each component is one contiguous block;
        ``c2 = |y - c|^2 - r^2`` broadcasts against ``d[0]``, the shape of
        the result.  ``yc`` and ``c2`` depend on y only and are computed once
        per field for the panel grid.  The kernel of the Bogovskii formula is
        this weight times ``d``.

        On the chord t1 < t < t2 where the ray meets the star ball, the bump
        is (4/(pi r^2)) w^3 with weight w = (a2/r^2)(t - t1)(t2 - t) and
        a2 = |x - y|^2, so the integrand is a polynomial of degree 7 in t.
        With L = t2 - t1, u = (t2 - t)/L and v = (t2 - max(t1, 1))/L,

            integral = (4/(pi r^2)) (a2/r^2)^3 L^7 (t2 P3(v) - L Q(v)),

        P3(v) = int_0^v u^3 (1-u)^3 du, Q(v) = int_0^v u^4 (1-u)^3 du, both
        in Horner form with the leading power of v factored out.  The bracket
        equals t1 P3 + L P4 (P4 = P3 - Q) but keeps both terms positive, so a
        chord mostly behind y loses no digits.  Only pairs whose line meets
        the ball (a positive discriminant, which also rules out x = y) reach
        the square root, and only those whose chord ends beyond x reach the
        polynomials.
        """
        r2 = self._radius**2
        a2 = d[0] * d[0] + d[1] * d[1]
        bh = d[0] * yc[0] + d[1] * yc[1]
        disc = bh * bh - a2 * c2
        out = np.zeros(disc.shape)
        idx = np.flatnonzero(disc > 0.0)
        a2, bh = a2.ravel()[idx], bh.ravel()[idx]
        sq = np.sqrt(disc.ravel()[idx])
        t2 = (sq - bh) / a2
        ahead = t2 > 1.0
        idx, a2, sq, t2 = idx[ahead], a2[ahead], sq[ahead], t2[ahead]
        length = 2.0 * sq / a2
        span = np.minimum(length, t2 - 1.0)  # L v
        v = span / length
        # P3(v) / v^4 and Q(v) / v^5, so t2 P3 - L Q = v^4 (t2 p3 - span q)
        p3 = 0.25 + v * (-0.6 + v * (0.5 - v / 7.0))
        q = 0.2 + v * (-0.5 + v * (3.0 / 7.0 - v / 8.0))
        scale = a2 * length * length / r2  # (a2/r^2)^3 L^7 = scale^3 L
        v2 = v * v
        bracket = t2 * p3 - span * q
        out.flat[idx] = (4.0 / (math.pi * r2)) * scale**3 * length * (v2 * v2) * bracket
        return out

    def _local_polar(self, xs: np.ndarray, s_star: np.ndarray,
                     q_star: np.ndarray) -> np.ndarray:
        """Near-field part: chart-polar integral of the complementary cutoff.

        The chart area element cancels the kernel singularity (the chart is
        bi-Lipschitz), and the radial extent is clipped exactly to the chart
        square per angle, so the integrand never jumps at the boundary.
        ``xs`` is (P, 2) with chart coordinates ``s_star``, ``q_star`` of
        shape (P,); the P x 48 x 14 nodes go through ``h`` in one call.
        """
        delta = self._delta
        phi = (np.arange(_N_PHI) + 0.5) * (2 * np.pi / _N_PHI)
        wphi = 2 * np.pi / _N_PHI
        cs, sn = np.cos(phi), np.sin(phi)
        n = len(xs)
        s_star, q_star = s_star[:, None], q_star[:, None]
        with np.errstate(divide="ignore"):
            rs = np.where(cs > 1e-12, (1.0 - s_star) / cs,
                          np.where(cs < -1e-12, -s_star / cs, np.inf))
            rq = np.where(sn > 1e-12, (1.0 - q_star) / sn,
                          np.where(sn < -1e-12, -q_star / sn, np.inf))
        R = np.maximum(np.minimum(delta, np.minimum(rs, rq)), 0.0)
        ug, wu = _U_GL
        us = 0.5 * R[..., None] * (ug + 1.0)
        ws = 0.5 * R[..., None] * wu
        ss = (s_star[..., None] + us * cs[:, None]).reshape(n, -1)
        qq = (q_star[..., None] + us * sn[:, None]).reshape(n, -1)
        ys = self.domain.to_xy(ss, qq)
        hv = np.asarray(self.h(ys.reshape(-1, 2)), dtype=float).reshape(ss.shape)
        jd = self.domain.chart_jdet(ss, qq)
        yc = np.moveaxis(ys - self._center, -1, 0)
        d = np.moveaxis(xs[:, None, :] - ys, -1, 0)
        k = self._kernel(d, yc, np.sum(yc * yc, axis=0) - self._radius**2)
        cut = 1.0 - _smoothstep(us / delta)
        wtot = (ws * us * cut).reshape(n, -1) * wphi * jd * hv
        return np.sum(d * (k * wtot), axis=-1).T

    def direct_eval(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        out = np.zeros_like(flat)
        s_all, q_all = self.domain.from_xy(flat)
        inside = np.nonzero((s_all >= 0) & (s_all <= 1) & (q_all >= 0) & (q_all <= 1))[0]
        for start in range(0, len(inside), _CHUNK):
            idx = inside[start:start + _CHUNK]
            out[idx] = self._local_polar(flat[idx], s_all[idx], q_all[idx])
        # the ramp is 1 beyond chart distance delta; the panel nodes are
        # s-major, so those within delta of a point in s form one slice
        s_nodes = self._sq[:, 0]
        lo = np.searchsorted(s_nodes, s_all - self._delta, side="left")
        hi = np.searchsorted(s_nodes, s_all + self._delta, side="right")
        for start in range(0, len(inside), _FAR_BLOCK):
            idx = inside[start:start + _FAR_BLOCK]
            d = flat[idx].T[:, :, None] - self._xyt
            wk = self._kernel(d, self._yc, self._c2) * self._wh
            for row, i in enumerate(idx):
                near = self._sq[lo[i]:hi[i]]
                dist = np.hypot(near[:, 0] - s_all[i], near[:, 1] - q_all[i])
                wk[row, lo[i]:hi[i]] *= _smoothstep(dist / self._delta)
            # sum_k wk d: one dot product per point and component
            out[idx] += (d[:, :, None, :] @ wk[:, :, None])[:, :, 0, 0].T
        return out.reshape(pts.shape)

    # -- cached evaluation ---------------------------------------------------

    def _build_cache(self):
        # endpoints included: the 4 m boundary nodes hold the operator's exact
        # zero boundary values and pin the spline there; only the (m - 1)^2
        # interior nodes need a direct evaluation
        m = self._cache_n
        grid = np.linspace(0.0, 1.0, m + 1)
        S, Q = np.meshgrid(grid[1:-1], grid[1:-1], indexing="ij")
        vals = np.zeros((m + 1, m + 1, 2))
        vals[1:-1, 1:-1] = self.direct_eval(self.domain.to_xy(S, Q))
        self._spline = _vector_spline(grid, vals)

    def eval(self, pts) -> np.ndarray:
        if self._spline is None:
            self._build_cache()
        pts = np.asarray(pts, dtype=float)
        s, q = self.domain.from_xy(pts.reshape(-1, 2))
        inside = (s >= 0) & (s <= 1) & (q >= 0) & (q <= 1)
        out = np.zeros((len(s), 2))
        if np.any(inside):
            out[inside] = self._spline(np.stack([s[inside], q[inside]], axis=-1))
        return out.reshape(pts.shape)


# ---------------------------------------------------------------------------
# the flow
# ---------------------------------------------------------------------------


@dataclass
class MoserCorrector:
    """A flow map sigma with J sigma approximately equal to a target density.

    ``sigma`` integrates the flow with ``steps`` RK4 steps.  ``moser_flow``
    sets them per field by step doubling: the fewest of 8, 16 and 32 steps
    whose end-point coordinates at the ``n_check`` interior samples change
    by at most 1e-4 x ``domain.scale()`` when the steps double, else 64.  A
    flow that leaves the domain retries with doubled steps up to 256.
    ``jacobian`` is ``fd_jacobian`` of sigma with step 1e-4 x max(1, |x|).
    """

    domain: QuadDomain
    g: object
    field: VectorField
    steps: int = _STEPS
    mass_error: float = math.nan
    boundary_displacement: float = math.nan

    def sigma(self, pts) -> np.ndarray:
        return _flow(self.field, self.g, np.asarray(pts, dtype=float), self.steps)

    def jacobian(self, pts) -> np.ndarray:
        return fd_jacobian(self.sigma, pts, scale=1e-4)

    def jacobian_det(self, pts) -> np.ndarray:
        return det2(self.jacobian(pts))


def _flow_once(field: VectorField, g, seeds: np.ndarray, steps: int) -> np.ndarray | None:
    """End points of an RK4 flow in ``steps`` steps, or None once a point escapes."""
    y = seeds.reshape(-1, 2).copy()
    # probe points (e.g. finite-difference stencils) may start marginally
    # outside; only drift beyond the initial excess counts as an escape
    allowance = np.maximum(field.domain.outside_by(y), 0.0) + _ESCAPE_TOL

    def velocity(s, pos):
        xi = field.eval(pos)
        dens = s + (1.0 - s) * np.asarray(g(pos), dtype=float)
        return xi / dens[..., None]

    dt = 1.0 / steps
    for i in range(steps):
        s0 = i * dt
        k1 = velocity(s0, y)
        k2 = velocity(s0 + dt / 2, y + dt / 2 * k1)
        k3 = velocity(s0 + dt / 2, y + dt / 2 * k2)
        k4 = velocity(s0 + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.any(field.domain.outside_by(y) > allowance):
            return None
    return y.reshape(seeds.shape)


def _flow(field: VectorField, g, seeds: np.ndarray, steps: int) -> np.ndarray:
    while steps <= _MAX_STEPS:
        y = _flow_once(field, g, seeds, steps)
        if y is not None:
            return y
        steps *= 2
    raise FlowEscapedDomain("trajectories keep leaving the domain")


def _choose_steps(field: VectorField, g, pts: np.ndarray, tol: float) -> int:
    """Fewest RK4 steps N of 8, 16, 32 with max |Y_N - Y_2N| <= tol at ``pts``,
    else 64 (step doubling; Hairer, Norsett & Wanner, Solving ODEs I, II.4).
    The max runs over both coordinates of every end point; a flow that
    escapes counts as a failed comparison."""
    steps, y = _MIN_STEPS, _flow_once(field, g, pts, _MIN_STEPS)
    while steps < _STEPS:
        y2 = _flow_once(field, g, pts, 2 * steps)
        if y is not None and y2 is not None and float(np.max(np.abs(y - y2))) <= tol:
            return steps
        steps, y = 2 * steps, y2
    return steps


def _interior_samples(domain: QuadDomain, n: int, margin: float = 0.04,
                      seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sq = margin + (1 - 2 * margin) * rng.random((n, 2))
    return domain.to_xy(sq[:, 0], sq[:, 1])


def moser_flow(g, domain: QuadDomain, n_panels: int = 20, cache: int = 48,
               n_check: int = 160) -> MoserCorrector:
    """Flow correction sigma with J sigma approximately g on the domain.

    ``g`` must be strictly positive with integral equal to the domain area
    (it is renormalised to that mass before use).  When g is identically 1 at
    every quadrature node the divergence data vanishes exactly, the field is
    identically zero, and sigma is the identity bit for bit.  The RK4 step
    count of sigma comes from step doubling at ``n_check`` interior samples
    (see ``MoserCorrector``).
    """
    probe_sq = (np.arange(33) + 0.5) / 33
    S, Q = np.meshgrid(probe_sq, probe_sq, indexing="ij")
    probe = domain.to_xy(S.ravel(), Q.ravel())
    gv = np.asarray(g(probe), dtype=float)
    if np.any(gv <= 0):
        raise NonPositiveDensity("target density must be positive")

    # normalise on the same panel grid the field uses, so the zero-mean check
    # downstream holds to roundoff; g = 1 gives scale sum(w)/sum(w) = 1 exactly,
    # so h stays identically zero
    _, xy_nodes, w_nodes = panel_nodes(domain, n_panels)
    total = float(np.sum(w_nodes * np.asarray(g(xy_nodes), dtype=float)))
    scale = float(np.sum(w_nodes)) / total

    def g_norm(pts):
        return scale * np.asarray(g(pts), dtype=float)

    field = VectorField(
        lambda pts: g_norm(pts) - 1.0,
        domain,
        n_panels=n_panels,
        cache=cache,
    )
    corr = MoserCorrector(domain=domain, g=g_norm, field=field)
    corr.steps = _choose_steps(field, g_norm, _interior_samples(domain, n_check),
                               _STEP_TOL * domain.scale())

    # report: mass of J sigma against the domain area, boundary drift
    _, nodes, weights = panel_nodes(domain, 12)
    mass = float(np.sum(weights * corr.jacobian_det(nodes)))
    corr.mass_error = abs(mass - domain.area()) / domain.area()

    bpts = domain.boundary_points(48)
    drift = corr.sigma(bpts) - bpts
    corr.boundary_displacement = float(np.max(np.hypot(drift[:, 0], drift[:, 1])))
    return corr


# ---------------------------------------------------------------------------
# constant-Jacobian correction of a given map
# ---------------------------------------------------------------------------


@dataclass
class CorrectorTraceRow:
    iteration: int
    max_residual: float
    mass_error: float


def constant_jacobian_corrector(
    jdet,
    c: float,
    domain: QuadDomain,
    iterations: int = 3,
    n_panels: int = 20,
    cache: int = 48,
    n_check: int = 160,
    seed: int = 0,
) -> tuple[MoserCorrector, list[CorrectorTraceRow]]:
    """Iterate sigma so that jdet(sigma(x)) * J sigma(x) approaches c.

    Each round rebuilds the flow with target g_n(x) = c / jdet(sigma_n(x)),
    renormalised to the domain mass; the trace records the composed residual
    per iteration.  After the last round it returns the iterate of least
    residual; it raises CorrectorDiverged as soon as two rounds in a row
    fail to lower the best residual.
    """
    if c <= 0:
        raise PreconditionViolated("target constant Jacobian must be positive")

    samples = _interior_samples(domain, n_check, seed=seed)
    initial = float(np.max(np.abs(np.asarray(jdet(samples), dtype=float) - c)))
    trace = [CorrectorTraceRow(iteration=0, max_residual=initial, mass_error=0.0)]

    # the previous iterate is splined on cell centres when the next round
    # starts, so the last one is never flowed there; g_n clamps queries to
    # [grid[0], grid[-1]]^2 instead of extrapolating
    m = cache
    grid = (np.arange(m) + 0.5) / m
    S, Q = np.meshgrid(grid, grid, indexing="ij")
    nodes = domain.to_xy(S.ravel(), Q.ravel())
    corr = None
    best, best_res = None, math.inf
    worse_streak = 0

    for it in range(1, iterations + 1):
        if corr is None:
            def g_n(pts):
                return c / np.asarray(jdet(pts), dtype=float)
        else:
            sigma_spline = _vector_spline(grid, corr.sigma(nodes).reshape(m, m, 2))

            def g_n(pts, _spline=sigma_spline):
                pts = np.asarray(pts, dtype=float)
                s, q = domain.from_xy(pts.reshape(-1, 2))
                moved = _spline(np.clip(np.stack([s, q], axis=-1), grid[0], grid[-1]))
                return c / np.asarray(jdet(moved), dtype=float).reshape(pts.shape[:-1])

        corr = moser_flow(g_n, domain, n_panels=n_panels, cache=cache, n_check=n_check)

        moved = corr.sigma(samples)
        comp = np.asarray(jdet(moved), dtype=float) * corr.jacobian_det(samples)
        res = float(np.max(np.abs(comp - c)))
        trace.append(CorrectorTraceRow(iteration=it, max_residual=res,
                                       mass_error=corr.mass_error))

        if res < best_res:
            best, best_res = corr, res
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak >= 2:
                raise CorrectorDiverged(
                    f"residual increased twice (best {best_res:.3e}); "
                    "returning would hide the failure"
                )

    return best, trace
