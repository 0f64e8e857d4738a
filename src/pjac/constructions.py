"""Explicit constructions: ball-to-square chart, shear and wedge maps, the
piecewise counterexample assembly, and the sign-changing balanced datum.

All maps are continuous and piecewise smooth with closed-form branch
Jacobians; interfaces between branches are declared so continuity can be
audited by sampling.  The assembled competitor's Jacobian is evaluated in
one pass per block of points, in 2x2 components (``assemble_counterexample``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.integrate import quad

from .errors import (
    ConstraintInfeasible,
    GluingMismatch,
    OriginEvaluation,
    OutsideWedge,
)
from .maps import Interface, PlanarMap, reflect_extend
from .radial import (
    GeneralisedStretching,
    Piece,
    PolyExpr,
    RadialDatum,
    RadialProfile,
    profile_from_datum,
)
from .regions import disc, l1_annulus, l1_ball, l1_norm

_SQRT2 = math.sqrt(2.0)
_ROT45 = np.array([[_SQRT2 / 2, -_SQRT2 / 2], [_SQRT2 / 2, _SQRT2 / 2]])


# ---------------------------------------------------------------------------
# ball onto square
# ---------------------------------------------------------------------------


def _xy(f):
    """f(x, y) as a function of an array of points."""

    def on_points(pts):
        pts = np.asarray(pts, dtype=float)
        return f(pts[..., 0], pts[..., 1])

    return on_points


def _fold(x, y, swap):
    """(x, y), or (y, x) where ``swap``: each eta branch is the other one
    conjugated by the swap of coordinates."""
    return np.where(swap, y, x), np.where(swap, x, y)


def _eta_parts(x, y, jac=True):
    """eta(x, y) = (a, b) and D eta = (e00, e01, e10, e11) in one pass.

    r, the swap fold and the arctan are shared.  Returns (r, (a, b), D eta),
    D eta None unless ``jac``; at the origin a, b and D eta are nan.
    """
    r = np.hypot(x, y)
    swap = ~(np.abs(y) < np.abs(x))
    u, v = _fold(x, y, swap)
    sgn = np.sign(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.arctan(v / u)
        # |v| <= |u|: sgn(u) r/sqrt2 * (1, (4/pi) atan(v/u))
        s = sgn * r / _SQRT2
        a, b = _fold(s, s * (4.0 / np.pi) * t, swap)
        if not jac:
            return r, (a, b), None
        u, v = u / r, v / r  # direction cosines
    c = 4.0 / (np.pi * _SQRT2)
    # rows grad eta1 = sgn(u)/sqrt2 (u, v), grad eta2 = sgn(u) c (u t - v, v t + u);
    # the swapped branch is P D P with P the swap
    e00, e11 = _fold(sgn * u / _SQRT2, sgn * c * (v * t + u), swap)
    e01, e10 = _fold(sgn * v / _SQRT2, sgn * c * (u * t - v), swap)
    return r, (a, b), (e00, e01, e10, e11)


def _eta_fn(pts: np.ndarray) -> np.ndarray:
    r, ab, _ = _xy(partial(_eta_parts, jac=False))(pts)
    out = np.stack(ab, axis=-1)
    out[r == 0] = 0.0
    return out


def _eta_jac(pts: np.ndarray) -> np.ndarray:
    r, _, d = _xy(_eta_parts)(pts)
    if np.any(r == 0):
        raise OriginEvaluation("no preferred derivative branch at the origin")
    return _matrices(d)


def _mul2(p, q):
    """The product of two 2x2 matrices given as (m00, m01, m10, m11)."""
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def _matrices(m):
    """The 2x2 matrices with components (m00, m01, m10, m11), arrays or scalars."""
    m = np.broadcast_arrays(*m)
    return np.stack(m, axis=-1).reshape(m[0].shape + (2, 2))


def _eta_inv_jac(a, b):
    """D(eta^-1) at (a, b) in closed form, as (k00, k01, k10, k11).

    On |b| <= |a|, eta^-1(a, b) = sqrt2 a (cos phi, sin phi) with
    phi = pi b / (4 a), so d_a = sqrt2 (cos phi + phi sin phi, sin phi - phi cos phi)
    and d_b = pi/(2 sqrt2) (-sin phi, cos phi); the swapped branch is P K P.
    """
    swap = ~(np.abs(b) <= np.abs(a))
    p, q = _fold(a, b, swap)
    phi = np.pi * q / (4.0 * p)
    cos, sin = np.cos(phi), np.sin(phi)
    k = np.pi / (2.0 * _SQRT2)
    k00, k11 = _fold(_SQRT2 * (cos + phi * sin), k * cos, swap)
    k01, k10 = _fold(-k * sin, _SQRT2 * (sin - phi * cos), swap)
    return k00, k01, k10, k11


def _eta_inv(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    a, b = pts[..., 0], pts[..., 1]
    swap = ~(np.abs(b) <= np.abs(a))
    u, v = _fold(a, b, swap)
    nz = (np.abs(a) > 0) | (np.abs(b) > 0)
    m = np.tan(np.pi * np.where(nz, v, 0.0) / (4.0 * np.where(nz, u, 1.0)))
    x = np.sign(u) * (_SQRT2 * np.abs(u)) / np.sqrt(1.0 + m * m)
    out = np.stack([x, m * x], axis=-1)
    out[swap] = out[swap][..., ::-1]
    return out


def _diag_axis_distance(pts: np.ndarray) -> np.ndarray:
    """Distance to the coordinate axes and the two diagonals."""
    x, y = pts[..., 0], pts[..., 1]
    return np.minimum.reduce(
        [np.abs(x), np.abs(y), np.abs(x - y) / _SQRT2, np.abs(x + y) / _SQRT2]
    )


def ball_to_square() -> tuple[PlanarMap, np.ndarray]:
    """The area-scaling chart of the disc onto an axis-diagonal square.

    Returns (eta, R) with det D eta = 2/pi a.e. and R the rotation by pi/4;
    R(eta(.)) carries the circle |z| = r onto the l1 sphere |w|_1 = r.
    """
    eta = PlanarMap(
        fn=_eta_fn,
        domain=disc(math.inf),
        jac=_eta_jac,
        break_distance=_diag_axis_distance,
        break_angles=tuple(i * np.pi / 4 for i in range(1, 8)),
        name="ball_to_square",
    )
    return eta, _ROT45.copy()


class DiamondChart:
    """w = R(eta(z)): a bijection of each disc B_r onto the diamond Q_r."""

    def fwd(self, pts: np.ndarray) -> np.ndarray:
        return _eta_fn(np.asarray(pts, dtype=float)) @ _ROT45.T

    def inv(self, pts: np.ndarray) -> np.ndarray:
        return _eta_inv(np.asarray(pts, dtype=float) @ _ROT45)

    def jac(self, pts: np.ndarray) -> np.ndarray:
        return _ROT45 @ _eta_jac(np.asarray(pts, dtype=float))


# ---------------------------------------------------------------------------
# shear map of the diamond Q_2
# ---------------------------------------------------------------------------


def _vertical(xc, y0, y1):
    """The segment x = xc from y0 to y1, parametrised by t in [0, 1]."""

    def curve(t):
        y = y0 + (y1 - y0) * np.asarray(t)
        return np.stack([np.full_like(y, xc), y], axis=-1)

    return curve


def _graph_branch(second):
    """The branch (x, y) -> (x, second(x, y)) of a map that keeps x (shear, wedge)."""
    return _xy(lambda x, y: np.stack([x, second(x, y)], axis=-1))


def _fn_jac(vj):
    """``fn`` and ``jac`` of the map whose value and Jacobian at (x, y) are
    ``vj(x, y) = (v0, v1, d00, d01, d10, d11)``."""
    vj = _xy(vj)
    return (lambda pts: np.stack(vj(pts)[:2], axis=-1)), (lambda pts: _matrices(vj(pts)[2:]))


def _shear_parts(eps: float):
    """The shear's second component per branch (Q_1, the ring where |x| < 1,
    the rest) and ``vj(x, y)``: the assembled map's value and Jacobian
    components, in one masked pass."""
    squash, shift, keep = (
        lambda x, y: eps * y,
        lambda x, y: y - (1.0 - eps) * (1.0 - np.abs(x)) * np.sign(y),
        lambda x, y: y,
    )

    def vj(x, y):
        q1 = np.abs(x) + np.abs(y) <= 1.0
        shear = ~q1 & (np.abs(x) < 1.0)
        second = np.where(q1, squash(x, y), np.where(shear, shift(x, y), keep(x, y)))
        dx = np.where(shear, (1.0 - eps) * np.sign(x) * np.sign(y), 0.0)
        return x, second, 1.0, 0.0, dx, np.where(q1, eps, 1.0)

    return (squash, shift, keep), vj


def shear_map(eps: float) -> PlanarMap:
    """The vertical shear of Q_2: compresses Q_1 onto a flat lens.

    Branches: (x, eps y) on Q_1; identity on the ring where |x| > 1;
    (x, y -+ (1 - eps)(1 - |x|)) on the ring where |x| < 1 and +-y > 0.
    The Jacobian is eps on Q_1 and 1 on the ring, and the branches glue
    continuously along |z|_1 = 1 and the chords |x| = 1.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("shear parameter must lie in [0, 1]")
    branches, vj = _shear_parts(eps)
    fn, jac = _fn_jac(vj)

    def break_distance(pts):
        pts = np.asarray(pts, dtype=float)
        x = pts[..., 0]
        n1 = l1_norm(pts)
        in_ring = n1 > 1.0
        return np.minimum.reduce(
            [
                np.abs(n1 - 1.0),
                np.abs(2.0 - n1),
                np.abs(np.abs(x) - 1.0),
                np.where(in_ring, np.abs(x), np.inf),
            ]
        )

    def edge(x0, x1, upper):
        def curve(t):
            x = x0 + (x1 - x0) * np.asarray(t)
            y = (1.0 - np.abs(x)) * (1.0 if upper else -1.0)
            return np.stack([x, y], axis=-1)

        return curve

    q1_branch, shear_branch, ident = map(_graph_branch, branches)
    interfaces = (
        Interface(edge(-1, 1, True), q1_branch, shear_branch, "inner-top"),
        Interface(edge(-1, 1, False), q1_branch, shear_branch, "inner-bottom"),
        Interface(_vertical(1.0, 0.0, 1.0), ident, shear_branch, "chord+x+y"),
        Interface(_vertical(1.0, -1.0, 0.0), ident, shear_branch, "chord+x-y"),
        Interface(_vertical(-1.0, 0.0, 1.0), ident, shear_branch, "chord-x+y"),
        Interface(_vertical(-1.0, -1.0, 0.0), ident, shear_branch, "chord-x-y"),
    )
    return PlanarMap(
        fn=fn,
        domain=l1_ball(2.0),
        jac=jac,
        break_distance=break_distance,
        interfaces=interfaces,
        name=f"shear_eps{eps:g}",
    )


# ---------------------------------------------------------------------------
# wedge map of the quarter ring
# ---------------------------------------------------------------------------

def _wedge_parts(eps: float):
    """The wedge's second component per vertical strip (x <= 1, 1 < x <= 2,
    x > 2), its Jacobian determinant ``jdet(x, y)``, and ``second(x, y)``:
    the assembled component with its partials (s, s_x, s_y = jdet)."""
    strips = (
        lambda x, y: 0.5 * (2 * eps * (x - 1) * (x + y - 3) - x**2 + 3 * x + y**2 - y),
        lambda x, y: 0.5 * (x * (2 * y - 5) + x**2 + y**2 - 3 * y + 6),
        lambda x, y: 0.5 * y * (x + y - 1),
    )

    def pick(x, inner, middle, outer):
        return np.where(x <= 1.0, inner, np.where(x <= 2.0, middle, outer))

    def jdet(x, y):
        return pick(x, eps * (x - 1) + y - 0.5, x + y - 1.5, 0.5 * (x - 1) + y)

    def second(x, y):
        return (
            pick(x, *(f(x, y) for f in strips)),
            pick(x, eps * (2 * x + y - 4) + 0.5 * (3 - 2 * x), x + y - 2.5, 0.5 * y),
            jdet(x, y),
        )

    return strips, jdet, second


def _wedge_pass(second, corrector, x, y):
    """Value and Jacobian of the wedge map at points (x, y) of the quarter
    ring, post-composed with ``corrector`` unless it is None, as the
    components (v0, v1, d00, d01, d10, d11); sigma flows each point once.
    OutsideWedge is raised for points more than 1e-2 outside the ring."""
    if corrector is not None:
        pts = np.stack([x, y], axis=-1)
        v0, v1, _, _, sx, sy = _xy(partial(_wedge_pass, second, None))(corrector.sigma(pts))
        ds = np.moveaxis(corrector.jacobian(pts).reshape(pts.shape[:-1] + (4,)), -1, 0)
        return (v0, v1) + _mul2((1.0, 0.0, sx, sy), ds)
    worst = float(np.max(np.maximum.reduce([2.0 - x - y, x + y - 3.0, -x, -y])))
    if worst > 1e-2:
        raise OutsideWedge(f"points leave the wedge by {worst:.3e}")
    s, sx, sy = second(x, y)
    return x, s, 1.0, 0.0, sx, sy


def wedge_map(eps: float) -> tuple[PlanarMap, "callable"]:
    """Piecewise-quadratic map of the quarter l1-ring {x,y>0, 2<x+y<3}.

    The first component is x; the second is quadratic in y per vertical
    strip, chosen so the map is the identity on the outer edge, shears the
    inner edge to (x, 1 + eps(y - 1)), and preserves the two straight sides.
    Its Jacobian is piecewise affine, Lipschitz across the strips, and
    bounded below by 1/2:

        x in [0,1]: eps(x-1) + y - 1/2
        x in [1,2]: x + y - 3/2
        x in [2,3]: (x-1)/2 + y

    Returns (map, jdet) with jdet the closed-form Jacobian determinant.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("wedge parameter must lie in [0, 1]")

    strips, jdet_xy, second = _wedge_parts(eps)
    fn, jac = _fn_jac(partial(_wedge_pass, second, None))
    jdet = _xy(jdet_xy)

    def break_distance(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        s = x + y
        return np.minimum.reduce(
            [np.abs(x - 1.0), np.abs(x - 2.0), np.abs(s - 2.0), np.abs(s - 3.0),
             np.abs(x), np.abs(y)]
        )

    inner, middle, outer = map(_graph_branch, strips)
    interfaces = (
        Interface(_vertical(1.0, 1.0, 2.0), inner, middle, "strip x=1"),
        Interface(_vertical(2.0, 0.0, 1.0), middle, outer, "strip x=2"),
    )

    pmap = PlanarMap(
        fn=fn,
        domain=l1_annulus(2.0, 3.0, constraints=("x>0", "y>0")),
        jac=jac,
        break_distance=break_distance,
        interfaces=interfaces,
        name=f"wedge_eps{eps:g}",
    )

    # construction invariants: jdet >= 1/2 and Lipschitz across the strips
    xs = np.linspace(1e-6, 3 - 1e-6, 301)
    ys = np.linspace(1e-6, 3 - 1e-6, 301)
    X, Y = np.meshgrid(xs, ys)
    inside = pmap.domain.contains(np.stack([X, Y], axis=-1))
    vals = jdet(np.stack([X, Y], axis=-1))
    if inside.any() and float(np.min(vals[inside])) < 0.5 - 1e-9:
        raise ConstraintInfeasible("wedge Jacobian dips below 1/2")
    for xc in (1.0, 2.0):
        y = np.linspace(max(2 - xc, 0) + 1e-9, 3 - xc - 1e-9, 64)
        left = jdet(np.stack([np.full_like(y, xc - 1e-12), y], axis=-1))
        right = jdet(np.stack([np.full_like(y, xc + 1e-12), y], axis=-1))
        if float(np.max(np.abs(left - right))) > 1e-9:
            raise GluingMismatch(f"wedge Jacobian jumps across x = {xc}")

    return pmap, jdet


# ---------------------------------------------------------------------------
# layered datum and counterexample assembly
# ---------------------------------------------------------------------------


def layered_datum(eps: float) -> RadialDatum:
    """eps on B_1, 1 on the ring A(1,2), (6-eps)/5 on A(2,3); mean 1 on B_3.

    The mean is exact: (eps + 3 + (6 - eps)) / 9 = 1 for every eps.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return RadialDatum(
        pieces=(
            Piece(0.0, 1.0, PolyExpr((float(eps),))),
            Piece(1.0, 2.0, PolyExpr((1.0,))),
            Piece(2.0, 3.0, PolyExpr(((6.0 - eps) / 5.0,))),
        ),
        support_radius=3.0,
    )


def layered_profile(eps: float) -> GeneralisedStretching:
    """Degree-one stretching for the layered datum.

    On the middle ring rho(r) = sqrt(r^2 - 1 + eps), whose derivative energy
    blows up logarithmically as eps -> 0.
    """
    return GeneralisedStretching(profile_from_datum(layered_datum(eps), 1))


def assemble_counterexample(eps: float, corrector=None) -> PlanarMap:
    """The identity-boundary competitor on B_3 with Jacobian close to the
    layered datum.

    In diamond coordinates w = R(eta(z)) the map applies the shear on Q_2 and
    the (optionally corrected) wedge map, reflected around the ring; the
    chart conjugation cancels its own constant Jacobian, so the competitor's
    Jacobian at z equals the diamond map's Jacobian at w.  Without the
    corrector the outer-ring Jacobian is the wedge's (in [1/2, 2.5]), not the
    constant (6 - eps)/5.

    ``jac`` is one pass per block: eta and D eta share one arctan, D(eta^-1)
    is closed form, and one masked pass gives the diamond map's value and
    Jacobian; about 200 ns per node on 32,768-node blocks (2-core Xeon, eps
    0.01).  With the corrector each ring node is flowed five times.
    """
    chart = DiamondChart()
    vmap = shear_map(eps)
    shear_vj, wedge_second = _shear_parts(eps)[1], _wedge_parts(eps)[2]
    wedge, _ = wedge_map(eps)
    trace_tol = 1e-8  # largest trace gap allowed where the pieces meet
    if corrector is not None:
        # the wedge post-composed with the corrector's flow sigma
        base = wedge
        wedge = replace(
            base,
            fn=lambda pts: base.fn(corrector.sigma(np.asarray(pts, dtype=float))),
            jac=_fn_jac(partial(_wedge_pass, wedge_second, corrector))[1],
            interfaces=(),
            name=f"wedge_corrected_eps{eps:g}",
        )
        trace_tol = max(trace_tol, 10.0 * corrector.boundary_displacement)
    upper = reflect_extend(wedge, axes=("y",), trace_tol=trace_tol)
    ring = reflect_extend(upper, axes=("x",), trace_tol=trace_tol)

    # audit the glue along the four edges of the diamond |w|_1 = 2
    t = (np.arange(512) + 0.5) / 512
    edge = np.stack([2.0 * t, 2.0 - 2.0 * t], axis=-1)
    for signs in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        gap = vmap.fn(edge * signs) - ring.fn(edge * signs)
        worst = float(np.max(np.hypot(gap[..., 0], gap[..., 1])))
        if worst > trace_tol:
            raise GluingMismatch(f"shear and ring disagree on |w|_1 = 2 by {worst:.3e}")

    def fn(z):
        # the shear on Q_2, the reflected wedge over it on the ring outside
        w = chart.fwd(z)
        v, outside = vmap.fn(w), l1_norm(w) > 2.0
        if np.any(outside):
            v[outside] = ring.fn(w[outside])
        return chart.inv(v)

    def jac(z):
        # Du(z) = D chart^-1(v) D diamond(w) D chart(z) with w = R eta(z) and v
        # the diamond map at w, in 2x2 components; the dels free each stage's
        # inputs once consumed, which keeps the block's temporaries few
        r, ab, c = _xy(_eta_parts)(z)
        if np.any(r == 0):
            raise OriginEvaluation("no preferred derivative branch at the origin")
        # w = chart.fwd(z) bit for bit: the corrector's FD Jacobian magnifies
        # a last-bit change of w ten thousandfold
        wx, wy = np.moveaxis(np.stack(ab, axis=-1) @ _ROT45.T, -1, 0).copy()
        del r, ab
        # D chart = R D eta and D chart^-1 = K R^T with R = h ((1, -1), (1, 1));
        # h h = 1/2 exactly, and scaling by 1/2 is exact at any stage
        c = (0.5 * (c[0] - c[2]), 0.5 * (c[1] - c[3]), 0.5 * (c[0] + c[2]), 0.5 * (c[1] + c[3]))
        # the diamond map: the shear everywhere, then the reflected (and
        # possibly corrected) wedge over it on the ring outside Q_2
        v0, v1, *g = shear_vj(wx, wy)
        g = [np.array(np.broadcast_to(gi, wx.shape)) for gi in g]
        ring = np.abs(wx) + np.abs(wy) > 2.0
        if np.any(ring):
            x, y = wx[ring], wy[ring]
            fx, fy = np.where(x < 0, -1.0, 1.0), np.where(y < 0, -1.0, 1.0)
            q = _wedge_pass(wedge_second, corrector, np.abs(x), np.abs(y))
            # D(S u S) = S Du S with S = diag(fx, fy)
            v0[ring], v1[ring] = fx * q[0], fy * q[1]
            g[0][ring], g[1][ring] = q[2], fx * fy * q[3]
            g[2][ring], g[3][ring] = fx * fy * q[4], q[5]
            del x, y, fx, fy, q
        g = _mul2(g, c)
        del c
        if np.any((v0 == 0) & (v1 == 0)):
            raise OriginEvaluation("no preferred derivative branch at the origin")
        k = _eta_inv_jac(_SQRT2 / 2 * (v0 + v1), _SQRT2 / 2 * (v1 - v0))  # at R^T v
        return _matrices(_mul2((k[0] - k[1], k[0] + k[1], k[2] - k[3], k[2] + k[3]), g))

    def break_distance(z):
        z = np.asarray(z, dtype=float)
        r = np.hypot(z[..., 0], z[..., 1])
        w = chart.fwd(z)
        xw, yw = np.abs(w[..., 0]), np.abs(w[..., 1])
        in_ring = l1_norm(w) > 2.0
        return np.minimum.reduce(
            [
                np.abs(r - 1.0),
                np.abs(r - 2.0),
                np.abs(3.0 - r),
                _diag_axis_distance(z),
                np.abs(xw - 1.0),
                np.abs(xw - 2.0),
                np.where(in_ring, np.minimum(xw, yw), np.inf),
            ]
        )

    return PlanarMap(
        fn=fn,
        domain=disc(3.0),
        jac=jac,
        break_distance=break_distance,
        break_radii=(1.0, 2.0),
        break_angles=tuple(i * np.pi / 4 for i in range(1, 8)),
        name=f"counterexample_eps{eps:g}" + ("_corrected" if corrector else ""),
    )


def boundary_identity_residual(u: PlanarMap, radius: float = 3.0, n: int = 720) -> float:
    """Max |u(z) - z| on the circle |z| = radius."""
    theta = np.arange(n) * (2.0 * np.pi / n)
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    gap = u(pts) - pts
    return float(np.max(np.hypot(gap[..., 0], gap[..., 1])))


# ---------------------------------------------------------------------------
# the sign-changing datum with balanced mass
# ---------------------------------------------------------------------------

# coefficients solved from: vanishing mass on B_2, vanishing total mass,
# C^1 matching at r = 1, 2, 3, and the fixed tail (4 - r)+ beyond r = 3
_NU_A = 35.0          # depth of the negative well on (0, 1)
_NU_MU = -287.0 / 5.0  # bump amplitude of the bridge on (2, 3)


@dataclass(frozen=True)
class NonuniquenessReport:
    mass_ball2_residual: float
    mass_total_residual: float
    c1_value_gap: float
    c1_slope_gap: float
    sign_ok: bool
    tail_value: float


def nonuniqueness_datum() -> tuple[RadialDatum, NonuniquenessReport]:
    """A C^1 radial datum: negative well, positive ring, balanced bridge.

    f < 0 on (0, 1), f > 0 on (1, 2), f = (4 - r)+ for r > 3, and both the
    mass over B_2 and the total mass vanish.  The bridge on (2, 3) is the
    quartic determined by C^1 matching plus the total-mass constraint.
    """
    mu = _NU_MU
    datum = RadialDatum(
        pieces=(
            # -A r^2 (1 - r)^2
            Piece(0.0, 1.0, PolyExpr(coeffs=(0.0, 0.0, -_NU_A, 2 * _NU_A, -_NU_A))),
            # (r - 1)^2
            Piece(1.0, 2.0, PolyExpr(coeffs=(1.0, -2.0, 1.0))),
            # quartic bridge in t = r - 2
            Piece(2.0, 3.0, PolyExpr(
                coeffs=(1.0, 2.0, mu - 3.0, 1.0 - 2.0 * mu, mu), center=2.0)),
            # the tail 4 - r
            Piece(3.0, 4.0, PolyExpr(coeffs=(4.0, -1.0))),
        ),
        support_radius=4.0,
    )

    def mass_integrand(r):
        return 2.0 * r * float(datum.f(np.array([r]))[0])

    res2 = abs(quad(mass_integrand, 0.0, 2.0, points=[1.0], limit=200)[0])
    res_tot = abs(
        quad(mass_integrand, 0.0, 4.0, points=[1.0, 2.0, 3.0], limit=200)[0]
    )

    # one-sided limits straight from the piece expressions: C^1 matching at
    # the joints is exact, not a finite-difference estimate
    value_gap = 0.0
    slope_gap = abs(float(datum.pieces[0].expr.deriv(np.array([0.0]))[0]))
    for left, right in zip(datum.pieces, datum.pieces[1:]):
        r_j = np.array([left.r_max])
        value_gap = max(value_gap, abs(float(left.expr.value(r_j)[0])
                                       - float(right.expr.value(r_j)[0])))
        slope_gap = max(slope_gap, abs(float(left.expr.deriv(r_j)[0])
                                       - float(right.expr.deriv(r_j)[0])))
    edge = np.array([datum.support_radius])
    value_gap = max(value_gap, abs(float(datum.pieces[-1].expr.value(edge)[0])))

    rs = np.linspace(1e-4, 2.0 - 1e-4, 1024)
    f_in = datum.f(rs[rs < 1.0])
    f_out = datum.f(rs[rs > 1.0])
    sign_ok = bool(np.all(f_in < 0) and np.all(f_out > 0))

    report = NonuniquenessReport(
        mass_ball2_residual=res2,
        mass_total_residual=res_tot,
        c1_value_gap=value_gap,
        c1_slope_gap=slope_gap,
        sign_ok=sign_ok,
        tail_value=float(datum.f(np.array([3.5]))[0]),
    )
    if res2 > 1e-8 or res_tot > 1e-8 or not sign_ok or value_gap > 1e-8:
        raise ConstraintInfeasible(f"shipped datum violates its constraints: {report}")
    return datum, report


def nonuniqueness_inner_profile() -> RadialProfile:
    """Degree -1 profile of the datum restricted to B_2 (where its mass is <= 0).

    rho vanishes at r = 2 while r f does not, so the derivative energy
    diverges logarithmically there.
    """
    datum, _ = nonuniqueness_datum()
    inner = RadialDatum(pieces=datum.pieces[:2], support_radius=2.0)
    return profile_from_datum(inner, -1)
