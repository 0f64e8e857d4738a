"""Explicit constructions: ball-to-square chart, shear and wedge maps, the
piecewise counterexample assembly, and the sign-changing balanced datum.

All maps are continuous and piecewise smooth with closed-form branch
Jacobians; interfaces between branches are declared so continuity can be
audited by sampling.  The assembled competitor's value and Jacobian share
one masked pass per block of points, the Jacobian in 2x2 components
(``assemble_counterexample``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    ConstraintInfeasible,
    GluingMismatch,
    IncompatibleTrace,
    OriginEvaluation,
    OutsideWedge,
)
from .maps import ChartPieces, Interface, PlanarMap
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


def _eta(pts, jac=False):
    """eta at pts as an (..., 2) array, 0 at the origin, and with ``jac``
    D eta as components (OriginEvaluation at the origin), else None."""
    r, ab, d = _xy(partial(_eta_parts, jac=jac))(pts)
    if jac and np.any(r == 0):
        raise OriginEvaluation("no preferred derivative branch at the origin")
    out = np.stack(ab, axis=-1)
    out[r == 0] = 0.0
    return out, d


def _chart(z, jac=False):
    """The chart w = R eta(z), a bijection of each disc B_r onto the diamond
    Q_r, as components (wx, wy); with ``jac`` also D w / sqrt2, else None.

    w is the matmul of eta by R^T, bit for bit (the corrector's FD Jacobian
    magnifies a last-bit change of w ten thousandfold).  D w = R D eta with
    R = h ((1, -1), (1, 1)) and h = sqrt2/2; one factor h is left for D(eta^-1)
    R^T to take, since h h = 1/2 exactly and scaling by 1/2 is exact anywhere.
    """
    eta, d = _eta(z, jac)
    wx, wy = np.moveaxis(eta @ _ROT45.T, -1, 0).copy()
    if jac:
        d = (0.5 * (d[0] - d[2]), 0.5 * (d[1] - d[3]), 0.5 * (d[0] + d[2]), 0.5 * (d[1] + d[3]))
    return wx, wy, d


def _mul2(p, q):
    """The product of two 2x2 matrices given as (m00, m01, m10, m11)."""
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def _matrices(m):
    """The 2x2 matrices with components (m00, m01, m10, m11), arrays or scalars."""
    m = np.broadcast_arrays(*m)
    return np.stack(m, axis=-1).reshape(m[0].shape + (2, 2))


def _eta_inv_parts(a, b, jac=False):
    """eta^-1(a, b) as (x, y), or with ``jac`` D(eta^-1) there as
    (k00, k01, k10, k11); the swap fold and phi are shared.

    On |b| <= |a|, eta^-1(a, b) = sqrt2 a (cos phi, sin phi) with
    phi = pi b / (4 a), evaluated as sign(a) sqrt2 |a| (1, tan phi) / sqrt(1 +
    tan^2 phi) (0 at the origin); so d_a = sqrt2 (cos phi + phi sin phi,
    sin phi - phi cos phi) and d_b = pi/(2 sqrt2) (-sin phi, cos phi).  The
    swapped branch is the other one conjugated by the swap.
    """
    swap = ~(np.abs(b) <= np.abs(a))
    p, q = _fold(a, b, swap)
    nz = (np.abs(a) > 0) | (np.abs(b) > 0)
    phi = np.pi * np.where(nz, q, 0.0) / (4.0 * np.where(nz, p, 1.0))
    if not jac:
        m = np.tan(phi)
        x = np.sign(p) * (_SQRT2 * np.abs(p)) / np.sqrt(1.0 + m * m)
        return _fold(x, m * x, swap)
    cos, sin = np.cos(phi), np.sin(phi)
    k = np.pi / (2.0 * _SQRT2)
    k00, k11 = _fold(_SQRT2 * (cos + phi * sin), k * cos, swap)
    k01, k10 = _fold(-k * sin, _SQRT2 * (sin - phi * cos), swap)
    return k00, k01, k10, k11


def _chart_inverse(w):
    """z = eta^-1(R^T w) at (..., 2) points w, R^T w by the matmul."""
    a, b = np.moveaxis(np.asarray(w, dtype=float) @ _ROT45, -1, 0)
    return np.stack(_eta_inv_parts(a, b), axis=-1)


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
        fn=lambda pts: _eta(pts)[0],
        domain=disc(math.inf),
        jac=lambda pts: _matrices(_eta(pts, jac=True)[1]),
        break_distance=_diag_axis_distance,
        break_angles=tuple(i * np.pi / 4 for i in range(1, 8)),
        name="ball_to_square",
    )
    return eta, _ROT45.copy()


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
    x > 2), its Jacobian determinant ``jdet(x, y)``, ``second(x, y)``: the
    assembled component with its partials (s, s_x, s_y = jdet), and its domain.

    Checks the construction invariants: ValueError unless eps lies in [0, 1],
    ConstraintInfeasible if jdet dips below 1/2 on a 301 x 301 scan of the
    domain, GluingMismatch if jdet jumps across x = 1 or x = 2.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("wedge parameter must lie in [0, 1]")
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

    domain = l1_annulus(2.0, 3.0, constraints=("x>0", "y>0"))
    X, Y = np.meshgrid(np.linspace(1e-6, 3 - 1e-6, 301), np.linspace(1e-6, 3 - 1e-6, 301))
    inside = domain.contains(np.stack([X, Y], axis=-1))
    if inside.any() and float(np.min(jdet(X, Y)[inside])) < 0.5 - 1e-9:
        raise ConstraintInfeasible("wedge Jacobian dips below 1/2")
    for xc in (1.0, 2.0):
        y = np.linspace(max(2 - xc, 0) + 1e-9, 3 - xc - 1e-9, 64)
        left, right = jdet(np.full_like(y, xc - 1e-12), y), jdet(np.full_like(y, xc + 1e-12), y)
        if float(np.max(np.abs(left - right))) > 1e-9:
            raise GluingMismatch(f"wedge Jacobian jumps across x = {xc}")

    return strips, jdet, second, domain


def _wedge_pass(second, corrector, jac, x, y):
    """Value of the wedge map at points (x, y) of the quarter ring,
    post-composed with ``corrector`` unless it is None, as (v0, v1); with
    ``jac`` also its Jacobian, as (v0, v1, d00, d01, d10, d11).  sigma flows
    each point once for the value and four more times for the FD D sigma.
    OutsideWedge is raised for points more than 1e-2 outside the ring."""
    if corrector is not None:
        pts = np.stack([x, y], axis=-1)
        v = _xy(partial(_wedge_pass, second, None, jac))(corrector.sigma(pts))
        if not jac:
            return v
        ds = np.moveaxis(corrector.jacobian(pts).reshape(pts.shape[:-1] + (4,)), -1, 0)
        return v[:2] + _mul2((1.0, 0.0, v[4], v[5]), ds)
    worst = float(np.max(np.maximum.reduce([2.0 - x - y, x + y - 3.0, -x, -y])))
    if worst > 1e-2:
        raise OutsideWedge(f"points leave the wedge by {worst:.3e}")
    s, sx, sy = second(x, y)
    return (x, s, 1.0, 0.0, sx, sy) if jac else (x, s)


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

    Returns (map, jdet) with jdet the closed-form Jacobian determinant; the
    invariants are checked as in ``_wedge_parts``.
    """
    strips, jdet, second, domain = _wedge_parts(eps)
    fn, jac = _fn_jac(partial(_wedge_pass, second, None, True))

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
        domain=domain,
        jac=jac,
        break_distance=break_distance,
        interfaces=interfaces,
        name=f"wedge_eps{eps:g}",
    )
    return pmap, _xy(jdet)


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


# the w quadrant between the competitor's breaks, as (vertices, grading);
# see assemble_counterexample and maps.ChartPieces
_LAYER_GRADING = 3
_W_QUADRANT = ChartPieces(
    polygons=(
        (((0, 0), (0, 1), (1, 0)), (1, _LAYER_GRADING)),
        (((0, 1), (1, 0), (1, 1), (0, 2)), (_LAYER_GRADING, _LAYER_GRADING)),
        (((1, 0), (2, 0), (1, 1)), (1, 1)),
        (((0, 2), (1, 1), (1, 2), (0, 3)), (1, 1)),
        (((1, 1), (2, 0), (2, 1), (1, 2)), (1, 1)),
        (((2, 0), (3, 0), (2, 1)), (1, 1)),
    ),
    to_domain=_chart_inverse,
    weight=2.0 * np.pi,
)


def assemble_counterexample(eps: float, corrector=None) -> PlanarMap:
    """The identity-boundary competitor on B_3 with Jacobian close to the
    layered datum.

    In diamond coordinates w = R(eta(z)) the map applies the shear on Q_2 and
    the (optionally corrected) wedge map, reflected around the ring; the
    chart conjugation cancels its own constant Jacobian, so the competitor's
    Jacobian at z equals the diamond map's Jacobian at w.  Without the
    corrector the outer-ring Jacobian is the wedge's (in [1/2, 2.5]), not the
    constant (6 - eps)/5.

    Symmetry: the shear and the sign-folded ring commute with the
    reflections of w across both axes, and eta commutes with every symmetry
    of the square, so u(Tz) = T u(z) for the reflections T across y = x and
    y = -x and for their product -I, corrected or not.  Then Du(Tz) =
    T Du(z) T^-1 and the energy density |Du|^2 repeats on the four quadrants
    of w; the quadrant x, y > 0 is the image of the z sector [-pi/4, pi/4].

    Pieces: in the w quadrant every break is a straight line, so the map
    declares the six polygons between them (``_W_QUADRANT``): the triangle
    x + y < 1; the parallelogram and the triangle of 1 < x + y < 2 on either
    side of x = 1; and the strips of 2 < x + y < 3 cut at x = 1 and x = 2.
    ``region_energy`` integrates them with weight 2 pi: the chart's area
    factor pi/2 (det D eta = 2/pi) times the 4 quadrants.  The shear squashes
    Q_1 onto a lens of height eps, so the density has a layer of width about
    eps along the y axis of Q_1 and a corner layer at (0, 1) in the ring
    next to it; those two polygons grade their nodes toward the layer.

    ``fn``, ``jac`` and ``break_distance`` run one masked pass per block of
    points: the chart, the shear everywhere, and the sign-folded wedge over it
    on the ring outside Q_2.  ``jac`` takes eta and D eta from one arctan and
    D(eta^-1) in closed form; about 200 ns per node on 32,768-node blocks
    (2-core Xeon, eps 0.01).  With the corrector each ring node is flowed once
    by ``fn`` and five times by ``jac``.

    Construction checks, with ``trace_tol`` = max(1e-8, 10 x the corrector's
    boundary displacement): the wedge's invariants (see ``_wedge_parts``;
    ValueError unless eps lies in [0, 1]); IncompatibleTrace unless the ring's
    first component vanishes on the y axis and its second on the x axis, each
    read at 512 points 1e-9 x the bounding-box size inside the half ring
    folded so far; GluingMismatch if the shear and the ring disagree by more
    than ``trace_tol`` at 512 points on each edge of |w|_1 = 2.
    """
    second = _wedge_parts(eps)[2]
    shear = _shear_parts(eps)[1]
    trace_tol = 1e-8  # largest trace gap allowed where the pieces meet
    if corrector is not None:
        trace_tol = max(trace_tol, 10.0 * corrector.boundary_displacement)

    def ring(x, y, jac=False):
        # the wedge folded into the quadrant of (x, y): S u(S .) with S = diag(fx, fy)
        fx, fy = np.where(x < 0, -1.0, 1.0), np.where(y < 0, -1.0, 1.0)
        q = _wedge_pass(second, corrector, jac, np.abs(x), np.abs(y))
        v = (fx * q[0], fy * q[1])
        # D(S u S) = S Du S
        return v + (q[2], fx * fy * q[3], fx * fy * q[4], q[5]) if jac else v

    def diamond(z, jac=False):
        # the diamond map at w = R eta(z): the shear everywhere, then the ring
        # over it outside Q_2; returns (v0, v1, D diamond(w), D w / sqrt2)
        wx, wy, c = _chart(z, jac)
        v0, v1, *g = shear(wx, wy)
        g = [np.array(np.broadcast_to(gi, wx.shape)) for gi in g] if jac else []
        on = np.abs(wx) + np.abs(wy) > 2.0
        if np.any(on):
            q = ring(wx[on], wy[on], jac)
            for vi, qi in zip([v0, v1] + g, q):
                vi[on] = qi
        return v0, v1, g, c

    # reflecting the wedge across the y axis needs its first component to
    # vanish there, and the half ring across the x axis its second
    for ax, region in (("y", l1_annulus(2.0, 3.0, ("x>0", "y>0"))),
                       ("x", l1_annulus(2.0, 3.0, ("y>0",)))):
        along = 0 if ax == "x" else 1
        lo, hi = region.bbox()
        probe = np.zeros((512, 2))
        probe[:, along] = np.linspace(lo[along], hi[along], 514)[1:-1]
        probe[:, 1 - along] = 1e-9 * max(1.0, float(np.max(hi - lo)))  # inward
        probe = probe[region.contains(probe)]
        trace = np.abs(ring(probe[:, 0], probe[:, 1])[1 - along])
        if float(np.max(trace)) > trace_tol:
            raise IncompatibleTrace(
                f"component {2 - along} does not vanish on the {ax} axis "
                f"(max {np.max(trace):.3e})"
            )

    # audit the glue along the four edges of the diamond |w|_1 = 2
    t = (np.arange(512) + 0.5) / 512
    for sx, sy in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        x, y = 2.0 * t * sx, (2.0 - 2.0 * t) * sy
        (s0, s1, *_), (r0, r1) = shear(x, y), ring(x, y)
        worst = float(np.max(np.hypot(s0 - r0, s1 - r1)))
        if worst > trace_tol:
            raise GluingMismatch(f"shear and ring disagree on |w|_1 = 2 by {worst:.3e}")

    def fn(z):
        v0, v1, _, _ = diamond(z)
        return _chart_inverse(np.stack([v0, v1], axis=-1))

    def jac(z):
        # Du(z) = D chart^-1(v) D diamond(w) D chart(z) in 2x2 components, with
        # D chart^-1(v) = K(R^T v) R^T and K = D(eta^-1)
        v0, v1, g, c = diamond(z, jac=True)
        g = _mul2(g, c)
        del c
        if np.any((v0 == 0) & (v1 == 0)):
            raise OriginEvaluation("no preferred derivative branch at the origin")
        k = _eta_inv_parts(_SQRT2 / 2 * (v0 + v1), _SQRT2 / 2 * (v1 - v0), jac=True)
        return _matrices(_mul2((k[0] - k[1], k[0] + k[1], k[2] - k[3], k[2] + k[3]), g))

    def break_distance(z):
        z = np.asarray(z, dtype=float)
        r = np.hypot(z[..., 0], z[..., 1])
        wx, wy, _ = _chart(z)
        xw, yw = np.abs(wx), np.abs(wy)
        in_ring = xw + yw > 2.0
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
        pieces=_W_QUADRANT,
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

    # the masses integral_0^r 2 s f(s) ds over B_2 and B_4, exact per piece
    res2, res_tot = map(float, np.abs(datum.cumulative(np.array([2.0, 4.0]))))

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
