"""Radially symmetric data, degree-k circular stretchings, and their energies.

A datum f(r) is stored as a piecewise-analytic descriptor over a partition of
[0, support_radius).  The central quantity is the cumulative mass

    cumulative(r) = integral_0^r 2 s f(s) ds,

computed from closed-form antiderivatives so that the stretching profile is
exact wherever the descriptor is polynomial, power-law or Gaussian.

A degree-k stretching maps z = r e^{i theta} to psi(r) e^{i k theta} with
psi = rho / sqrt(|k|); it solves J u = f exactly when rho(r)^2 equals
sign(k) * cumulative(r), which requires cumulative/k >= 0 (the orientation
condition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NonPositiveLambda,
    OrientationMismatch,
    PjacError,
    PreconditionViolated,
)
from .geometry import polar_jacobian
from .maps import PlanarMap
from .regions import disc

# ---------------------------------------------------------------------------
# expression grammar: power | poly | gauss; mass_antideriv is an
# antiderivative of 2 s f(s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerExpr:
    """c * r^alpha (alpha != -2 so the mass antiderivative stays closed-form)."""

    c: float
    alpha: float

    def __post_init__(self):
        if self.alpha == -2.0:
            raise ValueError("alpha = -2 has a logarithmic mass antiderivative")

    def value(self, r):
        return self.c * np.asarray(r, dtype=float) ** self.alpha

    def mass_antideriv(self, r):
        a = self.alpha
        return 2.0 * self.c * np.asarray(r, dtype=float) ** (a + 2) / (a + 2)


@dataclass(frozen=True)
class PolyExpr:
    """sum_j coeffs[j] * (r - center)^j."""

    coeffs: tuple
    center: float = 0.0

    def value(self, r):
        u = np.asarray(r, dtype=float) - self.center
        out = np.zeros_like(u)
        for c in reversed(self.coeffs):
            out = out * u + c
        return out

    def deriv(self, r):
        u = np.asarray(r, dtype=float) - self.center
        out = np.zeros_like(u)
        for j in range(len(self.coeffs) - 1, 0, -1):
            out = out * u + j * self.coeffs[j]
        return out

    def mass_antideriv(self, r):
        # 2 s f(s) = sum_j 2 c_j (u^{j+1} + m u^j) with u = s - m
        u = np.asarray(r, dtype=float) - self.center
        out = np.zeros_like(u)
        for j, c in enumerate(self.coeffs):
            out = out + 2.0 * c * (
                u ** (j + 2) / (j + 2) + self.center * u ** (j + 1) / (j + 1)
            )
        return out


@dataclass(frozen=True)
class GaussExpr:
    """c * exp(-r^2 / (2 sigma^2))."""

    c: float
    sigma: float

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * np.exp(-(r**2) / (2.0 * self.sigma**2))

    def mass_antideriv(self, r):
        r = np.asarray(r, dtype=float)
        return -2.0 * self.c * self.sigma**2 * np.exp(-(r**2) / (2.0 * self.sigma**2))


# ---------------------------------------------------------------------------
# radially symmetric datum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    r_min: float
    r_max: float
    expr: object


def _span(pc: Piece) -> Fraction:
    """Mass of one piece, exact for polynomial pieces: their float data are
    rationals, so a mass balanced by construction sums to exactly 0."""
    e = pc.expr
    if not isinstance(e, PolyExpr):
        return Fraction(float(e.mass_antideriv(pc.r_max) - e.mass_antideriv(pc.r_min)))
    m = Fraction(e.center)
    a, b = Fraction(pc.r_min) - m, Fraction(pc.r_max) - m
    return sum(2 * Fraction(c) * ((b ** (j + 2) - a ** (j + 2)) / (j + 2)
                                  + m * (b ** (j + 1) - a ** (j + 1)) / (j + 1))
               for j, c in enumerate(e.coeffs))


@dataclass(frozen=True)
class RadialDatum:
    """A radially symmetric scalar function of radius, piecewise analytic.

    ``pieces`` partition [0, support_radius); f is identically zero beyond
    support_radius.
    """

    pieces: tuple
    support_radius: float = math.inf

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps or ps[0].r_min != 0.0:
            raise ValueError("pieces must start at r = 0")
        for a, b in zip(ps, ps[1:]):
            if b.r_min != a.r_max:
                raise ValueError("pieces must partition [0, support_radius)")
        last = ps[-1].r_max
        support = last if math.isinf(self.support_radius) else self.support_radius
        if last != support:
            raise ValueError("last piece must end at support_radius")
        object.__setattr__(self, "pieces", ps)
        object.__setattr__(self, "support_radius", float(support))
        # prefix sums of the cumulative mass at piece boundaries, summed
        # exactly and rounded once
        starts = [Fraction(0)]
        for pc in ps:
            starts.append(starts[-1] + _span(pc))
        object.__setattr__(self, "_mass_at_start", tuple(map(float, starts)))
        object.__setattr__(self, "_edges", np.array([pc.r_min for pc in ps] + [ps[-1].r_max]))

    # -- evaluation --------------------------------------------------------

    def _piece_index(self, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._edges, r, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def f(self, r) -> np.ndarray:
        """Each piece's value on its radii, zero beyond the support."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        idx = self._piece_index(r)
        inside = r < self.support_radius
        for i, pc in enumerate(self.pieces):
            m = inside & (idx == i)
            if np.any(m):
                out[m] = pc.expr.value(r[m])
        return out

    def cumulative(self, r) -> np.ndarray:
        """integral_0^r 2 s f(s) ds, exact per piece."""
        r = np.asarray(r, dtype=float)
        rr = np.minimum(r, self.support_radius)
        out = np.zeros_like(rr)
        idx = self._piece_index(rr)
        for i, pc in enumerate(self.pieces):
            m = idx == i
            if np.any(m):
                out[m] = self._mass_at_start[i] + (
                    pc.expr.mass_antideriv(rr[m]) - pc.expr.mass_antideriv(pc.r_min)
                )
        return out

    def breakpoints(self) -> np.ndarray:
        return np.array(self._edges)

    def as_field(self):
        """f as a function of planar points, for Jacobian comparisons."""

        def field(pts):
            pts = np.asarray(pts, dtype=float)
            return self.f(np.hypot(pts[..., 0], pts[..., 1]))

        return field


def uniform_datum(value: float = 1.0, radius: float = 3.0) -> RadialDatum:
    return RadialDatum(
        pieces=(Piece(0.0, float(radius), PolyExpr((float(value),))),),
        support_radius=float(radius),
    )


def power_law_datum(eps: float) -> RadialDatum:
    """c r^eps on the unit disc with c = 2/(2+eps), so the disc average is 1.

    The pointwise/average ratio is constant: f(r) = (2+eps)/2 times the mean
    of f over the disc of radius r.
    """
    c = 2.0 / (2.0 + eps)
    return RadialDatum(
        pieces=(Piece(0.0, 1.0, PowerExpr(c=c, alpha=float(eps))),),
        support_radius=1.0,
    )


def truncated_gaussian_datum(sigma: float = 1.0, radius: float = 2.5) -> RadialDatum:
    return RadialDatum(
        pieces=(Piece(0.0, float(radius), GaussExpr(c=1.0, sigma=float(sigma))),),
        support_radius=float(radius),
    )


def annulus_indicator_datum(r_in: float, r_out: float, value: float = 1.0) -> RadialDatum:
    """value on the annulus r_in < r < r_out, zero elsewhere."""
    return RadialDatum(
        pieces=(
            Piece(0.0, float(r_in), PolyExpr((0.0,))),
            Piece(float(r_in), float(r_out), PolyExpr((float(value),))),
        ),
        support_radius=float(r_out),
    )


# ---------------------------------------------------------------------------
# stretching profiles
# ---------------------------------------------------------------------------

_FAIL = 1e-6  # relative to the largest |cumulative/k|: a genuine orientation violation


@dataclass(frozen=True)
class RadialProfile:
    """rho(r) and its a.e. derivative for a degree-k stretching.

    rho(r)^2 = sign(k) * cumulative(r) and rho * rho_dot = sign(k) * r * f(r),
    so the map psi = rho / sqrt(|k|) satisfies psi^2 = cumulative / k and the
    assembled stretching has Jacobian exactly f for every k.
    """

    datum: RadialDatum
    k: int

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("degree k must be nonzero")
        R = self.datum.support_radius
        probe = np.linspace(R / 1024, R * (1 - 1e-9), 1024)
        f_scale = float(np.max(np.abs(self.datum.f(probe))))
        # below this, r f is roundoff of a 0/0 limit, not a genuine blow-up
        object.__setattr__(self, "_rf_floor", 1e-6 * max(R * f_scale, 1e-300))

    @property
    def sign(self) -> float:
        return 1.0 if self.k > 0 else -1.0

    def rho(self, r) -> np.ndarray:
        mass = self.sign * self.datum.cumulative(r)
        return np.sqrt(np.clip(mass, 0.0, None))

    def rho_dot(self, r, rho=None) -> np.ndarray:
        """a.e. derivative of rho; +inf where rho vanishes but r f does not.

        rho = 0 with r f below roundoff scale (e.g. cumulative underflow at
        tiny radii) is a 0/0 limit, not a blow-up, and evaluates to 0.
        ``rho``, if given, is ``self.rho(r)``, computed once by a caller that
        needs both.
        """
        r = np.asarray(r, dtype=float)
        rho = self.rho(r) if rho is None else rho
        rf = self.sign * r * self.datum.f(r)
        out = np.zeros_like(rho)
        ok = rho > 0
        out[ok] = rf[ok] / rho[ok]
        bad = (~ok) & (np.abs(rf) > self._rf_floor)
        out[bad] = np.inf
        return out

    def modulus(self, r) -> np.ndarray:
        return self.rho(r) / math.sqrt(abs(self.k))


def profile_from_datum(datum: RadialDatum, k: int) -> RadialProfile:
    """Build the degree-k profile, checking the orientation condition.

    cumulative / k must be nonnegative (up to roundoff) on a log-spaced check
    grid; values below -1e-6 times the largest |cumulative / k| there raise
    OrientationMismatch, smaller negatives are clamped to zero.
    """
    profile = RadialProfile(datum=datum, k=int(k))
    R = datum.support_radius
    grid = np.concatenate(
        [datum.breakpoints(), np.geomspace(1e-6 * R, R, 2048)]
    )
    signed = datum.cumulative(grid) / k
    worst = float(np.min(signed))
    if worst < -_FAIL * float(np.max(np.abs(signed))):
        raise OrientationMismatch(
            f"cumulative/k reaches {worst:.3e}; wrong orientation for k={k}"
        )
    return profile


def _no_phase(r):
    # -0.0 rather than 0.0: k theta + (-0.0) is k theta bit for bit, signed
    # zeros included, so the plain stretching keeps its exact values
    return -0.0


@dataclass(frozen=True)
class GeneralisedStretching:
    """The degree-k circular stretching with a radial phase beta(r):

        z = r e^{i theta} -> (rho(r)/sqrt(|k|)) e^{i (k theta + beta(r))}.

    The phase only rotates each circle, so it drops out of the Jacobian: every
    beta solves the same equation, at the extra derivative energy
    psi^2 beta_dot^2.  ``beta_dot`` is the derivative of ``beta``; both take
    arrays of radii.  The plain stretching is beta = 0, the default.
    """

    profile: RadialProfile
    beta: callable = _no_phase
    beta_dot: callable = _no_phase

    @property
    def k(self) -> int:
        return self.profile.k

    def _phase(self, pts, r) -> np.ndarray:
        return self.k * np.arctan2(pts[..., 1], pts[..., 0]) + np.asarray(self.beta(r))

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        psi = self.profile.modulus(r)
        phi = self._phase(pts, r)
        return np.stack([psi * np.cos(phi), psi * np.sin(phi)], axis=-1)

    def jacobian_matrix(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        # rho, one cumulative mass, serves both the modulus and its derivative
        rho, root = self.profile.rho(r), math.sqrt(abs(self.k))
        psi, psi_r = rho / root, self.profile.rho_dot(r, rho) / root
        bd = np.asarray(self.beta_dot(r))
        phi = self._phase(pts, r)
        cp, sp = np.cos(phi), np.sin(phi)
        ur = np.stack([psi_r * cp - psi * bd * sp, psi_r * sp + psi * bd * cp], axis=-1)
        ut = np.stack([-self.k * psi / r * sp, self.k * psi / r * cp], axis=-1)
        return polar_jacobian(pts, r, ur, ut)

    def as_planar_map(self, radius: float | None = None) -> PlanarMap:
        R = radius if radius is not None else self.profile.datum.support_radius
        radii = tuple(b for b in self.profile.datum.breakpoints() if 0.0 < b <= R)

        def break_distance(pts):
            pts = np.asarray(pts, dtype=float)
            r = np.hypot(pts[..., 0], pts[..., 1])
            d = r.copy()  # the origin is always a break of the polar frame
            for b in radii:
                d = np.minimum(d, np.abs(r - b))
            return d

        return PlanarMap(
            fn=self.__call__,
            domain=disc(R),
            jac=self.jacobian_matrix,
            break_distance=break_distance,
            break_radii=radii,
            name=f"stretching_k{self.k}",
        )


# ---------------------------------------------------------------------------
# 1-D Sobolev energies on a graded Gauss-Legendre rule
# ---------------------------------------------------------------------------

_GL_ORDER = 20


def _graded_integral(integrand, cuts) -> float:
    """Integral of ``integrand(anchor, offset)`` over [cuts[0], cuts[-1]].

    Each interval between consecutive cuts is split into panels that halve
    toward both of its ends, down to 2^-200 of its length, and every panel
    gets a fixed-order Gauss-Legendre rule, all summed in one numpy call.
    Each node is passed as its nearer cut plus an offset that, unlike the
    node itself, keeps its relative precision however close to the cut.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    edges = np.concatenate([[0.0], 2.0 ** -np.arange(200.0, 0.0, -1.0)])
    half = 0.5 * np.diff(edges)[:, None]
    t = ((edges[:-1, None] + half) + half * x).ravel()  # offsets in (0, 1/2)
    wt = (half * w).ravel()
    a, b = np.asarray(cuts[:-1])[:, None], np.asarray(cuts[1:])[:, None]
    length = b - a
    anchors = np.repeat(np.concatenate([a, b], axis=1), t.size, axis=1).ravel()
    offsets = np.concatenate([length * t, -length * t], axis=1).ravel()
    weights = np.tile(length * wt, 2).ravel()
    return float(np.sum(weights * integrand(anchors, offsets)))


def _rho_terms(prof: RadialProfile, anchor, offset):
    """r, rho^2 and rho_dot^2 at the nodes r = anchor + offset.

    A node lies on the piece its anchor faces, even where r rounds onto the
    anchor.  rho^2 is summed from the nearer end of that piece, by a
    Gauss-Legendre rule in the offset from the end, so it stays accurate
    where the mass nearly cancels (rho -> 0 at a piece end, rho^2 = eps +
    r^2 - 1 near r = 1 on the layered datum); the lower half of the piece
    at the origin, where nothing cancels, keeps the closed form.
    """
    datum = prof.datum
    r = anchor + offset
    idx = np.where(offset < 0, np.searchsorted(datum._edges, anchor, side="left"),
                   np.searchsorted(datum._edges, anchor, side="right")) - 1
    mass = np.full_like(r, datum._mass_at_start[-1])  # beyond the support
    rf = np.zeros_like(r)
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    for i, pc in enumerate(datum.pieces):
        m = idx == i
        rf[m] = r[m] * pc.expr.value(r[m])
        upper = 2.0 * r >= pc.r_min + pc.r_max
        if i == 0:
            mass[m] = pc.expr.mass_antideriv(r[m]) - pc.expr.mass_antideriv(0.0)
            m &= upper
        end = np.where(upper[m], pc.r_max, pc.r_min)
        d = (anchor[m] - end) + offset[m]
        s = end[:, None] + (0.5 * d)[:, None] * (1.0 + x)
        start = np.asarray(datum._mass_at_start)[i + upper[m]]
        mass[m] = start + 0.5 * d * ((2.0 * s * pc.expr.value(s)) @ w)
    rho2 = np.clip(prof.sign * mass, 0.0, None)
    blowup = np.where(np.abs(rf) > prof._rf_floor, np.inf, 0.0)  # as in rho_dot
    return r, rho2, np.divide(rf**2, rho2, out=blowup, where=rho2 > 0)


def sobolev_energy_1d(s: GeneralisedStretching, p: float, radius: float) -> float:
    """2 pi * integral_0^R ((rho_dot^2 + rho^2 beta_dot^2)/|k| + |k| rho^2/r^2)^p r dr.

    For p = 1 this is exactly the squared-gradient integral of the
    stretching over the disc of radius R.  It is math.inf where rho
    vanishes at r0 in (0, R] with |r0 f| on either side above the profile's
    roundoff floor (rho_dot^2 ~ r0 f / (2 |r - r0|)): at piece ends of exact
    mass 0, or at a sign change inside a piece that ``profile_from_datum``
    clamped as roundoff, where the nodes see rho_dot = inf.  It is math.inf
    too when the origin piece is c r^alpha with alpha p <= -2 (density ~
    r^(alpha p + 1)); every other expression is bounded there.  Otherwise
    the graded Gauss-Legendre rule cut at the datum's breakpoints is exact
    to roundoff for features wider than 2^-200 of a cut interval.
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    prof = s.profile
    datum = prof.datum
    k = abs(s.k)
    R = float(radius)
    origin = datum.pieces[0].expr
    if isinstance(origin, PowerExpr) and origin.alpha * p <= -2.0:
        return math.inf
    for r0, mass in zip(datum._edges, datum._mass_at_start):
        if 0.0 < r0 <= R and mass == 0.0:
            sides = np.array([np.nextafter(r0, 0.0), np.nextafter(r0, math.inf)])
            if np.max(np.abs(r0 * datum.f(sides))) > prof._rf_floor:
                return math.inf

    def integrand(anchor, offset):
        r, rho2, rho_dot2 = _rho_terms(prof, anchor, offset)
        twist2 = rho2 * np.asarray(s.beta_dot(r)) ** 2
        return ((rho_dot2 + twist2) / k + k * rho2 / r**2) ** p * r

    cuts = {0.0, R} | {float(b) for b in datum.breakpoints() if 0.0 < b < R}
    return 2.0 * math.pi * _graded_integral(integrand, sorted(cuts))


def truncated_derivative_energy(profile: RadialProfile, r_end: float,
                                deltas) -> np.ndarray:
    """integral_0^{r_end - delta} rho_dot(r)^2 dr for each cutoff delta.

    This is the plain derivative energy of the profile (no r weight); it
    grows like c * log(1/delta) when rho vanishes at r_end with r f != 0.
    Results are aligned with the input order of ``deltas``.
    """
    breaks = [float(b) for b in profile.datum.breakpoints() if b > 0.0]
    return np.array([
        _graded_integral(lambda a, h: _rho_terms(profile, a, h)[2],
                         [0.0] + [b for b in breaks if b < stop] + [stop])
        for stop in r_end - np.asarray(deltas, dtype=float)
    ])


# ---------------------------------------------------------------------------
# the lambda-average condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """How far the datum is from the averaged-majorisation condition.

    ``lambda_star`` is the grid maximum of |f(r)| / (average of f over the
    disc of radius r); equal, through rho * rho_dot = r f, to the maximum of
    |rho_dot| r / rho, which is reported alongside as a consistency check.
    """

    lambda_star: float
    lambda_star_radial: float
    average_condition_holds: bool
    orientation: str  # "nonnegative" | "nonpositive" | "mixed"


def condition_report(datum: RadialDatum) -> ConditionReport:
    R = datum.support_radius
    grid = np.geomspace(1e-4 * R, R * (1.0 - 1e-9), 2048)

    cum = datum.cumulative(grid)
    scale = max(float(np.max(np.abs(cum))), 1e-300)
    tol = 1e-12 * scale
    if np.all(cum >= -tol):
        orientation = "nonnegative"
    elif np.all(cum <= tol):
        orientation = "nonpositive"
    else:
        orientation = "mixed"

    sign = -1.0 if orientation == "nonpositive" else 1.0
    mass = sign * cum
    fvals = np.abs(datum.f(grid))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(mass > tol, fvals * grid**2 / mass, np.inf)
    lambda_star = float(np.max(lam)) if orientation != "mixed" else math.inf

    lambda_radial = math.inf
    if orientation != "mixed":
        prof = RadialProfile(datum=datum, k=1 if sign > 0 else -1)
        rho = prof.rho(grid)
        rho_dot = prof.rho_dot(grid, rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_r = np.where(rho > 0, np.abs(rho_dot) * grid / rho, np.inf)
        lam_r = np.where(np.isfinite(rho_dot), lam_r, np.inf)
        lambda_radial = float(np.max(lam_r))

    if math.isfinite(lambda_star) and math.isfinite(lambda_radial):
        gap = abs(lambda_star - lambda_radial)
        if gap > 1e-6 * max(1.0, lambda_star):
            raise PjacError(
                f"ratio and derivative forms of lambda* disagree by {gap:.3e}"
            )

    return ConditionReport(
        lambda_star=lambda_star,
        lambda_star_radial=lambda_radial,
        average_condition_holds=lambda_star <= 1.0 + 1e-9,
        orientation=orientation,
    )


# ---------------------------------------------------------------------------
# Zhukovsky function and the two-term energy split
# ---------------------------------------------------------------------------


def zhukovsky(lam) -> np.ndarray:
    """Z(lambda) = (lambda + 1/lambda) / 2, the quasi-minimality factor."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise NonPositiveLambda("Zhukovsky function needs lambda > 0")
    return 0.5 * (lam + 1.0 / lam)


def energy_split(a, b) -> np.ndarray:
    """a + b^2 / a: tangential energy plus the Jacobian penalty it implies.

    Convex on (0, inf) x R, minimised over a at a = |b|.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise PreconditionViolated("energy_split needs a > 0")
    return a + np.asarray(b, dtype=float) ** 2 / a


def split_bound_check(a1, a2, b, lam) -> np.ndarray:
    """Whether energy_split(a2, b) <= Z(lam) * energy_split(a1, b) + 1e-12.

    Preconditions: 0 < a2 <= a1 and |b| <= lam * a2.  Under them the bound
    always holds; the check exists to exercise exactly that.
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b = np.asarray(b, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(a2 <= 0) or np.any(a1 <= 0):
        raise PreconditionViolated("need positive a1, a2")
    if np.any(a2 > a1):
        raise PreconditionViolated("need a2 <= a1")
    if np.any(np.abs(b) > lam * a2):
        raise PreconditionViolated("need |b| <= lambda * a2")
    return energy_split(a2, b) <= zhukovsky(lam) * energy_split(a1, b) + 1e-12
