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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import (
    NonPositiveLambda,
    OrientationMismatch,
    PjacError,
    PreconditionViolated,
)
from .geometry import det2, polar_jacobian
from .maps import PlanarMap
from .regions import disc

# ---------------------------------------------------------------------------
# expression grammar: const | power | poly | gauss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstExpr:
    c: float

    def value(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.c)

    def deriv(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def mass_antideriv(self, r):
        """Antiderivative of 2 s f(s)."""
        return self.c * np.asarray(r, dtype=float) ** 2


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

    def deriv(self, r):
        return self.c * self.alpha * np.asarray(r, dtype=float) ** (self.alpha - 1)

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

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        return -self.c * r / self.sigma**2 * np.exp(-(r**2) / (2.0 * self.sigma**2))

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
        # prefix sums of the cumulative mass at piece boundaries
        starts = [0.0]
        for pc in ps:
            span = float(pc.expr.mass_antideriv(pc.r_max) - pc.expr.mass_antideriv(pc.r_min))
            starts.append(starts[-1] + span)
        object.__setattr__(self, "_mass_at_start", tuple(starts))
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
        pieces=(Piece(0.0, float(radius), ConstExpr(float(value))),),
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
            Piece(0.0, float(r_in), ConstExpr(0.0)),
            Piece(float(r_in), float(r_out), ConstExpr(float(value))),
        ),
        support_radius=float(r_out),
    )


# ---------------------------------------------------------------------------
# stretching profiles
# ---------------------------------------------------------------------------

_FAIL = 1e-6  # mass this negative is a genuine orientation violation


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

    def rho_dot(self, r) -> np.ndarray:
        """a.e. derivative of rho; +inf where rho vanishes but r f does not.

        rho = 0 with r f below roundoff scale (e.g. cumulative underflow at
        tiny radii) is a 0/0 limit, not a blow-up, and evaluates to 0.
        """
        r = np.asarray(r, dtype=float)
        rho = self.rho(r)
        rf = self.sign * r * self.datum.f(r)
        out = np.zeros_like(rho)
        ok = rho > 0
        out[ok] = rf[ok] / rho[ok]
        bad = (~ok) & (np.abs(rf) > self._rf_floor)
        out[bad] = np.inf
        return out

    def modulus(self, r) -> np.ndarray:
        return self.rho(r) / math.sqrt(abs(self.k))

    def modulus_dot(self, r) -> np.ndarray:
        return self.rho_dot(r) / math.sqrt(abs(self.k))

    def vanishing_radii(self) -> np.ndarray:
        """Radii where rho hits zero (detected on a scan of the support)."""
        R = self.datum.support_radius
        grid = np.linspace(0.0, R, 4097)
        rho = self.rho(grid)
        scale = max(float(np.max(rho)), 1e-300)
        small = rho <= 1e-9 * scale
        flips = np.nonzero(small[:-1] != small[1:])[0]
        out = []
        for i in flips:
            a, b = grid[i], grid[i + 1]
            for _ in range(60):  # bisect the transition of rho <= tol
                m = 0.5 * (a + b)
                if (self.rho(np.array([m]))[0] <= 1e-9 * scale) == small[i]:
                    a = m
                else:
                    b = m
            out.append(0.5 * (a + b))
        return np.array(out)


def profile_from_datum(datum: RadialDatum, k: int) -> RadialProfile:
    """Build the degree-k profile, checking the orientation condition.

    cumulative / k must be nonnegative (up to roundoff) on a log-spaced check
    grid; values below -1e-6 raise OrientationMismatch, smaller negatives are
    clamped to zero.
    """
    if k == 0:
        raise ValueError("degree k must be nonzero")
    R = datum.support_radius
    grid = np.concatenate(
        [datum.breakpoints(), np.geomspace(1e-6 * R, R, 2048)]
    )
    signed = datum.cumulative(grid) / k
    worst = float(np.min(signed))
    if worst < -_FAIL:
        raise OrientationMismatch(
            f"cumulative/k reaches {worst:.3e}; wrong orientation for k={k}"
        )
    return RadialProfile(datum=datum, k=int(k))


@dataclass(frozen=True)
class GeneralisedStretching:
    """The degree-k circular stretching z -> (rho(r)/sqrt(|k|)) e^{i k theta}."""

    profile: RadialProfile

    @property
    def k(self) -> int:
        return self.profile.k

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        theta = np.arctan2(pts[..., 1], pts[..., 0])
        psi = self.profile.modulus(r)
        kt = self.k * theta
        return np.stack([psi * np.cos(kt), psi * np.sin(kt)], axis=-1)

    def jacobian_matrix(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        psi = self.profile.modulus(r)
        psi_r = self.profile.modulus_dot(r)
        kt = self.k * theta
        ck, sk = np.cos(kt), np.sin(kt)
        ur = np.stack([psi_r * ck, psi_r * sk], axis=-1)
        ut = np.stack([-self.k * psi / r * sk, self.k * psi / r * ck], axis=-1)
        return polar_jacobian(pts, r, ur, ut)

    def as_planar_map(self, radius: float | None = None) -> PlanarMap:
        R = radius if radius is not None else self.profile.datum.support_radius
        breaks = [b for b in self.profile.datum.breakpoints() if 0.0 < b <= R]
        breaks += [v for v in self.profile.vanishing_radii() if 0.0 < v <= R]
        radii = tuple(sorted(set(breaks)))

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


def stretching_jacobian_check(
    s: GeneralisedStretching,
    datum: RadialDatum,
    radius_grid,
) -> float:
    """Max |J u - f| over the grid, with J computed by finite differences."""
    radius_grid = np.asarray(radius_grid, dtype=float)
    rho = s.profile.rho(radius_grid)
    keep = rho > 1e-9 * max(float(np.max(rho)), 1e-300)
    rs = radius_grid[keep]
    worst = 0.0
    pmap = s.as_planar_map(radius=float(np.max(radius_grid)) * 1.001)
    for a in (0.37, 2.1):
        pts = np.stack([rs * np.cos(a), rs * np.sin(a)], axis=-1)
        jac = det2(pmap.jacobian_fd(pts))
        worst = max(worst, float(np.max(np.abs(jac - datum.f(rs)), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# 1-D Sobolev energies, with divergence detection
# ---------------------------------------------------------------------------


def _window_refine(integrand, a, b, singular_lo, singular_hi):
    """Integrate over (a, b), shrinking cutoffs at singular endpoints.

    Returns math.inf when halving the cutoff keeps adding more than 0.5 per
    halving without any sign of saturation; this targets logarithmic blow-up,
    where the per-halving increment is asymptotically constant.
    """
    length = b - a
    d0 = 1e-3 * length
    lo = a + (d0 if singular_lo else 0.0)
    hi = b - (d0 if singular_hi else 0.0)
    total = quad(integrand, lo, hi, limit=200)[0]
    for singular, at_lo in ((singular_lo, True), (singular_hi, False)):
        if not singular:
            continue
        delta = d0
        prev_inc = None
        while delta > 1e-14 * length:
            new = delta / 2.0
            if at_lo:
                inc = quad(integrand, a + new, a + delta, limit=200)[0]
            else:
                inc = quad(integrand, b - delta, b - new, limit=200)[0]
            total += inc
            delta = new
            if inc < 1e-9 * max(1.0, abs(total)):
                break
            prev_inc = inc
        else:
            # cutoff floor reached with increments still above threshold
            if prev_inc is not None and prev_inc > 0.5:
                return math.inf
    return total


def sobolev_energy_1d(s: GeneralisedStretching, p: float, radius: float) -> float:
    """2 pi * integral_0^R (rho_dot^2/|k| + |k| rho^2/r^2)^p r dr.

    For p = 1, k = 1 this is exactly the squared-gradient integral of the
    stretching over the disc of radius R.  Returns math.inf when the integral
    diverges (detected by cutoff refinement toward the singular radius).
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    prof = s.profile
    k = abs(s.k)
    R = float(radius)

    def integrand(r):
        # includes the 2 pi factor so divergence thresholds act on the
        # energy itself, not an arbitrary normalisation of it
        rr = np.asarray(r, dtype=float)
        rho = prof.rho(rr)
        rho_dot = prof.rho_dot(rr)
        dens = rho_dot**2 / k + k * rho**2 / rr**2
        return 2.0 * math.pi * (dens**p) * rr

    cuts = [0.0, R]
    cuts += [float(b) for b in prof.datum.breakpoints() if 0.0 < b < R]
    cuts += [float(v) for v in prof.vanishing_radii() if 0.0 < v < R]
    cuts = sorted(set(cuts))

    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(cuts, cuts[1:]):
            length = b - a
            probes = []
            for end, delta in ((a, 1e-4), (a, 1e-7), (b, 1e-4), (b, 1e-7)):
                r = end + delta * length if end == a else end - delta * length
                probes.append(float(integrand(np.array([r]))[0]))
            singular_lo = probes[1] > 10.0 * probes[0] + 1e-12
            singular_hi = probes[3] > 10.0 * probes[2] + 1e-12
            part = (
                _window_refine(integrand, a, b, singular_lo, singular_hi)
                if (singular_lo or singular_hi)
                else quad(integrand, a, b, limit=200)[0]
            )
            if math.isinf(part):
                return math.inf
            total += part
    return total


def truncated_derivative_energy(profile: RadialProfile, r_end: float,
                                deltas) -> np.ndarray:
    """integral_0^{r_end - delta} rho_dot(r)^2 dr for each cutoff delta.

    This is the plain derivative energy of the profile (no r weight); it
    grows like c * log(1/delta) when rho vanishes at r_end with r f != 0.
    Results are aligned with the input order of ``deltas``.
    """
    deltas = np.asarray(deltas, dtype=float)
    order = np.argsort(-deltas)  # widest cutoff (shortest interval) first

    def integrand(r):
        return profile.rho_dot(np.asarray(r, dtype=float)) ** 2

    stop = r_end - deltas[order[0]]
    cuts = [float(b) for b in profile.datum.breakpoints() if 0.0 < b < stop]
    base = 0.0
    for a, b in zip([0.0] + cuts, cuts + [stop]):
        base += quad(integrand, a, b, limit=200)[0]

    sorted_values = [base]
    prev = stop
    for d in deltas[order[1:]]:
        sorted_values.append(
            sorted_values[-1] + quad(integrand, prev, r_end - d, limit=200)[0]
        )
        prev = r_end - d
    out = np.empty_like(deltas)
    out[order] = sorted_values
    return out


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
    grid: np.ndarray


def condition_report(datum: RadialDatum, radius_grid=None) -> ConditionReport:
    R = datum.support_radius
    if radius_grid is None:
        radius_grid = np.geomspace(1e-4 * R, R * (1.0 - 1e-9), 2048)
    grid = np.asarray(radius_grid, dtype=float)

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
        rho_dot = prof.rho_dot(grid)
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
        grid=grid,
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
