import math

import numpy as np
import pytest
from scipy.integrate import quad

import pjac.energy as energy
from pjac.constructions import (
    _eta_inv_parts,
    assemble_counterexample,
    ball_to_square,
    boundary_identity_residual,
    layered_datum,
    layered_profile,
    nonuniqueness_datum,
    nonuniqueness_inner_profile,
    shear_map,
    wedge_map,
)
from pjac.energy import build_grid, jacobian_residual, lipschitz_estimate, region_energy
from pjac.errors import GluingMismatch, IncompatibleTrace, OriginEvaluation, OutsideWedge
from pjac.geometry import det2, frobenius
from pjac.maps import continuity_report, fd_jacobian, rotate_map
from pjac.radial import GeneralisedStretching, truncated_derivative_energy
from pjac.regions import disc, l1_norm, quasi_random_points


def cofactor(a):
    """Cofactor matrices of a stack: cof([[a, b], [c, d]]) = [[d, -c], [-b, a]],
    so the inverse of A is cof(A)^T / det A."""
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 1, 0]
    out[..., 1, 0] = -a[..., 0, 1]
    out[..., 1, 1] = a[..., 0, 0]
    return out


# -- ball onto square ----------------------------------------------------------


def test_eta_point_values():
    eta, rot = ball_to_square()
    assert np.allclose(eta(np.array([[1.0, 0.0]]))[0], [1 / math.sqrt(2), 0.0])
    assert np.allclose((eta(np.array([[1.0, 0.0]])) @ rot.T)[0], [0.5, 0.5])
    assert np.allclose(eta(np.array([[0.0, 0.0]]))[0], [0.0, 0.0])


def test_eta_constant_jacobian(rng):
    eta, _ = ball_to_square()
    pts = quasi_random_points(
        disc(2.0), 20000, seed=5, min_break_distance=1e-4,
        break_distance=eta.break_distance,
    )
    assert np.max(np.abs(det2(eta.jacobian(pts)) - 2 / math.pi)) < 1e-12
    fd = det2(fd_jacobian(eta.fn, pts[:4000]))
    assert np.max(np.abs(fd - 2 / math.pi)) < 1e-5


def _chart_inv(w):
    """The diamond chart's inverse eta^-1(R^T w), R the rotation of ball_to_square."""
    a, b = np.moveaxis(np.asarray(w) @ ball_to_square()[1], -1, 0)
    return np.stack(_eta_inv_parts(a, b), axis=-1)


def test_eta_l1_identity(rng):
    eta, rot = ball_to_square()
    pts = rng.normal(size=(5000, 2))
    w = eta(pts) @ rot.T
    l1 = np.abs(w[:, 0]) + np.abs(w[:, 1])
    assert np.max(np.abs(l1 - np.hypot(pts[:, 0], pts[:, 1]))) < 1e-10
    assert np.max(np.abs(_chart_inv(w) - pts)) < 1e-9


def test_eta_continuity_across_diagonals():
    eta, _ = ball_to_square()
    t = np.linspace(0.05, 2.0, 200)
    for sx in (1, -1):
        for sy in (1, -1):
            diag = np.stack([sx * t, sy * t], axis=-1)
            delta = 1e-9
            just_below = eta(diag + np.array([delta * sx, 0.0]))
            just_above = eta(diag + np.array([0.0, delta * sy]))
            assert np.max(np.abs(just_below - just_above)) < 1e-7


def test_eta_jacobian_rejects_origin():
    eta, _ = ball_to_square()
    with pytest.raises(OriginEvaluation):
        eta.jacobian(np.array([[0.0, 0.0], [1.0, 0.5]]))


def _eta_inverse_points(rng):
    # both swap branches in all four quadrants, plus points within 1e-9 of
    # the diagonals |b| = |a| on either side
    a, b = rng.uniform(0.05, 3.0, size=(2, 4000))
    far = np.concatenate([np.stack([a, b * np.minimum(a / b, 1.0) * 0.999], -1),
                          np.stack([a * np.minimum(b / a, 1.0) * 0.999, b], -1)])
    t = rng.uniform(0.05, 3.0, size=1000)
    near = np.concatenate([np.stack([t, t + d], -1) for d in (-1e-9, -1e-12, 1e-12, 1e-9)])
    signs = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
    return np.concatenate([pts * s for s in signs for pts in (far, near)])


def test_eta_inverse_jacobian_closed_form(rng):
    pts = _eta_inverse_points(rng)
    k = np.stack(_eta_inv_parts(pts[:, 0], pts[:, 1], jac=True), -1).reshape(-1, 2, 2)
    assert {bool(s) for s in np.abs(pts[:, 1]) > np.abs(pts[:, 0])} == {False, True}
    # the inverse of D eta at eta^-1(p)
    eta, rot = ball_to_square()
    d = eta.jacobian(np.stack(_eta_inv_parts(pts[:, 0], pts[:, 1]), axis=-1))
    inv = np.swapaxes(cofactor(d), -1, -2) / det2(d)[:, None, None]
    rel = np.max(np.abs(k - inv), axis=(1, 2)) / np.max(np.abs(inv), axis=(1, 2))
    assert float(np.max(rel)) <= 1e-13
    # the finite-difference Jacobian of the chart's inverse, D chart^-1(w) =
    # K(R^T w) R^T, at points farther than 1e-4 from the diagonals where the
    # branches meet
    off = np.abs(np.abs(pts[:, 0]) - np.abs(pts[:, 1])) > 1e-4
    w = pts[off] @ rot.T
    assert np.max(np.abs(k[off] @ rot.T - fd_jacobian(_chart_inv, w))) <= 1e-6


# -- the shear of the diamond ----------------------------------------------------


def test_shear_point_values():
    v = shear_map(0.5)
    assert np.allclose(v(np.array([[0.5, 0.0]]))[0], [0.5, 0.0])
    assert np.allclose(v(np.array([[0.5, 0.4]]))[0], [0.5, 0.2])


def test_shear_continuity_everywhere():
    for eps in (0.0, 0.3, 1.0):
        report = continuity_report(shear_map(eps), n=1000)
        assert max(report.values()) < 1e-10


def test_shear_jacobian_indicator():
    eps = 0.25
    v = shear_map(eps)

    def field(pts):
        n1 = np.abs(pts[..., 0]) + np.abs(pts[..., 1])
        return np.where(n1 <= 1.0, eps, 1.0)

    mx, _ = jacobian_residual(v, field, v.domain, seed=0)
    assert mx < 1e-6


def test_shear_rejects_bad_parameter():
    with pytest.raises(ValueError):
        shear_map(1.5)


# -- the wedge map ----------------------------------------------------------------


def test_wedge_jacobian_branch_values():
    _, jdet = wedge_map(0.3)
    # middle strip: x + y - 3/2; outer strip: (x-1)/2 + y
    assert np.isclose(jdet(np.array([[1.5, 1.0]]))[0], 1.0)
    assert np.isclose(jdet(np.array([[2.5, 0.5]]))[0], 1.25)
    # inner strip: eps (x-1) + y - 1/2
    assert np.isclose(jdet(np.array([[0.5, 1.8]]))[0], 0.3 * (-0.5) + 1.8 - 0.5)


def test_wedge_inner_edge_shear_trace():
    for eps in (0.2, 0.8):
        wmap, _ = wedge_map(eps)
        x = np.linspace(0.01, 0.99, 50)
        pts = np.stack([x, 2 - x], axis=-1)
        out = wmap(pts)
        assert np.max(np.abs(out[:, 0] - x)) < 1e-12
        assert np.max(np.abs(out[:, 1] - (1 + eps * (1 - x)))) < 1e-12
        # for x beyond 1 the inner edge stays fixed
        x2 = np.linspace(1.01, 1.99, 50)
        pts2 = np.stack([x2, 2 - x2], axis=-1)
        assert np.max(np.abs(wmap(pts2) - pts2)) < 1e-12


def test_wedge_outer_edge_identity():
    wmap, _ = wedge_map(0.5)
    x = np.linspace(0.01, 2.99, 80)
    pts = np.stack([x, 3 - x], axis=-1)
    assert np.max(np.abs(wmap(pts) - pts)) < 1e-12


def test_wedge_jacobian_lower_bound_and_continuity():
    for eps in (0.0, 0.5, 1.0):
        wmap, jdet = wedge_map(eps)
        pts = quasi_random_points(wmap.domain, 4000, seed=1)
        assert float(np.min(jdet(pts))) >= 0.5
        assert max(continuity_report(wmap).values()) < 1e-12


def test_wedge_rejects_far_outside_points():
    wmap, _ = wedge_map(0.5)
    with pytest.raises(OutsideWedge):
        wmap(np.array([[0.2, 0.2]]))


# -- branch tables of the shear and the wedge ------------------------------------

# unit normal of each interface, from its left branch's side to its right one's
_INTERFACE_NORMALS = {
    "inner-top": (0.0, 1.0),
    "inner-bottom": (0.0, -1.0),
    "chord+x+y": (-1.0, 0.0),
    "chord+x-y": (-1.0, 0.0),
    "chord-x+y": (1.0, 0.0),
    "chord-x-y": (1.0, 0.0),
    "strip x=1": (1.0, 0.0),
    "strip x=2": (1.0, 0.0),
}


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_interface_branches_match_map_evaluation(eps):
    # just inside each side, that side's branch is bit for bit what the map
    # itself evaluates: the continuity audit traces the formulas in use
    t = (np.arange(400) + 0.5) / 400
    for pmap in (shear_map(eps), wedge_map(eps)[0]):
        assert pmap.interfaces
        for iface in pmap.interfaces:
            on = iface.curve(t)
            step = 1e-9 * np.array(_INTERFACE_NORMALS[iface.label])
            for branch, pts in ((iface.left, on - step), (iface.right, on + step)):
                assert np.array_equal(branch(pts), pmap(pts)), (pmap.name, iface.label)


# -- assembled counterexample ------------------------------------------------------


def test_assembly_identity_on_outer_circle():
    for eps in (0.1, 1.0):
        u = assemble_counterexample(eps)
        assert boundary_identity_residual(u, 3.0, n=720) < 1e-8


def test_assembly_exact_jacobian_inside():
    # inside the pullback of Q_2 the Jacobian is exactly the layered datum
    for eps in (1.0, 0.1, 0.01):
        u = assemble_counterexample(eps)
        datum = layered_datum(eps)
        mx, _ = jacobian_residual(u, datum.as_field(), disc(2.0), n=4096, seed=3)
        assert mx < 1e-5


def test_assembly_conjugation_identity(rng):
    # J u(z) = J (diamond map)(R eta z): the chart factors cancel
    eps = 0.4
    u = assemble_counterexample(eps)
    eta, rot = ball_to_square()
    vmap = shear_map(eps)
    pts = quasi_random_points(
        disc(1.9), 600, seed=4, min_break_distance=1e-3,
        break_distance=u.break_distance,
    )
    left = det2(u.jacobian(pts))
    right = det2(vmap.jac(eta(pts) @ rot.T))
    assert np.max(np.abs(left - right)) < 1e-10
    fd = det2(fd_jacobian(u.fn, pts[:200]))
    assert np.max(np.abs(fd - right[:200])) < 1e-5


def _eta_inv_tan(pts):
    # eta^-1 in its tan form: on |b| <= |a|, sgn(a) sqrt2 |a| (1, m) / sqrt(1 + m^2)
    # with m = tan(pi b / (4 a)); the other branch is conjugated by the swap
    a, b = pts[..., 0], pts[..., 1]
    swap = ~(np.abs(b) <= np.abs(a))
    u, v = np.where(swap, b, a), np.where(swap, a, b)
    nz = (np.abs(a) > 0) | (np.abs(b) > 0)
    m = np.tan(np.pi * np.where(nz, v, 0.0) / (4.0 * np.where(nz, u, 1.0)))
    x = np.sign(u) * (math.sqrt(2.0) * np.abs(u)) / np.sqrt(1.0 + m * m)
    out = np.stack([x, m * x], axis=-1)
    out[swap] = out[swap][..., ::-1]
    return out


def _composition(eps):
    """The competitor's value and Jacobian composed from its parts: the chart
    w = R eta(z), the shear on Q_2 and the wedge folded into each quadrant of
    the ring, then eta^-1(R^T v); the inverse chart's Jacobian by cofactor/det
    at the image, and (n, 2, 2) products."""
    eta, rot = ball_to_square()
    vmap, wedge = shear_map(eps), wedge_map(eps)[0]

    def diamond(w):
        inner = l1_norm(w) <= 2.0
        v, dw = np.empty(w.shape), np.empty(w.shape + (2,))
        v[inner], dw[inner] = vmap.fn(w[inner]), vmap.jac(w[inner])
        # S wedge(S w) and S D wedge(S w) S with S = diag(sign w)
        s = np.where(w[~inner] < 0, -1.0, 1.0)
        v[~inner] = s * wedge.fn(np.abs(w[~inner]))
        dw[~inner] = s[:, :, None] * wedge.jac(np.abs(w[~inner])) * s[:, None, :]
        return v, dw

    def fn(z):
        w = eta(z) @ rot.T
        return _eta_inv_tan(diamond(w)[0] @ rot)

    def jac(z):
        v, dw = diamond(eta(z) @ rot.T)
        out = rot @ eta.jacobian(_eta_inv_tan(v @ rot))
        out = np.swapaxes(cofactor(out), -1, -2) / det2(out)[..., None, None]
        return out @ dw @ (rot @ eta.jacobian(z))

    return fn, jac


@pytest.mark.parametrize("eps", [0.0, 1e-5, 0.3, 1.0])
def test_assembly_jacobian_matches_composition(eps):
    u = assemble_counterexample(eps)
    nodes = build_grid(disc(3.0), 320, u.break_radii, u.break_angles).nodes
    assert len(nodes) >= 100_000
    fn, jac = _composition(eps)
    assert np.array_equal(u.fn(nodes), fn(nodes))  # the value, bit for bit
    assert np.max(np.abs(u.jacobian(nodes) - jac(nodes))) <= 1e-12
    pts = quasi_random_points(
        disc(3.0), 2000, seed=8, min_break_distance=1e-3,
        break_distance=u.break_distance,
    )
    assert np.max(np.abs(u.jacobian(pts) - fd_jacobian(u.fn, pts))) <= 1e-6
    with pytest.raises(OriginEvaluation):
        u.jacobian(np.array([[0.0, 0.0], [1.0, 0.5]]))


def test_assembly_wedge_jacobian_range():
    u = assemble_counterexample(0.5)
    pts = quasi_random_points(
        disc(3.0), 4000, seed=5, min_break_distance=1e-3,
        break_distance=u.break_distance,
    )
    r = np.hypot(pts[:, 0], pts[:, 1])
    ring = (r > 2.001) & (r < 2.999)
    jac = det2(u.jacobian(pts[ring]))
    assert float(np.min(jac)) > 0.5 - 1e-9
    assert float(np.max(jac)) < 2.5


@pytest.fixture(scope="module")
def corrected_half():
    """eps 0.5, its corrector and the corrector's trace."""
    from pjac.moser import constant_jacobian_corrector, wedge_domain

    eps = 0.5
    _, jdet = wedge_map(eps)
    corr, trace = constant_jacobian_corrector(
        jdet, (6 - eps) / 5, wedge_domain(),
        iterations=3, n_panels=28, cache=64, n_check=200,
    )
    return eps, corr, trace


def test_assembly_with_corrector_matches_datum_everywhere(corrected_half):
    # with the wedge corrected, the Jacobian tracks the layered datum on the
    # whole disc (within the corrector residual), not just inside radius 2
    eps, corr, trace = corrected_half
    assert trace[-1].max_residual < 0.1
    u = assemble_counterexample(eps, corrector=corr)
    datum = layered_datum(eps)
    mx, mean = jacobian_residual(
        u, datum.as_field(), disc(3.0), n=2048, seed=9, margin=1e-2
    )
    assert mx < 5e-2
    assert boundary_identity_residual(u) < 1e-8


MIRRORS = {
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "anti-swap": np.array([[0.0, -1.0], [-1.0, 0.0]]),
    "-I": -np.eye(2),
}


def mirror_gap(u, n=4000, seed=8):
    """Largest relative gap between |Du(Tz)| and |Du(z)| over n random z in
    B_3 and the three mirror images T of the competitor's symmetry group."""
    rng = np.random.default_rng(seed)
    r, t = 3.0 * np.sqrt(rng.random(n)), 2 * np.pi * rng.random(n)
    z = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    norm = frobenius(u.jacobian(z))
    return max(float(np.max(np.abs(frobenius(u.jacobian(z @ T.T)) - norm) / norm))
               for T in MIRRORS.values())


def full_disc_gap(u, n, mirrored):
    """Relative gap between ``region_energy``, which counts the competitor's
    w-quadrant pieces 4 times, and the same rule on all four quadrants."""
    whole = energy._energy_on_grid(u, 1, energy.pieces_grid(mirrored(u.pieces), max(n // 16, 8)))
    return abs(region_energy(u, 1, disc(3.0), n=n).value - whole) / whole


@pytest.mark.parametrize("eps", [1.0, 0.1, 1e-3, 1e-9])
def test_competitor_density_has_the_declared_symmetry(eps, mirrored):
    # u(Tz) = T u(z) for both diagonal mirrors, so |Du| repeats on the four
    # quadrants of the chart w and the quadrant counted 4 times is the disc
    u = assemble_counterexample(eps)
    assert u.pieces.weight == 4 * (np.pi / 2)
    assert mirror_gap(u) <= 1e-13
    for n in (256, 1024):
        assert full_disc_gap(u, n, mirrored) <= 1e-13


def test_corrected_competitor_density_has_the_declared_symmetry(corrected_half, mirrored):
    # the corrector acts inside the folded wedge, so it keeps the symmetry;
    # its FD Jacobian (step 1e-4) magnifies the chart's rounding at Tz to
    # about 2e-12
    eps, corr, _ = corrected_half
    u = assemble_counterexample(eps, corrector=corr)
    assert mirror_gap(u) <= 1e-10
    assert full_disc_gap(u, 256, mirrored) <= 1e-13


class _StubCorrector:
    """A corrector without a flow: a closed-form sigma, its FD Jacobian, and
    a count of the points sigma moves."""

    boundary_displacement = 0.0

    def __init__(self, sigma):
        self._sigma = sigma
        self.points = 0

    def sigma(self, p):
        self.points += len(p)
        return self._sigma(np.asarray(p, dtype=float))

    def jacobian(self, p):
        return fd_jacobian(self.sigma, p, scale=1e-4)


# the y axis is probed 3e-9 inside the quadrant, so a shift of x by 1e-6
# reads 1.003e-06 there
@pytest.mark.parametrize("shift, message", [
    ((0.0, 1e-6), r"component 2 does not vanish on the x axis \(max 1\.000e-06\)"),
    ((1e-6, 0.0), r"component 1 does not vanish on the y axis \(max 1\.003e-06\)"),
], ids=["x-axis", "y-axis"])
def test_assembly_rejects_ring_trace_off_the_axes(shift, message):
    stub = _StubCorrector(lambda p: p + np.array(shift))
    with pytest.raises(IncompatibleTrace, match=message):
        assemble_counterexample(0.5, corrector=stub)


def test_assembly_rejects_ring_that_moves_the_inner_edge():
    # sigma fixes both axes, so only the glue on |w|_1 = 2 can catch it
    stub = _StubCorrector(lambda p: p + 1e-6 * p[:, :1] * p[:, 1:])
    with pytest.raises(GluingMismatch, match=r"on \|w\|_1 = 2 by 1\.173e-06"):
        assemble_counterexample(0.5, corrector=stub)


def test_corrected_ring_flows_once_for_the_value_five_times_for_the_jacobian():
    stub = _StubCorrector(lambda p: p)
    u = assemble_counterexample(0.5, corrector=stub)
    nodes = build_grid(disc(3.0), 32, u.break_radii, u.break_angles).nodes
    eta, rot = ball_to_square()
    ring = int(np.count_nonzero(l1_norm(eta(nodes) @ rot.T) > 2.0))
    assert ring > 0
    for evaluate, flows in ((u.fn, 1), (u.jacobian, 5)):
        stub.points = 0
        evaluate(nodes)
        assert stub.points == flows * ring
    # the identity flow leaves the competitor as it is
    assert np.array_equal(u.fn(nodes), assemble_counterexample(0.5).fn(nodes))


def test_assembly_lipschitz_stable_in_eps():
    values = [
        lipschitz_estimate(assemble_counterexample(e), disc(3.0), n=4000, seed=6)
        for e in (1.0, 0.1, 0.01)
    ]
    assert max(values) < 2 * min(values)


def polar_lift(fn, r, n):
    """(psi, gamma) with fn = psi e^{i gamma} on n uniform angles of |z| = r;
    gamma is continued to the nearest branch from sample to sample."""
    theta = np.arange(n) * (2 * np.pi / n)
    v = fn(r * np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    return np.hypot(v[:, 0], v[:, 1]), np.unwrap(np.arctan2(v[:, 1], v[:, 0]))


def test_assembly_reduced_jacobian_identity():
    # for circles-to-circles maps: d/dr(psi^2) * dgamma/dtheta = 2 r f
    eps = 0.5
    stretch = layered_profile(eps)
    pmap = stretch.as_planar_map()
    datum = layered_datum(eps)
    r, h = 1.5, 1e-6
    (psi0, gamma), (psi1, _) = (polar_lift(pmap, rr, 512) for rr in (r - h, r + h))
    dpsi2 = (psi1**2 - psi0**2) / (2 * h)
    dgamma = np.gradient(gamma, 2 * np.pi / 512)
    product = dpsi2 * dgamma
    assert np.max(np.abs(product - 2 * r * datum.f(np.array([r])))) < 1e-5


# -- layered datum ------------------------------------------------------------------


def test_layered_mean_is_one():
    for eps in (0.0, 0.3, 0.7, 1.0):
        d = layered_datum(eps)
        assert float(d.cumulative(np.array([3.0]))[0]) == 9.0  # mean over B_3 is 1


def test_layered_profile_value():
    prof = layered_profile(0.1).profile
    assert np.isclose(prof.rho(np.array([1.5]))[0], math.sqrt(1.35), rtol=1e-14)


def test_layered_eps_one_uniform():
    d = layered_datum(1.0)
    r = np.linspace(0.05, 2.95, 99)
    assert np.allclose(d.f(r), 1.0)


# -- balanced sign-changing datum ----------------------------------------------------


def test_nonuniqueness_constraints():
    datum, report = nonuniqueness_datum()
    assert report.mass_ball2_residual < 1e-8
    assert report.mass_total_residual < 1e-8
    assert report.c1_value_gap < 1e-10
    assert report.c1_slope_gap < 1e-10
    assert report.sign_ok
    assert report.tail_value == 0.5
    # independent quadrature of both mass constraints
    for upper, pieces in ((2.0, [1.0]), (4.0, [1.0, 2.0, 3.0])):
        val = quad(
            lambda r: 2 * r * float(datum.f(np.array([r]))[0]), 0, upper,
            points=pieces, limit=200,
        )[0]
        assert abs(val) < 1e-8


def test_nonuniqueness_truncated_energy_slope():
    prof = nonuniqueness_inner_profile()
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    values = truncated_derivative_energy(prof, 2.0, deltas)
    slope = np.polyfit(np.log(1 / deltas), values, 1)[0]
    # local model: rho^2 ~ 4 f(2) (2 - r) gives slope f(2) = 1
    assert abs(slope - 1.0) < 0.25


def test_phase_twisted_map_keeps_jacobian():
    prof = nonuniqueness_inner_profile()
    twisted = GeneralisedStretching(
        prof,
        beta=lambda r: 0.4 * np.sin(1.3 * np.asarray(r)),
        beta_dot=lambda r: 0.52 * np.cos(1.3 * np.asarray(r)),
    ).as_planar_map(1.9)
    datum, _ = nonuniqueness_datum()
    mx, _ = jacobian_residual(twisted, datum.as_field(), disc(1.8), n=2048, seed=7)
    assert mx < 1e-10


def test_rotated_family_energy_spread():
    prof = nonuniqueness_inner_profile()
    twisted = GeneralisedStretching(
        prof,
        beta=lambda r: 0.4 * np.sin(1.3 * np.asarray(r)),
        beta_dot=lambda r: 0.52 * np.cos(1.3 * np.asarray(r)),
    ).as_planar_map(1.9)
    values = [
        region_energy(rotate_map(twisted, a), 1, disc(1.85), n=128).value
        for a in (0.0, math.pi / 3, 1.0)
    ]
    spread = (max(values) - min(values)) / max(values)
    assert spread < 1e-6
