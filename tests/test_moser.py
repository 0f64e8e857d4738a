import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import RectBivariateSpline

import pjac.moser as moser
from pjac.errors import (
    CorrectorDiverged,
    DegenerateDomain,
    NonPositiveDensity,
    NonZeroMean,
    PreconditionViolated,
)
from pjac.moser import (
    QuadDomain,
    VectorField,
    constant_jacobian_corrector,
    moser_flow,
    panel_nodes,
    unit_square_domain,
    wedge_domain,
)


def bump_density(p):
    r2 = (p[..., 0] - 0.5) ** 2 + (p[..., 1] - 0.5) ** 2
    return 1.0 + 0.5 * np.cos(np.pi * np.sqrt(r2)) * np.exp(-4 * r2)


def star_bump(domain, pts):
    """The Bogovskii weight: the unit-mass C^2 bump 4/(pi r^2) (1 - |y-c|^2/r^2)^3
    on the domain's star ball."""
    center, radius = np.asarray(domain.star_center, dtype=float), domain.star_radius
    u2 = np.sum((np.asarray(pts, dtype=float) - center) ** 2, axis=-1) / radius**2
    return (4.0 / (np.pi * radius**2)) * np.clip(1.0 - u2, 0.0, None) ** 3


# -- domains ------------------------------------------------------------------


def test_quad_domain_chart_roundtrip(rng):
    for dom in (unit_square_domain(), wedge_domain()):
        sq = rng.random((200, 2))
        xy = dom.to_xy(sq[:, 0], sq[:, 1])
        s, q = dom.from_xy(xy)
        assert np.allclose(np.stack([s, q], axis=-1), sq, atol=1e-12)
        assert dom.contains(xy).all()


def test_chart_components_match_the_vector_formulas(rng):
    # the chart computes on x and y arrays; the (..., 2)-vector formulas are
    # the reference, bit for bit, inside and outside the chart square
    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    for dom in (unit_square_domain(), wedge_domain()):
        a, b, c, d = dom._abcd
        s, q = (rng.uniform(-0.2, 1.2, (3, 100, 1)) for _ in range(2))
        assert np.array_equal(dom.to_xy(s[..., 0], q[..., 0]), a + b * s + c * q + d * s * q)
        assert np.array_equal(dom.chart_jdet(s[..., 0], q[..., 0]),
                              cross(b + d * q, c + d * s))
        pts = rng.uniform(-1.0, 4.0, (3, 100, 2))
        e = pts - a
        qv = -cross(e, np.broadcast_to(b, e.shape)) / (
            cross(e, np.broadcast_to(d, e.shape)) - cross(c, b))
        g = b + d * qv[..., None]
        sv = np.sum((e - c * qv[..., None]) * g, axis=-1) / np.sum(g * g, axis=-1)
        s_xy, q_xy = dom.from_xy(pts)
        assert np.array_equal(s_xy, sv) and np.array_equal(q_xy, qv)


def test_quad_domain_area():
    assert np.isclose(unit_square_domain().area(), 1.0)
    assert np.isclose(wedge_domain().area(), 2.5)
    _, _, w = panel_nodes(wedge_domain(), 16)
    assert np.isclose(float(np.sum(w)), 2.5, rtol=1e-12)


def test_quad_domain_rejects_bad_corners():
    with pytest.raises(DegenerateDomain):
        QuadDomain(corners=((0, 0), (0, 1), (1, 1), (1, 0)),  # clockwise
                   star_center=(0.5, 0.5), star_radius=0.1)
    with pytest.raises(DegenerateDomain):
        QuadDomain(corners=((0, 0), (1, 0), (1, 1), (0, 1)),
                   star_center=(2.0, 2.0), star_radius=0.1)


def test_quad_domain_needs_a_pair_of_parallel_sides():
    # convex and counterclockwise, but no side is parallel to its opposite
    with pytest.raises(DegenerateDomain, match="parallel"):
        QuadDomain(corners=((0, 0), (2, 0), (1.5, 1), (0, 1.2)),
                   star_center=(0.8, 0.5), star_radius=0.1)
    # P0P1 parallel to P2P3 is the other pair: the chart inverse needs P0P3 || P1P2
    with pytest.raises(DegenerateDomain, match="parallel"):
        QuadDomain(corners=((0, 0), (2, 0), (1.5, 1), (0.5, 1)),
                   star_center=(1.0, 0.5), star_radius=0.1)


def test_bump_has_unit_mass():
    dom = wedge_domain()
    _, xy, w = panel_nodes(dom, 48)
    assert abs(float(np.sum(w * star_bump(dom, xy))) - 1.0) < 1e-6


# -- the divergence solver -----------------------------------------------------


def test_bogovskii_zero_data_gives_zero_field():
    field = VectorField(lambda p: np.zeros(p.shape[:-1]), unit_square_domain(),
                        n_panels=8, cache=8)
    pts = np.array([[0.3, 0.4], [0.7, 0.2], [0.5, 0.9]])
    assert np.array_equal(field.direct_eval(pts), np.zeros((3, 2)))


def divergence_residual(field: VectorField, h, n_samples: int = 100) -> tuple[float, float]:
    """(max, mean) of |div xi - h| by central differences of direct_eval,
    at samples 8% of the chart away from its boundary."""
    pts = moser._interior_samples(field.domain, n_samples, 0.08)
    step = 5e-3 * field.domain.scale()
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    div = (
        field.direct_eval(pts + ex)[:, 0] - field.direct_eval(pts - ex)[:, 0]
        + field.direct_eval(pts + ey)[:, 1] - field.direct_eval(pts - ey)[:, 1]
    ) / (2 * step)
    res = np.abs(div - np.asarray(h(pts), dtype=float))
    return float(np.max(res)), float(np.mean(res))


def test_bogovskii_square_divergence_residual():
    dom = unit_square_domain()
    h = lambda p: np.sin(2 * np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])  # noqa: E731
    coarse = VectorField(h, dom, n_panels=16)
    fine = VectorField(h, dom, n_panels=32)
    mx_c, _ = divergence_residual(coarse, h, n_samples=40)
    mx_f, mean_f = divergence_residual(fine, h, n_samples=40)
    assert mx_f < 1e-2
    assert mx_f < mx_c  # decreasing under refinement


def _linear_wedge_field(n_panels, cache=48):
    """div xi = x - mean(x) on the wedge."""
    dom = wedge_domain()
    _, xy, w = panel_nodes(dom, n_panels)
    xbar = float(np.sum(w * xy[:, 0]) / np.sum(w))
    return VectorField(lambda p: p[..., 0] - xbar, dom, n_panels=n_panels, cache=cache)


def test_bogovskii_wedge_linear_data():
    field = _linear_wedge_field(40)
    mx, mean = divergence_residual(field, field.h, n_samples=40)
    assert mean < 1e-2
    assert mx < 5e-2


def test_bogovskii_vanishes_on_and_outside_boundary():
    field = _linear_wedge_field(16)
    dom = field.domain
    outside = np.array([[0.1, 0.1], [3.0, 3.0], [-1.0, 0.5]])
    assert np.array_equal(field.direct_eval(outside), np.zeros((3, 2)))
    boundary = dom.boundary_points(16)
    vals = field.direct_eval(boundary)
    assert float(np.max(np.hypot(vals[:, 0], vals[:, 1]))) < 1e-10


def _ray_integral_reference(field, x, y):
    """(x - y) * integral_1^inf bump(y + t (x - y)) t dt by adaptive quadrature."""
    dom = field.domain
    d = x - y
    yc = y - np.asarray(dom.star_center, dtype=float)
    a, b, c = d @ d, 2.0 * (d @ yc), yc @ yc - dom.star_radius**2
    disc = b * b - 4.0 * a * c
    if a == 0.0 or disc <= 0.0:
        return np.zeros(2)
    lo = max((-b - np.sqrt(disc)) / (2.0 * a), 1.0)
    hi = (-b + np.sqrt(disc)) / (2.0 * a)
    if hi <= lo:
        return np.zeros(2)
    val, _ = quad(lambda t: float(star_bump(dom, y + t * d)) * t, lo, hi,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return d * val


def _ray_weights(field, x, ys):
    """The field's ray weight for one x against each row of ys, with the
    y-only terms computed afresh; both the near and the far field sum
    (x - y) times it."""
    yc = (ys - np.asarray(field.domain.star_center, dtype=float)).T
    c2 = np.sum(yc * yc, axis=0) - field.domain.star_radius**2
    return field._kernel((x - ys).T, yc, c2)


def test_kernel_closed_form_matches_quadrature():
    field = VectorField(lambda p: np.zeros(p.shape[:-1]), unit_square_domain(),
                        n_panels=4, cache=4)
    c, r = 0.5, 0.22  # star ball of the unit square
    # (x, y, whether the ray from y through x meets the ball beyond x)
    cases = [
        ((0.2, 0.5), (0.1, 0.5), True),              # full chord ahead of x
        ((0.25, 0.4), (0.05, 0.3), True),            # full chord, oblique
        ((0.45, 0.52), (0.1, 0.5), True),            # partial chord: x inside the ball
        ((0.55, 0.6), (0.48, 0.45), True),           # x and y both inside the ball
        ((0.2, c + 0.99 * r), (0.1, c + 0.99 * r), True),      # grazing
        ((0.8, c - 0.995 * r), (0.9, c - 0.995 * r), True),    # grazing, other side
        ((0.2, c + 1.01 * r), (0.1, c + 1.01 * r), False),     # grazing miss
        ((0.95, 0.95), (0.9, 0.9), False),           # pointing away from the ball
        ((0.1, 0.5), (0.9, 0.5), False),             # ball between y and x
        ((0.3 + 1e-7, 0.5 + 3e-8), (0.3, 0.5), True),  # x close to y outside the ball
        ((0.52 + 1e-7, 0.47), (0.52, 0.47), True),   # x close to y inside the ball
        ((0.3, 0.5), (0.3, 0.5), False),             # x == y
    ]
    xs = np.array([case[0] for case in cases])
    ys = np.array([case[1] for case in cases])
    hits = np.array([case[2] for case in cases])
    # every x against every y: the cases above plus many generic pairs
    for x in xs:
        got = (x - ys) * _ray_weights(field, x, ys)[:, None]
        ref = np.array([_ray_integral_reference(field, x, y) for y in ys])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0, err_msg=f"x = {x}")
    own = np.array([_ray_weights(field, x, y[None, :])[0] for x, y in zip(xs, ys)])
    assert np.array_equal(own != 0.0, hits)
    # a block of points against the panel grid's precomputed y-only terms
    # gives the weights of one point at a time with the terms computed afresh
    d = xs.T[:, :, None] - field._xyt
    block = field._kernel(d, field._yc, field._c2)
    assert np.any(block != 0.0)
    for x, row in zip(xs, block):
        assert np.array_equal(row, _ray_weights(field, x, field._xy))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 9, 31, 32, 33])
def test_direct_eval_chunks_match_pointwise(n):
    # n straddles both the far-field block of 4 and the near-field chunk of 32
    field = _linear_wedge_field(6)
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    edges = [[0.3, 0.0], [1.0, 0.6], [0.45, 1.0], [0.0, 0.2], [1e-3, 0.5]]
    interior = np.random.default_rng(5).random((24, 2))
    sq = np.concatenate([corners, edges, interior])[:n]
    pts = field.domain.to_xy(sq[:, 0], sq[:, 1])
    batched = field.direct_eval(pts)
    single = np.array([field.direct_eval(p[None, :])[0] for p in pts])
    scale = float(np.max(np.abs(field.direct_eval(field.domain.to_xy(interior[:, 0],
                                                                     interior[:, 1])))))
    assert scale > 0.1
    assert float(np.max(np.abs(batched - single))) <= 1e-14 * scale


def test_far_field_ramp_on_one_slice_matches_ramp_everywhere(monkeypatch):
    field = _linear_wedge_field(6)
    monkeypatch.setattr(field, "_local_polar", lambda xs, s, q: np.zeros_like(xs))
    sq = np.concatenate([[[0.0, 0.5], [1.0, 0.999], [0.5, 0.0]],
                         np.random.default_rng(3).random((6, 2))])
    pts = field.domain.to_xy(sq[:, 0], sq[:, 1])
    got = field.direct_eval(pts)
    s, q = field.domain.from_xy(pts)
    ref = []
    for x, si, qi in zip(pts, s, q):
        dist = np.hypot(field._sq[:, 0] - si, field._sq[:, 1] - qi)
        ramp = moser._smoothstep(dist / field._delta)
        d = (x - field._xy).T
        w = field._kernel(d[:, None, :], field._yc, field._c2)[0]
        ref.append(np.sum(d * (field._wh * ramp * w), axis=-1))
    ref = np.array(ref)
    assert float(np.max(np.abs(ref))) > 0.01
    assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


def test_cache_evaluates_interior_nodes_only():
    field = _linear_wedge_field(6, cache=6)
    shapes = []
    direct = field.direct_eval

    def recorded(pts):
        shapes.append(np.asarray(pts).shape)
        return direct(pts)

    field.direct_eval = recorded
    vals = field.eval(field.domain.boundary_points(16))
    assert shapes == [(5, 5, 2)]
    assert float(np.max(np.abs(vals))) < 1e-15


def test_cached_eval_matches_componentwise_splines():
    dom = unit_square_domain()
    h = lambda p: np.sin(2 * np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])  # noqa: E731
    field = VectorField(h, dom, n_panels=8, cache=8)
    grid = np.linspace(0.0, 1.0, 9)
    S, Q = np.meshgrid(grid, grid, indexing="ij")
    vals = field.direct_eval(dom.to_xy(S.ravel(), Q.ravel())).reshape(9, 9, 2)
    ref = [RectBivariateSpline(grid, grid, vals[..., j], kx=3, ky=3) for j in range(2)]

    edge = np.linspace(0.0, 1.0, 7)
    sq = np.concatenate([
        np.random.default_rng(3).random((50, 2)),
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        np.stack([edge, np.zeros(7)], axis=-1), np.stack([np.ones(7), edge], axis=-1),
        np.stack([edge, np.ones(7)], axis=-1), np.stack([np.zeros(7), edge], axis=-1),
    ])
    got = field.eval(dom.to_xy(sq[:, 0], sq[:, 1]))
    want = np.stack([ref[j].ev(sq[:, 0], sq[:, 1]) for j in range(2)], axis=-1)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_corrector_target_clamps_to_iterate_data_box(monkeypatch):
    dom = unit_square_domain()
    targets = []

    class FakeCorrector:
        mass_error = 0.0

        def sigma(self, pts):
            pts = np.asarray(pts, dtype=float)
            return pts + 0.02 * np.sin(np.pi * pts[..., ::-1])

        def jacobian_det(self, pts):
            return np.ones(np.asarray(pts).shape[:-1])

    def fake_flow(g, domain, **kw):
        targets.append(g)
        return FakeCorrector()

    monkeypatch.setattr(moser, "moser_flow", fake_flow)
    jdet = lambda p: 1.0 + 0.3 * p[..., 0] + 0.2 * p[..., 1] ** 2  # noqa: E731
    c, m = 1.1, 8
    constant_jacobian_corrector(jdet, c, dom, iterations=2, cache=m)
    g2 = targets[1]
    lo, hi = 0.5 / m, 1.0 - 0.5 / m  # first and last spline nodes
    outside = np.array([[0.0, 0.0], [1.0, 0.3], [0.4, 1.0], [-0.2, 1.3]])
    clamped = np.clip(outside, lo, hi)
    assert np.array_equal(g2(dom.to_xy(outside[:, 0], outside[:, 1])),
                          g2(dom.to_xy(clamped[:, 0], clamped[:, 1])))
    # at a spline node the target is the iterate's own value
    node = dom.to_xy(np.array([lo]), np.array([hi]))
    moved = FakeCorrector().sigma(node)
    np.testing.assert_allclose(g2(node), c / jdet(moved), rtol=1e-13)


def test_bogovskii_rejects_nonzero_mean():
    with pytest.raises(NonZeroMean):
        VectorField(lambda p: np.ones(p.shape[:-1]), unit_square_domain(), n_panels=8)


# -- the flow -------------------------------------------------------------------


def residual_max(corr, n_check):
    """max |det D sigma - g| at the flow's n_check interior samples."""
    pts = moser._interior_samples(corr.domain, n_check)
    return float(np.max(np.abs(corr.jacobian_det(pts) - corr.g(pts))))


def test_moser_flow_identity_for_unit_density():
    corr = moser_flow(lambda p: np.ones(p.shape[:-1]), unit_square_domain(),
                      n_panels=8, cache=8, n_check=20)
    pts = np.random.default_rng(0).random((40, 2)) * 0.9 + 0.05
    assert np.array_equal(corr.sigma(pts), pts)  # bit-exact identity
    assert residual_max(corr, 20) < 1e-9
    assert corr.steps == 8


def test_moser_flow_square_bump():
    corr = moser_flow(bump_density, unit_square_domain(), n_panels=20, n_check=120)
    coarse_res = residual_max(corr, 120)
    assert coarse_res < 0.05
    assert corr.mass_error < 1e-3
    finer = moser_flow(bump_density, unit_square_domain(), n_panels=32, cache=64,
                       n_check=120)
    assert residual_max(finer, 120) < 0.75 * coarse_res


def test_moser_flow_wedge_target():
    from pjac.constructions import wedge_map

    eps = 0.5
    _, jdet = wedge_map(eps)
    c = (6.0 - eps) / 5.0
    g = lambda p: c / np.asarray(jdet(p), dtype=float)  # noqa: E731
    corr = moser_flow(g, wedge_domain(), n_panels=20, n_check=120)
    assert residual_max(corr, 120) < 0.1
    assert corr.mass_error < 1e-3

    # the chosen step count passes its own step-doubling test at the residual
    # samples, and sigma stays within twice the tolerance of a 128-step flow
    tol = moser._STEP_TOL * corr.domain.scale()
    pts = moser._interior_samples(corr.domain, 120)
    n = corr.steps
    assert n in (8, 16, 32, 64)

    def flow(steps):
        return moser._flow_once(corr.field, corr.g, pts, steps)

    def gap(a, b):
        return float(np.max(np.abs(a - b)))

    if n < 64:
        assert gap(flow(n), flow(2 * n)) <= tol
    assert gap(corr.sigma(pts), flow(128)) <= 2 * tol


def test_moser_flow_rejects_nonpositive_density():
    with pytest.raises(NonPositiveDensity):
        moser_flow(lambda p: p[..., 0] - 0.5, unit_square_domain(), n_panels=8)


def test_flow_escape_guard():
    from pjac.errors import FlowEscapedDomain

    class OutwardField:
        domain = unit_square_domain()

        def eval(self, pts):
            return np.full(np.asarray(pts).shape, 1.0)  # constant drift

    with pytest.raises(FlowEscapedDomain):
        moser._flow(OutwardField(), lambda p: np.ones(np.asarray(p).shape[:-1]),
                    np.array([[0.9, 0.9]]), steps=4)


def test_escaping_flow_retries_up_to_256_steps(monkeypatch):
    from pjac.errors import FlowEscapedDomain

    tried = []

    def escape(field, g, seeds, steps):
        tried.append(steps)
        return None

    monkeypatch.setattr(moser, "_flow_once", escape)
    dom = unit_square_domain()
    corr = moser.MoserCorrector(domain=dom, g=lambda p: np.ones(p.shape[:-1]),
                                field=None, steps=8)
    with pytest.raises(FlowEscapedDomain):
        corr.sigma(np.array([[0.5, 0.5]]))
    assert tried == [8, 16, 32, 64, 128, 256]


# -- the constant-Jacobian iteration ----------------------------------------------


def test_corrector_rejects_nonpositive_target():
    from pjac.constructions import wedge_map

    _, jdet = wedge_map(0.5)
    with pytest.raises(PreconditionViolated):
        constant_jacobian_corrector(jdet, -1.0, wedge_domain())


def test_corrector_aborts_after_two_regressions(monkeypatch):
    calls = {"n": 0}

    class FakeCorrector:
        mass_error = 0.0
        boundary_displacement = 0.0

        def __init__(self, level):
            self.level = level

        def sigma(self, pts):
            return np.asarray(pts, dtype=float)

        def jacobian_det(self, pts):
            return np.full(np.asarray(pts).shape[:-1], 1.0 + self.level)

    def fake_flow(g, domain, **kw):
        calls["n"] += 1
        return FakeCorrector(level=float(calls["n"]))

    # composed residuals |(1 + n) - 2| = 0, 1, 2, ...: two straight increases
    monkeypatch.setattr(moser, "moser_flow", fake_flow)
    jdet = lambda p: np.ones(np.asarray(p).shape[:-1])  # noqa: E731
    with pytest.raises(CorrectorDiverged):
        constant_jacobian_corrector(jdet, 2.0, unit_square_domain(), iterations=5)
    assert calls["n"] >= 3
