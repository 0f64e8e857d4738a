import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pjac.energy as energy
from pjac.constructions import (
    assemble_counterexample,
    ball_to_square,
    layered_datum,
    layered_profile,
    shear_map,
    wedge_map,
)
from pjac.energy import (
    build_grid,
    circle_energy,
    jacobian_residual,
    lipschitz_estimate,
    region_energy,
    zhukovsky_comparison,
)
from pjac.errors import BreakRadius, EvaluationFailure, JacobianMismatch
from pjac.maps import PlanarMap, fd_jacobian, rotate_map
from pjac.radial import (
    GeneralisedStretching,
    power_law_datum,
    profile_from_datum,
    sobolev_energy_1d,
    truncated_gaussian_datum,
    uniform_datum,
    zhukovsky,
)
from pjac.regions import annulus, disc, l1_ball


def _no_breaks(p):
    return np.full(np.asarray(p).shape[:-1], np.inf)


def linear_map(mat, radius=3.0, name="map"):
    """z -> mat z on the disc, with its constant Jacobian and no breaks."""
    return PlanarMap(
        fn=lambda p: np.asarray(p, dtype=float) @ mat.T,
        domain=disc(radius),
        jac=lambda p: np.broadcast_to(mat, np.asarray(p).shape[:-1] + (2, 2)),
        break_distance=_no_breaks,
        name=name,
    )


def identity_map(radius=3.0):
    return linear_map(np.eye(2), radius, name="identity")


# -- quadrature grids --------------------------------------------------------


@pytest.mark.parametrize("region", [disc(3.0), annulus(1.0, 2.5)])
def test_grid_weights_sum_to_area(region):
    grid = build_grid(region, n=64, break_radii=(1.0,))
    area = math.pi * (region.r_out**2 - region.r_in**2)
    assert abs(float(np.sum(grid.weights)) - area) <= 1e-10 * area
    assert region.contains(grid.nodes).all()


def test_grid_aligns_with_break_radii():
    grid = build_grid(disc(3.0), n=64, break_radii=(1.0, 2.0))
    r = np.hypot(grid.nodes[:, 0], grid.nodes[:, 1])
    # no node may sit on a break, and each ring between breaks keeps its mass
    assert np.min(np.abs(r - 1.0)) > 1e-9 and np.min(np.abs(r - 2.0)) > 1e-9
    inner = r < 1.0
    assert np.isclose(np.sum(grid.weights[inner]), math.pi, rtol=1e-10)


SECTOR = (-math.pi / 4, math.pi / 4)  # the z image of the competitor's w quadrant


@pytest.mark.parametrize("n", [8, 17, 48, 81, 256, 1024])
def test_sector_grid_is_a_subset_of_the_full_grid(n, mirrored):
    # the competitor's pieces cover the w quadrant, whose z image is the
    # sector between the diagonals; the rule on all four mirror images of the
    # pieces has, bit for bit, the same nodes in that sector with a quarter
    # of their weights, and puts all of its other nodes in the other sectors
    pieces = assemble_counterexample(0.1).pieces
    order = max(n // 16, 8)
    sector = energy.pieces_grid(pieces, order)
    full = energy.pieces_grid(mirrored(pieces), order)
    theta = np.arctan2(full.nodes[:, 1], full.nodes[:, 0])
    inside = (SECTOR[0] < theta) & (theta < SECTOR[1])
    assert 4 * len(sector.weights) == len(full.weights) == 4 * 6 * order**2
    assert np.array_equal(sector.nodes, full.nodes[inside])
    assert np.array_equal(sector.weights, 4.0 * full.weights[inside])
    assert math.isclose(float(np.sum(sector.weights)), 9 * math.pi, rel_tol=1e-13)


@pytest.mark.parametrize("sector", [
    (4.0, range(6)),                      # the chart's area factor pi/2 left out
    (math.pi / 2, range(6)),              # the 4 mirror copies left out
    (2 * math.pi, range(5)),              # a polygon left out
    (2 * math.pi, (0, 0, 1, 2, 3, 4, 5)),  # a polygon counted twice
])
def test_grid_refuses_a_sector_that_does_not_tile_the_circle(sector):
    # (weight, polygons kept): pieces that, counted their weight times, miss
    # or overlap part of the disc are refused before any Jacobian is evaluated
    weight, kept = sector
    u = assemble_counterexample(0.1)
    pieces = replace(u.pieces, weight=weight, polygons=tuple(u.pieces.polygons[i] for i in kept))
    with pytest.raises(ValueError, match="do not tile its domain"):
        region_energy(replace(u, pieces=pieces, jac=None), 1, disc(3.0), n=64)


def test_rotate_map_does_not_inherit_the_sector():
    # a rotation moves the mirror axes: the rotated density integrated over
    # the original w quadrant, counted 4 times, is off by about 10%
    u = assemble_counterexample(0.1)
    rotated = rotate_map(u, 0.3)
    assert u.pieces is not None and rotated.pieces is None
    full = energy._energy_on_grid(rotated, 1, build_grid(disc(3.0), 64, rotated.break_radii))
    assert region_energy(rotated, 1, disc(3.0), n=64).value == full
    wrong = region_energy(replace(rotated, pieces=u.pieces), 1, disc(3.0), n=64).value
    assert abs(wrong - full) > 0.05 * full


# -- the pieces rule ------------------------------------------------------------


def _graded_reference(u, levels=30, ratio=0.3, order=24):
    """The competitor's 2-energy on its six w-quadrant polygons, the two with a
    layer cut geometrically toward it into ungraded triangles: Q_1 into
    triangles at the origin whose far edges shrink toward (0, 1), and the
    parallelogram next to it into two triangles at (0, 1), each cut into
    layers that shrink toward (0, 1)."""
    cuts = [0.0] + [1.0 - ratio**k for k in range(1, levels)] + [1.0]
    tris = [((0.0, 0.0), (1.0 - a, a), (1.0 - b, b)) for a, b in zip(cuts, cuts[1:])]
    corner = np.array([0.0, 1.0])
    radii = [ratio**k for k in range(levels - 1, 0, -1)] + [1.0]
    for e1, e2 in (((1.0, -1.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0))):
        e1, e2 = np.array(e1), np.array(e2)
        tris.append((corner, corner + radii[0] * e1, corner + radii[0] * e2))
        for a, b in zip(radii, radii[1:]):
            p, q, r, s = corner + a * e1, corner + b * e1, corner + b * e2, corner + a * e2
            tris += [(p, q, r), (p, r, s)]
    smooth = [((1, 0), (2, 0), (1, 1)), ((0, 2), (1, 1), (1, 2), (0, 3)),
              ((1, 1), (2, 0), (2, 1), (1, 2)), ((2, 0), (3, 0), (2, 1))]
    polygons = tuple((tuple(map(tuple, np.asarray(v, dtype=float))), (1, 1))
                     for v in tris + smooth)
    grid = energy.pieces_grid(replace(u.pieces, polygons=polygons), order)
    return energy._energy_on_grid(u, 1, grid)


@pytest.mark.parametrize("eps", [1e-9, 1e-5, 1e-3, 1e-1])
def test_pieces_rule_matches_a_graded_reference(eps):
    # measured: within 1.2e-11 relative at n = 1024, where the polar grid on
    # the sector read up to 1.1e-5 low; the reference agrees with its own
    # refinement (40 levels of ratio 0.25, order 32) to 1e-15
    u = assemble_counterexample(eps)
    ref = _graded_reference(u)
    assert abs(region_energy(u, 1, disc(3.0), n=1024).value - ref) <= 1e-9 * ref


def test_pieces_rule_node_budget_at_grid_1024():
    # orders 64 and 32 on six polygons: a tenth of the 327,168 nodes that
    # the polar grid on the competitor's sector used at n = 1024
    u = assemble_counterexample(1e-3)
    points = []

    def jac(z):
        points.append(len(z))
        return u.jac(z)

    region_energy(replace(u, jac=jac), 1, disc(3.0), n=1024)
    assert sum(points) == 6 * (64**2 + 32**2) == 30_720 <= 32_716


def _diamond_map(jac):
    """A map on the l1 ball Q_3 whose pieces are the competitor's w-quadrant
    polygons in the identity chart, counted 4 times."""
    pieces = replace(assemble_counterexample(0.1).pieces, to_domain=lambda w: w, weight=4.0)
    return PlanarMap(fn=lambda p: p, domain=l1_ball(3.0), jac=jac,
                     break_distance=_no_breaks, name="diamond", pieces=pieces)


def _diag_jac(p, cut=math.inf):
    """diag(x, y) at the points, nan beyond x = cut."""
    x, y = np.where(p[:, 0] > cut, np.nan, p[:, 0]), p[:, 1]
    zero = np.zeros_like(x)
    return np.stack([x, zero, zero, y], axis=-1).reshape(-1, 2, 2)


def test_pieces_rule_is_exact_for_polynomial_densities():
    # x^2 + y^2 over |x| + |y| < 3 is 2 * 3^4 / 3 = 54; graded or not, each
    # polygon's rule of order 5 or more is exact for it (orders 10 and 5)
    rep = region_energy(_diamond_map(_diag_jac), 1, l1_ball(3.0), n=160)
    assert abs(rep.value - 54.0) <= 1e-13 * 54.0
    assert rep.refinement_estimate <= 1e-12


def test_nonfinite_derivative_on_one_piece_raises():
    # only the triangle beyond x = 2 returns nan
    u = _diamond_map(lambda p: _diag_jac(p, cut=2.0))
    with pytest.raises(EvaluationFailure, match="diamond"):
        region_energy(u, 1, l1_ball(3.0), n=64)


# -- region energies ----------------------------------------------------------


def test_region_energy_identity():
    rep = region_energy(identity_map(), 1, disc(3.0), n=64)
    assert np.isclose(rep.value, 18 * math.pi, atol=1e-6)
    assert rep.refinement_estimate < 1e-9


def test_region_energy_matches_radial_oracle():
    stretch = layered_profile(0.5)
    pmap = stretch.as_planar_map()
    rep = region_energy(pmap, 1, disc(3.0), n=256)
    oracle = sobolev_energy_1d(stretch, 1, 3.0)
    assert abs(rep.value - oracle) < 1e-4 * oracle


def test_region_energy_refinement_decreases():
    pmap = layered_profile(0.5).as_planar_map()
    coarse = region_energy(pmap, 1, disc(3.0), n=64)
    fine = region_energy(pmap, 1, disc(3.0), n=256)
    assert fine.refinement_estimate < coarse.refinement_estimate


def test_rotation_invariance_of_region_energy():
    u = GeneralisedStretching(
        profile_from_datum(uniform_datum(1.0, 3.0), 2)
    ).as_planar_map()
    base = region_energy(u, 1, disc(2.5), n=128).value
    for alpha in (math.pi / 3, 1.0):
        rotated = region_energy(rotate_map(u, alpha), 1, disc(2.5), n=128).value
        assert abs(rotated - base) < 1e-6 * base


def test_twice_jacobian_mass_lower_bound():
    # pointwise 2|det A| <= |A|^2, so 2 |integral of f| bounds the energy
    for eps in (0.3, 1.0):
        pmap = layered_profile(eps).as_planar_map()
        energy = region_energy(pmap, 1, disc(3.0), n=128).value
        mass = math.pi * float(layered_datum(eps).cumulative(np.array([3.0]))[0])
        assert 2 * abs(mass) <= energy * (1 + 1e-9)


# -- blocked accumulation -------------------------------------------------------


def test_region_energy_over_several_blocks_matches_one_shot_sum():
    grid = build_grid(disc(3.0), n=384)
    assert len(grid.weights) > 3 * energy._BLOCK
    u = identity_map()
    rep = region_energy(u, 1, disc(3.0), n=384)
    jac = u.jacobian(grid.nodes)
    one_shot = float(np.sum(grid.weights * np.sum(jac * jac, axis=(-2, -1))))
    assert np.isclose(rep.value, 18 * math.pi, rtol=1e-12)
    assert abs(rep.value - one_shot) <= 1e-13 * one_shot


def test_nonfinite_derivative_in_last_block_raises():
    grid = build_grid(disc(3.0), n=384)
    r = np.hypot(grid.nodes[:, 0], grid.nodes[:, 1])
    last = (len(r) - 1) // energy._BLOCK * energy._BLOCK
    # nodes run radius by radius, so the outermost ring lies in the last block
    r_cut = float(np.max(r[:last]))
    assert last > 0 and np.any(r[last:] > r_cut)
    calls = []

    def jac(p):
        calls.append(len(p))
        out = np.broadcast_to(np.eye(2), np.asarray(p).shape[:-1] + (2, 2)).copy()
        out[np.hypot(p[..., 0], p[..., 1]) > r_cut] = np.nan
        return out

    u = PlanarMap(fn=lambda p: np.asarray(p, dtype=float), domain=disc(3.0), jac=jac,
                  break_distance=_no_breaks, name="nan-rim")
    with pytest.raises(EvaluationFailure, match="nan-rim"):
        region_energy(u, 1, disc(3.0), n=384)
    assert len(calls) == last // energy._BLOCK + 1
    assert all(n == energy._BLOCK for n in calls[:-1])


def test_region_energy_peak_memory_stays_blocked():
    # n = 4096 on the competitor's pieces: orders 256 and 128, 393,216 fine
    # nodes in 12 blocks, each polygon mapped into the disc on its own; the
    # peak reads about 20 MB, and the fine level's Jacobian alone, unblocked,
    # about 61 MB
    u = assemble_counterexample(0.01)
    tracemalloc.start()
    try:
        region_energy(u, 1, disc(3.0), n=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# -- circle energies ----------------------------------------------------------


def test_circle_energy_identity():
    assert np.isclose(circle_energy(identity_map(), 1, 1.7), 4 * math.pi, rtol=1e-12)


def test_circle_energy_uniform_stretchings():
    f1 = uniform_datum(1.0, 3.0)
    phi1 = GeneralisedStretching(profile_from_datum(f1, 1)).as_planar_map()
    assert np.isclose(circle_energy(phi1, 2, 2.0), 2 * math.pi * 4, rtol=1e-10)
    phi2 = GeneralisedStretching(profile_from_datum(f1, 2)).as_planar_map()
    assert np.isclose(circle_energy(phi2, 1, 1.0), 2 * math.pi * 2.5, rtol=1e-10)


def test_circle_energy_jensen_monotonicity():
    pmap = GeneralisedStretching(
        profile_from_datum(power_law_datum(0.5), 2)
    ).as_planar_map()
    for r in (0.3, 0.7):
        base = circle_energy(pmap, 1, r) / (2 * math.pi)
        for p in (1.5, 2.0, 3.0):
            higher = circle_energy(pmap, p, r) / (2 * math.pi)
            assert base**p <= higher * (1 + 1e-12)


def _fixed_circle(u, p, r, n=2048):
    """The periodic trapezoid rule on n equally spaced angles of S_r."""
    theta = np.arange(n) * (2 * math.pi / n)
    jac = u.jacobian(r * np.stack([np.cos(theta), np.sin(theta)], axis=-1))
    return float(np.sum(np.sum(jac * jac, axis=(-2, -1)) ** p) * (2 * math.pi / n))


def _counting(u):
    """u with a Jacobian that records how many points each call evaluates."""
    points = []

    def jac(z):
        points.append(math.prod(np.shape(z)[:-1]))
        return u.jac(z)

    return replace(u, jac=jac), points


def _stretching(datum, k):
    return GeneralisedStretching(profile_from_datum(datum, k)).as_planar_map()


CIRCLE_MAPS = {
    "identity": lambda: identity_map(),
    "uniform-k1": lambda: _stretching(uniform_datum(1.0, 3.0), 1),
    "uniform-k2": lambda: _stretching(uniform_datum(1.0, 3.0), 2),
    "gauss": lambda: _stretching(truncated_gaussian_datum(1.0, 2.5), 1),
    "power": lambda: _stretching(power_law_datum(0.4), 2),
    "layered": lambda: layered_profile(0.01).as_planar_map(),
}


@pytest.mark.parametrize("name", sorted(CIRCLE_MAPS))
@pytest.mark.parametrize("p", [1, 2])
def test_nested_circle_rule_matches_the_fixed_rule(name, p):
    # every density here is theta-invariant, so each circle stops at the
    # first doubling, 512 nodes, a quarter of the fixed 2,048-node rule
    u, points = _counting(CIRCLE_MAPS[name]())
    radii = np.array([0.3, 0.7, 1.3, 1.7, 2.4])
    values = circle_energy(u, p, radii)
    assert values.shape == radii.shape and sum(points) == 512 * len(radii)
    for r, value in zip(radii, values):
        fixed = _fixed_circle(u, p, r)
        assert abs(value - fixed) <= 1e-14 * fixed


def test_nested_circle_rule_runs_to_the_cap_on_a_kinked_density():
    # the competitor's density depends on theta and has kinks on S_2.5 (the
    # diagonals, the chords x = +-1, +-2 of the chart), so its levels never
    # agree to 1e-13 and the circle takes all 2,048 nodes
    u, points = _counting(assemble_counterexample(0.1))
    value = circle_energy(u, 1, 2.5)
    assert sum(points) == 2048 and np.ndim(value) == 0
    fixed = _fixed_circle(u, 1, 2.5)
    assert abs(value - fixed) <= 1e-14 * fixed


def test_circle_energy_rejects_break_radius():
    pmap = layered_profile(0.5).as_planar_map()
    with pytest.raises(BreakRadius):
        circle_energy(pmap, 1, 1.0)


# -- residual statistics -------------------------------------------------------


def test_jacobian_residual_identity():
    mx, mean = jacobian_residual(
        identity_map(), lambda p: np.ones(np.asarray(p).shape[:-1]), disc(2.0), seed=0
    )
    assert mx < 1e-10 and mean < 1e-10


def test_jacobian_residual_shear():
    eps = 0.4
    vmap = shear_map(eps)

    def field(pts):
        n1 = np.abs(pts[..., 0]) + np.abs(pts[..., 1])
        return np.where(n1 <= 1.0, eps, 1.0)

    mx, _ = jacobian_residual(vmap, field, vmap.domain, seed=1)
    assert mx < 1e-6
    # finite differences against the same field
    fd_map = PlanarMap(fn=vmap.fn, domain=vmap.domain,
                       jac=lambda p: fd_jacobian(vmap.fn, p),
                       break_distance=vmap.break_distance)
    mx_fd, _ = jacobian_residual(fd_map, field, vmap.domain, n=2048, seed=1)
    assert mx_fd < 1e-6


def test_jacobian_residual_wedge():
    wmap, jdet = wedge_map(0.5)
    mx, _ = jacobian_residual(wmap, jdet, wmap.domain, seed=2)
    assert mx < 1e-12
    fd_map = PlanarMap(fn=wmap.fn, domain=wmap.domain,
                       jac=lambda p: fd_jacobian(wmap.fn, p),
                       break_distance=wmap.break_distance)
    mx_fd, _ = jacobian_residual(fd_map, jdet, wmap.domain, n=2048, seed=2)
    assert mx_fd < 1e-5


# -- Lipschitz estimates -------------------------------------------------------


def test_lipschitz_identity_and_dilation():
    assert np.isclose(lipschitz_estimate(identity_map(), disc(1.0), n=100), math.sqrt(2))
    double = linear_map(2 * np.eye(2), 1.0)
    assert np.isclose(lipschitz_estimate(double, disc(1.0), n=100), 2 * math.sqrt(2))


def test_lipschitz_ball_to_square_stable():
    eta, _ = ball_to_square()
    small = lipschitz_estimate(eta, disc(1.0), n=10000, seed=0)
    big = lipschitz_estimate(eta, disc(1.0), n=20000, seed=0)
    assert abs(big - small) < 0.05 * big


# -- the circle-energy comparison ----------------------------------------------


def test_zhukovsky_comparison_identity_case():
    f1 = uniform_datum(1.0, 3.0)
    phi1 = GeneralisedStretching(profile_from_datum(f1, 1)).as_planar_map()
    rows, lam = zhukovsky_comparison(f1, phi1, 1, np.linspace(0.4, 2.6, 8))
    assert lam == 1.0
    assert all(row.ratio == 1.0 for row in rows)
    # the plain identity map is the same competitor written differently
    rows_id, _ = zhukovsky_comparison(f1, identity_map(), 1, np.linspace(0.4, 2.6, 8))
    assert all(abs(row.ratio - 1.0) < 1e-12 for row in rows_id)


def test_region_energy_rejects_non_finite_maps():
    from pjac.errors import EvaluationFailure

    def fn(p):
        return np.asarray(p, dtype=float) / 0.0

    bad = PlanarMap(fn=fn, domain=disc(1.0), jac=lambda p: fd_jacobian(fn, p),
                    break_distance=_no_breaks)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationFailure):
            region_energy(bad, 1, disc(1.0), n=16)


def test_zhukovsky_comparison_degree_two():
    f1 = uniform_datum(1.0, 3.0)
    phi2 = GeneralisedStretching(profile_from_datum(f1, 2)).as_planar_map()
    rows, _ = zhukovsky_comparison(f1, phi2, 1, np.linspace(0.4, 2.6, 8))
    assert all(np.isclose(row.ratio, 0.8, rtol=1e-12) for row in rows)


def test_zhukovsky_comparison_power_law_self():
    for eps in (0.1, 1.0):
        datum = power_law_datum(eps)
        phi1 = GeneralisedStretching(profile_from_datum(datum, 1)).as_planar_map()
        rows, lam = zhukovsky_comparison(datum, phi1, 1, np.linspace(0.15, 0.9, 6))
        expect = 1.0 / float(zhukovsky((2 + eps) / 2))
        assert np.isclose(lam, (2 + eps) / 2, rtol=1e-12)
        assert all(np.isclose(row.ratio, expect, rtol=1e-10) for row in rows)
        assert all(row.ratio < 1 for row in rows)


def test_zhukovsky_comparison_rejects_wrong_jacobian():
    f1 = uniform_datum(1.0, 3.0)
    wrong = linear_map(1.3 * np.eye(2))
    with pytest.raises(JacobianMismatch):
        zhukovsky_comparison(f1, wrong, 1, np.linspace(0.4, 2.0, 4))
