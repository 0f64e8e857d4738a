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
    uniform_datum,
    zhukovsky,
)
from pjac.regions import annulus, disc


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


QUARTER = (math.pi / 4, 3 * math.pi / 4)  # the counterexample's sector
EIGHTHS = tuple(i * math.pi / 4 for i in range(1, 8))


@pytest.mark.parametrize("n", [8, 17, 48, 81, 256, 1024])
def test_sector_grid_is_a_subset_of_the_full_grid(n):
    # the nodes of the full grid between the diagonals, bit for bit, with
    # exactly 4 times their weights (not a rule rebuilt on the sector with
    # n // 4 nodes, which at n = 81 puts 2 chunks per eighth against 3)
    full = build_grid(disc(3.0), n, (1.0, 2.0), EIGHTHS)
    sector = build_grid(disc(3.0), n, (1.0, 2.0), EIGHTHS, sector=QUARTER)
    theta = np.arctan2(full.nodes[:, 1], full.nodes[:, 0])
    inside = (QUARTER[0] < theta) & (theta < QUARTER[1])
    assert 4 * len(sector.weights) == len(full.weights)
    assert np.array_equal(sector.nodes, full.nodes[inside])
    assert np.array_equal(sector.weights, 4.0 * full.weights[inside])


@pytest.mark.parametrize("sector", [(0.0, 1.0), (1.0, 0.5), (-0.5, 1.0), (0.0, 7.0)])
def test_grid_refuses_a_sector_that_does_not_tile_the_circle(sector):
    with pytest.raises(ValueError, match="does not tile the circle"):
        build_grid(disc(3.0), 64, sector=sector)


def test_rotate_map_does_not_inherit_the_sector():
    # a rotation moves the mirror axes: the rotated density integrated over
    # the original sector, counted 4 times, is off by about 10%
    u = assemble_counterexample(0.1)
    rotated = rotate_map(u, 0.3)
    assert u.sector == QUARTER and rotated.sector == (0.0, 2 * math.pi)
    full = energy._energy_on_grid(rotated, 1, build_grid(disc(3.0), 64, rotated.break_radii))
    assert region_energy(rotated, 1, disc(3.0), n=64).value == full
    wrong = region_energy(replace(rotated, sector=u.sector), 1, disc(3.0), n=64).value
    assert abs(wrong - full) > 0.05 * full


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
    # n = 1024 on the competitor's quarter sector: 262,144 fine nodes, as
    # many as the whole disc at n = 512; unblocked, the peak reads about 48 MB
    u = assemble_counterexample(0.01)
    tracemalloc.start()
    try:
        region_energy(u, 1, disc(3.0), n=1024)
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
