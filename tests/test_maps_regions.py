import numpy as np
import pytest

from pjac.maps import PlanarMap, fd_jacobian, rotate_map
from pjac.regions import Region, disc, l1_annulus, quasi_random_points


def _no_breaks(p):
    return np.full(np.asarray(p).shape[:-1], np.inf)


def _fd_map(fn, domain):
    """A map whose Jacobian is fd_jacobian of fn and that has no breaks."""
    return PlanarMap(fn=fn, domain=domain, jac=lambda p: fd_jacobian(fn, p),
                     break_distance=_no_breaks)


def test_region_membership():
    ring = l1_annulus(1.0, 2.0)
    pts = np.array([[0.3, 0.3], [1.0, 0.5], [1.5, 0.0], [2.5, 0.0], [-1.2, 0.1]])
    assert ring.contains(pts).tolist() == [False, True, True, False, True]
    wedge = l1_annulus(2.0, 3.0, ("x>0", "y>0"))
    pts = np.array([[1.25, 1.25], [0.5, 0.5], [2.9, 0.05], [1.6, 1.6]])
    assert wedge.contains(pts).tolist() == [True, False, True, False]


def test_quasi_random_sampling_deterministic():
    region = Region(kind="annulus", r_in=1.0, r_out=2.0, constraints=("y>0",))
    a = quasi_random_points(region, 500, seed=3)
    b = quasi_random_points(region, 500, seed=3)
    assert np.array_equal(a, b)
    assert region.contains(a).all()
    c = quasi_random_points(region, 500, seed=4)
    assert not np.array_equal(a, c)


def test_fd_jacobian_matches_closed_form(rng):
    mat = np.array([[1.0, 2.0], [0.5, -1.5]])
    fn = lambda p: p @ mat.T  # noqa: E731
    pts = rng.normal(size=(64, 2))
    assert np.allclose(fd_jacobian(fn, pts), mat, atol=1e-9)


def test_rotate_map_needs_symmetric_domain():
    half = _fd_map(lambda p: p, Region(kind="disc", r_out=1.0, constraints=("x>0",)))
    with pytest.raises(ValueError, match="rotate_map needs a rotation-invariant"):
        rotate_map(half, 0.3)


def test_rotate_map_alpha_zero_identity(rng):
    u = _fd_map(lambda p: np.stack([p[..., 0] ** 2, p[..., 1]], axis=-1), disc(2.0))
    rot0 = rotate_map(u, 0.0)
    pts = rng.normal(size=(20, 2))
    assert np.allclose(rot0(pts), u(pts))


def test_rotate_map_jacobian_field_rotates():
    mat = np.array([[2.0, 0.0], [0.0, 1.0]])
    u = PlanarMap(
        fn=lambda p: p @ mat.T,
        domain=disc(2.0),
        jac=lambda p: np.broadcast_to(mat, np.asarray(p).shape[:-1] + (2, 2)),
        break_distance=_no_breaks,
    )
    alpha = 0.7
    rotated = rotate_map(u, alpha)
    c, s = np.cos(alpha), np.sin(alpha)
    rot = np.array([[c, -s], [s, c]])
    pts = np.array([[0.4, 0.1]])
    assert np.allclose(rotated.jacobian(pts)[0], mat @ rot)
