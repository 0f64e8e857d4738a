import numpy as np
import pytest

from pjac.errors import IncompatibleTrace
from pjac.maps import PlanarMap, fd_jacobian, reflect_extend, rotate_map
from pjac.regions import Region, disc, l1_annulus, quasi_random_points

QUADRANT = Region(kind="disc", r_out=2.0, constraints=("x>0", "y>0"))


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


def test_reflect_identity_quadrant_gives_identity():
    quarter = _fd_map(lambda p: np.asarray(p, dtype=float), QUADRANT)
    full = reflect_extend(quarter, axes=("x", "y"))
    pts = np.array([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]])
    assert np.allclose(full(pts), pts)
    assert full.domain.constraints == ()


def test_reflect_preserves_jacobian(rng):
    def fn(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([x + 0.2 * x * y**2, y + 0.1 * y * x**2], axis=-1)

    full = reflect_extend(_fd_map(fn, QUADRANT), axes=("x", "y"))
    pts = rng.uniform(0.2, 1.2, size=(50, 2))
    from pjac.geometry import det2

    for sx in (1, -1):
        for sy in (1, -1):
            mirrored = pts * np.array([sx, sy])
            assert np.allclose(
                det2(fd_jacobian(full.fn, mirrored)),
                det2(fd_jacobian(fn, pts)),
                atol=1e-6,
            )
            assert np.allclose(det2(full.jacobian(mirrored)), det2(fd_jacobian(fn, pts)),
                               atol=1e-6)


def test_reflect_rejects_incompatible_trace():
    bad = _fd_map(lambda p: np.asarray(p, dtype=float) + np.array([0.0, 0.5]),
                  Region(kind="disc", r_out=2.0, constraints=("y>0",)))
    with pytest.raises(IncompatibleTrace):
        reflect_extend(bad, axes=("x",))


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


def test_reflect_across_x_axis_opens_the_lower_half():
    # reflecting across the x axis mirrors y > 0 onto y < 0, so the quadrant
    # x, y > 0 becomes the half plane x > 0
    half = reflect_extend(_fd_map(lambda p: np.asarray(p, dtype=float), QUADRANT),
                          axes=("x",))
    assert half.domain.constraints == ("x>0",)
    assert half.domain.contains(np.array([0.5, -0.5]))
    # and across the y axis, x > 0 onto x < 0
    upper = reflect_extend(_fd_map(lambda p: np.asarray(p, dtype=float), QUADRANT),
                           axes=("y",))
    assert upper.domain.constraints == ("y>0",)
    assert upper.domain.contains(np.array([-0.5, 0.5]))
