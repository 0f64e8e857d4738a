import math

import numpy as np
import pytest
from scipy.special import ellipe

from pjac.constructions import ball_to_square, shear_map
from pjac.errors import ExcessiveMasking
from pjac.isoperimetry import (
    ImageCurve,
    curve_length,
    degree_moments,
    image_curve,
    isoperimetric_check,
    winding_field,
)
from pjac.radial import GeneralisedStretching, profile_from_datum, uniform_datum


def circle_curve(radius=1.0, n=1024, turns=1, center=(0.0, 0.0)):
    t = np.linspace(0, 2 * np.pi, n + 1)
    pts = center + radius * np.stack([np.cos(turns * t), np.sin(turns * t)], axis=-1)
    pts[-1] = pts[0]
    return ImageCurve(samples=pts)


def test_curve_length_circle():
    assert abs(curve_length(circle_curve(n=1024)) - 2 * math.pi) < 1e-4


def test_curve_length_stretching_images():
    f1 = uniform_datum(1.0, 3.0)
    for k in (1, 2, 3):
        pmap = GeneralisedStretching(profile_from_datum(f1, k)).as_planar_map()
        r = 1.5
        curve = image_curve(pmap, r, n=2048)
        rho = r  # uniform datum: rho(r) = r
        assert np.isclose(curve_length(curve), 2 * math.pi * math.sqrt(k) * rho,
                          rtol=1e-5)


def test_curve_length_square_image():
    eta, rot = ball_to_square()
    curve = image_curve(eta, 1.0, n=4096)
    # eta(S_1) is a square of side sqrt(2): perimeter 4 sqrt(2)
    assert np.isclose(curve_length(curve), 4 * math.sqrt(2), rtol=1e-5)


def test_degree_moments_unit_circle():
    i1, i2 = degree_moments(circle_curve(), resolution=512)
    assert abs(i1 - math.pi) < 0.02 * math.pi
    assert abs(i2 - math.pi) < 0.02 * math.pi


def test_degree_moments_double_cover():
    i1, i2 = degree_moments(circle_curve(turns=2), resolution=512)
    assert abs(i1 - 2 * math.pi) < 0.02 * 2 * math.pi
    assert abs(i2 - 4 * math.pi) < 0.02 * 4 * math.pi


def test_degree_moments_match_jacobian_mass():
    # image of S_2 under the shear composed with the diamond chart: the
    # winding integral recovers the integral of the Jacobian over the disc
    eps = 0.5
    eta, rot = ball_to_square()
    vmap = shear_map(eps)

    def chain(pts):
        return vmap.fn(eta(pts) @ rot.T)

    curve = image_curve(chain, 2.0, n=2048)
    i1, i2 = degree_moments(curve, resolution=512)
    # oracle by change of variables: the constant chart Jacobian cancels,
    # leaving integral_{Q_2} Jv = eps |Q_1| + |A1(1,2)|
    mass = eps * 2.0 + 6.0
    assert abs(i1 - mass) < 0.01 * mass
    assert i2 >= abs(i1)


def test_winding_field_masking_is_symmetric_and_small():
    field = winding_field(circle_curve(), resolution=512)
    assert field.masked_fraction < 0.01


def test_degree_moments_excessive_masking():
    # a pencil-thin ellipse: nearly all of its bounding box hugs the curve
    t = np.linspace(0, 2 * np.pi, 513)
    pts = np.stack([2 * np.cos(t), 0.004 * np.sin(t)], axis=-1)
    pts[-1] = pts[0]
    with pytest.raises(ExcessiveMasking):
        degree_moments(ImageCurve(samples=pts), resolution=128)


def test_isoperimetric_equality_for_degree_one():
    f1 = uniform_datum(1.0, 3.0)
    pmap = GeneralisedStretching(profile_from_datum(f1, 1)).as_planar_map()
    for r in (0.5, 1.0, 2.0, 2.8):
        curve = image_curve(pmap, r, n=1024)
        area = math.pi * float(f1.cumulative(np.array([r]))[0])
        res = isoperimetric_check(curve, area)
        assert res.holds and res.equality


def test_isoperimetric_strict_ratio_for_higher_degree():
    f_pos = uniform_datum(1.0, 3.0)
    f_neg = uniform_datum(-1.0, 3.0)
    for k in (2, 3, -2):
        datum = f_pos if k > 0 else f_neg
        pmap = GeneralisedStretching(profile_from_datum(datum, k)).as_planar_map()
        curve = image_curve(pmap, 1.5, n=2048)
        area = abs(math.pi * float(datum.cumulative(np.array([1.5]))[0]))
        res = isoperimetric_check(curve, area)
        assert res.holds and not res.equality
        assert abs(res.lhs / res.rhs - 1.0 / abs(k)) < 1e-3


def test_isoperimetric_ellipse_against_elliptic_integral():
    mat = np.array([[2.0, 0.0], [0.0, 1.0]])
    curve = image_curve(lambda p: p @ mat.T, 1.0, n=4096)
    perimeter = 8.0 * float(ellipe(0.75))  # 9.688448...
    assert np.isclose(curve_length(curve), perimeter, rtol=1e-5)
    res = isoperimetric_check(curve, 2 * math.pi)  # J = 2 on the unit disc
    assert np.isclose(res.lhs, 8 * math.pi**2, rtol=1e-12)
    assert res.holds and not res.equality
    assert res.lhs < res.rhs


def test_isoperimetric_invariance_under_rotation_and_resampling():
    f1 = uniform_datum(1.0, 3.0)
    pmap = GeneralisedStretching(profile_from_datum(f1, 2)).as_planar_map()
    area = math.pi * float(f1.cumulative(np.array([1.0]))[0])
    base = isoperimetric_check(image_curve(pmap, 1.0, n=1024), area)
    alpha = 0.9
    rot = np.array([[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]])
    rotated = isoperimetric_check(
        ImageCurve(image_curve(pmap, 1.0, n=1024).samples @ rot.T), area
    )
    resampled = isoperimetric_check(image_curve(pmap, 1.0, n=2048), area)
    assert np.isclose(base.lhs / base.rhs, rotated.lhs / rotated.rhs, rtol=1e-9)
    assert np.isclose(base.lhs / base.rhs, resampled.lhs / resampled.rhs, rtol=1e-5)
    assert base.holds == rotated.holds == resampled.holds


def test_generalised_inequality_on_random_curves(rng):
    for _ in range(25):
        n_h = rng.integers(2, 6)
        amps = rng.uniform(0.05, 0.3, size=n_h) / np.arange(1, n_h + 1)
        phases = rng.uniform(0, 2 * np.pi, size=n_h)
        turns = int(rng.choice([1, 1, 2, -1]))
        t = np.linspace(0, 2 * np.pi, 513)
        radius = 1.0 + sum(
            a * np.cos((m + 1) * t + p) for m, (a, p) in enumerate(zip(amps, phases))
        )
        pts = radius[:, None] * np.stack([np.cos(turns * t), np.sin(turns * t)], -1)
        pts[-1] = pts[0]
        curve = ImageCurve(samples=pts)
        i1, i2 = degree_moments(curve, resolution=256)
        length = curve_length(curve)
        assert 4 * math.pi * i2 <= length**2 * 1.01
        assert i2 >= abs(i1) - 1e-9 * abs(i1)
