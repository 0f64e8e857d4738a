import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjac.errors import PointOnCurve
from pjac.geometry import det2, frobenius, winding_number

finite = st.floats(-10, 10, allow_nan=False)


def cofactor(a):
    """cof([[a, b], [c, d]]) = [[d, -c], [-b, a]], so |cof(A) v| = |A v_perp|."""
    return np.array([[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]])


@given(finite, finite, finite, finite, st.floats(0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_cauchy_schwarz_chain(a, b, c, d, t):
    mat = np.array([[a, b], [c, d]])
    nu = np.array([math.cos(t), math.sin(t)])
    lhs = det2(mat[None])[0]
    rhs = np.linalg.norm(mat @ nu) * np.linalg.norm(cofactor(mat) @ nu)
    assert lhs <= rhs + 1e-10 * (1 + rhs)


@given(finite, finite, st.floats(0, 2 * math.pi))
@settings(max_examples=100, deadline=None)
def test_cauchy_schwarz_equality_on_conformal(a, b, t):
    mat = np.array([[a, -b], [b, a]])  # conformal: equality case
    nu = np.array([math.cos(t), math.sin(t)])
    lhs = float(det2(mat[None])[0])
    rhs = float(np.linalg.norm(mat @ nu) * np.linalg.norm(cofactor(mat) @ nu))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_frobenius_matches_definition(rng):
    mats = rng.normal(size=(32, 2, 2))
    assert np.allclose(frobenius(mats), np.sqrt((mats**2).sum(axis=(1, 2))))


# -- winding numbers ---------------------------------------------------------


def _crossing_count_oracle(verts, point):
    """Independent oracle: signed crossings of the horizontal ray to +inf."""
    a = verts
    b = np.roll(verts, -1, axis=0)
    total = 0
    for (ax, ay), (bx, by) in zip(a, b):
        if ay <= point[1] < by or by <= point[1] < ay:
            t = (point[1] - ay) / (by - ay)
            xc = ax + t * (bx - ax)
            if xc > point[0]:
                total += 1 if by > ay else -1
    return total


def _unit_circle(n):
    t = np.arange(n) * (2 * np.pi / n)
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


def test_winding_unit_circle():
    circle = _unit_circle(64)
    assert winding_number(circle, (0.0, 0.0)) == 1
    assert winding_number(circle, (2.0, 0.0)) == 0
    # a repeated closing vertex is an edge of length zero
    assert winding_number(np.vstack([circle, circle[:1]]), (0.0, 0.0)) == 1


def test_winding_double_cover():
    t = np.linspace(0, 2 * np.pi, 257)[:-1]
    curve = np.stack([np.cos(2 * t), np.sin(2 * t)], axis=-1)
    point = np.array([0.5, 0.5])
    assert winding_number(curve, point) == 2
    assert winding_number(curve, point) == _crossing_count_oracle(curve, point)


def test_winding_rejects_point_on_curve():
    circle = _unit_circle(64)
    with pytest.raises(PointOnCurve):
        winding_number(circle, circle[3])


def test_winding_rotation_invariance(rng):
    t = np.linspace(0, 2 * np.pi, 129)[:-1]
    curve = np.stack([np.cos(t) + 0.3 * np.cos(3 * t), np.sin(t)], axis=-1)
    point = np.array([0.2, 0.1])
    w = winding_number(curve, point)
    for alpha in rng.uniform(0, 2 * np.pi, size=5):
        c, s = np.cos(alpha), np.sin(alpha)
        rot = np.array([[c, -s], [s, c]])
        assert winding_number(curve @ rot.T, rot @ point) == w


def test_winding_negates_under_conjugation():
    t = np.linspace(0, 2 * np.pi, 129)[:-1]
    curve = np.stack([np.cos(2 * t), np.sin(2 * t)], axis=-1)
    point = np.array([0.1, -0.2])
    flipped = curve * np.array([1.0, -1.0])
    assert winding_number(flipped, point * np.array([1.0, -1.0])) == -winding_number(
        curve, point
    )

