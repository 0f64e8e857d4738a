import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture
def mirrored():
    """A function that extends ``ChartPieces`` of one chart quadrant by their
    mirror images across both chart axes, each copy counted once: the rule on
    the whole domain that the quadrant, counted 4 times, stands for."""
    from dataclasses import replace

    def extend(pieces):
        polygons = tuple(
            (tuple((sx * x, sy * y) for x, y in vertices), grading)
            for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1))
            for vertices, grading in pieces.polygons
        )
        return replace(pieces, polygons=polygons, weight=pieces.weight / 4)

    return extend
