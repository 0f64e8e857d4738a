"""Planar domain descriptors: Euclidean and l1 balls and annuli.

The l1 ball Q_r = {|x| + |y| < r} and annulus A1(r, R) carry the diamond
geometry used by the explicit counterexample maps.  Regions support exact
membership tests, bounding boxes and quasi-random sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

_HALF_PLANES = {
    "x>0": lambda p: p[..., 0] > 0,
    "y>0": lambda p: p[..., 1] > 0,
}


def l1_norm(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    return np.abs(pts[..., 0]) + np.abs(pts[..., 1])


@dataclass(frozen=True)
class Region:
    """A planar domain: a disc or an annulus in either norm.

    ``constraints`` intersects the base region with the open half planes
    x > 0 and y > 0, which covers the half and quadrant restrictions of the
    wedge and of the half ring that the competitor folds it through.
    """

    kind: str  # "disc" | "annulus" | "l1_ball" | "l1_annulus"
    r_in: float = 0.0
    r_out: float = 0.0
    constraints: tuple = ()

    def contains(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.kind in ("disc", "annulus"):
            rho = np.hypot(pts[..., 0], pts[..., 1])
        elif self.kind in ("l1_ball", "l1_annulus"):
            rho = l1_norm(pts)
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")
        mask = (rho < self.r_out) & (rho > self.r_in)
        for c in self.constraints:
            mask &= _HALF_PLANES[c](pts)
        return mask

    def area(self) -> float:
        """The area; each half-plane constraint halves the centred base region."""
        unit = np.pi if self.kind in ("disc", "annulus") else 2.0
        return unit * (self.r_out**2 - self.r_in**2) / 2 ** len(self.constraints)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        R = self.r_out
        lo, hi = np.array([-R, -R]), np.array([R, R])
        for c in self.constraints:
            lo[0 if c[0] == "x" else 1] = 0.0
        return lo, hi


def disc(radius: float) -> Region:
    return Region(kind="disc", r_out=float(radius))


def annulus(r_in: float, r_out: float) -> Region:
    return Region(kind="annulus", r_in=float(r_in), r_out=float(r_out))


def l1_ball(radius: float) -> Region:
    return Region(kind="l1_ball", r_out=float(radius))


def l1_annulus(r_in: float, r_out: float, constraints: tuple = ()) -> Region:
    return Region(
        kind="l1_annulus",
        r_in=float(r_in),
        r_out=float(r_out),
        constraints=constraints,
    )


def quasi_random_points(
    region: Region,
    n: int,
    seed: int | None = None,
    min_break_distance: float = 0.0,
    break_distance=None,
) -> np.ndarray:
    """n Halton points inside the region, optionally clear of break curves.

    With a seed the Halton sequence is scrambled (still deterministic for a
    fixed seed); without one it is the plain sequence.
    """
    lo, hi = region.bbox()
    sampler = qmc.Halton(d=2, scramble=seed is not None, seed=seed)
    out = []
    have = 0
    while have < n:
        raw = sampler.random(max(2 * (n - have), 256))
        pts = lo + raw * (hi - lo)
        mask = region.contains(pts)
        if break_distance is not None and min_break_distance > 0:
            mask &= np.asarray(break_distance(pts)) > min_break_distance
        pts = pts[mask]
        out.append(pts)
        have += len(pts)
    return np.concatenate(out, axis=0)[:n]
