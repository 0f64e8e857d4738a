"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines with their measured values.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from pjac.cli import main
from pjac.constructions import (
    assemble_counterexample,
    ball_to_square,
    layered_profile,
    nonuniqueness_datum,
    nonuniqueness_inner_profile,
    shear_map,
    wedge_map,
)
from pjac.energy import lipschitz_estimate, region_energy, zhukovsky_comparison
from pjac.geometry import det2
from pjac.isoperimetry import ImageCurve, curve_length, degree_moments, image_curve, isoperimetric_check
from pjac.maps import fd_jacobian, rotate_map
from pjac.moser import constant_jacobian_corrector, moser_flow, unit_square_domain, wedge_domain
from pjac.radial import (
    GeneralisedStretching,
    energy_split,
    power_law_datum,
    profile_from_datum,
    sobolev_energy_1d,
    split_bound_check,
    truncated_derivative_energy,
    truncated_gaussian_datum,
    uniform_datum,
)
from pjac.regions import disc, quasi_random_points


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: Jacobian exactness ------------------------------------------


def test_criterion_1_jacobian_exactness():
    eps = 0.3
    eta, _ = ball_to_square()
    vmap = shear_map(eps)
    wmap, jdet = wedge_map(eps)
    phi1 = layered_profile(0.5)
    phi3 = GeneralisedStretching(profile_from_datum(uniform_datum(1.0, 3.0), 3))

    def shear_field(pts):
        n1 = np.abs(pts[..., 0]) + np.abs(pts[..., 1])
        return np.where(n1 <= 1.0, eps, 1.0)

    from pjac.constructions import layered_datum

    cases = [
        ("eta", eta, disc(1.5), lambda p: np.full(p.shape[:-1], 2 / math.pi)),
        ("shear", vmap, vmap.domain, shear_field),
        ("wedge", wmap, wmap.domain, jdet),
        ("phi1", phi1.as_planar_map(), disc(3.0), layered_datum(0.5).as_field()),
        ("phi3", phi3.as_planar_map(), disc(3.0), uniform_datum(1.0, 3.0).as_field()),
    ]
    details = []
    for name, pmap, region, field in cases:
        t0 = time.perf_counter()
        pts = quasi_random_points(
            region, 100_000, seed=11, min_break_distance=1e-4,
            break_distance=pmap.break_distance,
        )
        residual = float(np.max(np.abs(det2(fd_jacobian(pmap.fn, pts)) - field(pts))))
        elapsed = time.perf_counter() - t0
        details.append(f"{name} {residual:.2e}/{elapsed:.1f}s")
        assert residual < 1e-5, f"{name}: fd residual {residual:.3e}"
        assert elapsed < 10.0, f"{name}: took {elapsed:.1f}s"
    report("criterion 1 (jacobian exactness, 1e5 pts, <1e-5, <10s/map)",
           True, "; ".join(details))


# -- criterion 2: energy gap ----------------------------------------------------

EPS_RANGE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


@pytest.fixture(scope="module")
def energy_gap_table():
    rows = []
    for eps in EPS_RANGE:
        t0 = time.perf_counter()
        e_rad = sobolev_energy_1d(layered_profile(eps), 1, 3.0)
        t_rad = time.perf_counter() - t0
        t0 = time.perf_counter()
        u = assemble_counterexample(eps)
        e_comp = region_energy(u, 1, disc(3.0), n=1024).value
        t_comp = time.perf_counter() - t0
        rows.append((eps, e_rad, e_comp, t_rad, t_comp))
    return rows


def test_criterion_2_energy_gap_blowup_vs_bounded(energy_gap_table):
    rows = energy_gap_table
    e_rad = np.array([r[1] for r in rows])
    e_comp = np.array([r[2] for r in rows])
    slope = float(np.polyfit(np.log(1.0 / np.array(EPS_RANGE)), e_rad, 1)[0])
    variation = float(np.max(e_comp) / np.min(e_comp))
    t_rad_total = sum(r[3] for r in rows)
    t_comp_max = max(r[4] for r in rows)
    # "uniformly Lipschitz": the sampled sup of |Du| on B_3 stays within 2x
    lips = [lipschitz_estimate(assemble_counterexample(eps), disc(3.0), n=4000, seed=6)
            for eps in EPS_RANGE]
    ok = (
        0.8 * math.pi <= slope <= 1.2 * math.pi
        and variation < 2.0
        and max(lips) < 2.0 * min(lips)
        and t_rad_total < 1.0
        and t_comp_max < 60.0
    )
    report(
        "criterion 2 (energy gap: slope in [0.8pi,1.2pi], competitor and Lipschitz <2x, "
        "timings)",
        ok,
        f"slope={slope:.4f} (pi={math.pi:.4f}), variation={variation:.3f}, "
        f"Lipschitz {min(lips):.3f}-{max(lips):.3f}, "
        f"1-D total {t_rad_total:.2f}s, 2-D max {t_comp_max:.1f}s/eps @1024^2",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: 2|Ju| <= |Du|^2 pointwise forces "
        "E_competitor >= 2*integral(f) = 18*pi ~ 56.5 for every admissible "
        "competitor, while E_radial(1e-4) ~ 85, so the ratio cannot exceed "
        "~1.5 anywhere in this epsilon range"
    ),
)
def test_criterion_2_ratio_exceeds_three(energy_gap_table):
    rows = energy_gap_table
    by_eps = {r[0]: r[1] / r[2] for r in rows}
    ratio = by_eps[1e-4]
    report("criterion 2 (ratio E_radial/E_competitor > 3 by eps=1e-4)",
           ratio > 3.0, f"measured ratio(1e-4)={ratio:.3f}")


# -- criterion 3: circle-energy audit ---------------------------------------------


def test_criterion_3_zhukovsky_audit():
    corpus = {
        "uniform": uniform_datum(1.0, 3.0),
        "power0.1": power_law_datum(0.1),
        "power1": power_law_datum(1.0),
        "gauss": truncated_gaussian_datum(1.0, 2.5),
    }
    lambda_one = {"uniform", "gauss"}
    worst = -np.inf
    equality_hits = set()
    for name, datum in corpus.items():
        R = datum.support_radius
        radii = np.linspace(0.07 * R, 0.94 * R, 32)
        phi1 = GeneralisedStretching(profile_from_datum(datum, 1)).as_planar_map()
        competitors = {
            "phi1": phi1,
            "rot-phi1": rotate_map(phi1, 0.7),
            "phi2": GeneralisedStretching(profile_from_datum(datum, 2)).as_planar_map(),
        }
        for cname, u in competitors.items():
            rows, lam = zhukovsky_comparison(datum, u, 1, radii)
            assert len(rows) == 32
            ratios = np.array([row.ratio for row in rows])
            worst = max(worst, float(np.max(ratios)))
            assert np.all(ratios <= 1 + 1e-6), f"{name}/{cname}"
            if np.all(np.abs(ratios - 1) < 1e-6):
                equality_hits.add((name, cname))
    expected = {(d, c) for d in lambda_one for c in ("phi1", "rot-phi1")}
    ok = worst <= 1 + 1e-6 and equality_hits == expected
    report(
        "criterion 3 (circle ratios <= 1+1e-6 at 32 radii; equality iff lambda=1 "
        "and degree-one stretching)",
        ok,
        f"max ratio {worst:.9f}; equality cases {sorted(equality_hits)}",
    )


# -- criterion 4: isoperimetry suite -------------------------------------------------


def test_criterion_4_isoperimetry():
    f_pos = uniform_datum(1.0, 3.0)
    f_neg = uniform_datum(-1.0, 3.0)

    equality_ok = True
    for r in (0.4, 1.0, 1.7, 2.5):
        pmap = GeneralisedStretching(profile_from_datum(f_pos, 1)).as_planar_map()
        curve = image_curve(pmap, r, n=1024)
        area = math.pi * float(f_pos.cumulative(np.array([r]))[0])
        res = isoperimetric_check(curve, area)
        equality_ok &= res.holds and res.equality

    ratio_ok = True
    ratio_detail = []
    for k in (2, 3, -2):
        datum = f_pos if k > 0 else f_neg
        pmap = GeneralisedStretching(profile_from_datum(datum, k)).as_planar_map()
        curve = image_curve(pmap, 1.5, n=2048)
        area = abs(math.pi * float(datum.cumulative(np.array([1.5]))[0]))
        res = isoperimetric_check(curve, area)
        gap = abs(res.lhs / res.rhs - 1.0 / abs(k))
        ratio_detail.append(f"k={k}: {res.lhs / res.rhs:.5f}")
        ratio_ok &= gap < 1e-3 and not res.equality

    rng = np.random.default_rng(99)
    random_ok = True
    worst_margin = np.inf
    for _ in range(100):
        n_h = int(rng.integers(2, 6))
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
        margin = length**2 * 1.01 - 4 * math.pi * i2
        worst_margin = min(worst_margin, margin)
        random_ok &= margin >= 0 and i2 >= abs(i1) * (1 - 1e-9)

    ok = equality_ok and ratio_ok and random_ok
    report(
        "criterion 4 (isoperimetry: degree-1 equality, 1/|k| ratios, 100 random "
        "curves satisfy 4 pi I2 <= L^2)",
        ok,
        f"{'; '.join(ratio_detail)}; min random margin {worst_margin:.2e}",
    )


# -- criterion 5: two-term split property suite ---------------------------------------


def test_criterion_5_split_energy_properties():
    rng = np.random.default_rng(7)
    n = 1_000_000
    a2 = np.exp(rng.uniform(-3, 3, n))
    a1 = a2 * (1.0 + np.exp(rng.uniform(-6, 2, n)))
    lam = 1.0 + np.abs(rng.normal(0, 2, n))
    b = rng.uniform(-1, 1, n) * lam * a2
    checks = split_bound_check(a1, a2, b, lam)
    bound_ok = bool(np.all(checks))

    x_a = np.exp(rng.uniform(-3, 3, n))
    y_a = np.exp(rng.uniform(-3, 3, n))
    x_b = rng.uniform(-20, 20, n)
    y_b = rng.uniform(-20, 20, n)
    mid = energy_split((x_a + y_a) / 2, (x_b + y_b) / 2)
    hull = (energy_split(x_a, x_b) + energy_split(y_a, y_b)) / 2
    convex_ok = bool(np.all(mid <= hull + 1e-12 * (1 + np.abs(hull))))

    report(
        "criterion 5 (1e6 random split-energy bounds and convexity midpoints)",
        bound_ok and convex_ok,
        f"bound violations {int(np.sum(~checks))}, "
        f"convexity violations {int(np.sum(mid > hull + 1e-12 * (1 + np.abs(hull))))}",
    )


# -- criterion 6: constant-Jacobian corrector ------------------------------------------


def test_criterion_6_moser_corrector():
    details = []
    ok = True
    for eps in (0.5, 1.0):
        _, jdet = wedge_map(eps)
        c = (6.0 - eps) / 5.0
        corr, trace = constant_jacobian_corrector(jdet, c, wedge_domain(), iterations=3)
        initial, final = trace[0].max_residual, trace[-1].max_residual
        mass = max(row.mass_error for row in trace[1:])
        ok &= final < 0.5 * initial and final < 0.1 and mass < 1e-3
        details.append(
            f"eps={eps}: {initial:.3f}->{final:.3f} (x{final / initial:.3f}), "
            f"mass {mass:.1e}"
        )
    flat = moser_flow(
        lambda p: np.ones(p.shape[:-1]), unit_square_domain(),
        n_panels=8, cache=8, n_check=20,
    )
    pts = np.random.default_rng(1).random((64, 2)) * 0.9 + 0.05
    exact = bool(np.array_equal(flat.sigma(pts), pts))
    ok &= exact
    report(
        "criterion 6 (corrector halves residual in <=3 iterations, mass <1e-3, "
        "unit density exact)",
        ok,
        "; ".join(details) + f"; identity bit-exact={exact}",
    )


# -- criterion 7: balanced-datum construction -------------------------------------------


def test_criterion_7_nonuniqueness_construction():
    datum, rep = nonuniqueness_datum()
    constraints_ok = (
        rep.mass_ball2_residual < 1e-8
        and rep.mass_total_residual < 1e-8
        and rep.c1_value_gap < 1e-8
        and rep.sign_ok
    )

    prof = nonuniqueness_inner_profile()
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    values = truncated_derivative_energy(prof, 2.0, deltas)
    slope = float(np.polyfit(np.log(1 / deltas), values, 1)[0])

    # independent oracle: same truncated integrals with the mass and the
    # derivative recomputed by adaptive quadrature, no closed forms
    def mass(r):
        return quad(lambda s: 2 * s * float(datum.f(np.array([s]))[0]),
                    0.0, r, points=[1.0] if r > 1 else None, limit=200)[0]

    def integrand(r):
        return (r * float(datum.f(np.array([r]))[0])) ** 2 / (-mass(r))

    oracle = []
    for d in deltas:
        val = quad(integrand, 1e-9, 2.0 - d, points=[1.0], limit=400)[0]
        oracle.append(val)
    oracle_slope = float(np.polyfit(np.log(1 / deltas), oracle, 1)[0])
    slope_ok = abs(slope - oracle_slope) < 0.25 * abs(oracle_slope)

    twisted = GeneralisedStretching(
        prof,
        beta=lambda r: 0.4 * np.sin(1.3 * np.asarray(r)),
        beta_dot=lambda r: 0.52 * np.cos(1.3 * np.asarray(r)),
    ).as_planar_map(1.9)
    energies = [
        region_energy(rotate_map(twisted, a), 1, disc(1.85), n=192).value
        for a in (0.0, math.pi / 3, 1.0)
    ]
    spread = (max(energies) - min(energies)) / max(energies)
    spread_ok = spread < 1e-6

    report(
        "criterion 7 (balanced datum constraints, blow-up slope vs oracle, "
        "rotation spread)",
        constraints_ok and slope_ok and spread_ok,
        f"mass residuals ({rep.mass_ball2_residual:.1e},{rep.mass_total_residual:.1e}), "
        f"slope {slope:.4f} vs oracle {oracle_slope:.4f}, spread {spread:.1e}",
    )


# -- criterion 8: determinism --------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    jobs = {
        "energy-gap": ["energy-gap", "--eps", "1e-1,1e-3", "--grid", "96"],
        "zhukovsky": ["zhukovsky", "--datum", "power:0.1", "--competitor",
                      "rot-phi1", "--radii", "16"],
        "nonuniqueness": ["nonuniqueness", "--grid", "96"],
        "check-map": ["check-map", "--map", "shear", "--eps", "0.25", "--seed", "5"],
        "moser-demo": ["moser-demo", "--eps", "0.5", "--iters", "1",
                       "--resolution", "10", "--seed", "5"],
    }
    ok = True
    for name, args in jobs.items():
        outs = []
        for tag in ("x", "y"):
            path = tmp_path / f"{name}-{tag}"
            rc = main(args + ["--out", str(path)])
            assert rc == 0, f"{name} exited {rc}"
            outs.append(path.read_bytes())
        ok &= outs[0] == outs[1]
    report("criterion 8 (byte-identical reruns of every subcommand)", ok,
           f"{len(jobs)} subcommands compared")
