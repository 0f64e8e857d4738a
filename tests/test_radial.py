import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pjac.errors import (
    NonPositiveLambda,
    OrientationMismatch,
    PreconditionViolated,
)
from pjac.geometry import det2
from pjac.maps import fd_jacobian
from pjac.radial import (
    GaussExpr,
    GeneralisedStretching,
    Piece,
    PolyExpr,
    RadialDatum,
    annulus_indicator_datum,
    condition_report,
    energy_split,
    power_law_datum,
    profile_from_datum,
    sobolev_energy_1d,
    split_bound_check,
    truncated_derivative_energy,
    truncated_gaussian_datum,
    uniform_datum,
    zhukovsky,
)


# -- datum bookkeeping -------------------------------------------------------


def test_cumulative_exact_for_constants():
    d = uniform_datum(1.0, 3.0)
    r = np.array([0.5, 1.0, 2.7])
    assert np.array_equal(d.cumulative(r), r**2)


def test_cumulative_against_quadrature_oracle():
    d = RadialDatum(
        pieces=(
            Piece(0.0, 1.0, PolyExpr(coeffs=(0.5, 1.0, -0.25))),
            Piece(1.0, 2.5, GaussExpr(c=2.0, sigma=0.8)),
            Piece(2.5, 3.0, PolyExpr((1.0,))),
            Piece(3.0, 4.0, PolyExpr(coeffs=(4.0, -1.0))),
        ),
        support_radius=4.0,
    )
    for r in (0.3, 1.0, 1.7, 2.4, 2.8, 3.6, 4.0):
        oracle = quad(
            lambda s: 2 * s * float(d.f(np.array([s]))[0]), 0.0, r,
            points=[1.0, 2.5, 3.0], limit=200,
        )[0]
        assert abs(float(d.cumulative(np.array([r]))[0]) - oracle) < 1e-10


def test_datum_validation():
    with pytest.raises(ValueError):
        RadialDatum(pieces=(Piece(0.5, 1.0, PolyExpr((1.0,))),))
    with pytest.raises(ValueError):
        RadialDatum(
            pieces=(Piece(0.0, 1.0, PolyExpr((1.0,))), Piece(1.5, 2.0, PolyExpr((1.0,))))
        )


# -- profiles ----------------------------------------------------------------


def test_profile_uniform_is_identity():
    prof = profile_from_datum(uniform_datum(1.0, 3.0), 1)
    r = np.linspace(0.1, 2.9, 64)
    assert np.allclose(prof.rho(r), r)
    assert np.allclose(prof.rho_dot(r), 1.0)


def test_profile_layered_closed_form():
    from pjac.constructions import layered_datum

    for eps in (0.1, 0.5, 0.9):
        prof = profile_from_datum(layered_datum(eps), 1)
        r = np.linspace(1.01, 1.99, 33)
        assert np.allclose(prof.rho(r), np.sqrt(r**2 - 1 + eps), atol=1e-14)


def test_profile_vanishes_on_empty_core():
    d = annulus_indicator_datum(1.0, 2.0, 4.0 / 3.0)
    prof = profile_from_datum(d, 1)
    assert prof.rho(np.array([0.5]))[0] == 0.0
    assert prof.rho_dot(np.array([0.5]))[0] == 0.0


def test_profile_orientation_mismatch():
    with pytest.raises(OrientationMismatch):
        profile_from_datum(uniform_datum(1.0, 3.0), -1)


def test_profile_orientation_mismatch_is_scale_free():
    # f = 1e-8 (r - 1) has mass 1e-8 (2 r^3 / 3 - r^2) <= 0 on B_1: the wrong
    # orientation for k = 1 however small the datum, not roundoff to clamp
    d = RadialDatum(pieces=(Piece(0.0, 1.0, PolyExpr((-1e-8, 1e-8))),), support_radius=1.0)
    with pytest.raises(OrientationMismatch):
        profile_from_datum(d, 1)
    assert profile_from_datum(d, -1).rho(np.array([1.0]))[0] > 0


def test_profile_rejects_degree_zero():
    with pytest.raises(ValueError, match="nonzero"):
        profile_from_datum(uniform_datum(1.0, 3.0), 0)


def _fd_jacobian_gap(stretch, datum, radius_grid):
    """Max |det Du - f| with Du by finite differences, on two rays at the radii
    where rho does not vanish."""
    rho = stretch.profile.rho(radius_grid)
    rs = radius_grid[rho > 1e-9 * float(np.max(rho))]
    pts = np.concatenate([np.stack([rs * np.cos(a), rs * np.sin(a)], axis=-1)
                          for a in (0.37, 2.1)])
    return float(np.max(np.abs(det2(fd_jacobian(stretch, pts)) - datum.f(np.tile(rs, 2)))))


def test_stretching_jacobian_every_degree():
    d = uniform_datum(1.0, 3.0)
    grid = np.linspace(0.2, 2.8, 40)
    for k in (1, 4, -2):
        datum = d if k > 0 else uniform_datum(-1.0, 3.0)
        stretch = GeneralisedStretching(profile_from_datum(datum, k))
        assert _fd_jacobian_gap(stretch, datum, grid) < 1e-6


def test_stretching_jacobian_layered_away_from_jumps():
    from pjac.constructions import layered_datum

    d = layered_datum(0.1)
    grid = np.concatenate(
        [np.linspace(0.05, 0.999 - 1e-3, 20), np.linspace(1 + 1e-3, 2 - 1e-3, 20),
         np.linspace(2 + 1e-3, 2.95, 20)]
    )
    stretch = GeneralisedStretching(profile_from_datum(d, 1))
    assert _fd_jacobian_gap(stretch, d, grid) < 1e-5


def test_stretching_closed_form_jacobian_matches_fd(rng):
    prof = profile_from_datum(truncated_gaussian_datum(1.0, 2.5), 2)
    pts = rng.uniform(0.3, 1.5, size=(50, 1)) * np.stack(
        [np.cos(rng.uniform(0, 7, 50)), np.sin(rng.uniform(0, 7, 50))], axis=-1
    )
    plain = GeneralisedStretching(prof)
    twisted = GeneralisedStretching(prof, beta=lambda r: 0.4 * np.sin(1.3 * r),
                                    beta_dot=lambda r: 0.52 * np.cos(1.3 * r))
    for stretch in (plain, twisted):
        pmap = stretch.as_planar_map()
        assert np.allclose(pmap.jacobian(pts), fd_jacobian(pmap.fn, pts), atol=1e-5)
    assert not np.allclose(twisted.jacobian_matrix(pts), plain.jacobian_matrix(pts))


# -- 1-D energies ------------------------------------------------------------


def test_energy_1d_counts_the_phase():
    # rho = r for the uniform datum: |Du|^2 = 2 + r^2 beta_dot^2
    prof = profile_from_datum(uniform_datum(1.0, 3.0), 1)
    twisted = GeneralisedStretching(prof, beta=lambda r: 0.4 * np.sin(1.3 * r),
                                    beta_dot=lambda r: 0.52 * np.cos(1.3 * r))
    for p in (1, 2):
        want = 2 * math.pi * quad(
            lambda r: (2 + (0.52 * r * math.cos(1.3 * r)) ** 2) ** p * r, 0.0, 1.5,
            epsabs=0.0, epsrel=1e-13)[0]
        assert sobolev_energy_1d(twisted, p, 1.5) == pytest.approx(want, rel=1e-13)


def test_energy_identity_on_disc():
    stretch = GeneralisedStretching(profile_from_datum(uniform_datum(1.0, 3.0), 1))
    assert np.isclose(sobolev_energy_1d(stretch, 1, 3.0), 18 * math.pi, rtol=1e-9)


def test_energy_layered_eps_one_is_uniform():
    from pjac.constructions import layered_profile

    assert np.isclose(sobolev_energy_1d(layered_profile(1.0), 1, 3.0), 18 * math.pi,
                      rtol=1e-9)


def test_energy_blowup_slope():
    # oracle: adaptive quadrature of the middle-ring derivative term alone
    from pjac.constructions import layered_profile

    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    values = [sobolev_energy_1d(layered_profile(e), 1, 3.0) for e in eps_list]
    slope = np.polyfit(np.log(1.0 / np.array(eps_list)), values, 1)[0]
    assert 0.8 * math.pi <= slope <= 1.2 * math.pi

    def ring_term(eps):
        return 2 * math.pi * quad(
            lambda r: r * r**2 / (r**2 - 1 + eps), 1.0, 2.0, limit=200
        )[0]

    oracle = [ring_term(e) for e in eps_list]
    oracle_slope = np.polyfit(np.log(1.0 / np.array(eps_list)), oracle, 1)[0]
    assert abs(slope - oracle_slope) < 0.2 * math.pi


def test_energy_divergence_for_annulus_indicator():
    # the stretching for an annulus-supported datum is not square integrable
    d = annulus_indicator_datum(1.0, 2.0, 4.0 / 3.0)
    stretch = GeneralisedStretching(profile_from_datum(d, 1))
    for p in (1, 2):
        assert math.isinf(sobolev_energy_1d(stretch, p, 2.0))


def test_energy_divergence_where_a_clamped_dip_ends():
    # the mass -a r^2 + 2 r^3 / 3 dips to -a^3 / 3, within the roundoff that
    # profile_from_datum clamps, and rho leaves 0 at r = 1.5 a with r f != 0
    d = RadialDatum(pieces=(Piece(0.0, 1.0, PolyExpr((-3e-3, 1.0))),), support_radius=1.0)
    stretch = GeneralisedStretching(profile_from_datum(d, 1))
    assert math.isinf(sobolev_energy_1d(stretch, 1, 1.0))


def test_energy_divergence_inner_balanced_profile():
    from pjac.constructions import nonuniqueness_inner_profile

    prof = nonuniqueness_inner_profile()
    for p in (1, 2):
        assert math.isinf(sobolev_energy_1d(GeneralisedStretching(prof), p, 2.0))


# On a piece where rho^2 = a r^2 + b, the substitution t = r^2 turns the
# p = 1, k = 1 energy density (rho_dot^2 + rho^2/r^2) r dr into
# (a^2 t/(a t + b) + (a t + b)/t) dt / 2, with this antiderivative.
_T, _A, _B = sympy.symbols("t a b", real=True)
_ANTIDERIVATIVE = _A * _T + _B / 2 * sympy.log(_T / (_A * _T + _B))


def test_closed_form_antiderivative_differentiates_to_the_integrand():
    integrand = (_A**2 * _T / (_A * _T + _B) + (_A * _T + _B) / _T) / 2
    assert sympy.simplify(_ANTIDERIVATIVE.diff(_T) - integrand) == 0


def _layered_closed_form(eps: float) -> float:
    """E_radial of the layered datum, exact up to 40 digits."""
    e = sympy.Rational(eps)  # the binary value of the float, exactly
    c = (6 - e) / 5
    total = 0
    # (a, b, t0, t1) with rho^2 = a r^2 + b on r^2 in (t0, t1)
    for a, b, t0, t1 in ((e, 0, 0, 1), (1, e - 1, 1, 4), (c, e + 3 - 4 * c, 4, 9)):
        piece = _ANTIDERIVATIVE.subs({_A: a, _B: b})
        total += piece.subs(_T, t1) - piece.subs(_T, t0)
    return float((2 * sympy.pi * total).evalf(40))


@pytest.mark.parametrize("eps", [10.0**-j for j in range(1, 17)])
def test_energy_layered_matches_closed_form(eps):
    from pjac.constructions import layered_profile

    closed = _layered_closed_form(eps)
    energy = sobolev_energy_1d(layered_profile(eps), 1, 3.0)
    # rho^2 = eps + (r^2 - 1) near r = 1 is summed from r = 1, where the
    # mass is exactly eps, so nothing cancels however small eps is
    assert abs(energy - closed) / closed <= 1e-13


def _power_law_closed_form(alpha, p):
    # rho^2 = 2 c r^(alpha+2) / (alpha+2), so the p = 1 density is
    # K r^alpha with K = c (2/(alpha+2) + (alpha+2)/2), and the energy on B_1
    # is 2 pi K^p / (alpha p + 2)
    c = 2.0 / (2.0 + alpha)
    return 2 * math.pi * (c * (2 / (alpha + 2) + (alpha + 2) / 2)) ** p / (alpha * p + 2)


def _power_law_energy(alpha, p):
    stretch = GeneralisedStretching(profile_from_datum(power_law_datum(alpha), 1))
    return sobolev_energy_1d(stretch, p, 1.0)


@pytest.mark.parametrize("alpha, rtol", [(-0.5, 1e-13), (-0.9, 1e-13), (-1.5, 1e-13)])
def test_energy_power_law_matches_closed_form(alpha, rtol):
    # the mass is positive on (0, 1], so rho vanishes only at the origin,
    # which is no divergence for alpha > -2; the r^(alpha+1) density there is
    # resolved down to 2^-200 of the cut interval
    assert _power_law_energy(alpha, 1) == pytest.approx(
        _power_law_closed_form(alpha, 1), rel=rtol)


def test_energy_power_law_integrable_at_origin_for_p2():
    # alpha p = -1.8 > -2: the density ~ r^-0.8 is integrable
    assert _power_law_energy(-0.9, 2) == pytest.approx(
        _power_law_closed_form(-0.9, 2), rel=1e-12)


@pytest.mark.parametrize("alpha", [-1.5, -1.0])
def test_energy_power_law_diverges_at_origin_for_p2(alpha):
    # alpha p <= -2: the density ~ r^(2 alpha + 1) is not integrable at 0
    assert _power_law_energy(alpha, 2) == math.inf


def test_truncated_energy_matches_high_precision_quadrature():
    # oracle: 30-digit quadrature of (r f)^2 / rho^2 with rho^2 = -mass from
    # the exact rational masses of the datum's two polynomial pieces
    import mpmath
    from pjac.constructions import nonuniqueness_inner_profile

    prof = nonuniqueness_inner_profile()
    s, t = sympy.symbols("s t")
    integrands, start = [], sympy.Integer(0)
    for pc in prof.datum.pieces:
        u = t - sympy.Rational(pc.expr.center)
        f = sum(sympy.Rational(c) * u**j for j, c in enumerate(pc.expr.coeffs))
        mass = start + sympy.integrate(2 * t * f, (t, sympy.Rational(pc.r_min), s))
        start = mass.subs(s, sympy.Rational(pc.r_max))
        integrands.append(sympy.lambdify(s, (s * f.subs(t, s)) ** 2 / -mass, "mpmath"))
    assert start == 0  # the mass over B_2 vanishes exactly
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    values = truncated_derivative_energy(prof, 2.0, deltas)
    with mpmath.workdps(30):
        for delta, value in zip(deltas, values):
            exact = (mpmath.quad(integrands[0], [0, 1])
                     + mpmath.quad(integrands[1], [1, mpmath.mpf(2.0 - delta)]))
            assert abs(value - exact) <= 1e-13 * exact


def test_truncated_energy_follows_input_order():
    from pjac.constructions import nonuniqueness_inner_profile

    prof = nonuniqueness_inner_profile()
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    values = truncated_derivative_energy(prof, 2.0, deltas)
    assert np.all(np.diff(values) > 0)
    shuffle = np.array([2, 0, 3, 1])
    assert np.array_equal(truncated_derivative_energy(prof, 2.0, deltas[shuffle]),
                          values[shuffle])


def test_energy_dilation_scaling():
    d = truncated_gaussian_datum(1.0, 2.0)
    base = sobolev_energy_1d(GeneralisedStretching(profile_from_datum(d, 1)), 1, 2.0)
    for t in (0.5, 2.0):
        scaled = truncated_gaussian_datum(t, 2.0 * t)  # r -> f(r / t)
        e = sobolev_energy_1d(
            GeneralisedStretching(profile_from_datum(scaled, 1)), 1, 2.0 * t
        )
        assert np.isclose(e, t**2 * base, rtol=1e-7)


def test_energy_rejects_bad_exponent():
    stretch = GeneralisedStretching(profile_from_datum(uniform_datum(), 1))
    with pytest.raises(ValueError):
        sobolev_energy_1d(stretch, 0.5, 3.0)


# -- condition reports -------------------------------------------------------


def test_condition_uniform():
    rep = condition_report(uniform_datum(1.0, 3.0))
    assert rep.lambda_star == 1.0
    assert rep.average_condition_holds
    assert rep.orientation == "nonnegative"


def test_condition_power_law():
    for eps in (0.1, 1.0):
        rep = condition_report(power_law_datum(eps))
        assert np.isclose(rep.lambda_star, (2 + eps) / 2, rtol=1e-12)
        assert not rep.average_condition_holds
        assert np.isclose(rep.lambda_star, rep.lambda_star_radial, rtol=1e-9)


def test_condition_gaussian_holds():
    rep = condition_report(truncated_gaussian_datum(1.0, 2.5))
    assert rep.average_condition_holds
    assert rep.lambda_star <= 1.0


def test_condition_annulus_indicator_grid_max():
    # zero mass inside r=1: lambda* is infinite on the grid
    rep = condition_report(annulus_indicator_datum(1.0, 2.0))
    assert math.isinf(rep.lambda_star)


def test_condition_sign_changing_mixed():
    from pjac.constructions import nonuniqueness_datum

    datum, _ = nonuniqueness_datum()
    rep = condition_report(datum)
    assert rep.orientation == "mixed"
    assert math.isinf(rep.lambda_star)


# -- Zhukovsky function and the energy split ---------------------------------


def test_zhukovsky_values():
    assert zhukovsky(1.0) == 1.0
    assert zhukovsky(2.0) == 1.25
    with pytest.raises(NonPositiveLambda):
        zhukovsky(0.0)


@given(st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_zhukovsky_symmetry(lam):
    assert np.isclose(float(zhukovsky(lam)), float(zhukovsky(1.0 / lam)), rtol=1e-12)


def test_energy_split_examples():
    assert energy_split(1.0, 1.0) == 2.0
    # global minimum over the first slot at a = |b|
    b = 1.7
    a = np.linspace(0.2, 5.0, 400)
    vals = energy_split(a, b)
    assert np.all(vals >= energy_split(abs(b), b) - 1e-12)
    with pytest.raises(PreconditionViolated):
        energy_split(-1.0, 1.0)


def test_split_bound_examples():
    assert split_bound_check(2.0, 0.5, 1.0, 2.0)
    assert energy_split(0.5, 1.0) == 2.5
    assert float(zhukovsky(2.0) * energy_split(2.0, 1.0)) == 3.125
    # equality case at lambda = 1 with a1 = a2 = |b|
    assert split_bound_check(1.3, 1.3, 1.3, 1.0)
    assert np.isclose(energy_split(1.3, 1.3), energy_split(1.3, 1.3))


def test_split_bound_preconditions():
    with pytest.raises(PreconditionViolated):
        split_bound_check(1.0, 2.0, 0.5, 1.0)  # a2 > a1
    with pytest.raises(PreconditionViolated):
        split_bound_check(2.0, 1.0, 3.0, 1.5)  # |b| > lambda a2


@given(
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
)
@settings(max_examples=300, deadline=None)
def test_split_convexity_midpoints(a1, a2, b1, b2):
    mid = energy_split((a1 + a2) / 2, (b1 + b2) / 2)
    assert mid <= (energy_split(a1, b1) + energy_split(a2, b2)) / 2 + 1e-12 * (
        1 + abs(mid)
    )


# -- the corpus-wide regression bound ----------------------------------------


def test_gradient_norm_bounded_by_datum_norm():
    # for data satisfying the averaged-majorisation condition:
    # (energy)^(1/p) <= C * ||f||_{L^p}, one constant for the whole corpus
    corpus = [
        uniform_datum(1.0, 3.0),
        uniform_datum(2.0, 1.5),
        truncated_gaussian_datum(1.0, 2.5),
        truncated_gaussian_datum(0.6, 2.0),
        RadialDatum(pieces=(Piece(0.0, 2.0, PolyExpr(coeffs=(1.0, -0.3))),),
                    support_radius=2.0),
    ]
    C = 4.0
    for datum in corpus:
        assert condition_report(datum).average_condition_holds
        for p in (1.0, 2.0):
            energy = sobolev_energy_1d(
                GeneralisedStretching(profile_from_datum(datum, 1)), p,
                datum.support_radius,
            )
            fnorm = (
                2 * math.pi * quad(
                    lambda r: r * abs(float(datum.f(np.array([r]))[0])) ** p,
                    0.0, datum.support_radius, limit=200,
                )[0]
            ) ** (1.0 / p)
            assert energy ** (1.0 / p) <= C * fnorm
