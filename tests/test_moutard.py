import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from moutardnv.algebra import GR_I, GRID_STRIP, MPoly, grid_extremes, grid_product
from moutardnv.errors import CoefficientOverflow
from moutardnv.harness import load_seed, seed_from_json
from moutardnv.moutard import (CERTIFICATE_GRID_N, NonvanishingReport, SeedPair, build_frame,
                               double_w, harmonic_from_holomorphic, kernel_functions,
                               moutard_transform_wave, nonvanishing_certificate, potential)
from moutardnv import nv

from conftest import Z, ZB, fixture_path, gr, poly, to_sympy
from oracles import (Frac, certificate_full_grid, diff_zbar, free_wave, grid_extremes_full_grid,
                     is_real_valued, same_fraction, wave_diff_z, wave_diff_zbar, wave_scale,
                     wave_sub)
from test_properties import degenerate_leading_form, random_holomorphic


def test_harmonic_from_holomorphic():
    p = poly({(2, 0, 0): ("1", "-1/4"), (1, 0, 0): ("1/2", "0")})
    om = harmonic_from_holomorphic(p)
    assert is_real_valued(om)
    assert diff_zbar(om.diff_z()).is_zero()


def test_seed_pair_validation():
    # the seed file is checked where it is read; SeedPair is plain data
    data = {"p1": [[1, {"re": "1"}]], "p2": [[2, {"re": "1"}]], "c": {"re": "1", "im": "1"}}
    with pytest.raises(ValueError, match="^integration constant must be real$"):
        seed_from_json(data)
    z = MPoly.monomial(1, 0, 0)
    assert seed_from_json({**data, "c": {"re": "1"}}) == (SeedPair(z, z * z, gr(1)), False)


def test_double_w_real_and_degenerate(seed22):
    w = double_w(seed22)
    assert is_real_valued(w)
    p = seed22.p1
    assert double_w(SeedPair(p, p, gr("-7"))) == MPoly.const(gr("-7"))


def test_potential_is_neg_two_laplacian_log(seed22):
    w = double_w(seed22)
    u = potential(w)
    ws = to_sympy(w)
    num, den = sp.fraction(sp.cancel(sp.together(-2 * 4 * (ws * sp.diff(ws, Z, ZB)
                                                           - sp.diff(ws, Z) * sp.diff(ws, ZB)) / ws ** 2)))
    assert sp.expand(to_sympy(u.num) * den - to_sympy(u.den) * num) == 0


def test_kernel_functions_reciprocal(seed22):
    frame = build_frame(seed22)
    theta1, theta2, phi1, phi2 = kernel_functions(frame.omega1, frame.omega2, frame.w)
    # theta_j * phi_j = 1, cleared of denominators
    for theta, phi in ((theta1, phi1), (theta2, phi2)):
        assert theta.num * phi.num == theta.den * phi.den
    # product omega_j * theta_j reproduces +-W
    assert same_fraction(theta1 * frame.omega1, frame.w)
    assert same_fraction(theta2 * frame.omega2, -frame.w)


def test_kernel_functions_are_zero_modes(seed22):
    # (d dbar + u/(-4)*(-1)) check via the clearing identity:
    # -4 d dbar phi + u phi = 0 with phi = omega/W
    frame = build_frame(seed22)
    w = frame.w
    u_num = (w * diff_zbar(w.diff_z()) + -w.diff_z() * diff_zbar(w)) * (-8)
    u = Frac(u_num, w, 2)
    for om in (frame.omega1, frame.omega2):
        f = Frac(om, w, 1)
        res = f.diff_z().diff_zbar() * (-4) + u * f
        assert res.num.is_zero()


def test_transform_free_wave_product_form(seed22):
    om = harmonic_from_holomorphic(seed22.p1)
    prod = moutard_transform_wave(om)
    # slot 0 of omega*theta is exactly -i*omega
    assert prod.coeffs[0] == -om * GR_I
    # the defining first-order system holds slotwise
    phi = free_wave()
    rhs_z = wave_scale(wave_sub(wave_scale(phi, om.diff_z()), wave_scale(wave_diff_z(phi), om)),
                       GR_I)
    rhs_zb = wave_scale(wave_sub(wave_scale(wave_diff_zbar(phi), om),
                                 wave_scale(phi, diff_zbar(om))), GR_I)
    assert wave_diff_z(prod) == rhs_z
    assert wave_diff_zbar(prod) == rhs_zb


def test_commuting_square_same_potential(seed22):
    # both iteration orders produce the same final potential:
    # omega1*theta1 = W and omega2*theta2 = -W give equal -2 Lap log
    frame = build_frame(seed22)
    assert same_fraction(potential(frame.w), potential(-frame.w))


def test_nonvanishing_certificate_positive(seed22):
    w = double_w(seed22)
    rep = nonvanishing_certificate(w)
    assert rep.verdict == "certified-positive"
    xs = np.linspace(-10.0, 10.0, 201)
    assert (w.eval(xs[None, :] + 1j * xs[:, None]).real < 0).all()


def test_nonvanishing_certificate_zero_found():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    circle = z * zb + MPoly.const(-1)
    # a sign change, and a double zero where W touches 0 without changing sign
    for w in (circle, circle * circle):
        rep = nonvanishing_certificate(w)
        assert rep.verdict == "zero-found"
        x, y = rep.witness
        assert abs(x * x + y * y - 1.0) < 0.2
    # (x^2 - 1)^2 + 2^-47 (|z|^2 + 1)^2 is positive, but below 64 eps times the
    # rounding scale on x = +-1, where the scale sums several terms per degree
    x = (z + zb) * Fraction(1, 2)
    w = (x * x + MPoly.const(-1)) ** 2 + (z * zb + MPoly.const(1)) ** 2 * Fraction(1, 2 ** 47)
    rep = nonvanishing_certificate(w)
    assert rep.verdict == "zero-found" and rep.witness == (-1.0, 0.0)


def near_zero_w():
    """|z - 1|^2 + 10^-14: positive, with its least node (1, 0), where W is
    about 1e-14 on a rounding scale of about 4."""
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    return (z + MPoly.const(-1)) * (zb + MPoly.const(-1)) + MPoly.const(gr(Fraction(1, 10 ** 14)))


def _certificate_tables(w):
    """The grid axis, the x-y coefficients of the static w and the power
    tables of the certificate's grid for them."""
    axis = np.linspace(-10.0, 10.0, CERTIFICATE_GRID_N)
    a = w.xy_coefficients()[0].real
    return axis, a, np.vander(axis, a.shape[0], increasing=True), \
        np.vander(axis, a.shape[1], increasing=True)


def _assert_least_node(w, iy, ix):
    """grid_extremes reads w on the certificate's grid, [y, x] as the
    certificate reads it and [x, y], as the whole-grid reference does, with
    its node of least |w| at (ix, iy)."""
    _, a, vx, vy = _certificate_tables(w)
    for c, v1, v2, node in ((a.T, vy, vx, (iy, ix)), (a, vx, vy, (ix, iy))):
        got = grid_extremes(c, v1, v2)
        assert got == grid_extremes_full_grid(c, v1, v2) and got[4] == node


def test_nonvanishing_certificate_finds_a_positive_near_zero():
    # no node is <= 0 on the certificate's grid and the leading form |z|^2 has
    # the grid's sign, so only the rounding scale finds the node (1, 0)
    w = near_zero_w()
    axis, a, vx, vy = _certificate_tables(w)
    values = grid_product(a, vx, vy)
    iy, ix = np.unravel_index(values.argmin(), values.shape)
    assert values.min() > 0.0 and (axis[ix], axis[iy]) == (1.0, 0.0)
    assert values.min() <= 64 * np.finfo(float).eps * 4.0
    rep = nonvanishing_certificate(w)
    assert rep == NonvanishingReport("zero-found", (1.0, 0.0)) == certificate_full_grid(w)


# a grid row on either side of the first strip boundary, and one in the
# last, partial strip (y = 9.7)
@pytest.mark.parametrize("row", [GRID_STRIP - 1, GRID_STRIP,
                                 CERTIFICATE_GRID_N - 4])
def test_nonvanishing_certificate_reads_every_strip(row):
    # W = |z - z0|^2 with z0 on a grid node: the only |W| within the rounding
    # scale is at z0, whichever strip of rows holds it
    axis = np.linspace(-10.0, 10.0, CERTIFICATE_GRID_N)
    x0, y0 = axis[110], axis[row]
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    w = (z + -MPoly.const(gr(x0, y0))) * (zb + -MPoly.const(gr(x0, -y0)))
    rep = nonvanishing_certificate(w)
    assert rep == NonvanishingReport("zero-found", (x0, y0)) == certificate_full_grid(w)
    _assert_least_node(w, row, 110)


def test_nonvanishing_certificate_witness_is_the_first_least_node():
    # x^2 + ((y + 6)(y + 5))^2 is exactly 0 at the nodes (0, -6) and (0, -5),
    # which lie in two strips of rows: the witness is the first in [y, x]
    # order; read [x, y], both lie in column 100
    assert 40 // GRID_STRIP != 50 // GRID_STRIP
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    x, y = (z + zb) * Fraction(1, 2), (z + -zb) * gr(0, Fraction(-1, 2))
    w = x * x + ((y + MPoly.const(6)) * (y + MPoly.const(5))) ** 2
    rep = nonvanishing_certificate(w)
    assert rep == NonvanishingReport("zero-found", (0.0, -6.0)) == certificate_full_grid(w)
    _assert_least_node(w, 40, 100)


def test_nonvanishing_certificate_overflow_is_input_error():
    # W = 1 at the origin, but its 2e304 |z|^4 term takes the grid past float
    # range: an inf there is no zero of W
    big = 10 ** 152
    z, z2 = MPoly.monomial(1, 0, 0), MPoly.monomial(2, 0, 0)
    w = double_w(SeedPair(z + z2 * big, z * gr(1, 1) + z2 * gr(0, big), gr(1)))
    with pytest.raises(CoefficientOverflow, match="float range"):
        nonvanishing_certificate(w)


def test_nonvanishing_certificate_wide_range_degree5():
    # one-signed on the box with min|W| ~ 1e3 but max|W| ~ 1e13: no zero
    rng = random.Random(0)
    p1, p2 = random_holomorphic(rng, 5), random_holomorphic(rng, 5)
    w = double_w(SeedPair(p1, p2, gr(-1000)))
    assert nonvanishing_certificate(w).verdict == "certified-positive"
    xs = np.linspace(-10.0, 10.0, 201)
    grid = xs[None, :] + 1j * xs[:, None]
    assert np.abs(w.eval(grid)).min() > 100


def test_nonvanishing_certificate_constant():
    for c in (5, -5, gr("1/1000")):
        assert nonvanishing_certificate(MPoly.const(c)).verdict == "certified-positive"


def decay_exponent(w):
    """e = deg(u.num) - 2 deg(W) for u = -2 Laplacian(log W): |u| <= C r^e far
    out when W's leading form is definite."""
    return potential(w).num.total_degree_space() - 2 * w.total_degree_space()


def test_potential_decay_exponent():
    """e is -3 on every benchmark static candidate whose W has a monomial
    leading form and -2 on the 13 whose leading form is degenerate
    (Im(a_d conj(b_d)) = 0); on the fixtures it is -6 (sec22), -8
    (sec22_cubic) and -3 (sec32), static and extended alike."""
    from test_bench_contract import bench_module    # it imports this module

    exponents = {}
    for name, (seed, _) in bench_module("workloads").static_candidates().items():
        w = double_w(seed)
        degenerate = degenerate_leading_form(seed)
        assert (len(w.spatial_leading_terms()) != 1) == degenerate, name
        exponents.setdefault(degenerate, []).append(decay_exponent(w))
    assert exponents[False] == [-3] * 235 and exponents[True] == [-2] * 13
    for name, e in (("sec22", -6), ("sec22_cubic", -8), ("sec32", -3),
                    ("sec22_cubic_time", -8)):
        seed, time = load_seed(fixture_path(f"{name}.json"))
        ws = [double_w(seed)] + ([nv.extended_w(seed)] if time else [])
        assert [decay_exponent(w) for w in ws] == [e] * len(ws), name


@pytest.mark.parametrize("name,c,form", [("sec22", 10 ** 6, "-17/8*z^2*zb^2"),
                                         ("sec22_cubic", 10 ** 12, "-4*z^3*zb^3")])
def test_a_leading_form_of_the_other_sign_is_a_zero(name, c, form):
    """W > 0 on the whole grid with a negative definite leading form changes
    sign on every ray, so it has a real zero: zero-found, naming the form,
    not a node.  The fixture's own c keeps both signs negative."""
    seed = load_seed(fixture_path(f"{name}.json"))[0]
    w = double_w(SeedPair(seed.p1, seed.p2, gr(c)))
    xs = np.linspace(-10.0, 10.0, 201)
    assert (w.eval(xs[None, :] + 1j * xs[:, None]).real > 0).all()
    rep = nonvanishing_certificate(w)
    assert rep.verdict == "zero-found" and rep.witness is None and str(rep.form) == form
    assert rep == certificate_full_grid(w)
    far = 10.0 ** 6
    assert w.eval(np.array([far]), 0.0).real[0] < 0 < w.eval(np.array([0.0]), 0.0).real[0]
    assert nonvanishing_certificate(double_w(seed)) == NonvanishingReport("certified-positive")


def test_a_degenerate_leading_form_is_inconclusive():
    """A leading form that is no single |z|^(2k) monomial decides nothing:
    -(x^2 - y^2)^2 / 16 + ... here, with W < 0 on the grid."""
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    w = -(z * z + zb * zb) ** 2 * Fraction(1, 16) + -z * zb + MPoly.const(-1)
    rep = nonvanishing_certificate(w)
    assert rep == NonvanishingReport("inconclusive")
