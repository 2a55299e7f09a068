import random
from fractions import Fraction

import pytest
import sympy as sp

from moutardnv.algebra import GR_I, MPoly, RationalFn, laplace_log
from moutardnv.errors import (CompatibilityError, NotHarmonic, NotHolomorphic,
                              ZeroPolynomial)
from moutardnv.exppoly import WaveFn, wave_diff_z, wave_diff_zbar
from moutardnv.moutard import (SeedPair, build_frame, double_w,
                               harmonic_from_holomorphic, kernel_functions,
                               moutard_transform_wave, nonvanishing_certificate,
                               potential)

from conftest import Z, ZB, gr, poly, to_sympy
from test_properties import random_holomorphic


def test_harmonic_from_holomorphic():
    p = poly({(2, 0, 0): ("1", "-1/4"), (1, 0, 0): ("1/2", "0")})
    om = harmonic_from_holomorphic(p)
    assert om.is_real_valued()
    assert om.diff_z().diff_zbar().is_zero()
    with pytest.raises(NotHolomorphic):
        harmonic_from_holomorphic(MPoly.var_zbar())


def test_seed_pair_validation():
    z = MPoly.var_z()
    with pytest.raises(NotHolomorphic):
        SeedPair(MPoly.var_zbar(), z, gr(1))
    with pytest.raises(ValueError):
        SeedPair(z, z * z, gr(1, 1))


def test_double_w_real_and_degenerate(seed22):
    w = double_w(seed22)
    assert w.is_real_valued()
    p = seed22.p1
    assert double_w(SeedPair(p, p, gr("-7"))) == MPoly.const(gr("-7"))


def test_double_w_rejects_time_dependence():
    p = MPoly.var_z() * MPoly.var_t()
    with pytest.raises(NotHolomorphic):
        double_w(SeedPair(p, MPoly.var_z(), gr(0)))


def test_potential_is_neg_two_laplacian_log(seed22):
    w = double_w(seed22)
    u = potential(w)
    ws = to_sympy(w)
    num, den = sp.fraction(sp.cancel(sp.together(-2 * 4 * (ws * sp.diff(ws, Z, ZB)
                                                           - sp.diff(ws, Z) * sp.diff(ws, ZB)) / ws ** 2)))
    assert sp.expand(to_sympy(u.num) * den - to_sympy(u.den) * num) == 0
    with pytest.raises(ZeroPolynomial):
        potential(MPoly.zero())


def test_kernel_functions_reciprocal(seed22):
    frame = build_frame(seed22)
    # theta_j * phi_j = 1, cleared of denominators
    for theta, phi in ((frame.theta1, frame.phi1), (frame.theta2, frame.phi2)):
        assert theta.num * phi.num == theta.den * phi.den
    # product omega_j * theta_j reproduces +-W
    assert frame.theta1 * frame.omega1 == frame.w
    assert frame.theta2 * frame.omega2 == -frame.w


def test_kernel_functions_are_zero_modes(seed22):
    # (d dbar + u/(-4)*(-1)) check via the clearing identity:
    # -4 d dbar phi + u phi = 0 with phi = omega/W
    frame = build_frame(seed22)
    w = frame.w
    u_num = (w * w.diff_z().diff_zbar() - w.diff_z() * w.diff_zbar()) * (-8)
    u = RationalFn(u_num, w, 2)
    for om in (frame.omega1, frame.omega2):
        f = RationalFn(om, w, 1)
        res = f.diff_z().diff_zbar() * (-4) + u * f
        assert res.num.is_zero()


def test_transform_free_wave_product_form(seed22):
    om = harmonic_from_holomorphic(seed22.p1)
    theta = moutard_transform_wave(om, WaveFn.free())
    assert theta.den == om
    # slot 0 of omega*theta is exactly -i*omega
    assert theta.coeffs[0] == om * (-GR_I)
    # the defining first-order system holds slotwise
    prod = WaveFn(theta.coeffs)
    phi = WaveFn.free()
    rhs_z = (phi.scale(om.diff_z()) - wave_diff_z(phi).scale(om)).scale(GR_I)
    rhs_zb = (wave_diff_zbar(phi).scale(om) - phi.scale(om.diff_zbar())).scale(GR_I)
    assert wave_diff_z(prod) == rhs_z
    assert wave_diff_zbar(prod) == rhs_zb


def test_transform_requires_harmonic_omega():
    om = MPoly.var_z() * MPoly.var_zbar()       # not harmonic
    with pytest.raises(NotHarmonic):
        moutard_transform_wave(om, WaveFn.free())


def test_transform_polynomial_eigenfunction():
    # omega = z + zb is harmonic; phi = i(z - zb) is a harmonic eigenfunction
    om = MPoly.var_z() + MPoly.var_zbar()
    phi = (MPoly.var_z() - MPoly.var_zbar()) * GR_I
    theta = moutard_transform_wave(om, phi)
    assert isinstance(theta, RationalFn)
    # verify the system: d(om*theta)/dz = i(phi om_z - om phi_z)
    prod = theta * om
    lhs = prod.diff_z()
    rhs = (phi * om.diff_z() - om * phi.diff_z()) * GR_I
    assert lhs == rhs


def test_transform_rejects_non_eigenfunction():
    om = MPoly.var_z() + MPoly.var_zbar()
    phi = MPoly.var_z() * MPoly.var_zbar()      # not harmonic
    with pytest.raises(CompatibilityError):
        moutard_transform_wave(om, phi)


def test_commuting_square_same_potential(seed22):
    # both iteration orders produce the same final potential:
    # omega1*theta1 = W and omega2*theta2 = -W give equal -2 Lap log
    frame = build_frame(seed22)
    assert laplace_log(frame.w) == laplace_log(-frame.w)


def test_nonvanishing_certificate_positive(seed22):
    w = double_w(seed22)
    rep = nonvanishing_certificate(w)
    assert rep.verdict == "certified-positive"
    assert rep.sign == -1
    assert rep.leading_form_definite


def test_nonvanishing_certificate_zero_found():
    z, zb = MPoly.var_z(), MPoly.var_zbar()
    circle = z * zb - MPoly.const(1)
    # a sign change, and a double zero where W touches 0 without changing sign
    for w in (circle, circle * circle):
        rep = nonvanishing_certificate(w)
        assert rep.verdict == "zero-found"
        x, y = rep.witness
        assert abs(x * x + y * y - 1.0) < 0.2
    # (x^2 - 1)^2 + 2^-47 (|z|^2 + 1)^2 is positive, but below 64 eps times the
    # rounding scale on x = +-1, where the scale sums several terms per degree
    x = (z + zb) * Fraction(1, 2)
    w = (x * x - MPoly.const(1)) ** 2 + (z * zb + MPoly.const(1)) ** 2 * Fraction(1, 2 ** 47)
    rep = nonvanishing_certificate(w)
    assert rep.verdict == "zero-found" and rep.witness == (-1.0, 0.0)


def test_nonvanishing_certificate_wide_range_degree5():
    # one-signed on the box with min|W| ~ 1e3 but max|W| ~ 1e13: no zero
    rng = random.Random(0)
    p1, p2 = random_holomorphic(rng, 5), random_holomorphic(rng, 5)
    rep = nonvanishing_certificate(double_w(SeedPair(p1, p2, gr(-1000))))
    assert rep.verdict == "certified-positive"
    assert rep.grid_min_abs > 100


def test_nonvanishing_certificate_constant():
    assert nonvanishing_certificate(MPoly.const(5)).verdict == "certified-positive"
    assert nonvanishing_certificate(MPoly.zero()).verdict == "zero-found"
