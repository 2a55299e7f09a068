import cmath
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from moutardnv.algebra import GR_I, GaussianRational, MPoly, RationalFn
from moutardnv.errors import (NotEvolved, NotHolomorphic, PoleError,
                              SingularBeforeBlowup, TemporalResidualNonzero)
from moutardnv.faddeev import build_faddeev, residual, scattering_data
from moutardnv.moutard import SeedPair, double_w
from moutardnv import nv

from conftest import T, Z, ZB, from_sympy, gr, poly


RAW_Q = poly({
    (0, 0, 1): ("12", "-12"),
    (3, 0, 0): ("-1", "0"),
    (2, 2, 0): ("-3", "3"),
    (2, 1, 0): ("0", "3"),
    (1, 2, 0): ("-3", "0"),
    (0, 3, 0): ("0", "1"),
    (0, 0, 0): ("-30", "30"),
})

REF_U_NUM = from_sympy(6 * sp.I * (
    24 * T * (sp.I * ZB - sp.I * Z + Z + ZB) + 2 * sp.I * Z ** 4 * ZB
    + 4 * sp.I * Z ** 3 * ZB - 2 * sp.I * Z * ZB ** 4 - 4 * sp.I * Z * ZB ** 3
    + 60 * sp.I * Z - 60 * sp.I * ZB + 96 * T * Z * ZB + 2 * Z ** 4 * ZB + Z ** 4
    + 6 * Z ** 2 * ZB ** 2 + 2 * Z * ZB ** 4 - 240 * Z * ZB - 60 * Z + ZB ** 4
    - 60 * ZB))

REF_V_NUM = from_sympy(6 * sp.I * (
    24 * T * (sp.I * Z - sp.I * ZB + Z + ZB) + sp.I * Z ** 4
    + 4 * sp.I * Z ** 3 * ZB ** 2 - 12 * sp.I * Z ** 2 * ZB ** 3
    - 6 * sp.I * Z ** 2 * ZB ** 2 + 6 * sp.I * Z * ZB ** 4 - 60 * sp.I * Z
    + 2 * sp.I * ZB ** 5 + 5 * sp.I * ZB ** 4 + 60 * sp.I * ZB + 48 * T * ZB ** 2
    + 4 * Z ** 3 * ZB ** 2 + 4 * Z ** 3 * ZB + 12 * Z ** 2 * ZB ** 4
    + 12 * Z ** 2 * ZB ** 3 + 6 * Z * ZB ** 4 + 4 * Z * ZB ** 3 - 60 * Z
    - 2 * ZB ** 5 - 120 * ZB ** 2 - 60 * ZB))


def test_heat3_evolve_basics():
    z = MPoly.var_z()
    assert nv.heat3_evolve(z * z) == z * z
    assert nv.heat3_evolve(z ** 3) == z ** 3 + MPoly.var_t() * gr(6)
    assert nv.heat3_evolve(z ** 4) == z ** 4 + MPoly.var_t() * z * gr(24)
    with pytest.raises(NotHolomorphic):
        nv.heat3_evolve(MPoly.var_zbar())


def test_heat3_evolve_satisfies_flow_and_semigroup():
    z = MPoly.var_z()
    p = z ** 6 + z ** 4 * gr("1/3", "2") + z * gr(0, 1)
    q = nv.heat3_evolve(p)
    assert q.diff_t() == q.diff_z().diff_z().diff_z()
    nv.assert_evolved(q)
    # semigroup: shifting t by s equals evolving the t = s slice
    s = gr("2/7")
    shifted = _subs_t_shift(q, s)
    assert shifted == _evolve_from_slice(q, s)
    # commutes with d/dz
    assert nv.heat3_evolve(p.diff_z()) == q.diff_z()


def _subs_t_shift(q, s):
    # q(z, t + s) expanded exactly
    out = MPoly.zero()
    t, one = MPoly.var_t(), MPoly.const(1)
    for (i, j, k), c in q.terms.items():
        out = out + MPoly.monomial(i, j, 0, c) * ((t + one * s) ** k)
    return out


def _evolve_from_slice(q, s):
    return nv.heat3_evolve(q.subs_t(s))


def test_assert_evolved_rejects_static_cubic():
    with pytest.raises(NotEvolved):
        nv.assert_evolved(MPoly.var_z() ** 3 + MPoly.var_t())


def test_extended_w_reference(seed32):
    wt = nv.extended_w(seed32)
    assert wt == RAW_Q * gr("1/3", "1/3")
    assert wt.is_real_valued()


def test_extended_w_t0_slice_is_static(seed32):
    wt = nv.extended_w(seed32)
    assert wt.subs_t(0) == double_w(seed32)


def test_extended_w_degenerate():
    p = MPoly.var_z() ** 2
    assert nv.extended_w(SeedPair(p, p, gr(5))) == MPoly.const(5)


def test_nv_potentials_reference(seed32):
    wt = nv.extended_w(seed32)
    sol = nv.nv_potentials(wt)
    q2 = RAW_Q * RAW_Q
    assert sol.u == RationalFn(REF_U_NUM, q2)
    assert sol.v == RationalFn(REF_V_NUM, q2)
    assert sol.u.is_real_valued()
    # vanishes at the origin for every t
    for k in range(REF_U_NUM.deg_t() + 1):
        assert sol.u.num.coeff(0, 0, k).is_zero()


def test_nv_constraint_exact(seed32):
    sol = nv.nv_potentials(nv.extended_w(seed32))
    assert sol.v.diff_zbar() == sol.u.diff_z()


def test_nv_residual_zero_for_construction(seed32):
    sol = nv.nv_potentials(nv.extended_w(seed32))
    assert nv.nv_residual(sol).is_zero()


def test_nv_residual_zero_for_trivial():
    sol = nv.nv_potentials(MPoly.const(1))
    assert sol.u.is_zero() and sol.v.is_zero()
    assert nv.nv_residual(sol).is_zero()


def test_nv_residual_nonzero_for_frozen_potential():
    # a static denominator outside the constructed class fails the evolution;
    # note 1 + z zb itself is stationary (it arises from degree-one data), so a
    # quartic is used here
    zzb = MPoly.var_z() * MPoly.var_zbar()
    wt = MPoly.const(1) + zzb + zzb * zzb
    sol = nv.nv_potentials(wt)
    r = nv.nv_residual(sol)
    assert not r.is_zero()
    assert abs(r.eval(0.5 + 0.2j, 0.0)) > 1e-12


def test_nv_faddeev_mu_reference(seed32):
    fw = nv.nv_faddeev(seed32)
    mus = nv.kernel_mu(fw)
    mu1_ref = RationalFn(from_sympy(6 * (-2 * sp.I * Z * ZB ** 2 - 2 * sp.I * Z * ZB
                                         + Z ** 2 + 2 * Z * ZB ** 2 + ZB ** 2)), RAW_Q)
    mu2_ref = RationalFn(from_sympy(12 * (sp.I * ZB ** 2 + sp.I * ZB - Z - ZB ** 2)), RAW_Q)
    assert mus[1] == mu1_ref
    assert mus[2] == mu2_ref


def test_nv_faddeev_scattering_stationary(seed32):
    fw = nv.nv_faddeev(seed32)
    sd = scattering_data(fw)
    assert sd.a_coeffs == {1: gr("-4")}      # exact, with no t anywhere in it
    assert sd.b_is_zero


def test_nv_faddeev_residuals(seed32):
    fw = nv.nv_faddeev(seed32)
    assert residual(fw).is_zero()
    assert nv.temporal_residual(fw).is_zero()


def test_nv_faddeev_t0_slice_matches_static(seed32):
    fw_t = nv.nv_faddeev(seed32)
    fw_s = build_faddeev(seed32)
    assert fw_t.w.subs_t(0) == fw_s.w
    assert set(fw_t.psi.coeffs) == set(fw_s.psi.coeffs)
    for k, f in fw_s.psi.coeffs.items():
        assert fw_t.psi.coeffs[k].subs_t(0) == f


def test_temporal_residual_detects_frozen_wave(seed32):
    from moutardnv.exppoly import WaveFn
    from moutardnv.faddeev import FaddeevWave
    fw = nv.nv_faddeev(seed32)
    frozen = WaveFn({k: f.subs_t(0) for k, f in fw.psi.coeffs.items()},
                    time_phase=True, den=fw.w.subs_t(0))
    broken = FaddeevWave(frozen, fw.u, fw.w.subs_t(0))
    assert not nv.temporal_residual(broken).is_zero()


def test_blowup_reference(seed32):
    wt = nv.extended_w(seed32)
    rep = nv.blowup_time(wt)
    assert rep.found
    assert abs(rep.t_star - 29.0 / 12.0) < 1e-6
    x, y = rep.witness
    near = min(abs(x + 1) + abs(y), abs(x) + abs(y + 1))
    assert near < 1e-4
    assert rep.spread is not None and rep.spread < 1e-6


def test_blowup_trivial_cases():
    t, one = MPoly.var_t(), MPoly.const(1)
    rep = nv.blowup_time(t - one)
    assert rep.found and abs(rep.t_star - 1.0) < 1e-9
    zzb = MPoly.var_z() * MPoly.var_zbar()
    rep2 = nv.blowup_time(t + one + zzb, t_max=5.0)
    assert not rep2.found
    rep3 = nv.blowup_time(zzb - one + t)
    assert rep3.found and rep3.t_star == 0.0


def test_blowup_where_the_enumeration_misses_the_minimum():
    # W = -20 + 2t + S(x, y) with max S = 8 at (2, -2): t_star = 6 exactly
    # (checked by sympy). The float enumeration misses that stationary point
    # and reports 9.95 from another; grid and descent must give 6 on their own.
    z = MPoly.var_z()
    seed = SeedPair(z * z * gr("1/4"), z * gr(2, 1) + z * z * gr(1, "-3/4"), gr(-20))
    rep = nv.blowup_time(nv.extended_w(seed))
    assert rep.found and abs(rep.t_star - 6.0) < 1e-9
    assert abs(rep.witness[0] - 2.0) < 1e-6 and abs(rep.witness[1] + 2.0) < 1e-6


def test_blowup_affine_reference_is_closed(seed32):
    # W = W0 - 12 t with min W0 = 29: t_star = 29/12 with no bisection tolerance
    rep = nv.blowup_time(nv.extended_w(seed32))
    assert abs(rep.t_star - 29.0 / 12.0) < 1e-12 and rep.spread < 1e-12


def _paraboloid(z0, c, slope):
    """|z - z0|^2 + c + slope * t."""
    z, zb, t = MPoly.var_z(), MPoly.var_zbar(), MPoly.var_t()
    return ((z - MPoly.const(z0)) * (zb - MPoly.const(z0.conjugate()))
            + MPoly.const(c) + t * slope)


@pytest.mark.parametrize("slope", [-1, 0])
def test_blowup_zero_between_grid_nodes_at_t0(slope):
    # the t = 0 grid stays positive, but W0 dips to -1/10000 at z0 between its
    # nodes: the zero is already there at t = 0, whatever the t term
    z0 = gr("1/3", "2/7")
    rep = nv.blowup_time(_paraboloid(z0, gr("-1/10000"), slope))
    assert rep.found and rep.t_star == 0.0
    assert rep.detail == "zero already present at t = 0"
    assert abs(complex(*rep.witness) - complex(z0)) < 1e-6


@pytest.mark.parametrize("c,slope,t_max", [(20, -1, 10.0),    # t_star = 20 > t_max
                                           (1, 1, 10.0),      # s kappa > 0
                                           (1, 0, 10.0),      # no t term
                                           (1, -1, 0.5)])     # t_star = 1 > t_max
def test_blowup_affine_without_a_zero_up_to_t_max(c, slope, t_max):
    rep = nv.blowup_time(_paraboloid(gr("1/3", "2/7"), gr(c), slope), t_max=t_max)
    assert not rep.found and rep.t_star is None and rep.witness is None
    assert rep.detail == f"no zero for t in (0, {t_max}]"


BOX, GRID_N = (-5.0, 5.0, -5.0, 5.0), 161
_small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_coeff = st.builds(GaussianRational, _small, _small)


@st.composite
def degree2_time_w(draw):
    """W of a degree-2 time seed, with constant terms in p1, p2 or without,
    whose c sets the minimum of s W0 on the blow-up grid to a drawn margin
    (s the sign of the |z|^4 term), so that every branch of the search shows."""
    const = draw(st.booleans())

    def holomorphic():
        return sum((MPoly.monomial(n, 0, 0, draw(_coeff)) for n in range(0 if const else 1, 3)),
                   MPoly.zero())

    p1, p2 = holomorphic(), holomorphic()
    w = nv.extended_w(SeedPair(p1, p2, gr(0)))
    s = -1 if w.coeff(2, 2).re < 0 else 1
    xs = np.linspace(BOX[0], BOX[1], GRID_N)
    w0 = w.subs_t(0).eval(xs[None, :] + 1j * xs[:, None]).real
    c = s * (draw(st.sampled_from([-1, 1, 3, 10, 40])) - math.floor((s * w0).min()))
    return nv.extended_w(SeedPair(p1, p2, gr(c)))


@settings(max_examples=40, deadline=None)
@given(degree2_time_w())
def test_blowup_closed_form_agrees_with_the_scan(w):
    # the enumeration may lower t_star, so it is left out of both sides
    q = nv.normalize_real(w)
    kappa = nv._constant_slope(q)
    assert kappa is not None
    with mock.patch.object(nv, "_enumerate_affine", lambda q, t_max: None):
        rep = nv.blowup_time(w)
    X, Y, grids = nv._sample(q, BOX, GRID_N)
    f0 = grids[0]
    if f0.min() <= 0.0 <= f0.max():
        assert rep.found and rep.t_star == 0.0 and rep.method == "grid"
        return
    sign = 1.0 if f0.min() > 0 else -1.0
    hit = nv._scan(nv._slice_minimizer(q, X, Y, grids, sign), 10.0, 1e-10)
    if hit is None:
        # the scan's first slice is at t_max / 200: a zero of W0 between grid
        # nodes or past the box that the t term removes before then is missed
        assert not rep.found or (rep.t_star == 0.0 and sign * kappa > 0.0)
    else:
        assert rep.found and abs(rep.t_star - hit[0]) <= 1e-10


def _xy_poly(fn):
    """fn(x, y) for the real coordinates x = (z + zb)/2, y = (z - zb)/(2i)."""
    z, zb = MPoly.var_z(), MPoly.var_zbar()
    return fn((z + zb) * gr("1/2"), (z - zb) * gr(0, "-1/2"))


def test_blowup_shifted_paraboloid_is_exact():
    # |z - z0|^2 + 1 - t, z0 off the grid: first zero at t = 1, z = z0. The
    # first stationarity equation, -2(x - x0) = 0, has no y term, so the
    # enumeration must take y from the second.
    z0 = gr("1/3", "2/7")
    z, zb, t, one = MPoly.var_z(), MPoly.var_zbar(), MPoly.var_t(), MPoly.const(1)
    q = (z - MPoly.const(z0)) * (zb - MPoly.const(z0.conjugate())) + one - t
    rep = nv.blowup_time(q)
    assert rep.found and abs(rep.t_star - 1.0) < 1e-9
    assert rep.method == "grid+descent+enumeration" and rep.spread < 1e-9
    assert abs(rep.witness[0] - 1 / 3) < 1e-9 and abs(rep.witness[1] - 2 / 7) < 1e-9


def test_blowup_quadratic_in_t_uses_descent_alone():
    # deg_t = 2: no enumeration, the grid scan and the descent give t_star and z0
    z0 = gr("-5/7", "3/11")
    z, zb, t, one = MPoly.var_z(), MPoly.var_zbar(), MPoly.var_t(), MPoly.const(1)
    q = (z - MPoly.const(z0)) * (zb - MPoly.const(z0.conjugate())) + one - t * t
    rep = nv.blowup_time(q)
    assert rep.found and rep.method == "grid+descent" and rep.spread is None
    assert abs(rep.t_star - 1.0) < 1e-9
    assert abs(rep.witness[0] + 5 / 7) < 1e-9 and abs(rep.witness[1] - 3 / 11) < 1e-9


def test_blowup_descent_from_an_indefinite_hessian():
    # (x^2 - 1)^2 + y^2 + 1 - t: on a 3x3 grid the start is (-0.4, 0), where
    # q_xx = 12x^2 - 4 < 0; the descent must still reach a minimum (+-1, 0).
    # Each step must lower a value rounded to ~1e-16, so x is good to ~1e-8.
    q = _xy_poly(lambda x, y: (x * x - MPoly.const(1)) ** 2 + y * y
                 + MPoly.const(1) - MPoly.var_t())
    box = (-0.4, 5.0, -1.0, 1.0)
    _, _, ((hxx, hxy), (_, hyy)) = nv._slice_objective(nv._local_coeffs(q), 0.5, 1.0)((-0.4, 0))
    assert hxx * hyy - hxy * hxy < 0
    rep = nv.blowup_time(q, box=box, grid_n=3)
    assert rep.found and abs(rep.t_star - 1.0) < 1e-9
    x, y = rep.witness
    assert abs(abs(x) - 1.0) < 1e-7 and abs(y) < 1e-7


def test_minimize_from_an_indefinite_start():
    # gradient steps until the Hessian turns positive definite, then Newton's
    # quadratic convergence: a few calls reach (1, 0) to 1e-12
    calls = []

    def fun(p):
        x, y = p
        calls.append((x * x - 1) ** 2 + y * y)
        return (calls[-1], (4 * x * (x * x - 1), 2 * y),
                ((12 * x * x - 4, 0.0), (0.0, 2.0)))

    r = nv.minimize(fun, (0.3, 0.5))
    assert r.nfev == len(calls) and r.fun == min(calls)
    assert abs(r.x[0] - 1.0) < 1e-12 and abs(r.x[1]) < 1e-12 and r.fun < 1e-24
    assert r.nfev <= 20


def test_minimize_backtracks_an_overshooting_newton_step():
    # sqrt(1 + x^2) is convex, but from |x| > 1 a full Newton step overshoots
    def fun(p):
        x, y = p
        calls.append(p)
        rx, ry = math.sqrt(1 + x * x), math.sqrt(1 + y * y)
        return rx + ry, (x / rx, y / ry), ((1 / rx ** 3, 0.0), (0.0, 1 / ry ** 3))

    calls = []
    r = nv.minimize(fun, (2.0, -3.0))
    assert r.nfev == len(calls)
    assert abs(r.x[0]) < 1e-9 and abs(r.x[1]) < 1e-9 and abs(r.fun - 2.0) < 1e-15


def test_slice_objective_matches_exact_xy_derivatives(seed32):
    q = nv.normalize_real(nv.extended_w(seed32))
    dx, dy = nv._dx, nv._dy
    exact = (q, dx(q), dy(q), dx(dx(q)), dx(dy(q)), dy(dy(q)))
    for t, sign in ((0.7, 1.0), (2.1, -1.0)):
        fun = nv._slice_objective(nv._local_coeffs(q), t, sign)
        for x, y in ((0.3, -1.2), (-2.0, 0.9)):
            f, (gx, gy), ((hxx, hxy), (hyx, hyy)) = fun((x, y))
            ref = [sign * p.eval(complex(x, y), t).real for p in exact]
            got = [f, gx, gy, hxx, hxy, hyy]
            assert hxy == hyx
            assert all(abs(a - b) < 1e-9 * (1 + abs(b)) for a, b in zip(got, ref))


def test_real_common_roots_newton_polish():
    # C1 = x^2 + y - (1/9 - 2/5), C2 = x + y^2 - (1/3 + 4/25): a simple root (1/3, -2/5)
    c1 = np.zeros((3, 3))
    c1[0, 0], c1[2, 0], c1[0, 1] = -(1 / 9 - 2 / 5), 1.0, 1.0
    c2 = np.zeros((3, 3))
    c2[0, 0], c2[1, 0], c2[0, 2] = -(1 / 3 + 4 / 25), 1.0, 1.0
    roots = nv._real_common_roots(c1, c2)
    assert min(abs(x - 1 / 3) + abs(y + 2 / 5) for x, y in roots) < 1e-12
    x, y = nv._polish_root(c1, c2, 1 / 3 + 2e-2, -2 / 5 - 3e-2)
    assert abs(x - 1 / 3) < 1e-12 and abs(y + 2 / 5) < 1e-12


def test_normalize_real(seed32):
    q = nv.normalize_real(RAW_Q)
    assert q.is_real_valued()
    assert set(q.terms) == set(RAW_Q.terms)
    with pytest.raises(ValueError):
        nv.normalize_real(MPoly.var_z() + MPoly.const(1))


def test_mu2_integrability_report(seed32):
    fw = nv.nv_faddeev(seed32)
    sol = nv.nv_potentials(fw.w)
    rep = nv.mu2_integrability(sol, fw, [0.0, 2.0], r_outer=40.0, t_star=29 / 12)
    assert rep.harmonic_real and rep.harmonic_imag
    assert rep.decay_exponent == -2
    assert len(rep.entries) == 2
    for e in rep.entries:
        assert e.l2_full > 0
        # the tail adds little: the integrand decays like 1/|z|^4
        assert e.increment < 0.05 * e.l2_full
    # norms grow toward the critical time
    assert rep.entries[1].l2_full > rep.entries[0].l2_full


def test_mu2_norm_matches_direct_integral(seed32):
    # midpoint rule in polar coordinates over |z| < 20 on the exact fraction's eval
    fw = nv.nv_faddeev(seed32)
    sol = nv.nv_potentials(fw.w)
    rep = nv.mu2_integrability(sol, fw, [0.0], r_outer=40.0, t_star=29 / 12)
    mu2 = nv.kernel_mu(fw)[2]
    nr, nth, radius = 60, 24, 20.0
    dr, dth = radius / nr, 2 * math.pi / nth
    direct = 0.0
    for a in range(nr):
        r = (a + 0.5) * dr
        for b in range(nth):
            z0 = cmath.rect(r, (b + 0.5) * dth)
            direct += abs(mu2.eval(z0, 0.0)) ** 2 * r * dr * dth
    assert abs(rep.entries[0].l2_half - direct) < 1e-2 * direct


def test_mu2_integrability_singularities(seed32):
    fw = nv.nv_faddeev(seed32)
    sol = nv.nv_potentials(fw.w)
    with pytest.raises(SingularBeforeBlowup):
        nv.mu2_integrability(sol, fw, [3.0], t_star=10.0)
    with pytest.raises(PoleError):
        nv.mu2_integrability(sol, fw, [29 / 12], t_star=None)


def test_temporal_residual_message_is_a_summary(seed32, monkeypatch):
    big = (MPoly.var_z() + MPoly.var_zbar() * gr("123456789/987654321", "-1/7")) ** 9
    monkeypatch.setattr(nv, "temporal_residual", lambda fw: big)
    with pytest.raises(TemporalResidualNonzero) as err:
        nv.nv_faddeev(seed32)
    message = str(err.value)
    assert "residual 10 terms, total degree 9, leading term" in message
    assert len(message) < 200 < len(str(big))


def test_eigen_check_rejects_a_non_harmonic_numerator(seed32):
    fw = nv.nv_faddeev(seed32)
    sol = nv.nv_potentials(fw.w)
    n2 = fw.psi.coeffs[2]
    harmonic = n2 + n2.conj_swap()
    assert nv._eigen_check(harmonic, sol.u)
    assert not nv._eigen_check(harmonic + fw.w * MPoly.var_z(), sol.u)
    rep = nv.mu2_integrability(nv.NVSolution(sol.wt, sol.u * 2, sol.v), fw, [])
    assert not rep.harmonic_real and not rep.harmonic_imag


def test_an_evolved_seed_is_not_evolved_again(seed32):
    assert nv.evolved_seed(seed32) is seed32        # quadratics are their own evolution
    cubic = SeedPair(MPoly.var_z() ** 3, MPoly.var_z(), gr(-20))
    es = nv.evolved_seed(cubic)
    assert es.p1.deg_t() == 1 and nv.evolved_seed(es) is es
