"""The acceptance gate: every criterion below prints one pass/fail line."""

import random

from moutardnv.algebra import RationalFn
from moutardnv.faddeev import build_faddeev, residual, scattering_data
from moutardnv.harness import GridSpec, fd_residual
from moutardnv.moutard import build_frame, kernel_functions, potential
from moutardnv import nv

from conftest import gr
from oracles import Frac, decay_fit, diff_zbar, frac, same_fraction, sign_check
from test_faddeev import REF_POTENTIAL_DEN_ROOT, REF_POTENTIAL_NUM
from test_nv import RAW_Q, REF_U_NUM, REF_V_NUM
from test_properties import random_seed


def _report(n, name, ok):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name})"


def test_criterion_1_potential_identity(seed22):
    fw = build_faddeev(seed22)
    expected = RationalFn(REF_POTENTIAL_NUM,
                          REF_POTENTIAL_DEN_ROOT * REF_POTENTIAL_DEN_ROOT)
    _report(1, "closed-form potential identity", same_fraction(fw.u, expected))


def test_criterion_2_kernel_functions(seed22):
    from test_faddeev import test_reference_kernel_functions_scalar_match
    frame = build_frame(seed22)
    ok = True
    try:
        test_reference_kernel_functions_scalar_match(seed22)
    except AssertionError:
        ok = False
    # (-4 d dbar + u) phi_j = 0 exactly
    w = frame.w
    u_num = (w * diff_zbar(w.diff_z()) - w.diff_z() * diff_zbar(w)) * (-8)
    u = Frac(u_num, w, 2)
    for om in (frame.omega1, frame.omega2):
        f = Frac(om, w, 1)
        ok = ok and (f.diff_z().diff_zbar() * (-4) + u * f).num.is_zero()
    _report(2, "kernel functions exact up to recorded scalars", ok)


def test_criterion_3_wave_and_scattering(seed22):
    fw = build_faddeev(seed22)
    from test_faddeev import test_reference_wave_slots_exact
    ok = True
    try:
        test_reference_wave_slots_exact(seed22)
    except AssertionError:
        ok = False
    ok = ok and residual(fw).is_zero()
    sd = scattering_data(fw)
    ok = ok and sd.a_coeffs == {1: gr("-4")} and str(sd).endswith(" B=0")
    _report(3, "two-slot wave, residual, scattering", ok)


def test_criterion_4_cubic_scattering(seed22_cubic):
    fw = build_faddeev(seed22_cubic)
    sd = scattering_data(fw)
    ok = residual(fw).is_zero() and sd.a_coeffs == {1: gr("-6")} and str(sd).endswith(" B=0")
    _report(4, "cubic-seed pipeline scattering", ok)


def test_criterion_5_nv_example(seed32):
    wt = nv.extended_w(seed32)
    ok = wt == RAW_Q * gr("1/3", "1/3")
    sol = nv.nv_potentials(wt)
    q2 = RAW_Q * RAW_Q
    ok = ok and same_fraction(sol.u, RationalFn(REF_U_NUM, q2))
    ok = ok and same_fraction(sol.v, RationalFn(REF_V_NUM, q2))
    ok = ok and same_fraction(frac(sol.v).diff_zbar(), frac(sol.u).diff_z())
    ok = ok and nv.nv_residual(sol).is_zero()
    fw = nv.nv_faddeev(seed32)
    from test_nv import test_nv_faddeev_mu_reference
    try:
        test_nv_faddeev_mu_reference(seed32)
    except AssertionError:
        ok = False
    sd = scattering_data(fw)
    ok = ok and sd.a_coeffs == {1: gr("-4")} and str(sd).endswith(" B=0")
    _report(5, "time-dependent example: Wt, U, V, residuals, wave", ok)


def test_criterion_6_blowup(seed32):
    rep = nv.blowup_time(nv.extended_w(seed32))
    ok = rep.found and abs(rep.t_star - 29.0 / 12.0) < 1e-6
    if ok:
        x, y = rep.witness
        ok = min(abs(x + 1) + abs(y), abs(x) + abs(y + 1)) < 1e-4
    _report(6, "blow-up time and witness", ok)


def test_criterion_7_property_suites():
    ok = True
    rng = random.Random(20260824)
    for _ in range(50):
        seed = random_seed(rng, 3)
        fw = build_faddeev(seed)
        ok = ok and residual(fw).is_zero()
        frame = build_frame(seed)
        ok = ok and same_fraction(potential(frame.w), potential(-frame.w))
        if not ok:
            break
    rng = random.Random(31415)
    for _ in range(20):
        seed = random_seed(rng, 2)
        wt = nv.extended_w(seed)
        if wt.is_constant():
            continue
        ok = ok and nv.nv_residual(nv.nv_potentials(wt)).is_zero()
        if not ok:
            break
    _report(7, "randomized residual and commuting-square identities", ok)


def test_criterion_8_numeric_cross_checks(seed22, seed22_cubic, seed32):
    ok = True
    grid = GridSpec(-2, 2, -2, 2, 7)
    for seed, time in ((seed22, False), (seed22_cubic, False), (seed32, True)):
        fw = nv.nv_faddeev(seed) if time else build_faddeev(seed)
        for h in (1e-2, 5e-3):
            rep = fd_residual(fw.u, fw, 1.0, grid, h)
            ok = ok and rep.order >= 1.9
    fw22 = build_faddeev(seed22)
    frame = build_frame(seed22)
    _, _, phi1, phi2 = kernel_functions(frame.omega1, frame.omega2, frame.w)
    ok = ok and abs(decay_fit(fw22.u).exponent + 6) < 0.2
    ok = ok and abs(decay_fit(phi1).exponent + 2) < 0.2
    ok = ok and abs(decay_fit(phi2).exponent + 2) < 0.2
    sol = nv.nv_potentials(nv.extended_w(seed32))
    ok = ok and abs(decay_fit(sol.u, t0=0.0).exponent + 3) < 0.2
    rep = sign_check(fw22.u, GridSpec(-5, 5, -5, 5, 41))
    ok = ok and rep.verdict == "nonpositive" and rep.certificate
    _report(8, "finite differences, decay rates, sign certificate", ok)
