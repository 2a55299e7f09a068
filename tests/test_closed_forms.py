"""The closed forms of the free wave's transform and of the superposed wave,
checked exactly over seeds of degree 1-6, the benchmark's time candidates
and time seeds of degree 2-5, with the identities of the construction that
the library does not check at run time: harmonic omegas, the cancellation in
slot 0 of the superposition, a real-valued W, static or extended, and the
evolution of the seed."""

import random

import pytest

from moutardnv import nv
from moutardnv.algebra import GR_I, MPoly
from moutardnv.errors import AsymptoticMismatch
from moutardnv.exppoly import WaveFn
from moutardnv.faddeev import build_faddeev, faddeev_superpose, scattering_data
from moutardnv.moutard import (SeedPair, build_frame, double_w, harmonic_from_holomorphic,
                               moutard_transform_wave)

from conftest import gr
from oracles import diff_zbar, is_real_valued, subs_t, wave_diff_z, wave_diff_zbar
from test_bench_contract import bench_module
from test_properties import random_gr, random_holomorphic


def holomorphic(rng, degree, constant):
    p = random_holomorphic(rng, degree)
    return p + MPoly.const(random_gr(rng)) if constant else p


@pytest.mark.parametrize("time_phase", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_transform_solves_the_first_order_system(degree, time_phase):
    """omega*theta = i(2 int e^{lam z} omega_z dz - e^{lam z} omega) satisfies
    d(omega*theta)/dz = i(phi omega_z - omega phi_z) and
    d(omega*theta)/dzb = i(omega phi_zb - phi omega_zb) for the free wave phi,
    slot by slot; with the time phase omega is evolved in t.  Slot 0 is
    -i omega, so for the previous trial's transform slot 0 of
    omega1 (omega2 theta2) - omega2 (omega1 theta1) is zero: the cancellation
    that leaves slot 0 of the superposed wave to W."""
    rng = random.Random(100 * degree + time_phase)
    phi = WaveFn.free(time_phase)
    prev = None
    for trial in range(6):
        p = holomorphic(rng, degree, constant=trial % 2)
        if time_phase:
            p = nv.heat3_evolve(p)
        om = harmonic_from_holomorphic(p)
        prod = moutard_transform_wave(om, time_phase)
        assert prod.time_phase == time_phase
        assert prod.coeffs[0] == -om * GR_I, f"trial {trial}: {p}"
        rhs_z = (phi.scale(om.diff_z()) - wave_diff_z(phi).scale(om)).scale(GR_I)
        rhs_zb = (wave_diff_zbar(phi).scale(om) - phi.scale(diff_zbar(om))).scale(GR_I)
        assert wave_diff_z(prod) == rhs_z, f"trial {trial}: {p}"
        assert wave_diff_zbar(prod) == rhs_zb, f"trial {trial}: {p}"
        if prev is not None:
            assert 0 not in (prod.scale(prev[0]) - prev[1].scale(om)).coeffs, f"trial {trial}"
        prev = om, prod


def d_z(p, k):
    for _ in range(k):
        p = p.diff_z()
    return p


def check_closed_forms(fw, seed):
    """W, slot 0, is real-valued and is double_w (static) or extended_w
    (time) of the seed, slot k is
    2i(-1)^(k-1)(omega1 d^k p2 - omega2 d^k p1) for 1 <= k <= d and no other
    slot exists; A = -2d/lam wherever the exact extraction accepts W's
    leading form.  Returns whether A was checked."""
    p1, p2 = seed.p1, seed.p2
    om1, om2 = harmonic_from_holomorphic(p1), harmonic_from_holomorphic(p2)
    d = max(p1.deg_z(), p2.deg_z())
    assert is_real_valued(fw.w)
    assert fw.w == (nv.extended_w(seed) if fw.psi.time_phase else double_w(seed))
    assert set(fw.psi.coeffs) <= set(range(d + 1))
    for k in range(1, d + 1):
        n_k = (om1 * d_z(p2, k) - om2 * d_z(p1, k)) * GR_I * (2 * (-1) ** (k - 1))
        assert fw.psi.coeffs.get(k, MPoly.zero()) == n_k, f"slot {k}"
    try:
        sd = scattering_data(fw, validate=False)
    except AsymptoticMismatch:
        return False
    assert sd.a_coeffs == {1: gr(-2 * d)}
    return True


@pytest.mark.parametrize("degree", range(1, 7))
def test_static_wave_closed_forms(degree):
    rng = random.Random(200 + degree)
    checked = 0
    for trial in range(12):
        constant = trial % 2
        seed = SeedPair(holomorphic(rng, degree, constant), holomorphic(rng, degree, constant),
                        gr(rng.choice([-1000, -1, 1, 1000])))
        checked += check_closed_forms(build_faddeev(seed), seed)
    assert checked >= 10


def test_time_wave_closed_forms():
    wl = bench_module("workloads")
    seeds = {"sec32": wl.fixture("sec32")[0], **wl.time_candidates()}
    checked = 0
    for seed in seeds.values():
        checked += check_closed_forms(nv.nv_faddeev(seed), nv.evolved_seed(seed))
    assert checked >= 45


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_time_wave_closed_forms_by_degree(degree):
    """Time waves of degree 2-5, with and without constant terms, over the
    static W of the evolved seed plus its origin time term: N_k in the
    evolved p1, p2, and A = -2d/lam."""
    rng = random.Random(300 + degree)
    checked = 0
    for trial in range(6):
        constant = trial % 2
        seed = SeedPair(holomorphic(rng, degree, constant), holomorphic(rng, degree, constant),
                        gr(rng.choice([-1000, -1, 1, 1000])))
        checked += check_closed_forms(nv.nv_faddeev(seed), nv.evolved_seed(seed))
    assert checked >= 5


@pytest.mark.parametrize("time_phase", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_identities_of_the_construction(degree, time_phase):
    """What no run-time check re-asserts, on seeds of degree 1-6 with and
    without constant terms: each omega_j = p_j + conj(p_j) is harmonic; W,
    double_w or extended_w, is real-valued; on the time branch each evolved
    p_j is heat3_evolve(p_j), equals p_j at t = 0 and satisfies
    p_t = p_zzz; the superposed wave's W, its slot 0, is that W."""
    rng = random.Random(600 + 10 * degree + time_phase)
    for trial in range(4):
        constant = trial % 2
        seed = SeedPair(holomorphic(rng, degree, constant), holomorphic(rng, degree, constant),
                        gr(rng.choice([-1000, -1, 1, 1000])))
        if time_phase:
            es, w = nv.evolved_seed(seed), nv.extended_w(seed)
            for p, q in ((seed.p1, es.p1), (seed.p2, es.p2)):
                assert q == nv.heat3_evolve(p) and subs_t(q, 0) == p, f"trial {trial}"
                assert q.diff_t() == d_z(q, 3), f"trial {trial}: {p}"
        else:
            es, w = seed, double_w(seed)
        assert is_real_valued(w), f"trial {trial}: {seed}"
        frame = build_frame(es, w)
        for om in (frame.omega1, frame.omega2):
            assert diff_zbar(om.diff_z()).is_zero(), f"trial {trial}: {seed}"
        fw = faddeev_superpose(frame, time_phase)
        assert fw.w == w, f"trial {trial}: {seed}"
