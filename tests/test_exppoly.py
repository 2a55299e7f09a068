import cmath
import random

import numpy as np
import pytest

from moutardnv import nv
from moutardnv.algebra import MPoly
from moutardnv.errors import ExponentOverflow
from moutardnv.exppoly import (D_TIME_LEG, D_ZZ, D_ZZBAR, WaveFn, hirota, wave_antideriv_z,
                               wave_eval)
from moutardnv.faddeev import build_faddeev
from moutardnv.moutard import SeedPair

from conftest import gr
from oracles import wave_diff_t, wave_diff_z, wave_diff_zbar, wave_eval_naive
from test_closed_forms import holomorphic


def test_free_wave_derivative():
    w = WaveFn.free()
    d = wave_diff_z(w)
    # d/dz e^{lam z} = lam e^{lam z}: one slot at k = -1
    assert set(d.coeffs) == {-1}
    assert d.coeffs[-1] == MPoly.const(1)
    assert wave_diff_zbar(w).is_zero()


def test_wave_antideriv_inverts_derivative():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    w = WaveFn({0: z * z * zb, 2: z * zb * zb, -1: MPoly.const(3)})
    assert wave_diff_z(wave_antideriv_z(w)) == w


def test_wave_antideriv_formula():
    # int e^{lam z} z dz = e^{lam z}(z/lam - 1/lam^2)
    z = MPoly.monomial(1, 0, 0)
    w = wave_antideriv_z(WaveFn({0: z}))
    assert w.coeffs[1] == z
    assert w.coeffs[2] == MPoly.const(-1)
    assert set(w.coeffs) == {1, 2}


def test_wave_antideriv_uniqueness_no_constant():
    # the antiderivative has no slot-content beyond what the formula produces,
    # so a pure e^{lam z} integrates to e^{lam z}/lam exactly
    w = wave_antideriv_z(WaveFn.free())
    assert set(w.coeffs) == {1}
    assert w.coeffs[1] == MPoly.const(1)


def test_time_phase_derivative():
    w = WaveFn.free(time_phase=True)
    d = wave_diff_t(w)
    assert set(d.coeffs) == {-3}
    s = wave_diff_t(WaveFn({0: MPoly.monomial(0, 0, 1)}, time_phase=False))
    assert s.coeffs[0] == MPoly.const(1)


def test_hirota_checks_the_exponent_cap_before_the_pass():
    """An odd form on f is g is exactly 0, so no output exponent is left to
    check; the cap still holds, as it would for the product f g."""
    w = MPoly.monomial(40, 0, 0) + MPoly.monomial(0, 40, 0)
    assert hirota(MPoly.monomial(32, 0, 0), MPoly.monomial(32, 0, 0), {(1, 0, 0): 1}).is_zero()
    for f, form in ((w, D_TIME_LEG), (w, {(1, 0, 0): 1}), (WaveFn({2: w}), D_TIME_LEG)):
        with pytest.raises(ExponentOverflow, match="exceeds cap"):
            hirota(f, w, form)


def test_wave_arithmetic_and_scale():
    z = MPoly.monomial(1, 0, 0)
    a = WaveFn({0: z, 1: MPoly.const(2)})
    b = WaveFn({1: MPoly.const(-2), 2: z})
    s = a + b
    assert set(s.coeffs) == {0, 2}
    assert (a - a).is_zero()
    assert a.scale(gr(3)).coeffs[1] == MPoly.const(6)


def test_wave_eval_matches_naive_and_direct():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    w = WaveFn({0: MPoly.const(1), 1: z * zb, -1: zb})
    lam0, z0 = 0.7 - 0.3j, 1.2 + 0.4j
    got = wave_eval(w, z0, 0.0, lam0)
    naive = wave_eval_naive(w, z0, 0.0, lam0)
    direct = cmath.exp(lam0 * z0) * (1 + (z0 * z0.conjugate()) / lam0
                                     + lam0 * z0.conjugate())
    assert abs(got - naive) < 1e-12 * abs(got)
    assert abs(got - direct) < 1e-12 * abs(got)


def test_wave_eval_time_phase():
    w = WaveFn.free(time_phase=True)
    lam0, z0, t0 = 0.5 + 0.2j, 0.3 - 1.0j, 0.7
    got = wave_eval(w, z0, t0, lam0)
    assert abs(got - cmath.exp(lam0 * z0 + lam0 ** 3 * t0)) < 1e-12


def test_wave_denominator_and_pole():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    den = z * zb - MPoly.const(1)
    w = WaveFn({0: MPoly.const(1)}, den=den)
    v, pole = wave_eval(w, np.array([2.0, 1.0]), 0.0, 1.0)
    assert abs(v - cmath.exp(2.0) / 3.0) < 1e-12
    assert np.isnan(pole)


@pytest.mark.parametrize("time_phase,degree", [(False, d) for d in range(1, 7)]
                         + [(True, d) for d in range(2, 6)])
def test_hirota_reads_a_slot_that_is_g_by_symmetry(time_phase, degree):
    """Slot 0 of a wave is W itself, and W . W is one such slot: read by
    symmetry, with the odd orders dropped and each pair i < i' doubled, each
    form equals the general pass over an equal copy of W."""
    rng = random.Random(500 + 10 * degree + time_phase)
    for constant in (0, 1):
        seed = SeedPair(holomorphic(rng, degree, constant), holomorphic(rng, degree, constant),
                        gr(rng.choice([-1000, -1, 1, 1000])))
        fw = nv.nv_faddeev(seed) if time_phase else build_faddeev(seed)
        w = fw.w
        copy = MPoly.from_numerators(dict(w.numerators), w.denominator)
        assert copy == w and copy is not w
        chi = WaveFn(fw.psi.coeffs, time_phase)
        assert chi.coeffs[0] is w
        chi_copy = WaveFn({**chi.coeffs, 0: copy}, time_phase)
        for form in (D_ZZBAR, D_TIME_LEG):
            assert hirota(chi, w, form) == hirota(chi_copy, w, form), (constant, form)
        for form in (D_ZZBAR, D_ZZ, {(3, 1, 0): 1}):
            assert hirota(w, w, form) == hirota(copy, w, form), (constant, form)
