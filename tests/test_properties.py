"""Randomized structural identities over the whole constructed class."""

import random
from fractions import Fraction

import pytest

from moutardnv.algebra import GaussianRational, MPoly, gauss_sum
from moutardnv.errors import AsymptoticMismatch
from moutardnv.exppoly import D_TIME_LEG, D_ZZ, D_ZZBAR, WaveFn, hirota
from moutardnv.faddeev import build_faddeev, faddeev_superpose, residual, scattering_data
from moutardnv.moutard import SeedPair, build_frame, double_w, potential
from moutardnv import nv

from conftest import gr
from oracles import (Frac, diff_zbar, double_w_by_products, extended_w_by_products, frac,
                     hirota_by_products, nv_residual_four_products, same_fraction,
                     slots_by_products, wave_add, wave_diff_t, wave_diff_z, wave_diff_zbar,
                     wave_scale, wave_sub)


def random_holomorphic(rng, max_deg):
    p = MPoly.zero()
    for n in range(1, max_deg + 1):
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + MPoly.monomial(n, 0, 0, GaussianRational(re, im))
    return p


def random_seed(rng, max_deg, constant=False):
    """Two holomorphic polynomials of degree at most max_deg, with random
    constant terms if `constant`, and c = +-1000."""
    while True:
        p1 = random_holomorphic(rng, max_deg)
        p2 = random_holomorphic(rng, max_deg)
        if constant:
            p1, p2 = p1 + MPoly.const(random_gr(rng)), p2 + MPoly.const(random_gr(rng))
        if not (p1.is_zero() or p2.is_zero()):
            return SeedPair(p1, p2, gr(rng.choice([-1000, 1000])))


def degenerate_leading_form(seed):
    """True when Im(a_d conj(b_d)) = 0 for the z^d coefficients of p1 and p2,
    d the larger degree: W then has no |z|^(2d) term, and no A to read."""
    d = max(seed.p1.deg_z(), seed.p2.deg_z())
    return (seed.p1.coeff(d, 0) * seed.p2.coeff(d, 0).conjugate()).im == 0


def test_static_pipeline_random_seeds():
    rng = random.Random(20260824)
    for trial in range(50):
        seed = random_seed(rng, 3)
        fw = build_faddeev(seed)
        assert residual(fw).is_zero(), f"trial {trial}: {seed}"
        # commuting square: both iteration orders share one final potential
        frame = build_frame(seed)
        assert same_fraction(potential(frame.w), potential(-frame.w))


def test_scattering_degree_bookkeeping_random_seeds():
    rng = random.Random(7)
    for _ in range(10):
        seed = random_seed(rng, 3)
        fw = build_faddeev(seed)
        d = fw.w.total_degree_space()
        for k, num in fw.psi.coeffs.items():
            if k:
                assert num.total_degree_space() <= d - 1


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_ray_check_passes_random_seeds(degree):
    """The numeric ray estimate agrees with the exact A(lam) on every seed
    whose leading form the exact extraction accepts."""
    rng = random.Random(1000 + degree)
    checked = 0
    for _ in range(8):
        fw = build_faddeev(random_seed(rng, degree))
        try:
            scattering_data(fw, validate=False)
        except AsymptoticMismatch:
            continue            # W's leading form is not one monomial: no A to check
        scattering_data(fw)
        checked += 1
    assert checked >= 6


def test_nv_pipeline_random_seeds():
    """Degrees 1-6, with and without constant terms."""
    rng = random.Random(31415)
    for trial in range(24):
        seed = random_seed(rng, 1 + trial % 6, constant=trial // 6 % 2)
        wt = nv.extended_w(seed)
        if wt.is_constant():
            continue
        U = nv.nv_potentials(wt)
        assert nv.nv_residual(U).is_zero(), f"trial {trial}: {seed}"
        assert same_fraction(frac(nv.nv_v(wt)).diff_zbar(), frac(U).diff_z())


def test_nv_wave_random_seeds():
    """Degrees 1-6, with and without constant terms; A is read wherever W
    has a |z|^(2d) term."""
    rng = random.Random(99)
    checked = 0
    for trial in range(24):
        seed = random_seed(rng, 1 + trial % 6, constant=trial // 6 % 2)
        fw = nv.nv_faddeev(seed)
        assert residual(fw).is_zero()
        assert nv.temporal_residual(fw).is_zero()
        try:
            sd = scattering_data(fw, validate=False)
        except AsymptoticMismatch:
            assert degenerate_leading_form(seed), f"trial {trial}: {seed}"
            continue
        for c in sd.a_coeffs.values():
            assert isinstance(c, GaussianRational)   # exact, necessarily t-free
        checked += 1
    assert checked >= 18
    # a real ratio of the top coefficients leaves W without a |z|^6 term
    z = MPoly.monomial(1, 0, 0)
    seed = SeedPair(z ** 3, z ** 3 * 2 + z, gr(1000))
    assert degenerate_leading_form(seed)
    with pytest.raises(AsymptoticMismatch):
        scattering_data(nv.nv_faddeev(seed), validate=False)


def random_gr(rng):
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def random_real_w(rng, degrees=(2, 8)):
    """A real-valued W with t, of spatial degree in the closed range degrees
    and a nonzero constant."""
    d, a = rng.randint(*degrees), rng.randint(0, 8)
    p = MPoly.monomial(min(a, d), d - min(a, d), 0, rng.randint(1, 5))
    for _ in range(3):
        i = rng.randint(0, d - 1)
        p = p + MPoly.monomial(i, rng.randint(0, d - 1 - i), rng.randint(0, 1), random_gr(rng))
    return p + p.conj_swap() + MPoly.const(rng.choice([-30, 30]))


def random_wave(rng, time_phase):
    """A wave with 1-3 polynomial slots in z, zb and t."""
    coeffs = {}
    for k in rng.sample(range(-1, 4), rng.randint(1, 3)):
        coeffs[k] = sum((MPoly.monomial(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 1),
                                        random_gr(rng)) for _ in range(3)), MPoly.zero())
    return WaveFn(coeffs, time_phase)


def lifted(chi, w):
    """chi / w with each slot lifted to a fraction over w."""
    return WaveFn({k: Frac(f, w) for k, f in chi.coeffs.items()}, chi.time_phase)


def over_w2(res, w, c=1):
    return {k: Frac(f * c, w, 2) for k, f in res.coeffs.items()}


def log_d2(w, d1, d2):
    """d1 d2 log w = (w w_12 - w_1 w_2) / w^2, built here rather than by hirota."""
    w1 = d1(w)
    return Frac(w * d2(w1) + -w1 * d2(w), w, 2)


def test_residuals_are_hirota_forms_over_w2():
    """(-4 d dbar + u)(chi/W) = -4 D_z D_zb (chi . W) / W^2 and
    (d_t - d^3 - dbar^3 - 3V d - 3Vb dbar)(chi/W) = (D_t - D_z^3 - D_zb^3)(chi . W) / W^2,
    the left-hand sides differentiated as fractions over W."""
    rng = random.Random(20261018)
    for trial in range(30):
        w = random_real_w(rng)
        chi = random_wave(rng, time_phase=rng.random() < 0.5)
        m = lifted(chi, w)
        u = log_d2(w, MPoly.diff_z, diff_zbar) * -8
        spatial = wave_add(wave_scale(wave_diff_z(wave_diff_zbar(m)), -4), wave_scale(m, u))
        assert spatial.coeffs == over_w2(hirota(chi, w, D_ZZBAR), w, -4), f"trial {trial}"
        v3 = log_d2(w, MPoly.diff_z, MPoly.diff_z) * 6
        d1, b1 = wave_diff_z(m), wave_diff_zbar(m)
        time_leg = wave_diff_t(m)
        for term in (wave_diff_z(wave_diff_z(d1)), wave_diff_zbar(wave_diff_zbar(b1)),
                     wave_scale(d1, v3), wave_scale(b1, v3.conj_swap())):
            time_leg = wave_sub(time_leg, term)
        assert time_leg.coeffs == over_w2(hirota(chi, w, D_TIME_LEG), w), f"trial {trial}"


def random_poly(rng, deg, tdeg):
    """Up to 6 terms of total degree at most deg in z, zb and degree at most
    tdeg in t, with coefficients over denominators 1-12."""
    p = MPoly.zero()
    for _ in range(rng.randint(1, 6)):
        i = rng.randint(0, deg)
        p = p + MPoly.monomial(i, rng.randint(0, deg - i), rng.randint(0, tdeg), GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
    return p


def test_hirota_is_the_product_construction():
    """The one-pass kernel equals the Hirota form built from derivatives and
    products: W.W forms, odd forms on f is g (exactly 0), and waves with and
    without the time phase, slots -1..4 over unequal denominators, at total
    degree 1-6 and t-degree 0-3."""
    rng = random.Random(20261020)
    w_forms = [D_ZZBAR, D_ZZ, {(3, 1, 0): 1}, {(1, 3, 0): 1}]
    odd_forms = [D_TIME_LEG, {(1, 0, 0): 1}, {(2, 1, 0): 3, (0, 0, 1): -2}]
    wave_forms = [D_ZZBAR, D_TIME_LEG, {(2, 1, 1): 2, (0, 2, 0): -1}]
    uneven = 0
    for trial in range(60):
        deg, tdeg = rng.randint(1, 6), rng.randint(0, 3)
        w, v = random_poly(rng, deg, tdeg), random_poly(rng, deg, tdeg)
        for form in w_forms:
            assert hirota(w, w, form) == hirota_by_products(w, w, form), f"trial {trial}"
        for form in odd_forms:
            assert hirota(w, w, form).is_zero(), f"trial {trial}"
        form = rng.choice(wave_forms)
        assert hirota(v, w, form) == hirota_by_products(v, w, form), f"trial {trial}"
        keys = rng.sample(range(-1, 5), rng.randint(1, 4))
        slots = {k: random_poly(rng, deg, tdeg) for k in keys}
        chi = WaveFn(slots, time_phase=trial % 2 == 0)
        uneven += len({p.denominator for p in chi.coeffs.values()}) > 1
        for form in wave_forms:
            assert hirota(chi, w, form) == hirota_by_products(chi, w, form), f"trial {trial}"
    assert uneven >= 20


def lifted_nv_residual(w):
    """U_t - d^3 U - dbar^3 U - 3d(VU) - 3dbar(Vb U) for U = 2 d dbar log w and
    V = 2 d^2 log w, differentiated and multiplied as fractions over w."""
    u = log_d2(w, MPoly.diff_z, diff_zbar) * 2
    v = log_d2(w, MPoly.diff_z, MPoly.diff_z) * 2
    return (u.diff_t() - u.diff_z().diff_z().diff_z() - u.diff_zbar().diff_zbar().diff_zbar()
            - (v * u).diff_z() * 3 - (v.conj_swap() * u).diff_zbar() * 3)


def test_nv_residual_is_the_lifted_residual(seed32, seed22_cubic):
    """nv_residual's conservation form over W^3 equals the evolution equation
    lifted through fractions, on W that evolve (sec32, and the cubic fixture
    evolved) and on W that do not."""
    rng = random.Random(20261019)
    zzb = MPoly.monomial(1, 1, 0)
    ws = [random_real_w(rng) for _ in range(30)]
    ws += [nv.extended_w(seed32), nv.extended_w(seed22_cubic), MPoly.const(1) + zzb + zzb * zzb]
    zero = []
    for trial, w in enumerate(ws):
        res = nv.nv_residual(nv.nv_potentials(w))
        assert same_fraction(lifted_nv_residual(w), Frac(res, w, 3)), f"trial {trial}"
        zero.append(res.is_zero())
    assert zero[-3] and zero[-2] and zero.count(False) >= 20


def term_pairs(monkeypatch, fn):
    """fn() and the MPoly x MPoly term pairs multiplied while it runs."""
    pairs = 0
    mul = MPoly.__mul__

    def counted(a, b):
        nonlocal pairs
        if isinstance(b, MPoly):
            pairs += len(a.numerators) * len(b.numerators)
        return mul(a, b)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    out = fn()
    monkeypatch.undo()
    return out, pairs


def test_residual_work_is_bilinear(monkeypatch):
    """fd.residual reads the term pairs of the slots and W, not of lifted
    fractions, and makes no MPoly product: its pairs, one per reduced order
    of (D_z + lam) D_zb (D_z D_zb and D_zb), are at most a third of the 6938
    MPoly term pairs that lifting every slot to a fraction over W cost on
    this dense degree-3 seed."""
    fw = build_faddeev(random_seed(random.Random(0), 3))
    res, products = term_pairs(monkeypatch, lambda: residual(fw))
    assert res.is_zero()
    assert products == 0
    pairs = sum(len(n.numerators) for n in fw.psi.coeffs.values()) * len(fw.w.numerators) * 2
    assert pairs <= 6938 // 3


def test_nv_residual_work_is_bilinear(seed32, monkeypatch):
    """nv_residual reads the term pairs of P and of Q with W, W-sized
    polynomials, not lifted fractions, and makes no MPoly product: its one
    pass adds at most one term per (P, W) pair and two per (Q, W) pair, at
    most a tenth of the 4703 MPoly term pairs that differentiating U and V
    as fractions over W cost on sec32."""
    wt = nv.extended_w(seed32)
    U = nv.nv_potentials(wt)
    q = hirota(wt, wt, {(3, 1, 0): 1})
    added = []

    def counted(terms, den):
        terms = list(terms)
        added.append(len(terms))
        return gauss_sum(terms, den)

    monkeypatch.setattr(nv, "gauss_sum", counted)
    res, products = term_pairs(monkeypatch, lambda: nv.nv_residual(U))
    assert res.is_zero()
    assert products == 0
    assert len(added) == 1
    assert 0 < added[0] <= (len(U.num.numerators) + 2 * len(q.numerators)) * len(wt.numerators)
    assert added[0] <= 4703 // 10


@pytest.mark.parametrize("time", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_one_pass_forms_equal_their_compositions(degree, time):
    """double_w, extended_w's time term, the superposed slots and
    nv_residual, each read in one pass over term pairs, equal exactly the
    compositions of MPoly operations they replace (`tests/oracles.py`): on
    seeds of degree 1-6, static and evolved, with and without constant
    terms and c, p2 of p1's degree and of a lower one.  nv_residual is
    compared where it is zero and on W + 7t and W + zzb, where it is not."""
    rng = random.Random(3300 + 10 * degree + time)
    for trial in range(3):
        p1 = random_holomorphic(rng, degree)
        p2 = random_holomorphic(rng, degree if trial == 0 else rng.randint(1, degree))
        if trial % 2:
            p1, p2 = p1 + MPoly.const(random_gr(rng)), p2 + MPoly.const(random_gr(rng))
        if trial == 2:
            p1, p2 = p2, p1
        seed = SeedPair(p1, p2, gr(rng.choice([0, Fraction(-7, 3), 1000])))
        es = nv.evolved_seed(seed) if time else seed
        assert double_w(es) == double_w_by_products(es)
        w = nv.extended_w(seed) if time else double_w(seed)
        if time:
            assert w == extended_w_by_products(seed)
        frame = build_frame(es, w)
        slots = dict(faddeev_superpose(frame, time).psi.coeffs)
        assert slots.pop(0) == w and slots == slots_by_products(frame)
        if degree <= 4 or trial == 0:
            for term in (MPoly.zero(), MPoly.monomial(0, 0, 1, 7), MPoly.monomial(1, 1, 0)):
                U = nv.nv_potentials(w + term)
                assert nv.nv_residual(U) == nv_residual_four_products(U)
