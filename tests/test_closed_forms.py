"""The closed forms of the free wave's transform and of the superposed wave,
checked exactly over seeds of degree 1-6, the benchmark's time candidates
and time seeds of degree 2-5, against README's N_k and against the same
waves formed by the wave algebra of `oracles`, with the identities of the
construction that the library does not check at run time: harmonic omegas,
the cancellation in slot 0 of the superposition, a real-valued W, static or
extended, the evolution of the seed, seed files in z alone, an extended W
as nonzero as the static one, no slot over a constant W, and the kernel
functions in the kernel."""

import random
from fractions import Fraction

import pytest

from moutardnv import nv
from moutardnv.algebra import GR_I, MPoly
from moutardnv.errors import AsymptoticMismatch, ZeroPolynomial
from moutardnv.exppoly import D_ZZBAR, WaveFn, hirota
from moutardnv.faddeev import build_faddeev, faddeev_superpose, scattering_data
from moutardnv.harness import load_seed, seed_from_json
from moutardnv.moutard import (SeedPair, build_frame, double_w, harmonic_from_holomorphic,
                               moutard_transform_wave, nonvanishing_certificate)

from conftest import fixture_path, gr
from oracles import (deg_zbar, diff_zbar, free_wave, is_real_valued, subs_t,
                     superpose_by_wave_algebra, transform_by_wave_algebra, wave_diff_z,
                     wave_diff_zbar, wave_scale, wave_sub)
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
    slot by slot; with the time phase omega is evolved in t, and the same
    slots solve the system for phi = e^{lam z + lam^3 t}.  Slot 0 is
    -i omega, so for the previous trial's transform slot 0 of
    omega1 (omega2 theta2) - omega2 (omega1 theta1) is zero: the cancellation
    that leaves slot 0 of the superposed wave to W."""
    rng = random.Random(100 * degree + time_phase)
    phi = free_wave(time_phase)
    prev = None
    for trial in range(6):
        p = holomorphic(rng, degree, constant=trial % 2)
        if time_phase:
            p = nv.heat3_evolve(p)
        om = harmonic_from_holomorphic(p)
        prod = WaveFn(moutard_transform_wave(om).coeffs, time_phase)
        assert prod.coeffs[0] == -om * GR_I, f"trial {trial}: {p}"
        rhs_z = wave_scale(wave_sub(wave_scale(phi, om.diff_z()),
                                    wave_scale(wave_diff_z(phi), om)), GR_I)
        rhs_zb = wave_scale(wave_sub(wave_scale(wave_diff_zbar(phi), om),
                                     wave_scale(phi, diff_zbar(om))), GR_I)
        assert wave_diff_z(prod) == rhs_z, f"trial {trial}: {p}"
        assert wave_diff_zbar(prod) == rhs_zb, f"trial {trial}: {p}"
        if prev is not None:
            assert 0 not in wave_sub(wave_scale(prod, prev[0]),
                                     wave_scale(prev[1], om)).coeffs, f"trial {trial}"
        prev = om, prod


def d_z(p, k):
    for _ in range(k):
        p = p.diff_z()
    return p


def assert_slots_are_n_k(fw, seed):
    """Slot k is N_k = 2i(-1)^(k-1)(omega1 d^k p2 - omega2 d^k p1) for
    1 <= k <= d, d the larger degree of p1 and p2, and no slot but these
    and slot 0 exists."""
    p1, p2 = seed.p1, seed.p2
    om1, om2 = harmonic_from_holomorphic(p1), harmonic_from_holomorphic(p2)
    d = max(p1.deg_z(), p2.deg_z())
    assert set(fw.psi.coeffs) <= set(range(d + 1))
    for k in range(1, d + 1):
        n_k = (om1 * d_z(p2, k) + -om2 * d_z(p1, k)) * GR_I * (2 * (-1) ** (k - 1))
        assert fw.psi.coeffs.get(k, MPoly.zero()) == n_k, f"slot {k}"
    return d


def check_closed_forms(fw, seed):
    """W, slot 0, is real-valued and is double_w (static) or extended_w
    (time) of the seed, the slots k >= 1 are N_k (`assert_slots_are_n_k`),
    and A = -2d/lam wherever the exact extraction accepts W's leading form.
    Returns whether A was checked."""
    assert is_real_valued(fw.w)
    assert fw.w == (nv.extended_w(seed) if fw.psi.time_phase else double_w(seed))
    d = assert_slots_are_n_k(fw, seed)
    try:
        sd = scattering_data(fw, validate=False)
    except AsymptoticMismatch:
        return False
    assert sd.a_coeffs == {1: gr(-2 * d)}
    return True


@pytest.mark.parametrize("time_phase", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_closed_form_slots_are_the_wave_algebra_and_n_k(degree, time_phase):
    """The transform in closed form (slot 0 -i omega, the slots k >= 1 the
    antiderivative of 2i omega_z) and the superposition formed per slot
    (omega1 r2_k - omega2 r1_k) equal the transform and superposition formed
    by the wave algebra (free wave, antiderivative, scaling, subtraction),
    and the superposed slots are N_k, on seeds with and without constants
    and with p1, p2 of one degree and of two; on the time branch the seed
    is evolved in t, W is the extended W and the transform's slots are
    those of the wave algebra on the free wave with the time phase."""
    rng = random.Random(700 + 10 * degree + time_phase)
    others = [d for d in range(1, 7) if d != degree]
    for trial in range(4):
        constant = trial % 2
        d1, d2 = (degree, degree) if trial < 2 else (degree, rng.choice(others))
        if trial == 3:
            d1, d2 = d2, d1
        seed = SeedPair(holomorphic(rng, d1, constant), holomorphic(rng, d2, constant),
                        gr(rng.choice([-1000, -1, 1, 1000])))
        if time_phase:
            es, fw = nv.evolved_seed(seed), nv.nv_faddeev(seed)
            frame = build_frame(es, nv.extended_w(seed))
        else:
            es, fw = seed, build_faddeev(seed)
            frame = build_frame(seed)
        for om in (frame.omega1, frame.omega2):
            assert moutard_transform_wave(om).coeffs == \
                transform_by_wave_algebra(om, time_phase).coeffs, f"trial {trial}: {seed}"
        assert fw.psi == superpose_by_wave_algebra(frame, time_phase), f"trial {trial}: {seed}"
        assert_slots_are_n_k(fw, es)


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


@pytest.mark.parametrize("degree", range(1, 7))
def test_an_evolved_seed_reads_as_evolved(degree):
    """evolved_seed returns an evolved seed as it is, so no layer evolves a
    seed twice: evolved_seed(evolved_seed(s)) is evolved_seed(s) and
    extended_w(evolved_seed(s)) == extended_w(s), on seeds with and without
    constants and with p1, p2 of one degree and of two.  A seed of degree
    below 3 is its own evolution and is returned as it is."""
    rng = random.Random(1200 + degree)
    others = [d for d in range(1, 7) if d != degree]
    for trial in range(4):
        d1, d2 = (degree, degree) if trial < 2 else (degree, rng.choice(others))
        seed = SeedPair(holomorphic(rng, d1, trial % 2), holomorphic(rng, d2, trial % 2),
                        gr(rng.choice([-1000, -1, 1, 1000])))
        es = nv.evolved_seed(seed)
        assert nv.evolved_seed(es) is es, f"trial {trial}: {seed}"
        assert nv.extended_w(es) == nv.extended_w(seed), f"trial {trial}: {seed}"
        assert (es is seed) == (max(seed.p1.deg_z(), seed.p2.deg_z()) < 3), f"trial {trial}"


def random_part(rng):
    """A rational part of a seed-file coefficient: an integer or a string."""
    n, d = rng.randint(-9, 9), rng.randint(1, 5)
    return n if rng.random() < 0.3 else (f"{n}/{d}" if d > 1 else str(n))


def random_seed_json(rng, degree, constant, time):
    """A seed file's object: each polynomial lists degrees 1..degree, and 0
    if `constant`, some twice, in random order, each coefficient with or
    without "im"."""
    def entries():
        degrees = [*range(0 if constant else 1, degree + 1), *rng.sample(range(degree + 1), 2)]
        rng.shuffle(degrees)
        return [[n, {"re": random_part(rng), **({"im": random_part(rng)}
                                                 if rng.random() < 0.8 else {})}]
                for n in degrees]
    c = {"re": random_part(rng), **({"im": rng.choice([0, "0", "0/3"])}
                                    if rng.random() < 0.5 else {})}
    return {"p1": entries(), "p2": entries(), "c": c, **({"time": time} if time else {})}


@pytest.mark.parametrize("time_phase", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_seed_files_hold_no_zbar_or_t(degree, time_phase):
    """Every polynomial `seed_from_json` reads is a sum of monomials z^n, so
    p1 and p2 have no zb and no t and c is real, on seed files of degree 1-6
    with and without constants, so SeedPair needs no check of its own."""
    rng = random.Random(800 + 10 * degree + time_phase)
    for trial in range(6):
        data = random_seed_json(rng, degree, constant=trial % 2, time=time_phase)
        seed, time = seed_from_json(data)
        assert time == time_phase
        for p in (seed.p1, seed.p2):
            assert deg_zbar(p) == 0 and p.deg_t() == 0 and p.deg_z() <= degree, data
        assert seed.c.is_real(), data
    for name in ("sec22", "sec22_cubic", "sec32", "sec22_cubic_time"):
        seed, _ = load_seed(fixture_path(f"{name}.json"))
        assert all(deg_zbar(p) == 0 and p.deg_t() == 0 for p in (seed.p1, seed.p2))


def imaginary_shift(rng, p1):
    """(p2, s) with p2 = mu p1 + i nu for a real mu != 0 and a real nu: W is
    then the constant c + s, s = 2 nu Re p1(0) (README, "A constant
    W")."""
    mu = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
    nu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return p1 * mu + MPoly.const(gr(0, nu)), 2 * nu * p1.constant_term().re


@pytest.mark.parametrize("degree", range(1, 7))
def test_extended_w_is_nonzero_where_double_w_is(degree):
    """The extended W is the static W at t = 0, so `double_w`'s zero check
    covers it: on seeds of degree 1-6 with and without constants, generic,
    with a constant W (p2 = mu p1 + i nu) and with W = 0 (the same with
    c = -2 nu Re p1(0)), either both raise ZeroPolynomial or neither is
    zero and the extended W's t = 0 slice is double_w."""
    rng = random.Random(900 + degree)
    zeros = 0
    for trial in range(12):
        p1, kind = holomorphic(rng, degree, constant=trial % 2), trial // 2 % 3
        if kind == 0:
            seed = SeedPair(p1, holomorphic(rng, degree, trial % 2), gr(rng.choice([-1000, 1000])))
        else:
            p2, s = imaginary_shift(rng, p1)
            seed = SeedPair(p1, p2, gr(-s if kind == 2 else rng.choice([-1000, 1000])))
        try:
            w = double_w(seed)
        except ZeroPolynomial:
            zeros += 1
            with pytest.raises(ZeroPolynomial):
                nv.extended_w(seed)
            continue
        wt = nv.extended_w(seed)
        assert not wt.is_zero() and subs_t(wt, 0) == w, f"trial {trial}: {seed}"
    assert zeros == 4


@pytest.mark.parametrize("time_phase", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_a_constant_w_has_no_slots(degree, time_phase):
    """p2 = mu p1 + i nu (`imaginary_shift`) makes W the constant c + s,
    static and extended alike, and then omega2 = mu omega1 and
    d^k p2 = mu d^k p1, so every N_k is zero: the wave has no slot but W,
    A = 0, and the certificate reads certified-positive.  Seeds of degree
    1-6 with and without constants; on the time branch p1 is evolved, and
    the time term cancels the drift of 2 nu Re p1(0) in t."""
    rng = random.Random(1000 + 10 * degree + time_phase)
    for trial in range(4):
        p1 = holomorphic(rng, degree, constant=trial % 2)
        p2, s = imaginary_shift(rng, p1)
        c = rng.choice([-1000, -100, 100, 1000])
        seed = SeedPair(p1, p2, gr(c))
        fw = nv.nv_faddeev(seed) if time_phase else build_faddeev(seed)
        assert fw.w == MPoly.const(gr(c + s)), f"trial {trial}: {seed}"
        assert set(fw.psi.coeffs) == {0}, f"trial {trial}: {seed}"
        assert scattering_data(fw).a_coeffs == {}
        assert nonvanishing_certificate(fw.w).verdict == "certified-positive"


def kernel_form(omega, w):
    """D_z D_zb (omega . W): (-4 d dbar + u)(omega/W) is -4 times it over W^2
    for u = -2 Laplacian(log W)."""
    return hirota(omega, w, D_ZZBAR)


@pytest.mark.parametrize("time_phase", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_kernel_functions_solve_the_equation(degree, time_phase):
    """phi_j = +-omega_j / W is in the kernel of -4 d dbar + u: D_z D_zb
    (omega_j . W) is zero for j = 1, 2, on seeds of degree 1-6 with and
    without constants (on the time branch, the evolved omegas over the
    extended W at every t).  W + z zb in place of W, or omega_j + 1 in place
    of omega_j, makes it nonzero wherever p_j has degree 2 or more."""
    rng = random.Random(1100 + 10 * degree + time_phase)
    zzb = MPoly.monomial(1, 1, 0)
    for trial in range(4):
        constant = trial % 2
        seed = SeedPair(holomorphic(rng, degree, constant), holomorphic(rng, degree, constant),
                        gr(rng.choice([-1000, -1, 1, 1000])))
        frame = (build_frame(nv.evolved_seed(seed), nv.extended_w(seed)) if time_phase
                 else build_frame(seed))
        for p, om in ((seed.p1, frame.omega1), (seed.p2, frame.omega2)):
            assert kernel_form(om, frame.w).is_zero(), f"trial {trial}: {seed}"
            if p.deg_z() >= 2:
                assert not kernel_form(om, frame.w + zzb).is_zero(), f"trial {trial}: {seed}"
                assert not kernel_form(om + MPoly.const(1), frame.w).is_zero(), \
                    f"trial {trial}: {seed}"


@pytest.mark.parametrize("name", ["sec22", "sec22_cubic", "sec32", "sec22_cubic_time"])
def test_kernel_functions_of_the_fixtures_solve_the_equation(name):
    seed, time = load_seed(fixture_path(f"{name}.json"))
    zzb = MPoly.monomial(1, 1, 0)
    frames = [build_frame(seed)]
    if time:
        frames.append(build_frame(nv.evolved_seed(seed), nv.extended_w(seed)))
    for frame in frames:
        for om in (frame.omega1, frame.omega2):
            assert kernel_form(om, frame.w).is_zero()
            assert not kernel_form(om, frame.w + zzb).is_zero()
            assert not kernel_form(om + MPoly.const(1), frame.w).is_zero()
