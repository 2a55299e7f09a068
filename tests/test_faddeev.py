import cmath
import os
import random
from fractions import Fraction

import pytest

from moutardnv import faddeev, nv
from moutardnv.algebra import MPoly, RationalFn, sum_of_products
from moutardnv.errors import AsymptoticMismatch, ResidualNonzero, TemporalResidualNonzero
from moutardnv.exppoly import D_TIME_LEG, D_ZZBAR, WaveFn, hirota, wave_eval
from moutardnv.faddeev import (FaddeevWave, assert_decay_bookkeeping, build_faddeev, residual,
                               scattering_data)
from moutardnv.harness import load_seed
from moutardnv.moutard import MoutardFrame, SeedPair, build_frame, kernel_functions, potential

from conftest import FIXTURES, gr, poly
from oracles import (free_wave, hirota_by_products, ray_slots_by_stacked_product,
                     same_fraction, scattering_data_by_leading_terms, wave_add, wave_scale,
                     wave_sub)
from test_bench_contract import bench_module
from test_properties import random_real_w, random_seed, random_wave


REF_POTENTIAL_NUM = poly({
    # -5120 * ((4-i)z + 1)((4+i)zb + 1)
    (1, 1, 0): ("-87040", "0"),
    (1, 0, 0): ("-20480", "5120"),
    (0, 1, 0): ("-20480", "-5120"),
    (0, 0, 0): ("-5120", "0"),
})

REF_POTENTIAL_DEN_ROOT = poly({
    # 160 + z zb * ((4-i)z + 2)((4+i)zb + 2)
    (0, 0, 0): ("160", "0"),
    (2, 2, 0): ("17", "0"),
    (2, 1, 0): ("8", "-2"),
    (1, 2, 0): ("8", "2"),
    (1, 1, 0): ("4", "0"),
})


def test_reference_potential_identity(seed22):
    fw = build_faddeev(seed22)
    expected = RationalFn(REF_POTENTIAL_NUM,
                          REF_POTENTIAL_DEN_ROOT * REF_POTENTIAL_DEN_ROOT)
    assert same_fraction(fw.u, expected)


def test_reference_wave_slots_exact(seed22):
    # W, N1, N2 of the Laurent multiplier, at the recorded W-scale -1/8
    fw = build_faddeev(seed22)
    scale = gr("-8")
    n1 = poly({(1, 1, 0): ("-32", "8"), (0, 1, 0): ("-8", "0"),
               (0, 2, 0): ("-16", "-4"), (1, 2, 0): ("-68", "0")})
    n2 = poly({(0, 1, 0): ("32", "-8"), (0, 2, 0): ("68", "0")})
    assert fw.psi.coeffs[1] * scale == n1
    assert fw.psi.coeffs[2] * scale == n2
    assert set(fw.psi.coeffs) == {0, 1, 2}
    assert fw.psi.coeffs[0] * scale == REF_POTENTIAL_DEN_ROOT


def test_reference_kernel_functions_scalar_match(seed22):
    # phi_1, phi_2 equal the closed-form displays up to real scalars -2, +2
    frame = build_frame(seed22)
    _, _, phi1, phi2 = kernel_functions(frame.omega1, frame.omega2, frame.w)
    den = REF_POTENTIAL_DEN_ROOT
    phi1_ref = RationalFn(poly({(1, 0, 0): ("2", "0"), (0, 1, 0): ("2", "0"),
                                (2, 0, 0): ("4", "-1"), (0, 2, 0): ("4", "1")}), den)
    phi2_ref = RationalFn(poly({(1, 0, 0): ("2", "-2"), (0, 1, 0): ("2", "2"),
                                (2, 0, 0): ("3", "-5"), (0, 2, 0): ("3", "5")}), den)
    assert same_fraction(phi1, phi1_ref * gr("-2"))
    assert same_fraction(phi2, phi2_ref * gr("2"))


def test_residual_exact_zero(seed22):
    fw = build_faddeev(seed22)
    assert residual(fw).is_zero()


def test_residual_detects_corruption(seed22):
    fw = build_faddeev(seed22)
    bad = dict(fw.psi.coeffs)
    bad[1] = bad[1] + MPoly.monomial(0, 1, 0)
    broken = FaddeevWave(WaveFn(bad))
    assert not residual(broken).is_zero()


def test_scattering_reference(seed22):
    fw = build_faddeev(seed22)
    sd = scattering_data(fw)
    assert sd.a_coeffs == {1: gr("-4")}
    assert str(sd) == "A=-4/λ B=0"


def test_scattering_cubic_reference(seed22_cubic):
    fw = build_faddeev(seed22_cubic)
    sd = scattering_data(fw)
    assert sd.a_coeffs == {1: gr("-6")}


def test_scattering_free_wave():
    fw = FaddeevWave(free_wave())
    assert scattering_data(fw).a_coeffs == {}


def test_scattering_rejects_bad_degree(seed22):
    fw = build_faddeev(seed22)
    bad = dict(fw.psi.coeffs)
    bad[1] = bad[1] + MPoly.monomial(4, 0, 0)
    broken = FaddeevWave(WaveFn(bad))
    with pytest.raises(AsymptoticMismatch):
        scattering_data(broken, validate=False)


def test_ray_validation_catches_wrong_a(seed22):
    from moutardnv.faddeev import ScatteringData, _validate_rays
    fw = build_faddeev(seed22)
    with pytest.raises(AsymptoticMismatch):
        _validate_rays(fw, ScatteringData({1: gr("5")}))


@pytest.mark.parametrize("extra", ["radial", "non-radial"])
def test_ray_validation_catches_corrupted_slot(seed22, extra):
    """A slot-1 term of the leading degree d - 1 moves z (m - 1) at infinity by
    a fifth of the leading coefficient of W: the ray check, against the exact
    A of the intact wave, must fail."""
    from moutardnv.faddeev import _validate_rays
    fw = build_faddeev(seed22)
    sd = scattering_data(fw)
    (a, b), lead = next(iter(fw.w.spatial_leading_terms().items()))
    i, j = (a - 1, b) if extra == "radial" else (a, b - 1)
    bad = dict(fw.psi.coeffs)
    bad[1] = bad[1] + MPoly.monomial(i, j, 0, lead.constant_term() * gr("1/5"))
    broken = FaddeevWave(WaveFn(bad))
    with pytest.raises(AsymptoticMismatch):
        _validate_rays(broken, sd)
    if extra == "radial":
        # the exact A of the broken wave is -4 + 1/5, not -deg(W)
        with pytest.raises(AsymptoticMismatch):
            scattering_data(broken, validate=False)


def test_decay_bookkeeping(seed22):
    assert_decay_bookkeeping(build_faddeev(seed22))


def test_wave_value_agrees_with_direct_sum(seed22):
    fw = build_faddeev(seed22)
    lam0, z0 = 0.9 + 0.3j, 1.3 - 0.8j
    got = wave_eval(fw.psi, fw.w, z0, 0.0, lam0)
    wv = fw.w.eval(z0)
    direct = cmath.exp(lam0 * z0) * (1
                                     + fw.psi.coeffs[1].eval(z0) / (lam0 * wv)
                                     + fw.psi.coeffs[2].eval(z0) / (lam0 ** 2 * wv))
    assert abs(got - direct) < 1e-12 * abs(got)


def test_corrupted_wave_residual_message_is_a_summary(seed22, monkeypatch):
    from moutardnv import faddeev
    from moutardnv.moutard import moutard_transform_wave
    frame = build_frame(seed22)

    def corrupted(omega):
        psi = moutard_transform_wave(omega)
        if omega != frame.omega2:
            return psi
        return wave_add(psi, WaveFn({1: MPoly.monomial(1, 1, 0)}))    # a lam^-1 term

    monkeypatch.setattr(faddeev, "moutard_transform_wave", corrupted)
    with pytest.raises(ResidualNonzero) as err:
        faddeev.faddeev_superpose(frame)
    psi1, bad = corrupted(frame.omega1), corrupted(frame.omega2)
    coeffs = dict(wave_sub(wave_scale(bad, frame.omega1), wave_scale(psi1, frame.omega2)).coeffs)
    coeffs[0] = frame.w
    res = residual(FaddeevWave(WaveFn(coeffs)))
    message = str(err.value)
    assert f"residual {len(res.terms)} terms, total degree" in message
    assert len(message) < 200 < len(str(res))


def test_wave_reads_w_and_u_off_psi(seed22, monkeypatch):
    # W is psi's slot 0, and u is set by the exact residual's one pass, which
    # the superposition runs: potential is never called, and u equals it
    from moutardnv import faddeev
    built = []

    def counted(w):
        built.append(w)
        return potential(w)

    monkeypatch.setattr(faddeev, "potential", counted)
    fw = build_faddeev(seed22)
    assert fw.w is fw.psi.coeffs[0] and built == []
    assert same_fraction(fw.u, potential(fw.w))
    assert fw.u is fw.u and built == []


def test_residual_reading_u_is_the_full_hirota_residual():
    """residual(fw) forms every slot with W's own term kept apart, from which
    it sets fw.u; hirota on the whole wave with D_z D_zb alone forms every
    slot, W's by symmetry.  Both give
    the same first nonzero slot on the fixtures' waves (zero), on those
    waves with W plus a constant and the slots kept (zero too: N_k does not
    read the constant c of W), with slot k, W among them, plus a monomial
    (nonzero), and on random waves over a random real W, with and without
    the time phase and with a slot -1 (nonzero)."""
    def same(fw):
        res, full = residual(fw), hirota(fw.psi, fw.w, D_ZZBAR).coeffs
        assert res == (full[min(full)] if full else MPoly.zero())
        return res

    waves = []
    for name in sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json")):
        seed, time = load_seed(os.path.join(FIXTURES, name))
        waves.append(nv.nv_faddeev(seed) if time else build_faddeev(seed))
    assert len(waves) >= 4
    for fw in waves:
        assert same(fw).is_zero()
        psi = fw.psi
        shifted = FaddeevWave(WaveFn({**psi.coeffs, 0: fw.w + MPoly.const(3)}, psi.time_phase))
        assert same(shifted).is_zero()
        for k in sorted(psi.coeffs):
            broken = FaddeevWave(WaveFn({**psi.coeffs, k: psi.coeffs[k] + MPoly.monomial(1, 0, 0)},
                                        psi.time_phase))
            assert not same(broken).is_zero(), k
    rng = random.Random(20261020)
    for trial in range(20):
        chi = random_wave(rng, time_phase=trial % 2 == 0)
        fw = FaddeevWave(WaveFn({**chi.coeffs, 0: random_real_w(rng, (1, 5))}, chi.time_phase))
        assert not same(fw).is_zero(), trial


def _outcome(read, fw):
    """A's coefficients as exact reprs, or the type and text of the
    AsymptoticMismatch that read(fw) raises."""
    try:
        return {k: repr(c) for k, c in read(fw).a_coeffs.items()}
    except AsymptoticMismatch as exc:
        return type(exc).__name__, str(exc)


def _with_slot(fw, k, extra):
    """fw with extra added to slot k (slot 0 is W)."""
    psi = fw.psi
    return FaddeevWave(WaveFn({**psi.coeffs, k: psi.coeffs.get(k, MPoly.zero()) + extra},
                              psi.time_phase))


@pytest.mark.parametrize("time_phase", [False, True], ids=["static", "time"])
@pytest.mark.parametrize("degree", range(1, 7))
def test_scattering_data_matches_the_leading_term_oracle(degree, time_phase):
    """The walk over the integer numerators gives the A of
    `oracles.scattering_data_by_leading_terms`, exact number for exact
    number, on seeds of degree 1-6 with and without constants, static and
    evolved, and the same exception type and message on the same waves
    corrupted: W plus t|z|^(2d) (a t-dependent leading coefficient), a slot
    term above degree d - 1 (in slot 2 while slot 1 is non-radial, so the
    bookkeeping of every slot comes first), a non-radial term with and
    without t, and a radial term that moves A."""
    rng = random.Random(3400 + 10 * degree + time_phase)
    read = 0
    for trial in range(4):
        seed = random_seed(rng, degree, constant=trial % 2)
        fw = nv.nv_faddeev(seed) if time_phase else build_faddeev(seed)
        got = _outcome(lambda f: scattering_data(f, validate=False), fw)
        assert got == _outcome(scattering_data_by_leading_terms, fw), f"trial {trial}: {seed}"
        if isinstance(got, tuple):
            continue                    # a degenerate leading form: no A to read
        read += 1
        d = fw.w.total_degree_space()
        ((a, b, _), _), = [(e, c) for e, c in fw.w.numerators.items() if e[0] + e[1] == d]
        c = fw.w.coeff(a, b) * gr("1/5")
        broken = {
            "denominator leading coefficient depends on t":
                _with_slot(fw, 0, MPoly.monomial(a, b, 1)),
            "slot 2 violates degree bookkeeping":
                _with_slot(_with_slot(fw, 1, MPoly.monomial(a, b - 1, 0, c)), 2,
                           MPoly.monomial(a, b, 0)),
            f"slot 1 has a non-radial leading term z^{a} zb^{b - 1} t^0":
                _with_slot(fw, 1, MPoly.monomial(a, b - 1, 0, c)),
            f"slot 1 has a non-radial leading term z^{a - 1} zb^{b} t^2":
                _with_slot(fw, 1, MPoly.monomial(a - 1, b, 2, c)),
            f"A={Fraction(1, 5) - d}/λ is not -2d/λ = -{d}/λ for W of degree {d}":
                _with_slot(fw, 1, MPoly.monomial(a - 1, b, 0, c)),
        }
        for message, bad in broken.items():
            got = _outcome(lambda f: scattering_data(f, validate=False), bad)
            assert got == _outcome(scattering_data_by_leading_terms, bad), (trial, message)
            assert got == ("AsymptoticMismatch", message), trial
    assert read >= 2


def test_scattering_data_on_a_degenerate_seed_matches_the_oracle():
    """z + z^2 and 2z + 3z^2 have a real ratio of top coefficients, so W
    has no |z|^4 term: both readers reject its leading form with one
    message, static and evolved."""
    z = MPoly.monomial(1, 0, 0)
    seed = SeedPair(z + z * z, z * 2 + z * z * 3, gr(1))
    for fw in (build_faddeev(seed), nv.nv_faddeev(seed)):
        got = _outcome(lambda f: scattering_data(f, validate=False), fw)
        assert got == _outcome(scattering_data_by_leading_terms, fw)
        assert got == ("AsymptoticMismatch", "denominator leading form is not a single monomial")


def _first_slot(res):
    """The slot of least key of a residual wave, zero when it has none."""
    return res.coeffs[min(res.coeffs)] if res.coeffs else MPoly.zero()


def _one_pass_seeds():
    """(seed, time) for the benchmark's static candidates, its 48 time
    candidates and its cubic pool, and for random seeds of degree 1-6,
    static and time, with and without constant terms."""
    wl = bench_module("workloads")
    seeds = [(seed, False) for seed, _ in wl.static_candidates().values()]
    seeds += [(seed, True) for seed in wl.time_candidates().values()]
    seeds += [(seed, True) for seed in wl.cubic_pool().values()]
    rng = random.Random(3602)
    seeds += [(random_seed(rng, 1 + trial % 6, constant=trial // 6 % 2), trial >= 12)
              for trial in range(24)]
    return seeds


def test_one_pass_sets_u_and_the_residuals_of_the_separate_forms():
    """The wave's one Hirota pass sets u, equal to moutard.potential(W), and
    on the time phase the time leg; residual and temporal_residual equal the
    first slots of the two forms built from derivatives and products, and
    the time leg formed alone on a wave that has none equals the stored one.
    Every seed builds."""
    seeds = _one_pass_seeds()
    assert len(seeds) == 248 + 48 + 6 + 24
    for seed, time in seeds:
        fw = nv.nv_faddeev(seed) if time else build_faddeev(seed)
        assert "u" in vars(fw)                     # set by the pass, not formed on read
        u = potential(fw.w)
        assert (fw.u.num, fw.u.base, fw.u.k) == (u.num, u.base, u.k)
        assert residual(fw) == _first_slot(hirota_by_products(fw.psi, fw.w, D_ZZBAR))
        if time:
            assert "time_leg" in vars(fw)
            leg = _first_slot(hirota_by_products(fw.psi, fw.w, D_TIME_LEG))
            assert nv.temporal_residual(fw) == leg
            assert nv.temporal_residual(FaddeevWave(fw.psi)) == leg


SPATIAL_TEXT = "superposed wave is not an exact eigenfunction: residual {}"
TIME_LEG_TEXT = "time leg fails: residual {}"


def test_one_pass_fails_each_corruption_as_the_separate_forms(monkeypatch):
    """One coefficient corrupted in slot 1, in slot 0 (W, passed to the
    frame) and in W's time term (W + 7t passed as w): each wave fails with
    the type and text that the separate forms give, the spatial check
    first where both fail.  Slot 0 is corrupted at W's least exponent
    z^i zb^j t^k with i, j >= 1, chosen from the polynomial and not from
    its terms' order: a term in t alone adds to W's free constant, and a
    harmonic one goes unseen on a wave whose other slots are constant."""
    from moutardnv import faddeev
    seen = []

    def spy(fw):
        seen.append(fw)
        return residual(fw)

    monkeypatch.setattr(faddeev, "residual", spy)
    calls = []

    def corrupt_slot_1(products):
        """Slot 1, the first slot the superposition forms, plus z."""
        calls.append(products)
        p = sum_of_products(products)
        return p + MPoly.monomial(1, 0, 0) if len(calls) == 1 else p

    raised = {ResidualNonzero: 0, TemporalResidualNonzero: 0}
    both = 0
    for seed, time in _one_pass_seeds()[::8]:
        frame = build_frame(nv.evolved_seed(seed), nv.extended_w(seed) if time else None)
        w = frame.w
        e = min((e for e in w.numerators if e[0] and e[1]), default=(1, 1, 0))
        cases = [("slot 1", w), ("slot 0", w + MPoly.monomial(*e, 1))]
        if time:
            cases.append(("time term", w + MPoly.monomial(0, 0, 1, 7)))
        for where, bad_w in cases:
            calls.clear()
            with monkeypatch.context() as patch:
                if where == "slot 1":
                    patch.setattr(faddeev, "sum_of_products", corrupt_slot_1)
                seen.clear()
                with pytest.raises((ResidualNonzero, TemporalResidualNonzero)) as err:
                    if time:
                        nv.nv_faddeev(seed, bad_w)
                    else:
                        faddeev.faddeev_superpose(MoutardFrame(frame.omega1, frame.omega2, bad_w))
            fw, = seen
            spatial = _first_slot(hirota_by_products(fw.psi, fw.w, D_ZZBAR))
            leg = _first_slot(hirota_by_products(fw.psi, fw.w, D_TIME_LEG))
            if spatial.is_zero():
                assert time and not leg.is_zero(), where
                expected = TemporalResidualNonzero, TIME_LEG_TEXT.format(leg.summary())
            else:
                both += time and not leg.is_zero()
                expected = ResidualNonzero, SPATIAL_TEXT.format(spatial.summary())
            assert (err.type, str(err.value)) == expected, where
            raised[err.type] += 1
    assert raised == {ResidualNonzero: 82, TemporalResidualNonzero: 8} and both == 16


def test_the_ray_check_reads_the_slots_as_one_stacked_product(monkeypatch):
    """The slot values that the ray check reads at its 12 points, by one
    `xy_read` of every slot's t^0 array, equal by == (bit for bit) those of
    the stacked product that the ray check made of its own
    (`oracles.ray_slots_by_stacked_product`), on every wave of the fixtures,
    the benchmark's static and time candidates and its cubic pool that
    reaches the rays: 292 of the 306, the other 14 having a leading form
    of W that is no single monomial."""
    wl = bench_module("workloads")
    seeds = [wl.fixture(name) for name in ("sec22", "sec22_cubic", "sec22_cubic_time", "sec32")]
    seeds += [(seed, False) for seed, _ in wl.static_candidates().values()]
    seeds += [(seed, True) for seed in wl.time_candidates().values()]
    seeds += [(seed, True) for seed in wl.cubic_pool().values()]
    read, reads = faddeev.xy_read, []

    def recorded(*args):
        reads.append(read(*args))
        return reads[-1]

    monkeypatch.setattr(faddeev, "xy_read", recorded)
    compared = 0
    for seed, time in seeds:
        fw = nv.nv_faddeev(seed) if time else build_faddeev(seed)
        reads.clear()
        try:
            scattering_data(fw)
        except AsymptoticMismatch:
            pass
        if reads:
            [got] = reads
            want = ray_slots_by_stacked_product(fw)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert (got == want).all()
            compared += 1
    assert compared == 292
