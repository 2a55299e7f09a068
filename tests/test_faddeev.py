import cmath

import pytest

from moutardnv.algebra import MPoly, RationalFn
from moutardnv.errors import AsymptoticMismatch, ResidualNonzero
from moutardnv.exppoly import WaveFn
from moutardnv.faddeev import (FaddeevWave, assert_decay_bookkeeping, build_faddeev,
                               faddeev_eval, residual, scattering_data)
from moutardnv.moutard import build_frame

from conftest import gr, poly


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
    assert fw.u == expected


def test_reference_wave_slots_exact(seed22):
    # N1, N2 of the two-slot Laurent multiplier, at the recorded W-scale -1/8
    fw = build_faddeev(seed22)
    scale = gr("-8")
    n1 = poly({(1, 1, 0): ("-32", "8"), (0, 1, 0): ("-8", "0"),
               (0, 2, 0): ("-16", "-4"), (1, 2, 0): ("-68", "0")})
    n2 = poly({(0, 1, 0): ("32", "-8"), (0, 2, 0): ("68", "0")})
    assert fw.psi.coeffs[1] * scale == n1
    assert fw.psi.coeffs[2] * scale == n2
    assert set(fw.psi.coeffs) == {0, 1, 2}
    assert fw.psi.coeffs[0] == fw.w


def test_reference_kernel_functions_scalar_match(seed22):
    # phi_1, phi_2 equal the closed-form displays up to real scalars -2, +2
    frame = build_frame(seed22)
    den = REF_POTENTIAL_DEN_ROOT
    phi1_ref = RationalFn(poly({(1, 0, 0): ("2", "0"), (0, 1, 0): ("2", "0"),
                                (2, 0, 0): ("4", "-1"), (0, 2, 0): ("4", "1")}), den)
    phi2_ref = RationalFn(poly({(1, 0, 0): ("2", "-2"), (0, 1, 0): ("2", "2"),
                                (2, 0, 0): ("3", "-5"), (0, 2, 0): ("3", "5")}), den)
    assert frame.phi1 == phi1_ref * gr("-2")
    assert frame.phi2 == phi2_ref * gr("2")


def test_residual_exact_zero(seed22):
    fw = build_faddeev(seed22)
    assert residual(fw).is_zero()


def test_residual_detects_corruption(seed22):
    fw = build_faddeev(seed22)
    bad = dict(fw.psi.coeffs)
    bad[1] = bad[1] + MPoly.var_zbar()
    broken = FaddeevWave(WaveFn(bad, den=fw.w), fw.u, fw.w)
    assert not residual(broken).is_zero()


def test_scattering_reference(seed22):
    fw = build_faddeev(seed22)
    sd = scattering_data(fw)
    assert sd.a_coeffs == {1: gr("-4")}
    assert sd.b_is_zero
    assert str(sd) == "A=-4/λ B=0"


def test_scattering_cubic_reference(seed22_cubic):
    fw = build_faddeev(seed22_cubic)
    sd = scattering_data(fw)
    assert sd.a_coeffs == {1: gr("-6")}


def test_scattering_free_wave():
    fw = FaddeevWave(WaveFn.free(), RationalFn(MPoly.zero(), MPoly.const(1)),
                     MPoly.const(1))
    assert scattering_data(fw).a_coeffs == {}


def test_scattering_rejects_bad_degree(seed22):
    fw = build_faddeev(seed22)
    bad = dict(fw.psi.coeffs)
    bad[1] = bad[1] + MPoly.var_z() ** 4
    broken = FaddeevWave(WaveFn(bad, den=fw.w), fw.u, fw.w)
    with pytest.raises(AsymptoticMismatch):
        scattering_data(broken, validate=False)


def test_ray_validation_catches_wrong_a(seed22):
    from moutardnv.faddeev import ScatteringData, _validate_rays
    fw = build_faddeev(seed22)
    with pytest.raises(AsymptoticMismatch):
        _validate_rays(fw, ScatteringData({1: gr("5")}), 1e3, 0.05)


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
    broken = FaddeevWave(WaveFn(bad, den=fw.w), fw.u, fw.w)
    with pytest.raises(AsymptoticMismatch):
        _validate_rays(broken, sd, 1e3, 0.05)


def test_decay_bookkeeping(seed22):
    assert_decay_bookkeeping(build_faddeev(seed22))


def test_wave_value_agrees_with_direct_sum(seed22):
    fw = build_faddeev(seed22)
    lam0, z0 = 0.9 + 0.3j, 1.3 - 0.8j
    got = faddeev_eval(fw, z0, 0.0, lam0)
    wv = fw.w.eval(z0)
    direct = cmath.exp(lam0 * z0) * (1
                                     + fw.psi.coeffs[1].eval(z0) / (lam0 * wv)
                                     + fw.psi.coeffs[2].eval(z0) / (lam0 ** 2 * wv))
    assert abs(got - direct) < 1e-12 * abs(got)


def test_conjugate_branch(seed22):
    fw = build_faddeev(seed22, conjugate=True)
    assert fw.conjugate
    assert fw.w.is_real_valued()
    # asymptotics follow e^{lam zb}: the rational multiplier tends to 1
    from moutardnv.exppoly import wave_multiplier
    z0 = 300.0 + 150.0j
    lam0 = 1.0
    ratio = faddeev_eval(fw, z0, 0.0, lam0) / cmath.exp(lam0 * z0.conjugate())
    assert abs(ratio - wave_multiplier(fw.psi, z0, 0.0, lam0)) < 1e-9
    assert abs(ratio - 1.0) < 0.05


def test_superposition_input_validation(seed22):
    from moutardnv.faddeev import faddeev_superpose
    from moutardnv.moutard import moutard_transform_wave
    frame = build_frame(seed22)
    psi1 = moutard_transform_wave(frame.omega1, WaveFn.free())
    psi2 = moutard_transform_wave(frame.omega2, WaveFn.free())
    with pytest.raises(ValueError):
        faddeev_superpose(frame, psi2, psi1)


def test_corrupted_wave_residual_message_is_a_summary(seed22):
    from moutardnv.faddeev import faddeev_superpose
    from moutardnv.moutard import moutard_transform_wave
    frame = build_frame(seed22)
    psi1 = moutard_transform_wave(frame.omega1, WaveFn.free())
    psi2 = moutard_transform_wave(frame.omega2, WaveFn.free())
    # a lam^-1 term leaves the omega cancellation in slot 0 intact
    bad = psi2 + WaveFn({1: MPoly.var_z() * MPoly.var_zbar()}, den=frame.omega2)
    with pytest.raises(ResidualNonzero) as err:
        faddeev_superpose(frame, psi1, bad)
    combo = WaveFn(bad.coeffs).scale(frame.omega1) - WaveFn(psi1.coeffs).scale(frame.omega2)
    coeffs = dict(combo.coeffs)
    coeffs[0] = frame.w
    res = residual(FaddeevWave(WaveFn(coeffs, den=frame.w), frame.u, frame.w))
    message = str(err.value)
    assert f"residual {len(res.terms)} terms, total degree" in message
    assert len(message) < 200 < len(str(res))
