import cmath
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from moutardnv.algebra import GR_I, GRID_STRIP, GaussianRational, MPoly, RationalFn, grid_extremes
from moutardnv.errors import CoefficientOverflow, TemporalResidualNonzero
from moutardnv.faddeev import build_faddeev, faddeev_superpose, residual, scattering_data
from moutardnv.harness import load_seed, rational_to_json
from moutardnv.moutard import SeedPair, build_frame, double_w, potential
from moutardnv import nv

from conftest import T, Z, ZB, fixture_path, from_sympy, gr, poly
from oracles import (PoleError, SingularBeforeBlowup, diff_zbar, eigen_check, frac,
                     grid_extremes_full_grid, is_real_valued, mu2_integrability,
                     nv_residual_four_products, nv_residual_two_forms, same_fraction, subs_t)
from test_properties import random_real_w, random_seed


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
    z = MPoly.monomial(1, 0, 0)
    assert nv.heat3_evolve(z * z) == z * z
    assert nv.heat3_evolve(z ** 3) == z ** 3 + MPoly.monomial(0, 0, 1) * gr(6)
    assert nv.heat3_evolve(z ** 4) == z ** 4 + MPoly.monomial(0, 0, 1) * z * gr(24)


def test_heat3_evolve_satisfies_flow_and_semigroup():
    z = MPoly.monomial(1, 0, 0)
    p = z ** 6 + z ** 4 * gr("1/3", "2") + z * gr(0, 1)
    q = nv.heat3_evolve(p)
    assert q.diff_t() == q.diff_z().diff_z().diff_z()
    # semigroup: shifting t by s equals evolving the t = s slice
    s = gr("2/7")
    shifted = _subs_t_shift(q, s)
    assert shifted == _evolve_from_slice(q, s)
    # commutes with d/dz
    assert nv.heat3_evolve(p.diff_z()) == q.diff_z()


def _subs_t_shift(q, s):
    # q(z, t + s) expanded exactly
    out = MPoly.zero()
    t, one = MPoly.monomial(0, 0, 1), MPoly.const(1)
    for (i, j, k), c in q.terms.items():
        out = out + MPoly.monomial(i, j, 0, c) * ((t + one * s) ** k)
    return out


def _evolve_from_slice(q, s):
    return nv.heat3_evolve(subs_t(q, s))


def test_extended_w_reference(seed32):
    wt = nv.extended_w(seed32)
    assert wt == RAW_Q * gr("1/3", "1/3")
    assert is_real_valued(wt)


def test_extended_w_t0_slice_is_static(seed32):
    wt = nv.extended_w(seed32)
    assert subs_t(wt, 0) == double_w(seed32)


def test_extended_w_degenerate():
    p = MPoly.monomial(2, 0, 0)
    assert nv.extended_w(SeedPair(p, p, gr(5))) == MPoly.const(5)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_extended_w_time_term_is_the_one_both_residuals_accept(degree):
    """W is double_w of the evolved seed plus a polynomial in t alone, and
    both exact residuals accept it; with 7t or 5t^2 added, or without that
    polynomial, both reject it."""
    seed = random_seed(random.Random(400 + degree), degree, constant=True)
    es = nv.evolved_seed(seed)
    w = nv.extended_w(seed)
    c = w + -double_w(es)
    assert c.deg_t() >= 1 and all(e[:2] == (0, 0) for e in c.numerators)
    for term, good in ((MPoly.zero(), True), (MPoly.monomial(0, 0, 1, 7), False),
                       (MPoly.monomial(0, 0, 2, 5), False), (-c, False)):
        wt = w + term
        assert nv.nv_residual(nv.nv_potentials(wt)).is_zero() == good, term
        fw = faddeev_superpose(build_frame(es, wt), time_phase=True)
        assert nv.temporal_residual(fw).is_zero() == good, term


def test_nv_potentials_reference(seed32):
    wt = nv.extended_w(seed32)
    U = nv.nv_potentials(wt)
    q2 = RAW_Q * RAW_Q
    assert U.base is wt
    assert same_fraction(U, RationalFn(REF_U_NUM, q2))
    assert same_fraction(nv.nv_v(wt), RationalFn(REF_V_NUM, q2))
    assert frac(U).is_real_valued()
    # vanishes at the origin for every t
    for k in range(REF_U_NUM.deg_t() + 1):
        assert U.num.coeff(0, 0, k).is_zero()


@pytest.mark.parametrize("name", ["sec32", "sec22_cubic_time"])
def test_u_is_minus_four_nv_u(name):
    """On the time fixtures u = -2 Laplacian(log W) is -4U, exactly and in
    the canonical JSON that `mnv potential` and `mnv nv-evolve` write."""
    w = nv.extended_w(load_seed(fixture_path(f"{name}.json"))[0])
    assert rational_to_json(nv.nv_potentials(w) * -4) == rational_to_json(potential(w))


def test_nv_constraint_exact(seed32):
    """dbar V = d U, both sides 2 d^2 dbar log W, for every nonzero W: on
    sec32's W and on random real W with t of spatial degree 2-5."""
    rng = random.Random(20261021)
    ws = [nv.extended_w(seed32)] + [random_real_w(rng, degrees=(2, 5)) for _ in range(12)]
    for trial, w in enumerate(ws):
        assert same_fraction(frac(nv.nv_v(w)).diff_zbar(), frac(nv.nv_potentials(w)).diff_z()), \
            f"trial {trial}"


def test_nv_residual_equals_the_four_product_form(seed32):
    """The three-product residual is the four-product one, exactly: on sec32,
    on the cubic time fixture, and on random real W with t of spatial degree
    2-5, with a constant W_t and without; W + 7t, W + 5t^2 and W - c(t)
    stay rejected."""
    rng = random.Random(20261020)
    fixed = [nv.extended_w(seed32),
             nv.extended_w(load_seed(fixture_path("sec22_cubic_time.json"))[0])]
    varying = [w for w in (random_real_w(rng, degrees=(2, 5)) for _ in range(20))
               if not w.diff_t().is_constant()][:6]
    constant = [subs_t(w, 0) + MPoly.monomial(0, 0, 1, rng.choice([-7, 3])) for w in varying]
    assert len(varying) == 6
    seed = nv.evolved_seed(random_seed(random.Random(402), 2, constant=True))
    w = nv.extended_w(seed)
    rejected = [w + MPoly.monomial(0, 0, 1, 7), w + MPoly.monomial(0, 0, 2, 5), double_w(seed)]
    for trial, w in enumerate(fixed + varying + constant + rejected):
        U = nv.nv_potentials(w)
        res = nv.nv_residual(U)
        assert res == nv_residual_four_products(U), f"trial {trial}"
        if w in fixed or w in rejected:
            assert res.is_zero() == (w in fixed), f"trial {trial}"


def test_nv_residual_zero_for_construction(seed32):
    assert nv.nv_residual(nv.nv_potentials(nv.extended_w(seed32))).is_zero()


def test_nv_residual_zero_for_trivial():
    U = nv.nv_potentials(MPoly.const(1))
    assert U.num.is_zero() and nv.nv_v(MPoly.const(1)).num.is_zero()
    assert nv.nv_residual(U).is_zero()


def test_nv_residual_nonzero_for_frozen_potential():
    # a static denominator outside the constructed class fails the evolution;
    # note 1 + z zb itself is stationary (it arises from degree-one data), so a
    # quartic is used here
    zzb = MPoly.monomial(1, 1, 0)
    wt = MPoly.const(1) + zzb + zzb * zzb
    r = nv.nv_residual(nv.nv_potentials(wt))
    assert not r.is_zero()
    assert abs(r.eval(0.5 + 0.2j, 0.0)) > 1e-12


def test_nv_faddeev_mu_reference(seed32):
    fw = nv.nv_faddeev(seed32)
    mus = nv.kernel_mu(fw)
    mu1_ref = RationalFn(from_sympy(6 * (-2 * sp.I * Z * ZB ** 2 - 2 * sp.I * Z * ZB
                                         + Z ** 2 + 2 * Z * ZB ** 2 + ZB ** 2)), RAW_Q)
    mu2_ref = RationalFn(from_sympy(12 * (sp.I * ZB ** 2 + sp.I * ZB - Z - ZB ** 2)), RAW_Q)
    assert same_fraction(mus[1], mu1_ref)
    assert same_fraction(mus[2], mu2_ref)


def test_nv_faddeev_scattering_stationary(seed32):
    fw = nv.nv_faddeev(seed32)
    sd = scattering_data(fw)
    assert sd.a_coeffs == {1: gr("-4")}      # exact, with no t anywhere in it
    assert str(sd).endswith(" B=0")           # as `mnv nv-faddeev` prints it


def test_nv_faddeev_residuals(seed32):
    fw = nv.nv_faddeev(seed32)
    assert residual(fw).is_zero()
    assert nv.temporal_residual(fw).is_zero()


def test_nv_faddeev_t0_slice_matches_static(seed32):
    fw_t = nv.nv_faddeev(seed32)
    fw_s = build_faddeev(seed32)
    assert subs_t(fw_t.w, 0) == fw_s.w
    assert set(fw_t.psi.coeffs) == set(fw_s.psi.coeffs)
    for k, f in fw_s.psi.coeffs.items():
        assert subs_t(fw_t.psi.coeffs[k], 0) == f


def test_temporal_residual_detects_frozen_wave(seed32):
    from moutardnv.exppoly import WaveFn
    from moutardnv.faddeev import FaddeevWave
    fw = nv.nv_faddeev(seed32)
    frozen = WaveFn({k: subs_t(f, 0) for k, f in fw.psi.coeffs.items()}, time_phase=True)
    broken = FaddeevWave(frozen)
    assert not nv.temporal_residual(broken).is_zero()


def test_blowup_reference(seed32):
    wt = nv.extended_w(seed32)
    rep = nv.blowup_time(wt)
    assert rep.found
    assert abs(rep.t_star - 29.0 / 12.0) < 1e-6
    # W0 is least at (-1, 0) and (0, -1); the grid argmin takes the least x
    x, y = rep.witness
    assert abs(x + 1) + abs(y) < 1e-4


def test_blowup_trivial_cases():
    t, one = MPoly.monomial(0, 0, 1), MPoly.const(1)
    rep = nv.blowup_time(t + -one)
    assert rep.found and abs(rep.t_star - 1.0) < 1e-9
    zzb = MPoly.monomial(1, 1, 0)
    rep2 = nv.blowup_time(t + one + zzb)
    assert not rep2.found
    rep3 = nv.blowup_time(zzb + -one + t)
    assert rep3.found and rep3.t_star == 0.0


def test_blowup_where_the_enumeration_misses_the_minimum():
    # W = -20 + 2t + S(x, y) with max S = 8 at (2, -2): t_star = 6 exactly
    # (checked by sympy). A float enumeration of the stationary points of
    # t(x, y) missed that point and gave 9.95 from another; grid and descent
    # give 6.
    z = MPoly.monomial(1, 0, 0)
    seed = SeedPair(z * z * gr("1/4"), z * gr(2, 1) + z * z * gr(1, "-3/4"), gr(-20))
    rep = nv.blowup_time(nv.extended_w(seed))
    assert rep.found and abs(rep.t_star - 6.0) < 1e-9
    assert abs(rep.witness[0] - 2.0) < 1e-6 and abs(rep.witness[1] + 2.0) < 1e-6


def test_blowup_affine_reference_is_closed(seed32):
    # W = W0 - 12 t with min W0 = 29: t_star = 29/12 with no bisection tolerance
    rep = nv.blowup_time(nv.extended_w(seed32))
    assert abs(rep.t_star - 29.0 / 12.0) < 1e-12


def _paraboloid(z0, c, slope):
    """|z - z0|^2 + c + slope * t."""
    z, zb, t = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0), MPoly.monomial(0, 0, 1)
    return ((z + -MPoly.const(z0)) * (zb + -MPoly.const(z0.conjugate()))
            + MPoly.const(c) + t * slope)


@pytest.mark.parametrize("slope", [-1, 0])
def test_blowup_zero_between_grid_nodes_at_t0(slope):
    # the t = 0 grid stays positive, but W0 dips to -1/10000 at z0 between its
    # nodes: the zero is already there at t = 0, whatever the t term
    z0 = gr("1/3", "2/7")
    rep = nv.blowup_time(_paraboloid(z0, gr("-1/10000"), slope))
    assert rep.found and rep.t_star == 0.0
    assert abs(complex(*rep.witness) - complex(z0)) < 1e-6


BOX, GRID_N = nv.BLOWUP_BOX, nv.BLOWUP_GRID_N


def _blowup_axes():
    return np.linspace(BOX[0], BOX[1], GRID_N), np.linspace(BOX[2], BOX[3], GRID_N)


def _blowup_tables(w):
    """The x-y coefficients of w and the power tables of `nv.blowup_time`'s
    grid for them."""
    a = w.xy_coefficients().real
    xs, ys = _blowup_axes()
    return a, np.vander(xs, a.shape[1], increasing=True), np.vander(ys, a.shape[2], increasing=True)


def _node(ix, iy):
    xs, ys = _blowup_axes()
    return float(xs[ix]), float(ys[iy])


# an x-column on either side of the first strip boundary, and one in the
# last, partial strip (x = 4.8125)
@pytest.mark.parametrize("column", [GRID_STRIP - 1, GRID_STRIP, GRID_N - 4])
def test_blowup_grid_reads_every_strip(column):
    # W = |z - z0|^2 + 1 - t with z0 on a grid node: its one least node, of
    # value 1, and of W - 1 its one zero, whichever strip of columns holds it;
    # read [x, y] as the blow-up search reads it, and [y, x]
    assert GRID_N % GRID_STRIP and (GRID_N - 4) // GRID_STRIP == GRID_N // GRID_STRIP
    x0, y0 = _node(column, 110)
    w = _paraboloid(gr(x0, y0), gr(1), -1)
    a, vx, vy = _blowup_tables(w)
    for c, v1, v2, node in ((a[0], vx, vy, (column, 110)), (a[0].T, vy, vx, (110, column))):
        got = grid_extremes(c, v1, v2)
        assert got == grid_extremes_full_grid(c, v1, v2)
        assert got[0] == 1.0 and got[2] == got[4] == node
    assert nv.blowup_time(w + MPoly.const(-1) + MPoly.monomial(0, 0, 1)) == \
        nv.BlowupReport(True, 0.0, (x0, y0), "grid")
    rep = nv.blowup_time(w)
    assert rep.found and rep.t_star == 1.0 and rep.witness == (x0, y0)


def test_blowup_grid_ties_take_the_least_x():
    # y^2 + ((x + 3) x)^2 is exactly 0 at the nodes (-3, 0) and (0, 0), which
    # lie in two strips of x-columns: the least node, and the argmin of it
    # plus 1, is the one of least x; read [y, x], both lie in row 80
    assert 32 // GRID_STRIP != 80 // GRID_STRIP
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    x, y = (z + zb) * Fraction(1, 2), (z + -zb) * gr(0, Fraction(-1, 2))
    w = y * y + ((x + MPoly.const(3)) * x) ** 2
    a, vx, vy = _blowup_tables(w)
    for c, v1, v2, node in ((a[0], vx, vy, (32, 80)), (a[0].T, vy, vx, (80, 32))):
        got = grid_extremes(c, v1, v2)
        assert got == grid_extremes_full_grid(c, v1, v2)
        assert got[0] == 0.0 and got[4] == node
    assert nv.blowup_time(w) == nv.BlowupReport(True, 0.0, (-3.0, 0.0), "grid")
    w1 = w + MPoly.const(1) + MPoly.monomial(0, 0, 1, -1)
    a, vx, vy = _blowup_tables(w1)
    assert grid_extremes(a[0], vx, vy)[2] == (32, 80)
    assert nv.blowup_time(w1) == nv.BlowupReport(True, 1.0, (-3.0, 0.0), "grid+descent")


def test_blowup_grid_beyond_float_range_is_input_error():
    # 10^306 (|z|^6 - |z|^2) + 1 - t is negative near |z| = 1 at t = 0, and
    # its grid leaves float range from |z| = 5 on: an inf or NaN there is no
    # value of W, so the search neither finds a zero nor rules one out
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    r2 = z * zb
    w = (r2 ** 3 + -r2) * 10 ** 306 + MPoly.const(1) + MPoly.monomial(0, 0, 1, -1)
    assert np.isfinite(w.xy_coefficients()).all()
    with pytest.raises(CoefficientOverflow, match="float range"):
        nv.blowup_time(w)


@pytest.mark.parametrize("c,slope,t_max", [(20, -1, 10.0),    # t_star = 20 > t_max
                                           (1, 1, 10.0),      # s kappa > 0
                                           (1, 0, 10.0),      # no t term
                                           (1, -1, 0.5)])     # t_star = 1 > t_max
def test_blowup_affine_without_a_zero_up_to_t_max(c, slope, t_max, monkeypatch):
    monkeypatch.setattr(nv, "BLOWUP_T_MAX", t_max)
    rep = nv.blowup_time(_paraboloid(gr("1/3", "2/7"), gr(c), slope))
    assert not rep.found and rep.t_star is None and rep.witness is None


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
    # W at c = 0, which may be zero: extended_w rejects that W, not W + 1
    w = nv.extended_w(SeedPair(p1, p2, gr(1))) + MPoly.const(-1)
    s = -1 if w.coeff(2, 2).re < 0 else 1
    xs = np.linspace(BOX[0], BOX[1], GRID_N)
    w0 = subs_t(w, 0).eval(xs[None, :] + 1j * xs[:, None]).real
    c = s * (draw(st.sampled_from([-1, 1, 3, 10, 40])) - math.floor((s * w0).min()))
    return nv.extended_w(SeedPair(p1, p2, gr(c)))


@settings(max_examples=40, deadline=None)
@given(degree2_time_w())
def test_blowup_closed_form_agrees_with_the_scan(w):
    assert nv._constant_slope(w) is not None
    rep = nv.blowup_time(w)
    with mock.patch.object(nv, "_constant_slope", lambda q: None):
        scan = nv.blowup_time(w)
    assert (rep.found, rep.method, rep.t_star == 0.0) == \
        (scan.found, scan.method, scan.t_star == 0.0)
    if rep.found:
        assert abs(rep.t_star - scan.t_star) <= 1e-10


@st.composite
def real_w_of_t_degree_at_most_1(draw):
    """q + conj(q) for up to six terms of q, of z- and zb-degree up to 3 and
    t-degree up to 1."""
    expo = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1))
    terms = draw(st.dictionaries(expo, _coeff, min_size=1, max_size=6))
    q = sum((MPoly.monomial(i, j, k, c) for (i, j, k), c in terms.items()), MPoly.zero())
    w = q + q.conj_swap()
    assume(not w.is_zero())
    return w


@settings(max_examples=30, deadline=None)
@given(real_w_of_t_degree_at_most_1())
def test_nv_residual_equals_the_two_form_reference(w):
    U = nv.nv_potentials(w)
    assert nv.nv_residual(U) == nv_residual_two_forms(U)


def _xy_poly(fn):
    """fn(x, y) for the real coordinates x = (z + zb)/2, y = (z - zb)/(2i)."""
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    return fn((z + zb) * gr("1/2"), (z + -zb) * gr(0, "-1/2"))


@pytest.mark.parametrize("tterm", [lambda t: t * t, lambda t: -t], ids=["t^2", "-t"])
def test_blowup_zero_past_the_box_at_t0(tterm):
    # W0 = 200 - x^3 + y^2 is positive on the grid but vanishes at
    # (200^(1/3), 0), just past it; the t = 0 descent runs off along +x, and
    # the witness is the zero on the way, whether W is affine in t or not
    t = MPoly.monomial(0, 0, 1)
    q = _xy_poly(lambda x, y: MPoly.const(200) + -x * x * x + y * y) + tterm(t)
    rep = nv.blowup_time(q)
    assert rep.found and rep.t_star == 0.0 and rep.method == "grid+descent"
    assert abs(rep.witness[0] - 200 ** (1 / 3)) < 1e-6 and abs(rep.witness[1]) < 1e-6


def test_blowup_shifted_paraboloid_is_exact():
    # |z - z0|^2 + 1 - t, z0 off the grid: first zero at t = 1, z = z0
    z0 = gr("1/3", "2/7")
    z, zb, t = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0), MPoly.monomial(0, 0, 1)
    one = MPoly.const(1)
    q = (z + -MPoly.const(z0)) * (zb + -MPoly.const(z0.conjugate())) + one + -t
    rep = nv.blowup_time(q)
    assert rep.found and abs(rep.t_star - 1.0) < 1e-9
    assert rep.method == "grid+descent"
    assert abs(rep.witness[0] - 1 / 3) < 1e-9 and abs(rep.witness[1] - 2 / 7) < 1e-9


def test_blowup_quadratic_in_t_uses_descent_alone():
    # deg_t = 2: the grid scan and the descent give t_star and z0
    z0 = gr("-5/7", "3/11")
    z, zb, t = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0), MPoly.monomial(0, 0, 1)
    one = MPoly.const(1)
    q = (z + -MPoly.const(z0)) * (zb + -MPoly.const(z0.conjugate())) + one + -t * t
    rep = nv.blowup_time(q)
    assert rep.found and rep.method == "grid+descent"
    assert abs(rep.t_star - 1.0) < 1e-9
    assert abs(rep.witness[0] + 5 / 7) < 1e-9 and abs(rep.witness[1] - 3 / 11) < 1e-9


def test_blowup_descent_from_an_indefinite_hessian(monkeypatch):
    # (x^2 - 1)^2 + y^2 + 1 - t: on a 3x3 grid the start is (-0.4, 0), where
    # q_xx = 12x^2 - 4 < 0; the descent must still reach a minimum (+-1, 0).
    # Each step must lower a value rounded to ~1e-16, so x is good to ~1e-8.
    q = _xy_poly(lambda x, y: (x * x + MPoly.const(-1)) ** 2 + y * y
                 + MPoly.const(1) + MPoly.monomial(0, 0, 1, -1))
    box = (-0.4, 5.0, -1.0, 1.0)
    _, _, ((hxx, hxy), (_, hyy)) = nv._slice_objective(q.xy_coefficients(), 0.5, 1.0)((-0.4, 0))
    assert hxx * hyy - hxy * hxy < 0
    monkeypatch.setattr(nv, "BLOWUP_BOX", box)
    monkeypatch.setattr(nv, "BLOWUP_GRID_N", 3)
    rep = nv.blowup_time(q)
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
    q = nv.extended_w(seed32)
    dx = lambda p: p.diff_z() + diff_zbar(p)
    dy = lambda p: (p.diff_z() + -diff_zbar(p)) * GR_I
    exact = (q, dx(q), dy(q), dx(dx(q)), dx(dy(q)), dy(dy(q)))
    for t, sign in ((0.7, 1.0), (2.1, -1.0)):
        fun = nv._slice_objective(q.xy_coefficients(), t, sign)
        for x, y in ((0.3, -1.2), (-2.0, 0.9)):
            f, (gx, gy), ((hxx, hxy), (hyx, hyy)) = fun((x, y))
            ref = [sign * p.eval(complex(x, y), t).real for p in exact]
            got = [f, gx, gy, hxx, hxy, hyy]
            assert hxy == hyx
            assert all(abs(a - b) < 1e-9 * (1 + abs(b)) for a, b in zip(got, ref))


def test_mu2_integrability_report(seed32):
    fw = nv.nv_faddeev(seed32)
    rep = mu2_integrability(nv.nv_potentials(fw.w), fw, [0.0, 2.0], r_outer=40.0, t_star=29 / 12)
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
    rep = mu2_integrability(nv.nv_potentials(fw.w), fw, [0.0], r_outer=40.0, t_star=29 / 12)
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
    U = nv.nv_potentials(fw.w)
    with pytest.raises(SingularBeforeBlowup):
        mu2_integrability(U, fw, [3.0], t_star=10.0)
    with pytest.raises(PoleError):
        mu2_integrability(U, fw, [29 / 12], t_star=None)


def test_temporal_residual_message_is_a_summary(seed32, monkeypatch):
    zb = MPoly.monomial(0, 1, 0, gr("123456789/987654321", "-1/7"))
    big = (MPoly.monomial(1, 0, 0) + zb) ** 9
    monkeypatch.setattr(nv, "temporal_residual", lambda fw: big)
    with pytest.raises(TemporalResidualNonzero) as err:
        nv.nv_faddeev(seed32)
    message = str(err.value)
    assert "residual 10 terms, total degree 9, leading term" in message
    assert len(message) < 200 < len(str(big))


def test_eigen_check_rejects_a_non_harmonic_numerator(seed32):
    fw = nv.nv_faddeev(seed32)
    U = nv.nv_potentials(fw.w)
    n2 = fw.psi.coeffs[2]
    harmonic = n2 + n2.conj_swap()
    assert eigen_check(harmonic, U)
    assert not eigen_check(harmonic + fw.w * MPoly.monomial(1, 0, 0), U)
    rep = mu2_integrability(U * 2, fw, [])
    assert not rep.harmonic_real and not rep.harmonic_imag


def test_an_evolved_seed_is_not_evolved_again(seed32):
    assert nv.evolved_seed(seed32) is seed32        # quadratics are their own evolution
    cubic = SeedPair(MPoly.monomial(3, 0, 0), MPoly.monomial(1, 0, 0), gr(-20))
    es = nv.evolved_seed(cubic)
    assert es.p1.deg_t() == 1 and nv.evolved_seed(es) is es
    # a seed from outside is evolved on every call, one heat3_evolve per polynomial
    with mock.patch.object(nv, "heat3_evolve", wraps=nv.heat3_evolve) as evolve:
        again = nv.evolved_seed(cubic)
        assert evolve.call_count == 2 and again == es and again is not es


def manakov_remainder(a=3, b=3):
    """(L_t + [L, A] - B L) psi + 4 r psi for L = -4 d dbar + u, u = -4U,
    A = d^3 + dbar^3 + a V d + a Vb dbar, B = b (V_z + Vb_zb) and the
    evolution residual r = U_t - U_zzz - U_zbzbzb - 3(VU)_z - 3(Vb U)_zb, with
    U, V, Vb and psi functions of z, zb and t, and dbar V = d U,
    d Vb = dbar U imposed by writing every derivative of V (Vb) that has a
    zb (z) as one of U."""
    U, V, Vb, psi = (sp.Function(name)(Z, ZB, T) for name in ("U", "V", "Vb", "psi"))
    u = -4 * U

    def op_l(f):
        return -4 * sp.diff(f, Z, ZB) + u * f

    def op_a(f):
        return sp.diff(f, Z, 3) + sp.diff(f, ZB, 3) + a * V * sp.diff(f, Z) + a * Vb * sp.diff(f, ZB)

    r = (sp.diff(U, T) - sp.diff(U, Z, 3) - sp.diff(U, ZB, 3) - 3 * sp.diff(V * U, Z)
         - 3 * sp.diff(Vb * U, ZB))
    expr = sp.expand(sp.diff(u, T) * psi + op_l(op_a(psi)) - op_a(op_l(psi))
                     - b * (sp.diff(V, Z) + sp.diff(Vb, ZB)) * op_l(psi) + 4 * r * psi)
    subs = {}
    for d in expr.atoms(sp.Derivative):
        n = {Z: 0, ZB: 0, T: 0, **dict(d.variable_count)}
        if d.expr == V and n[ZB]:
            n[Z], n[ZB] = n[Z] + 1, n[ZB] - 1
        elif d.expr == Vb and n[Z]:
            n[Z], n[ZB] = n[Z] - 1, n[ZB] + 1
        else:
            continue
        subs[d] = sp.diff(U, *((x, k) for x, k in n.items() if k))
    return sp.expand(expr.xreplace(subs)), psi


def test_manakov_identity():
    """L_t + [L, A] - 3(V_z + Vb_zb) L is multiplication by -4 times the
    evolution residual (README, "The Lax triple"), so an exact wave with
    L psi = 0 and psi_t = A psi forces r psi = 0.  With 2V in place of 3V in
    A, or 2 or 0 in place of B's 3, derivatives of psi are left over."""
    remainder, _ = manakov_remainder()
    assert remainder == 0
    for a, b in ((2, 3), (3, 2), (3, 0)):
        remainder, psi = manakov_remainder(a, b)
        assert any(d.expr == psi for d in remainder.atoms(sp.Derivative)), (a, b)
