import cmath
import math

import numpy as np
import pytest

from moutardnv.algebra import MPoly, RationalFn
from moutardnv.exppoly import WaveFn, wave_eval
from moutardnv.faddeev import FaddeevWave, build_faddeev
from moutardnv.harness import (MAX_GRID_N, GridSpec, fd_residual, load_seed, poly_to_json,
                               rational_to_json, sample_grid, save_seed, seed_from_json,
                               seed_to_json, write_grid_csv)
from moutardnv.moutard import build_frame, kernel_functions
from moutardnv import nv

from conftest import fixture_path, gr, poly
from oracles import (decay_fit, fd_residual_by_wave_eval, fd_residual_per_step, free_wave,
                     hermitian_square_certificate, poly_from_json, rational_from_json,
                     same_fraction, sign_check)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0, 1, 5)
    xs, ys = GridSpec(-1, 1, -2, 2, 3).points()
    assert list(xs) == [-1, 0, 1]
    assert list(ys) == [-2, 0, 2]
    # n^2 points are held at once: a larger n is rejected before any is made
    assert GridSpec(0, 1, 0, 1, MAX_GRID_N).n == MAX_GRID_N
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 30000)


def test_fd_residual_reference(seed22):
    fw = build_faddeev(seed22)
    rep = fd_residual(fw.u, fw, 1.0, GridSpec(-3, 3, -3, 3, 7), 1e-3)
    assert abs(rep.order - 2.0) <= 0.1


def test_fd_residual_free_wave():
    u = RationalFn(MPoly.zero(), MPoly.const(1))
    free = FaddeevWave(free_wave())
    rep = fd_residual(u, free, 1.0, GridSpec(-1, 1, -1, 1, 5), 1e-2)
    assert abs(rep.order - 2.0) <= 0.1


def test_fd_residual_corrupted_wave(seed22):
    fw = build_faddeev(seed22)
    bad = dict(fw.psi.coeffs)
    bad[1] = bad[1] + MPoly.monomial(0, 1, 0, gr("1/1000"))
    broken = FaddeevWave(WaveFn(bad))
    rep = fd_residual(fw.u, broken, 1.0, GridSpec(-2, 2, -2, 2, 5), 1e-2)
    assert rep.order < 1.0


def assert_same_fd_report(rep, ref):
    assert (rep.h, rep.points_used) == (ref.h, ref.points_used)
    for got, want in ((rep.res_h, ref.res_h), (rep.res_half, ref.res_half)):
        assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("name", ["sec22", "sec22_cubic", "sec32"])
def test_fd_residual_reads_both_steps_at_once(name):
    """One read of the wave for both steps gives the report of one read per
    step: the same points, the same residuals to rounding."""
    seed, time = load_seed(fixture_path(f"{name}.json"))
    fw = nv.nv_faddeev(seed) if time else build_faddeev(seed)
    grid = GridSpec(-2, 2, -2, 2, 7)
    rep = fd_residual(fw.u, fw, 1.0, grid, 1e-2)
    assert rep.points_used == 49
    assert_same_fd_report(rep, fd_residual_per_step(fw.u, fw, 1.0, grid, 1e-2))


@pytest.mark.parametrize("name,t", [("sec22", 0.0), ("sec22_cubic", 0.0), ("sec32", 0.0),
                                    ("sec32", 0.5)])
def test_fd_residual_equals_the_wave_eval_reader(name, t):
    """Rows gathered from the stencil tables give the report of the reader
    that evaluated u and the wave at the points themselves, by ==: the
    three fixtures, and the time wave at a later t."""
    seed, time = load_seed(fixture_path(f"{name}.json"))
    fw = nv.nv_faddeev(seed) if time else build_faddeev(seed)
    grid = GridSpec(-2, 2, -2, 2, 7, t)
    rep = fd_residual(fw.u, fw, 1.0, grid, 1e-2)
    assert rep.points_used == 49
    assert rep == fd_residual_by_wave_eval(fw.u, fw, 1.0, grid, 1e-2)


def test_decay_fit_reference_rates(seed22, seed32):
    fw = build_faddeev(seed22)
    frame = build_frame(seed22)
    _, _, phi1, phi2 = kernel_functions(frame.omega1, frame.omega2, frame.w)
    assert abs(decay_fit(fw.u).exponent + 6) < 0.2
    assert abs(decay_fit(phi1).exponent + 2) < 0.2
    assert abs(decay_fit(phi2).exponent + 2) < 0.2
    U = nv.nv_potentials(nv.extended_w(seed32))
    assert abs(decay_fit(U, t0=0.0).exponent + 3) < 0.2


def test_decay_fit_trivial():
    den = MPoly.const(1) + MPoly.monomial(1, 1, 0)
    f = RationalFn(MPoly.const(1), den)
    fit = decay_fit(f)
    assert abs(fit.exponent + 2) < 0.05
    assert fit.residual < 0.01


def test_sign_check_reference(seed22):
    fw = build_faddeev(seed22)
    rep = sign_check(fw.u, GridSpec(-5, 5, -5, 5, 41))
    assert rep.verdict == "nonpositive"
    assert rep.certificate
    assert "nonpositive" in rep.certificate_detail


def test_sign_check_zero_and_positive():
    zero = RationalFn(MPoly.zero(), MPoly.const(1))
    assert sign_check(zero, GridSpec(-1, 1, -1, 1, 5)).verdict == "nonpositive"
    den = MPoly.const(1) + MPoly.monomial(1, 1, 0)
    pos = RationalFn(MPoly.const(1), den)
    rep = sign_check(pos, GridSpec(-1, 1, -1, 1, 5))
    assert rep.verdict == "positive-somewhere"
    assert rep.witness is not None


def test_hermitian_square_certificate_cases():
    # (2z+1)(2zb+1) scaled by -3
    num = poly({(1, 1, 0): ("-12", "0"), (1, 0, 0): ("-6", "0"),
                (0, 1, 0): ("-6", "0"), (0, 0, 0): ("-3", "0")})
    ok, detail = hermitian_square_certificate(num)
    assert ok and "nonpositive" in detail
    bad = poly({(1, 1, 0): ("1", "0"), (0, 0, 0): ("-1", "0")})
    ok2, detail2 = hermitian_square_certificate(bad)
    assert not ok2


def test_seed_roundtrip_bit_exact(tmp_path, seed22, seed22_cubic, seed32):
    for s, time in ((seed22, False), (seed22_cubic, False), (seed32, True)):
        p = tmp_path / "seed.json"
        save_seed(p, s, time)
        got, gtime = load_seed(p)
        assert got.p1 == s.p1 and got.p2 == s.p2 and got.c == s.c
        assert gtime == time
        # serialize twice: byte-identical
        text1 = p.read_text()
        save_seed(p, got, gtime)
        assert p.read_text() == text1


def test_fixture_files_roundtrip():
    for name in ("sec22.json", "sec22_cubic.json", "sec22_cubic_time.json", "sec32.json"):
        seed, time = load_seed(fixture_path(name))
        again, time2 = seed_from_json(seed_to_json(seed, time))
        assert again.p1 == seed.p1 and again.p2 == seed.p2 and again.c == seed.c
        assert time2 == time


def test_poly_and_rational_json_roundtrip(seed22):
    fw = build_faddeev(seed22)
    assert poly_from_json(poly_to_json(fw.w)) == fw.w
    r = rational_from_json(rational_to_json(fw.u))
    assert same_fraction(r, fw.u)


def test_grid_csv_format(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid_csv(path, [(0.1, 0.2, 0.0, 1.0 / 3.0, -2.0 / 7.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,t,re,im"
    fields = lines[1].split(",")
    assert fields[3] == format(1.0 / 3.0, ".17g")
    assert float(fields[4]) == -2.0 / 7.0


def test_grid_csv_rows_are_the_per_value_format(tmp_path):
    """One printf-style format per row writes the bytes of
    format(float(v), ".17g") per value: on -0.0, subnormals, 1e+-300,
    integers, and the rows sample_grid leaves after its NaN points, at an
    integer t."""
    rows = [(-0.0, 0.0, 0, 5e-324, -2.2250738585072014e-308 / 3),
            (1e300, -1e-300, 3, 1.0000000000000002, -7),
            (0.1, 1.0 / 3.0, 2.5, math.pi, -0.0),
            (-1.7976931348623157e308, 2 ** 60, -4, 1e-310, 123456789012345678)]
    grid = GridSpec(-1, 1, -1, 1, 5, t=2)
    sampled = list(sample_grid(lambda z, t: np.where(z.real > 0.2, np.nan, z * t - 0.5j), grid))
    assert len(sampled) == 15 and all(t == 2 and isinstance(t, int) for _, _, t, _, _ in sampled)
    rows += sampled
    path = tmp_path / "grid.csv"
    write_grid_csv(path, rows)
    expected = "x,y,t,re,im\n" + "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                                         for row in rows)
    assert path.read_text() == expected


def scalar_reference(fn, grid):
    """(x, y, fn(z)) in row-major order at the grid points where fn is not
    NaN, one point at a time."""
    xs, ys = grid.points()
    out = []
    for y0 in ys:
        for x0 in xs:
            v = complex(fn(np.array(complex(x0, y0))))
            if not cmath.isnan(v):
                out.append((float(x0), float(y0), v))
    return out


def test_pole_mask_matches_scalar_reference():
    base = MPoly.monomial(1, 1, 0) + MPoly.const(-1)             # zero on |z| = 1
    u = RationalFn(MPoly.const(1), base)
    grid = GridSpec(-1, 1, -1, 1, 9)                            # 4 points on |z| = 1
    ref = scalar_reference(lambda z: u.eval(z, grid.t), grid)
    rows = list(sample_grid(u.eval, grid))
    assert len(rows) == len(ref) == 77
    for (x, y, t, re, im), (rx, ry, v) in zip(rows, ref):
        assert (x, y, t) == (rx, ry, grid.t)
        assert abs(complex(re, im) - v) <= 1e-12 * abs(v)

    # a stencil point on the circle drops its grid point, one point at a time:
    # the wave's W, its slot 0, is base, and its multiplier base + (z + 2)/lam
    # is z + 2 there
    psi = WaveFn({0: base, 1: MPoly.monomial(1, 0, 0) + MPoly.const(2)})
    h = 0.25

    def stencil_ok(z):
        if any(np.isnan(wave_eval(psi, base, z + dz, grid.t, 1.0))
               for dz in (0, h, -h, 1j * h, -1j * h)):
            return complex("nan")
        return u.eval(z, grid.t)

    rep = fd_residual(u, FaddeevWave(psi), 1.0, grid, h)
    assert rep.points_used == len(scalar_reference(stencil_ok, grid)) < 77
    assert_same_fd_report(rep, fd_residual_per_step(u, FaddeevWave(psi), 1.0, grid, h))
    assert rep == fd_residual_by_wave_eval(u, FaddeevWave(psi), 1.0, grid, h)

    # ties at the maximum 16 go to the first point in row-major order
    best = max(ref, key=lambda r: r[2].real)
    rep = sign_check(u, grid)
    assert rep.max_value == best[2].real == 16.0
    assert rep.witness == best[:2] == (-0.25, -1.0)


def test_sample_grid_order_and_pole_skip():
    den = MPoly.monomial(1, 1, 0) + MPoly.const(-1)
    f = RationalFn(MPoly.const(1), den)
    rows = list(sample_grid(lambda z, t: f.eval(z, t), GridSpec(-1, 1, -1, 1, 3)))
    # y outer, x inner; the 4 pole points (|z| = 1) are skipped
    assert [(r[0], r[1]) for r in rows] == [(-1.0, -1.0), (1.0, -1.0),
                                            (0.0, 0.0), (-1.0, 1.0), (1.0, 1.0)]
