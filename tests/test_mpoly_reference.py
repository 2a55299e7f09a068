"""The integer-numerator MPoly core against a plain Fraction reference.

The reference keeps each polynomial as a dict (i, j, k) -> (re, im) of
Fractions and implements every operation term by term, the way the core did
before it moved to Gaussian-integer numerators over one denominator.  The
x-y evaluator is checked against the term-by-term `oracles.eval_naive`, and the
x-y coefficients it reads against sympy's expansion of q(x + iy, t).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from conftest import T, Z, ZB, to_sympy
from oracles import (deg_zbar, diff_zbar, eval_naive, is_real_valued, subs_t,
                     xy_coefficients_per_term)

from moutardnv import nv
from moutardnv.algebra import MAX_EXPONENT, GaussianRational, MPoly, _horner_t, grid_product
from moutardnv.errors import CoefficientOverflow, ExponentOverflow
from moutardnv.exppoly import wave_eval
from moutardnv.faddeev import build_faddeev

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 25, 49, 360)


def from_terms(terms: dict) -> MPoly:
    """The sum of the monomials c z^i zb^j t^k of a dict (i, j, k) -> c."""
    return sum((MPoly.monomial(i, j, k, c) for (i, j, k), c in terms.items()), MPoly.zero())


def random_poly(rng, degree):
    """Up to 12 terms of total degree <= degree, some with a t power, over
    mixed denominators."""
    terms = {}
    for _ in range(rng.randint(1, 12)):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        k = rng.randint(0, min(2, degree - i - j))
        terms[(i, j, k)] = GaussianRational(
            Fraction(rng.randint(-60, 60), rng.choice(DENOMINATORS)),
            Fraction(rng.randint(-60, 60), rng.choice(DENOMINATORS)))
    return from_terms(terms)


def ref(p: MPoly) -> dict:
    return {e: (c.re, c.im) for e, c in p.terms.items()}


def _put(out, e, re, im):
    s = out.get(e, (0, 0))
    re, im = s[0] + re, s[1] + im
    if re or im:
        out[e] = (re, im)
    else:
        out.pop(e, None)


def r_add(a, b):
    out = dict(a)
    for e, (re, im) in b.items():
        _put(out, e, re, im)
    return out


def r_neg(a):
    return {e: (-re, -im) for e, (re, im) in a.items()}


def r_mul(a, b):
    out = {}
    for (i1, j1, k1), (p, q) in a.items():
        for (i2, j2, k2), (re, im) in b.items():
            _put(out, (i1 + i2, j1 + j2, k1 + k2), p * re - q * im, p * im + q * re)
    return out


def r_pow(a, n):
    out = {(0, 0, 0): (Fraction(1), Fraction(0))}
    for _ in range(n):
        out = r_mul(out, a)
    return out


def r_diff(a, axis):
    out = {}
    for e, (re, im) in a.items():
        if e[axis]:
            _put(out, e[:axis] + (e[axis] - 1,) + e[axis + 1:], re * e[axis], im * e[axis])
    return out


def r_antideriv(a, axis):
    out = {}
    for e, (re, im) in a.items():
        n = e[axis] + 1
        _put(out, e[:axis] + (n,) + e[axis + 1:], re / n, im / n)
    return out


def r_conj_swap(a):
    return {(j, i, k): (re, -im) for (i, j, k), (re, im) in a.items()}


def r_subs_t(a, t0: GaussianRational):
    out = {}
    for (i, j, k), (re, im) in a.items():
        for _ in range(k):
            re, im = re * t0.re - im * t0.im, re * t0.im + im * t0.re
        _put(out, (i, j, 0), re, im)
    return out


def pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_poly(rng, rng.randint(2, 6)), random_poly(rng, rng.randint(2, 6))


def test_ring_operations_match_reference():
    for p, q in pairs(20261018, 40):
        a, b = ref(p), ref(q)
        assert ref(p + q) == r_add(a, b)
        assert ref(p - q) == r_add(a, r_neg(b))
        assert ref(p * q) == r_mul(a, b)
        assert ref(-p) == r_neg(a)
        s = next(iter(q.terms.values()))
        assert ref(p * s) == r_mul(a, {(0, 0, 0): (s.re, s.im)})
    for p, _ in pairs(7, 10):
        for n in range(4):
            assert ref(p ** n) == r_pow(ref(p), n)


def test_calculus_and_substitution_match_reference():
    t_values = (GaussianRational(0), GaussianRational(Fraction(-3, 7)),
                GaussianRational(Fraction(2, 5), Fraction(-1, 3)))
    for p, _ in pairs(4242, 40):
        a = ref(p)
        for axis, (d, integral) in enumerate(((p.diff_z, p.antideriv_z),
                                              (lambda: diff_zbar(p), lambda: p._antideriv(1)),
                                              (p.diff_t, p.antideriv_t))):
            assert ref(d()) == r_diff(a, axis)
            assert ref(integral()) == r_antideriv(a, axis)
        assert ref(p.conj_swap()) == r_conj_swap(a)
        for t0 in t_values:
            assert ref(subs_t(p, t0)) == r_subs_t(a, t0)


def test_eval_matches_naive_and_exact_coefficients():
    rng = random.Random(99)
    for p, _ in pairs(31, 30):
        scale = sum(abs(complex(c)) for c in p.terms.values())
        for _ in range(5):
            z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t0 = rng.uniform(-1.5, 1.5)
            got, want = p.eval(z0, t0), eval_naive(p, z0, t0)
            assert abs(got - want) <= 1e-12 * scale * (1 + abs(z0)) ** 6 * (1 + abs(t0)) ** 2


def rounding_scale(p, z, t0):
    """sum |c| |z|^(i+j) |t0|^k: the size of the terms evaluation adds up."""
    return sum(abs(complex(c)) * np.abs(z) ** (i + j) * abs(t0) ** k
               for (i, j, k), c in p.terms.items())


def test_array_eval_matches_naive_on_point_arrays():
    rng = random.Random(2718)
    for degree in range(2, 7):
        for _ in range(6):
            p = random_poly(rng, degree)
            t0 = rng.uniform(-1.5, 1.5)
            for shape in ((), (7,), (4, 5)):
                n = math.prod(shape)
                z = np.array([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)])
                z = z.reshape(shape)
                got = p.eval(z, t0)
                assert isinstance(got, np.ndarray) and got.shape == shape
                want = np.array([eval_naive(p, v, t0) for v in z.ravel()]).reshape(shape)
                assert (np.abs(got - want) <= 1e-12 * rounding_scale(p, z, t0)).all()
    z = np.array([0.5, 1 - 2j, 0.3 + 0.1j, 3])
    assert (MPoly.const(3).eval(z) == 3).all() and (MPoly.zero().eval(z) == 0).all()


def random_real_w(rng, degree, constant, with_t=False):
    """q + conj(q) for a random q with z- and zb-degree up to `degree`, one
    term reaching it; the constant term kept or dropped."""
    terms = {(degree, rng.randint(0, degree), 0): 1}
    for _ in range(rng.randint(1, 10)):
        k = rng.randint(0, 2) if with_t else 0
        terms[(rng.randint(0, degree), rng.randint(0, degree), k)] = GaussianRational(
            Fraction(rng.randint(-60, 60), rng.choice(DENOMINATORS)),
            Fraction(rng.randint(-60, 60), rng.choice(DENOMINATORS)))
    q = from_terms(terms)
    w = q + q.conj_swap()
    if not constant:
        w = w - MPoly.const(w.constant_term())
    assert is_real_valued(w) and w.deg_z() == deg_zbar(w) == degree
    return w


def real_ws(seed):
    rng = random.Random(seed)
    for degree in range(1, 7):
        for constant in (True, False):
            yield random_real_w(rng, degree, constant)


def complex_t_polys(seed):
    """Complex polynomials of z- and zb-degree up to 2, 4 and 6 and t-degree
    1-3, one term reaching each degree, over mixed denominators."""
    rng = random.Random(seed)
    for kdeg in (1, 2, 3):
        for degree in (2, 4, 6):
            terms = {(degree, 0, kdeg): GaussianRational(1, -2)}
            for _ in range(rng.randint(1, 10)):
                terms[(rng.randint(0, degree), rng.randint(0, degree), rng.randint(0, kdeg))] = \
                    GaussianRational(Fraction(rng.randint(-60, 60), rng.choice(DENOMINATORS)),
                                     Fraction(rng.randint(-60, 60), rng.choice(DENOMINATORS)))
            p = from_terms(terms)
            assert p.deg_t() == kdeg and not is_real_valued(p)
            yield p


def test_xy_coefficients_match_sympy_expansion(seed22, seed32):
    # real W, complex polynomials in t, and every slot and denominator of a
    # static and a time wave: each part of each a[k, m, n] is the exact
    # coefficient of t^k x^m y^n, rounded once
    x, y = sp.symbols("x y", real=True)
    polys = [*real_ws(1618), *complex_t_polys(1619)]
    for fw in (build_faddeev(seed22), nv.nv_faddeev(seed32)):
        polys += [fw.w, *fw.psi.coeffs.values()]
    for p in polys:
        expr = sp.expand(to_sympy(p).subs({Z: x + sp.I * y, ZB: x - sp.I * y}))
        want = {}
        for e, c in sp.Poly(expr, T, x, y).as_dict().items():
            re, im = c.as_real_imag()
            want[e] = (re.p / re.q, im.p / im.q)
        a = p.xy_coefficients()
        got = {e: (v.real, v.imag) for e, v in np.ndenumerate(a) if v}
        assert got == want
        assert a.shape == (max(p.deg_t(), 0) + 1,) + (p.total_degree_space() + 1,) * 2
        assert p.xy_coefficients() is a and not a.flags.writeable


def big_polys(seed):
    """Polynomials of spatial degree 1-8 and t-degree 0-3 whose Gaussian
    rational coefficients have numerators up to about 2^1000."""
    rng = random.Random(seed)
    for _ in range(40):
        d, kdeg = rng.randint(1, 8), rng.randint(0, 3)
        terms = {}
        for _ in range(rng.randint(1, 12)):
            i = rng.randint(0, d)
            bits = rng.choice((8, 200, 1000))
            terms[i, rng.randint(0, d - i), rng.randint(0, kdeg)] = GaussianRational(
                Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.choice(DENOMINATORS)),
                Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.choice(DENOMINATORS)))
        terms[rng.randint(0, d), 0, kdeg] = GaussianRational(rng.randint(1, 9), 0)
        yield from_terms(terms)


def test_xy_coefficients_match_the_per_term_sums():
    # the flat sums by plan round each part as the per-exponent sums do
    polys = list(big_polys(20261019))
    assert {p.deg_t() for p in polys} == {0, 1, 2, 3}
    assert {p.total_degree_space() for p in polys} >= set(range(2, 9))
    for p in polys + [MPoly.zero(), MPoly.const(3)]:
        assert np.array_equal(p.xy_coefficients(), xy_coefficients_per_term(p))


@pytest.mark.parametrize("expo,coeff", [((0, 0, 0), GaussianRational(2 ** 1100, 0)),
                                        ((2, 0, 1), GaussianRational(3, -2 ** 1030)),
                                        ((3, 3, 0), GaussianRational(Fraction(2 ** 1200, 7), 1))])
def test_xy_coefficients_overflow_names_the_same_coefficient(expo, coeff):
    # one term beyond float range among small ones: both forms raise the
    # same CoefficientOverflow, which names the same part: for -i 2^1030 z^2 t
    # the imaginary part of the x^2 t coefficient, not the real part, twice
    # as large, of the x y t one
    p = next(big_polys(expo[0])) + MPoly.monomial(*expo, coeff)
    with pytest.raises(CoefficientOverflow) as want:
        xy_coefficients_per_term(p)
    with pytest.raises(CoefficientOverflow, match="beyond float range") as got:
        p.xy_coefficients()
    assert str(got.value) == str(want.value)


def grid(a, xs, ys):
    """`grid_product` of a on the grid of the axes xs and ys."""
    return grid_product(a, np.vander(xs, a.shape[0], increasing=True),
                        np.vander(ys, a.shape[1], increasing=True))


def test_eval_grid_matches_naive_within_xy_rounding_scale():
    rng = random.Random(4669)
    for w in real_ws(2718):
        xs = np.array(sorted(rng.uniform(-3, 3) for _ in range(7)))
        ys = np.array(sorted(rng.uniform(-3, 3) for _ in range(5)))
        a = w.xy_coefficients()[0]
        got = grid(a, xs, ys)
        assert got.shape == (len(ys), len(xs))
        want = np.array([[eval_naive(w, complex(x0, y0)).real for x0 in xs] for y0 in ys])
        scale = grid(np.abs(a), np.abs(xs), np.abs(ys))
        assert (np.abs(got - want) <= 1e-12 * scale).all()


def test_eval_grid_reads_the_terms_at_t_zero():
    rng = random.Random(31)
    xs, ys = np.linspace(-2, 2, 9), np.linspace(-1, 3, 4)
    for degree in range(1, 7):
        w = random_real_w(rng, degree, True, with_t=True)
        assert w.deg_t() > 0
        # a[0] is as wide as every spatial term of w; w(., 0) may be narrower
        a, b = w.xy_coefficients()[0], subs_t(w, 0).xy_coefficients()[0]
        a0 = np.zeros_like(a)
        a0[:b.shape[0], :b.shape[1]] = b
        assert np.array_equal(grid(a, xs, ys), grid(a0, xs, ys))
        assert np.array_equal(a, a0)
    t_only = MPoly.monomial(0, 0, 1) * 3
    assert (grid(t_only.xy_coefficients()[0], xs, ys) == 0).all()


def test_slices_of_xy_coefficients_match_exact_xy_derivatives():
    # a real W of spatial degree 2-8 and t-degree 0-3: at several t, the
    # slice of its x-y coefficients on a grid, and the blow-up search's
    # value, gradient and Hessian at a point, against the exact x and y
    # derivatives of W built as MPoly
    rng = random.Random(1729)
    dx = lambda p: p.diff_z() + diff_zbar(p)
    dy = lambda p: (p.diff_z() - diff_zbar(p)) * GaussianRational(0, 1)
    for degree in (2, 3, 4):
        for kdeg in range(4):
            w = random_real_w(rng, degree, True)
            for k in range(1, kdeg + 1):
                w = w + random_real_w(rng, rng.randint(1, degree), True) * MPoly.monomial(0, 0, k)
            assert w.deg_t() == kdeg and 2 <= w.total_degree_space() <= 8
            a = w.xy_coefficients()
            exact = (w, dx(w), dy(w), dx(dx(w)), dx(dy(w)), dy(dy(w)))
            xs = np.array(sorted(rng.uniform(-1.5, 1.5) for _ in range(7)))
            ys = np.array(sorted(rng.uniform(-1.5, 1.5) for _ in range(5)))
            for t0 in (0.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)):
                got = grid(_horner_t(a, t0), xs, ys)
                want = np.array([[eval_naive(w, complex(x0, y0), t0).real for x0 in xs]
                                 for y0 in ys])
                scale = grid(_horner_t(np.abs(a), abs(t0)), np.abs(xs), np.abs(ys))
                assert (np.abs(got - want) <= 1e-12 * scale).all()
                for sign in (1.0, -1.0):
                    fun = nv._slice_objective(a, t0, sign)
                    for x, y in zip(xs[::3], ys[::2]):
                        f, (gx, gy), ((hxx, hxy), (hyx, hyy)) = fun((x, y))
                        ref = [sign * p.eval(complex(x, y), t0).real for p in exact]
                        got_d = [f, gx, gy, hxx, hxy, hyy]
                        assert hxy == hyx
                        assert all(abs(g - r) < 1e-9 * (1 + abs(r)) for g, r in zip(got_d, ref))


@pytest.mark.parametrize("wave", ["static", "time"])
def test_wave_values_on_arrays_match_scalar_values(wave, seed22, seed32):
    if wave == "time":
        fw = nv.nv_faddeev(seed32)
        assert fw.psi.time_phase
    else:
        fw = build_faddeev(seed22)
    z = np.array([[1.3 - 0.8j, -2.1 + 0.4j, 0.2j], [3.0 + 0j, -0.7 - 1.9j, 2.2 + 2.2j]])
    lam0, t0 = 0.9 + 0.3j, 0.4
    got = wave_eval(fw.psi, z, t0, lam0)
    assert got.shape == z.shape
    for v, g in zip(z.ravel(), got.ravel()):
        want = wave_eval(fw.psi, np.array(v), t0, lam0)
        assert want.shape == () and abs(g - want) <= 1e-12 * abs(want)


def test_canonical_form_equality_and_hash():
    for p, q in pairs(5, 30):
        i = GaussianRational(0, 1)
        for other in (p * Fraction(1, 3) * 3, (p + q) - q, p * i * -1 * i,
                      from_terms(p.terms), p.antideriv_z().diff_z()):
            assert other == p and hash(other) == hash(p)
        d = p.denominator
        assert d > 0 and math.gcd(d, *(x for c in p.numerators.values() for x in c)) == 1
        for c in p.terms.values():
            assert isinstance(c, GaussianRational)
            for part in (c.re, c.im):
                assert isinstance(part, Fraction)
                assert math.gcd(part.numerator, part.denominator) == 1
    assert MPoly.const(Fraction(2, 4)) == MPoly.const(GaussianRational(Fraction(1, 2)))
    half_z = MPoly.monomial(1, 0, 0, Fraction(1, 2))
    assert (half_z + half_z).denominator == 1
    assert from_terms({(1, 0, 0): 1, (0, 0, 0): 0}) == MPoly.monomial(1, 0, 0)


def test_exponent_cap_still_raises():
    top = MPoly.monomial(MAX_EXPONENT, 0, 0)
    assert top.deg_z() == MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        top * MPoly.monomial(1, 0, 0)
    with pytest.raises(ExponentOverflow):
        MPoly.monomial(0, MAX_EXPONENT + 1, 0)
    with pytest.raises(ExponentOverflow):
        MPoly.monomial(0, 0, MAX_EXPONENT).antideriv_t()
    with pytest.raises(ExponentOverflow):
        MPoly.monomial(0, 1, 0) ** (MAX_EXPONENT + 1)
    assert (top * MPoly.const(5)).deg_z() == MAX_EXPONENT
