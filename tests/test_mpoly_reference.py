"""The integer-numerator MPoly core against a plain Fraction reference.

The reference keeps each polynomial as a dict (i, j, k) -> (re, im) of
Fractions and implements every operation term by term, the way the core did
before it moved to Gaussian-integer numerators over one denominator.  The
array evaluator is checked against the term-by-term `eval_naive`.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from moutardnv import nv
from moutardnv.algebra import MAX_EXPONENT, GaussianRational, MPoly
from moutardnv.errors import ExponentOverflow
from moutardnv.exppoly import wave_eval
from moutardnv.faddeev import build_faddeev, faddeev_eval

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 25, 49, 360)


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
    return MPoly(terms)


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
                                              (p.diff_zbar, p.antideriv_zbar),
                                              (p.diff_t, p.antideriv_t))):
            assert ref(d()) == r_diff(a, axis)
            assert ref(integral()) == r_antideriv(a, axis)
        assert ref(p.conj_swap()) == r_conj_swap(a)
        for t0 in t_values:
            assert ref(p.subs_t(t0)) == r_subs_t(a, t0)


def test_eval_matches_naive_and_exact_coefficients():
    rng = random.Random(99)
    for p, _ in pairs(31, 30):
        for e, c in p.complex_terms():
            assert c == complex(p.terms[e])
        scale = sum(abs(c) for _, c in p.complex_terms())
        for _ in range(5):
            z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t0 = rng.uniform(-1.5, 1.5)
            got, want = p.eval(z0, t0), p.eval_naive(z0, t0)
            assert abs(got - want) <= 1e-12 * scale * (1 + abs(z0)) ** 6 * (1 + abs(t0)) ** 2


def rounding_scale(p, z, t0):
    """sum |c| |z|^(i+j) |t0|^k: the size of the terms evaluation adds up."""
    return sum(abs(c) * np.abs(z) ** (i + j) * abs(t0) ** k for (i, j, k), c in p.complex_terms())


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
                want = np.array([p.eval_naive(v, t0) for v in z.ravel()]).reshape(shape)
                assert (np.abs(got - want) <= 1e-12 * rounding_scale(p, z, t0)).all()


def test_scalar_eval_returns_python_complex():
    p = random_poly(random.Random(5), 4)
    z = np.array([0.5, 1 - 2j, 0.3 + 0.1j, 3])
    values = p.eval(z, 0.25)
    for z0, v in zip((0.5, 1 - 2j, np.complex128(0.3 + 0.1j), 3), values):
        got = p.eval(z0, 0.25)
        assert type(got) is complex
        assert abs(got - v) <= 1e-12 * rounding_scale(p, z0, 0.25)
    assert type(MPoly.zero().eval(1j)) is complex
    assert (MPoly.const(3).eval(z) == 3).all() and (MPoly.zero().eval(z) == 0).all()


@pytest.mark.parametrize("wave", ["static", "conjugate", "time"])
def test_wave_values_on_arrays_match_scalar_values(wave, seed22, seed32):
    if wave == "time":
        fw = nv.nv_faddeev(seed32)
        assert fw.psi.time_phase
    else:
        fw = build_faddeev(seed22, conjugate=wave == "conjugate")
    z = np.array([[1.3 - 0.8j, -2.1 + 0.4j, 0.2j], [3.0 + 0j, -0.7 - 1.9j, 2.2 + 2.2j]])
    lam0, t0 = 0.9 + 0.3j, 0.4
    for fn in (lambda v: faddeev_eval(fw, v, t0, lam0), lambda v: wave_eval(fw.psi, v, t0, lam0)):
        got = fn(z)
        assert got.shape == z.shape
        for v, g in zip(z.ravel(), got.ravel()):
            want = fn(complex(v))
            assert type(want) is complex and abs(g - want) <= 1e-12 * abs(want)


def test_canonical_form_equality_and_hash():
    for p, q in pairs(5, 30):
        i = GaussianRational(0, 1)
        for other in (p * Fraction(1, 3) * 3, (p + q) - q, p * i * -1 * i,
                      MPoly(list(p.terms.items())), p.antideriv_z().diff_z()):
            assert other == p and hash(other) == hash(p)
        d = p.denominator
        assert d > 0 and math.gcd(d, *(x for c in p.numerators.values() for x in c)) == 1
        for c in p.terms.values():
            assert isinstance(c, GaussianRational)
            for part in (c.re, c.im):
                assert isinstance(part, Fraction)
                assert math.gcd(part.numerator, part.denominator) == 1
    assert MPoly.const(Fraction(2, 4)) == MPoly.const(GaussianRational(Fraction(1, 2)))
    assert (MPoly.var_z() * Fraction(1, 2) + MPoly.var_z() * Fraction(1, 2)).denominator == 1
    assert MPoly({(1, 0, 0): 1, (0, 0, 0): 0}) == MPoly.var_z()


def test_exponent_cap_still_raises():
    top = MPoly.monomial(MAX_EXPONENT, 0, 0)
    assert top.deg_z() == MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        top * MPoly.var_z()
    with pytest.raises(ExponentOverflow):
        MPoly.monomial(0, MAX_EXPONENT + 1, 0)
    with pytest.raises(ExponentOverflow):
        MPoly.monomial(0, 0, MAX_EXPONENT).antideriv_t()
    with pytest.raises(ExponentOverflow):
        MPoly.var_zbar() ** (MAX_EXPONENT + 1)
    assert (top * MPoly.const(5)).deg_z() == MAX_EXPONENT
