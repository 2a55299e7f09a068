"""The integer-numerator MPoly core against a plain Fraction reference.

The reference keeps each polynomial as a dict (i, j, k) -> (re, im) of
Fractions and implements every operation term by term, the way the core did
before it moved to Gaussian-integer numerators over one denominator.
"""

import math
import random
from fractions import Fraction

import pytest

from moutardnv.algebra import MAX_EXPONENT, GaussianRational, MPoly
from moutardnv.errors import ExponentOverflow

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
