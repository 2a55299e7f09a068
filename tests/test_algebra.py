from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moutardnv.algebra import GR_I, MAX_EXPONENT, GaussianRational, MPoly, RationalFn
from moutardnv.errors import ExponentOverflow
from moutardnv.moutard import potential

from conftest import gr, poly, to_sympy
from oracles import antideriv, deg_zbar, diff_zbar, eval_naive, is_real_valued, same_fraction


def test_gaussian_rational_arithmetic():
    a = gr("1/2", "3/4")
    b = gr("-2", "1/3")
    assert a * b == gr("-5/4", "-4/3")
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert GR_I * GR_I == gr(-1)


def test_gaussian_rational_parse_and_complex():
    c = GaussianRational("-5/8", "7/3")
    assert c.re == Fraction(-5, 8) and c.im == Fraction(7, 3)
    assert complex(c) == complex(-5 / 8, 7 / 3)
    assert gr("2").is_real()
    assert not gr("2", "1").is_real()


def test_gaussian_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_mpoly_construction_and_degrees():
    p = poly({(2, 1, 0): ("1", "0"), (0, 0, 3): ("0", "-1/2")})
    assert p.deg_z() == 2 and deg_zbar(p) == 1 and p.deg_t() == 3
    assert p.total_degree_space() == 3
    assert p.coeff(2, 1, 0) == gr(1)


def test_mpoly_differentiation_and_antiderivative():
    p = poly({(3, 2, 1): ("5", "0")})
    assert p.diff_z() == poly({(2, 2, 1): ("15", "0")})
    assert diff_zbar(p) == poly({(3, 1, 1): ("10", "0")})
    assert p.diff_t() == poly({(3, 2, 0): ("5", "0")})
    assert antideriv(p, 0).diff_z() == p
    assert diff_zbar(antideriv(p, 1)) == p
    assert antideriv(p, 2).diff_t() == p


def test_mpoly_conj_swap():
    p = poly({(2, 0, 0): ("1", "1"), (0, 1, 1): ("0", "-3")})
    q = p.conj_swap()
    assert q == poly({(0, 2, 0): ("1", "-1"), (1, 0, 1): ("0", "3")})
    assert q.conj_swap() == p
    assert is_real_valued(p + p.conj_swap())


def test_mpoly_real_valued():
    assert is_real_valued(poly({(1, 1, 0): ("2", "0"), (0, 0, 0): ("7", "0")}))
    assert not is_real_valued(poly({(1, 0, 0): ("1", "0")}))
    assert is_real_valued(poly({(1, 0, 0): ("1", "1"), (0, 1, 0): ("1", "-1")}))


def test_mpoly_exponent_cap():
    z = MPoly.monomial(1, 0, 0)
    with pytest.raises(ExponentOverflow):
        (z ** 33) * (z ** 32)


@pytest.mark.parametrize("triple", [(0, 0, -1), (-1, 2, 0), (0, MAX_EXPONENT + 1, 0)])
def test_mpoly_monomial_takes_exponents_from_0_to_the_cap(triple):
    # a negative exponent is rejected as one past the cap is, whatever the
    # coefficient, and the triple is named
    for coeff in (1, 0):
        with pytest.raises(ExponentOverflow) as err:
            MPoly.monomial(*triple, coeff)
        assert str(err.value) == f"exponent triple {triple} is outside 0..{MAX_EXPONENT}"
    top = MPoly.monomial(MAX_EXPONENT, 0, MAX_EXPONENT)
    assert (top.deg_z(), top.deg_t()) == (MAX_EXPONENT, MAX_EXPONENT)
    assert MPoly.monomial(0, 0, 0) == MPoly.const(1)


def test_mpoly_eval_matches_naive():
    p = poly({(2, 1, 0): ("1", "-1/2"), (0, 3, 2): ("1/3", "0"), (0, 0, 0): ("-7", "2")})
    for z0 in (0.3 + 0.7j, -2.0, 1j):
        a = p.eval(z0, 1.5)
        b = eval_naive(p, z0, 1.5)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


coeffs = st.integers(-4, 4).map(lambda n: Fraction(n, 3))
small_polys = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
              coeffs, coeffs),
    max_size=6).map(lambda terms: sum(
        (MPoly.monomial(i, j, k, GaussianRational(re, im)) for i, j, k, re, im in terms),
        MPoly.zero()))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_mpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_mpoly_derivations(a, b):
    assert (a * b).diff_z() == a.diff_z() * b + a * b.diff_z()
    assert diff_zbar(a.diff_z()) == diff_zbar(a).diff_z()
    assert antideriv(a, 0).diff_z() == a
    assert (a + b).conj_swap() == a.conj_swap() + b.conj_swap()
    assert (a * b).conj_swap() == a.conj_swap() * b.conj_swap()
    assert a.conj_swap().conj_swap() == a


def test_rational_equality_cross_multiplied():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    one = MPoly.const(1)
    f = RationalFn(z * z + -z * zb, z)          # (z - zb) after cancel
    g = RationalFn((z + -zb) * (one + zb), one + zb)
    assert same_fraction(f, g)
    assert not same_fraction(f, RationalFn(z, one))


def test_rational_eval_and_pole():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    f = RationalFn(MPoly.const(1), z * zb + MPoly.const(-1))
    v, pole = f.eval(np.array([2.0, 1.0]))
    assert abs(v - 1 / 3) < 1e-12
    assert np.isnan(pole)


def test_laplace_log_matches_sympy():
    import sympy as sp
    from conftest import Z, ZB
    w = poly({(0, 0, 0): ("160", "0"), (1, 1, 0): ("4", "0"), (2, 2, 0): ("17", "0")})
    # u = -2 Laplacian(log W), the Laplacian being 4 d dbar
    f = potential(w)
    ws = to_sympy(w)
    expected = sp.simplify(-8 * sp.diff(sp.log(ws), Z, ZB))
    num, den = sp.fraction(sp.cancel(expected))
    lhs = to_sympy(f.num) * den
    rhs = to_sympy(f.den) * num
    assert sp.expand(lhs - rhs) == 0


def test_canonical_form():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    # z * 2 / (z * (2 zb + 4)) prints as 1 / (zb + 2), the denominator's leading coefficient 1
    f = RationalFn(z * gr(2), z * (zb * gr(2) + MPoly.const(4)))
    assert f.canonical() == (MPoly.const(1), zb + MPoly.const(2))
    assert str(f) == "(1) / (2 + 1*zb)"
    assert str(RationalFn(z * z, z)) == "1*z"
    assert str(RationalFn(MPoly.zero(), z, 2)) == "0"


def test_rational_equality_over_bases_differing_by_a_constant():
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    w = (MPoly.const(3) + z * zb * gr(2) + z * z * zb * zb
         + z * gr("1/2", "1") + zb * gr("1/2", "-1"))
    f = potential(w)
    assert same_fraction(f, potential(-w))
    assert same_fraction(f, potential(w * 3))
    assert same_fraction(RationalFn(z, w), RationalFn(z * w, -w, 2))
    g = potential(-w)
    bad = RationalFn(g.num + z, g.base, g.k)
    assert not same_fraction(f, bad) and not same_fraction(bad, f)
    assert not same_fraction(RationalFn(z, w), RationalFn(z, -w))


def test_mpoly_summary():
    p = poly({(2, 1, 0): ("1", "-1/2"), (0, 3, 2): ("1/3", "0"), (0, 0, 0): ("-7", "2")})
    assert p.summary() == "3 terms, total degree 5, leading term 1/3*zb^3*t^2"
    assert MPoly.zero().summary() == "0"
    huge = MPoly.monomial(1, 0, 0, gr(Fraction(10 ** 60, 7)))
    assert huge.summary() == "1 terms, total degree 1, leading term ~(1.42857e+59+0j)*z"


def test_mpoly_summary_of_a_coefficient_beyond_float_range():
    # summary() builds the messages of the residual errors, so it must not
    # raise on a coefficient that no float holds; short ones keep their text
    big = Fraction(10 ** 400)
    assert MPoly.monomial(1, 0, 0, big).summary() == (
        "1 terms, total degree 1, leading term (|c|~2^1328)*z")
    p = MPoly.monomial(0, 2, 1, gr(Fraction(1, 3), -big)) + MPoly.const(1)
    assert p.summary() == "2 terms, total degree 3, leading term (|c|~2^1329)*zb^2*t"
    assert MPoly.monomial(0, 0, 2, gr(1, Fraction(-1, 2))).summary() == (
        "1 terms, total degree 2, leading term (1-1/2*i)*t^2")
