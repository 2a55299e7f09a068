import os
from fractions import Fraction

import pytest
import sympy as sp

from moutardnv.algebra import GaussianRational, MPoly
from moutardnv.harness import load_seed

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

Z, ZB, T = sp.symbols("z zb t")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture
def seed22():
    return load_seed(fixture_path("sec22.json"))[0]


@pytest.fixture
def seed22_cubic():
    return load_seed(fixture_path("sec22_cubic.json"))[0]


@pytest.fixture
def seed32():
    return load_seed(fixture_path("sec32.json"))[0]


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def poly(terms):
    """terms: {(i, j, k): (re, im)} with rational strings or ints."""
    acc = MPoly.zero()
    for (i, j, k), (re, im) in terms.items():
        acc = acc + MPoly.monomial(i, j, k, gr(re, im))
    return acc


def to_sympy(p: MPoly):
    expr = sp.Integer(0)
    for (i, j, k), c in p.sorted_terms():
        coeff = sp.Rational(c.re.numerator, c.re.denominator) \
            + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
        expr += coeff * Z ** i * ZB ** j * T ** k
    return sp.expand(expr)


def from_sympy(expr) -> MPoly:
    expr = sp.expand(expr)
    acc = MPoly.zero()
    for monom, coeff in sp.Poly(expr, Z, ZB, T).as_dict().items():
        i, j, k = monom
        re, im = coeff.as_real_imag()
        re, im = sp.Rational(re), sp.Rational(im)
        g = gr(Fraction(re.p, re.q), Fraction(im.p, im.q))
        acc = acc + MPoly.monomial(i, j, k, g)
    return acc
