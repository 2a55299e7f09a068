"""Exact sparse polynomial and rational-function arithmetic over the Gaussian rationals.

Variables are z, zb (the formal conjugate of z) and t.  All coefficients are
exact; floating point only ever appears in the eval methods.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import ExponentOverflow, PoleError, ZeroPolynomial

#: Per-variable exponent cap; terms beyond this signal malformed input.
MAX_EXPONENT = 64

#: Relative floor below which a denominator value counts as a pole.
POLE_FLOOR = 1e-12


def divide_off_poles(num, den, what: str, z0, t0):
    """num / den, where |den| < POLE_FLOOR * (1 + |num|) marks a pole: at one
    point that raises PoleError, in an array of points the value there is
    NaN (and no division by zero happens)."""
    if not isinstance(den, np.ndarray):
        if abs(den) < POLE_FLOOR * (1.0 + abs(num)):
            raise PoleError(f"{what} ~ 0 at z={z0}, t={t0}")
        return num / den
    off = ~(np.abs(den) < POLE_FLOOR * (1.0 + np.abs(num)))
    return np.divide(num, den, out=np.full(den.shape, np.nan, dtype=complex), where=off)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @classmethod
    def parse(cls, re: str, im: str = "0") -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    if isinstance(x, complex):
        raise TypeError("floating complex values are not exact; build a GaussianRational")
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def _gauss(x):
    """An exact scalar as (re, im, den): a Gaussian-integer numerator over a
    positive integer denominator."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, GaussianRational):
        re, im = x.re, x.im
        rd, idn = re.denominator, im.denominator
        if rd == idn:
            return re.numerator, im.numerator, rd
        d = lcm(rd, idn)
        return re.numerator * (d // rd), im.numerator * (d // idn), d
    return _gauss(_coerce(x))


def _gr(re: int, im: int, d: int) -> GaussianRational:
    return GaussianRational(Fraction(re, d), Fraction(im, d))


def _check_expo(i, j, k):
    if i > MAX_EXPONENT or j > MAX_EXPONENT or k > MAX_EXPONENT:
        raise ExponentOverflow(f"exponent triple {(i, j, k)} exceeds cap {MAX_EXPONENT}")


class MPoly:
    """Sparse polynomial in (z, zb, t) over the Gaussian rationals.

    Stored as Gaussian-integer numerators (re, im), keyed by exponent triple,
    over one positive integer denominator, with the gcd of the denominator and
    all numerators equal to 1.  That form is canonical, so equality is
    structural.  Instances are immutable; the GaussianRational view `terms`
    and the complex coefficients read by `eval` are built once, on demand.
    """

    __slots__ = ("_c", "_d", "_view", "_cx", "_plan")

    def __init__(self, terms=None):
        acc = {}
        for expo, coeff in ((terms.items() if isinstance(terms, dict) else terms) or ()):
            coeff = _coerce(coeff)
            if coeff.is_zero():
                continue
            i, j, k = expo
            _check_expo(i, j, k)
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"negative exponent in {expo}")
            expo = (i, j, k)
            acc[expo] = acc[expo] + coeff if expo in acc else coeff
        d = lcm(1, *(x.denominator for c in acc.values() for x in (c.re, c.im)))
        _set(self, {e: (int(c.re * d), int(c.im * d))
                    for e, c in acc.items() if not c.is_zero()}, d)
        _normalize(self)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        return cls.monomial(0, 0, 0, c)

    @classmethod
    def var_z(cls):
        return cls.monomial(1, 0, 0)

    @classmethod
    def var_zbar(cls):
        return cls.monomial(0, 1, 0)

    @classmethod
    def var_t(cls):
        return cls.monomial(0, 0, 1)

    @classmethod
    def monomial(cls, i, j, k, coeff=1) -> "MPoly":
        re, im, d = _gauss(coeff)
        if not re and not im:
            return _wrap({}, 1)
        _check_expo(i, j, k)
        if i < 0 or j < 0 or k < 0:
            raise ValueError(f"negative exponent in {(i, j, k)}")
        return _poly({(i, j, k): (re, im)}, d)

    @classmethod
    def from_numerators(cls, numerators: dict, denominator: int) -> "MPoly":
        """The polynomial sum (re + i*im)/denominator * z^i zb^j t^k over a dict
        (i, j, k) -> (re, im) of nonzero Gaussian integers."""
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        return _poly(numerators, denominator)

    # -- representation -----------------------------------------------

    @property
    def numerators(self) -> dict:
        """(i, j, k) -> (re, im): Gaussian-integer numerators over `denominator`;
        read-only."""
        return self._c

    @property
    def denominator(self) -> int:
        return self._d

    @property
    def terms(self) -> dict:
        """(i, j, k) -> GaussianRational with reduced parts; a read-only view,
        built once."""
        view = self._view
        if view is None:
            d = self._d
            view = self._view = {e: _gr(re, im, d) for e, (re, im) in self._c.items()}
        return view

    def complex_terms(self) -> list:
        """((i, j, k), complex coefficient) in `sorted_terms` order, converted
        once; each value equals complex() of the exact coefficient."""
        cx = self._cx
        if cx is None:
            d = self._d
            cx = self._cx = [(e, complex(re / d) + 1j * complex(im / d))
                             for e, (re, im) in sorted(self._c.items(), key=_term_order)]
        return cx

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other
        d = lcm(self._d, other._d)
        ma, mb = d // self._d, d // other._d
        out = {e: (re * ma, im * ma) for e, (re, im) in self._c.items()}
        for e, (re, im) in other._c.items():
            re, im = re * mb, im * mb
            s = out.get(e)
            if s is not None:
                re, im = s[0] + re, s[1] + im
                if not re and not im:
                    del out[e]
                    continue
            out[e] = (re, im)
        return _poly(out, d)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: (-re, -im) for e, (re, im) in self._c.items()}, self._d)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(*_gauss(other))
        if not isinstance(other, MPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return _wrap({}, 1)
        expo = tuple(max(e[x] for e in a) + max(e[x] for e in b) for x in range(3))
        if max(expo) > MAX_EXPONENT:
            raise ExponentOverflow(f"product exponent {expo} exceeds cap {MAX_EXPONENT}")
        acc = {}
        get = acc.get
        inner = [(i, j, k, re, im) for (i, j, k), (re, im) in b.items()]
        for (i1, j1, k1), (p, q) in a.items():
            for i2, j2, k2, re, im in inner:
                e = (i1 + i2, j1 + j2, k1 + k2)
                s = get(e)
                if s is None:
                    acc[e] = [p * re - q * im, p * im + q * re]
                else:
                    s[0] += p * re - q * im
                    s[1] += p * im + q * re
        return _poly({e: (re, im) for e, (re, im) in acc.items() if re or im},
                     self._d * other._d)

    __rmul__ = __mul__

    def _scale(self, re, im, d):
        """self * (re + i*im)/d."""
        if not re and not im:
            return _wrap({}, 1)
        return _poly({e: (a * re - b * im, a * im + b * re) for e, (a, b) in self._c.items()},
                     self._d * d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._d == other._d and self._c == other._c

    def __hash__(self):
        return hash((self._d, frozenset(self._c.items())))

    # -- calculus -----------------------------------------------------

    def diff_z(self) -> "MPoly":
        return _poly({(i - 1, j, k): (re * i, im * i)
                      for (i, j, k), (re, im) in self._c.items() if i > 0}, self._d)

    def diff_zbar(self) -> "MPoly":
        return _poly({(i, j - 1, k): (re * j, im * j)
                      for (i, j, k), (re, im) in self._c.items() if j > 0}, self._d)

    def diff_t(self) -> "MPoly":
        return _poly({(i, j, k - 1): (re * k, im * k)
                      for (i, j, k), (re, im) in self._c.items() if k > 0}, self._d)

    def _antideriv(self, axis: int) -> "MPoly":
        """Integrate term by term in one variable: over the common multiple m
        of the new exponents, term e gains the integer factor m / (e[axis] + 1)."""
        m = 1
        for e in self._c:
            m = lcm(m, e[axis] + 1)
        out = {}
        for e, (re, im) in self._c.items():
            n = e[axis] + 1
            expo = e[:axis] + (n,) + e[axis + 1:]
            _check_expo(*expo)
            f = m // n
            out[expo] = (re * f, im * f)
        return _poly(out, self._d * m)

    def antideriv_z(self) -> "MPoly":
        return self._antideriv(0)

    def antideriv_zbar(self) -> "MPoly":
        return self._antideriv(1)

    def antideriv_t(self) -> "MPoly":
        return self._antideriv(2)

    def conj_swap(self) -> "MPoly":
        """Complex conjugation of a function of (z, zb): swap z <-> zb, conjugate coefficients."""
        return _wrap({(j, i, k): (re, -im) for (i, j, k), (re, im) in self._c.items()}, self._d)

    def conj_coeffs(self) -> "MPoly":
        """Conjugate every coefficient, leaving the variables alone."""
        return _wrap({e: (re, -im) for e, (re, im) in self._c.items()}, self._d)

    def is_real_valued(self) -> bool:
        return self.conj_swap() == self

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._c)

    def is_holomorphic(self) -> bool:
        """True when the polynomial depends on z and t only."""
        return all(j == 0 for (_, j, _) in self._c)

    def constant_term(self) -> GaussianRational:
        return self.coeff(0, 0, 0)

    def coeff(self, i, j, k=0) -> GaussianRational:
        c = self._c.get((i, j, k))
        return GR_ZERO if c is None else _gr(c[0], c[1], self._d)

    def deg_z(self) -> int:
        return max((i for (i, _, _) in self._c), default=-1)

    def deg_zbar(self) -> int:
        return max((j for (_, j, _) in self._c), default=-1)

    def deg_t(self) -> int:
        return max((k for (_, _, k) in self._c), default=-1)

    def total_degree_space(self) -> int:
        """Total degree in (z, zb), treating t as a parameter; -1 for the zero polynomial."""
        return max((i + j for (i, j, _) in self._c), default=-1)

    def spatial_leading_terms(self) -> dict:
        """Terms of maximal z+zb degree, keyed by (i, j) with MPoly-in-t coefficients."""
        d = self.total_degree_space()
        out = {}
        for (i, j, k), c in self._c.items():
            if i + j == d:
                out.setdefault((i, j), {})[(0, 0, k)] = c
        return {ij: _poly(tk, self._d) for ij, tk in out.items()}

    def subs_t(self, t0) -> "MPoly":
        """Exact substitution of a rational value for t."""
        tr, ti, td = _gauss(t0)
        kmax = self.deg_t()
        if kmax <= 0:
            return self
        # t0^k * td^kmax = (tr + i*ti)^k * td^(kmax-k), a Gaussian integer
        powers = [(1, 0)]
        for _ in range(kmax):
            pr, pi = powers[-1]
            powers.append((pr * tr - pi * ti, pr * ti + pi * tr))
        powers = [(pr * td ** (kmax - k), pi * td ** (kmax - k))
                  for k, (pr, pi) in enumerate(powers)]
        acc = {}
        for (i, j, k), (re, im) in self._c.items():
            pr, pi = powers[k]
            re, im = re * pr - im * pi, re * pi + im * pr
            expo = (i, j, 0)
            s = acc.get(expo)
            acc[expo] = (re, im) if s is None else (s[0] + re, s[1] + im)
        return _poly({e: v for e, v in acc.items() if v[0] or v[1]}, self._d * td ** kmax)

    def t_coefficients(self) -> list:
        """[p_0, ..., p_K], polynomials in (z, zb) with self = sum p_k t^k."""
        out = [{} for _ in range(self.deg_t() + 1)]
        for (i, j, k), c in self._c.items():
            out[k][(i, j, 0)] = c
        return [_poly(c, self._d) for c in out]

    def at_origin_t(self) -> "MPoly":
        """Restriction to z = zb = 0, leaving a polynomial in t."""
        return _poly({e: c for e, c in self._c.items() if e[0] == 0 and e[1] == 0}, self._d)

    # -- numerics -----------------------------------------------------

    def _horner_plan(self) -> list:
        """[(i, [(j, [(k, c), ...]), ...]), ...], every exponent descending."""
        nested = {}
        for (i, j, k), c in self.complex_terms():
            nested.setdefault(i, {}).setdefault(j, []).append((k, c))
        self._plan = [(i, [(j, sorted(ks, reverse=True))
                           for j, ks in sorted(nested[i].items(), reverse=True)])
                      for i in sorted(nested, reverse=True)]
        return self._plan

    def eval(self, z0, t0: float = 0.0):
        """Nested Horner evaluation in z, then zb, then t, at the real time t0.

        z0 is one point, giving a Python complex, or an array of points,
        giving an array of their shape; on arrays every step works in place
        on one accumulator per variable.
        """
        plan = self._plan
        if plan is None:
            plan = self._horner_plan()
        if isinstance(z0, (int, float, complex)):
            z0 = complex(z0)
        else:
            z0 = np.asarray(z0, dtype=complex)
        zb0 = z0.conjugate()

        def in_t(ks):
            return horner(ks, t0)

        def in_zb(row):
            return horner(row, zb0, in_t)

        acc = horner(plan, z0, in_zb)
        if isinstance(z0, complex):
            return complex(acc)
        if isinstance(acc, np.ndarray) and acc.shape == z0.shape:
            return acc
        return np.full(z0.shape, acc, dtype=complex)

    def eval_naive(self, z0: complex, t0: float = 0.0) -> complex:
        z0 = complex(z0)
        zb0 = z0.conjugate()
        return sum(c * z0 ** i * zb0 ** j * t0 ** k for (i, j, k), c in self.complex_terms())

    # -- presentation -------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_term_order)

    def __str__(self):
        if not self._c:
            return "0"
        return " + ".join(_format_term(e, c) for e, c in self.sorted_terms())

    def summary(self) -> str:
        """Term count, total degree and leading term: a description of bounded
        length, for error messages."""
        if not self._c:
            return "0"
        lead = max(self._c, key=lambda e: (sum(e), e))
        text = str(self.coeff(*lead))
        if len(text) > 40:
            re, im = self._c[lead]
            text = f"~({complex(re / self._d, im / self._d):.6g})"
        return (f"{len(self._c)} terms, total degree {sum(lead)}, "
                f"leading term {_format_term(lead, text)}")

    def __repr__(self):
        return f"MPoly({self})"


_SCALARS = (int, Fraction, GaussianRational)


def _term_order(item):
    return sum(item[0]), item[0]


def _format_term(expo, c) -> str:
    i, j, k = expo
    factors = [str(c)]
    if i:
        factors.append("z" if i == 1 else f"z^{i}")
    if j:
        factors.append("zb" if j == 1 else f"zb^{j}")
    if k:
        factors.append("t" if k == 1 else f"t^{k}")
    return "*".join(factors)


def horner(pairs, x, inner=None):
    """sum v(c) x^e over (e, c) pairs, e descending, with v = inner or the
    identity, for a number or an array x.  On arrays the accumulator is
    multiplied and added to in place, so each v(c) is a number or an array
    that may be overwritten."""
    acc = prev = None
    for e, c in pairs:
        v = c if inner is None else inner(c)
        if prev is None:
            acc = v
        else:
            for _ in range(prev - e):
                acc *= x
            acc += v
        prev = e
    for _ in range(prev or 0):
        acc *= x
    return 0j if acc is None else acc


def _set(p: MPoly, c: dict, d: int) -> None:
    p._c = c
    p._d = d
    p._view = p._cx = p._plan = None


def _wrap(c: dict, d: int) -> MPoly:
    """An MPoly over numerators already in canonical form."""
    p = MPoly.__new__(MPoly)
    _set(p, c, d)
    return p


def _poly(c: dict, d: int) -> MPoly:
    """An MPoly over nonzero numerators c and denominator d > 0, brought to
    lowest terms."""
    return _normalize(_wrap(c, d))


def _normalize(p: MPoly) -> MPoly:
    """Divide out the gcd of the denominator and every numerator, in place."""
    d = p._d
    if d == 1:
        return p
    g = d
    for re, im in p._c.values():
        g = gcd(g, re, im)
        if g == 1:
            return p
    p._c = {e: (re // g, im // g) for e, (re, im) in p._c.items()}
    p._d = d // g
    return p


class RationalFn:
    """The fraction num / base**k.

    Every denominator of the construction is a power of one polynomial (W or
    an omega_j), so sums, products and derivatives over a shared base only
    lift numerators: d(num/base^k) = (num' * base - k*num*base') / base^(k+1).
    Fractions over bases that differ by a constant factor compare after one
    rescale, over other bases by cross-multiplication; sums and products over
    different bases are not needed and raise.  The canonical form (common
    monomial removed, leading denominator coefficient 1) is applied only for
    printing and serialization.
    """

    __slots__ = ("num", "base", "k")

    def __init__(self, num: MPoly, base: MPoly, k: int = 1):
        if base.is_zero():
            raise ZeroPolynomial("RationalFn base is zero")
        self.num = num
        self.base = base
        self.k = k

    @property
    def den(self) -> MPoly:
        return self.base ** self.k

    def _lift(self, k: int) -> MPoly:
        out = self.num
        for _ in range(k - self.k):
            out = out * self.base
        return out

    def _same_base(self, other):
        """other as a fraction over self.base (a number or polynomial has k = 0),
        None for other types; a fraction over another base raises."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if isinstance(other, MPoly):
            return RationalFn(other, self.base, 0)
        if not isinstance(other, RationalFn):
            return None
        if other.base is not self.base and other.base != self.base:
            raise ValueError("fractions over different bases")
        return other

    def __add__(self, other):
        other = self._same_base(other)
        if other is None:
            return NotImplemented
        k = max(self.k, other.k)
        return RationalFn(self._lift(k) + other._lift(k), self.base, k)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.base, self.k)

    def __sub__(self, other):
        other = self._same_base(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, MPoly)):
            return RationalFn(self.num * other, self.base, self.k)
        other = self._same_base(other)
        if other is None:
            return NotImplemented
        return RationalFn(self.num * other.num, self.base, self.k + other.k)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if isinstance(other, MPoly):
            other = RationalFn(other, self.base, 0)
        if not isinstance(other, RationalFn):
            return NotImplemented
        if other.base is not self.base and other.base != self.base:
            s = _constant_ratio(other.base, self.base)
            if s is None:
                return self.num * other.den == other.num * self.den
            # other.num / (s*base)^k = (other.num / s^k) / base^k
            f = GR_ONE
            for _ in range(other.k):
                f = f / s
            other = RationalFn(other.num * f, self.base, other.k)
        k = max(self.k, other.k)
        return self._lift(k) == other._lift(k)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _diff(self, d):
        if self.k == 0:
            return RationalFn(d(self.num), self.base, 0)
        num = d(self.num) * self.base - self.num * d(self.base) * self.k
        return RationalFn(num, self.base, self.k + 1)

    def diff_z(self) -> "RationalFn":
        return self._diff(MPoly.diff_z)

    def diff_zbar(self) -> "RationalFn":
        return self._diff(MPoly.diff_zbar)

    def diff_t(self) -> "RationalFn":
        return self._diff(MPoly.diff_t)

    def conj_swap(self) -> "RationalFn":
        return RationalFn(self.num.conj_swap(), self.base.conj_swap(), self.k)

    def is_real_valued(self) -> bool:
        return self.conj_swap() == self

    def eval(self, z0, t0: float = 0.0):
        """Value at a point or an array of points, by `divide_off_poles`."""
        return divide_off_poles(self.num.eval(z0, t0), self.base.eval(z0, t0) ** self.k,
                                "denominator", z0, t0)

    def canonical(self):
        """(num, den) with the common monomial factor removed and den's
        leading coefficient scaled to 1; a zero fraction is 0 / 1."""
        if self.num.is_zero():
            return self.num, MPoly.const(1)
        return _strip_common(self.num, self.den)

    def __str__(self):
        num, den = self.canonical()
        if den == MPoly.const(1):
            return str(num)
        return f"({num}) / ({den})"

    def __repr__(self):
        return f"RationalFn(({self.num}) / ({self.base})^{self.k})"


def _constant_ratio(p: MPoly, q: MPoly):
    """The constant s with p == s * q, or None when there is none."""
    if not q.numerators or p.numerators.keys() != q.numerators.keys():
        return None
    e = next(iter(q.numerators))
    s = p.coeff(*e) / q.coeff(*e)
    return s if q * s == p else None


def _strip_common(num: MPoly, den: MPoly):
    """Remove the common monomial factor and rescale so den's leading coefficient is 1."""
    shift = tuple(min(e[axis] for p in (num, den) for e in p.numerators) for axis in range(3))
    if any(shift):
        ci, cj, ck = shift
        num, den = (MPoly.from_numerators({(i - ci, j - cj, k - ck): c
                                           for (i, j, k), c in p.numerators.items()},
                                          p.denominator)
                    for p in (num, den))
    scale = den.coeff(*max(den.numerators, key=lambda e: (sum(e), e)))
    if scale != GR_ONE:
        num, den = num * (GR_ONE / scale), den * (GR_ONE / scale)
    return num, den


def log_derivative2(w: MPoly, d1, d2) -> RationalFn:
    """d1 d2 log w = (w * w_12 - w_1 * w_2) / w^2 for derivations d1, d2 of MPoly
    (MPoly.diff_z, MPoly.diff_zbar)."""
    if w.is_zero():
        raise ZeroPolynomial("log of the zero polynomial")
    w1 = d1(w)
    return RationalFn(w * d2(w1) - w1 * d2(w), w, 2)


def laplace_log(w: MPoly) -> RationalFn:
    """Laplacian of log w: 4 d dbar log w."""
    return log_derivative2(w, MPoly.diff_z, MPoly.diff_zbar) * 4
