"""Exact sparse polynomial and rational-function arithmetic over the Gaussian rationals.

Variables are z, zb (the formal conjugate of z) and t.  All coefficients are
exact; floating point only ever appears in the eval methods.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExponentOverflow, PoleError, ZeroPolynomial

#: Per-variable exponent cap; terms beyond this signal malformed input.
MAX_EXPONENT = 64

#: Relative floor below which a denominator value counts as a pole.
POLE_FLOOR = 1e-12


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


class MPoly:
    """Sparse polynomial in (z, zb, t) over the Gaussian rationals.

    Terms map exponent triples to nonzero coefficients; the map itself is the
    canonical form, so equality is plain dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tmap = {}
        if terms:
            for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
                coeff = _coerce(coeff)
                if coeff.is_zero():
                    continue
                i, j, k = expo
                if i > MAX_EXPONENT or j > MAX_EXPONENT or k > MAX_EXPONENT:
                    raise ExponentOverflow(f"exponent triple {expo} exceeds cap {MAX_EXPONENT}")
                if i < 0 or j < 0 or k < 0:
                    raise ValueError(f"negative exponent in {expo}")
                prev = tmap.get((i, j, k))
                coeff = coeff if prev is None else prev + coeff
                if coeff.is_zero():
                    tmap.pop((i, j, k), None)
                else:
                    tmap[(i, j, k)] = coeff
        self.terms = tmap

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        return cls({(0, 0, 0): _coerce(c)})

    @classmethod
    def var_z(cls):
        return cls({(1, 0, 0): GR_ONE})

    @classmethod
    def var_zbar(cls):
        return cls({(0, 1, 0): GR_ONE})

    @classmethod
    def var_t(cls):
        return cls({(0, 0, 1): GR_ONE})

    @classmethod
    def monomial(cls, i, j, k, coeff=GR_ONE) -> "MPoly":
        return cls({(i, j, k): _coerce(coeff)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(expo, None)
            else:
                out[expo] = s
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce(other)
            if c.is_zero():
                return MPoly.zero()
            return _raw({e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                expo = (i1 + i2, j1 + j2, k1 + k2)
                if expo[0] > MAX_EXPONENT or expo[1] > MAX_EXPONENT or expo[2] > MAX_EXPONENT:
                    raise ExponentOverflow(f"product exponent {expo} exceeds cap {MAX_EXPONENT}")
                c = c1 * c2
                s = out.get(expo)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(expo, None)
                else:
                    out[expo] = s
        return _raw(out)

    __rmul__ = __mul__

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
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus -----------------------------------------------------

    def diff_z(self) -> "MPoly":
        return _raw({(i - 1, j, k): c * i for (i, j, k), c in self.terms.items() if i > 0})

    def diff_zbar(self) -> "MPoly":
        return _raw({(i, j - 1, k): c * j for (i, j, k), c in self.terms.items() if j > 0})

    def diff_t(self) -> "MPoly":
        return _raw({(i, j, k - 1): c * k for (i, j, k), c in self.terms.items() if k > 0})

    def antideriv_z(self) -> "MPoly":
        return MPoly({(i + 1, j, k): c / (i + 1) for (i, j, k), c in self.terms.items()})

    def antideriv_zbar(self) -> "MPoly":
        return MPoly({(i, j + 1, k): c / (j + 1) for (i, j, k), c in self.terms.items()})

    def antideriv_t(self) -> "MPoly":
        return MPoly({(i, j, k + 1): c / (k + 1) for (i, j, k), c in self.terms.items()})

    def conj_swap(self) -> "MPoly":
        """Complex conjugation of a function of (z, zb): swap z <-> zb, conjugate coefficients."""
        return _raw({(j, i, k): c.conjugate() for (i, j, k), c in self.terms.items()})

    def is_real_valued(self) -> bool:
        return self.conj_swap() == self

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.terms)

    def is_holomorphic(self) -> bool:
        """True when the polynomial depends on z and t only."""
        return all(j == 0 for (_, j, _) in self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0, 0, 0), GR_ZERO)

    def coeff(self, i, j, k=0) -> GaussianRational:
        return self.terms.get((i, j, k), GR_ZERO)

    def deg_z(self) -> int:
        return max((i for (i, _, _) in self.terms), default=-1)

    def deg_zbar(self) -> int:
        return max((j for (_, j, _) in self.terms), default=-1)

    def deg_t(self) -> int:
        return max((k for (_, _, k) in self.terms), default=-1)

    def total_degree_space(self) -> int:
        """Total degree in (z, zb), treating t as a parameter; -1 for the zero polynomial."""
        return max((i + j for (i, j, _) in self.terms), default=-1)

    def spatial_leading_terms(self) -> dict:
        """Terms of maximal z+zb degree, keyed by (i, j) with MPoly-in-t coefficients."""
        d = self.total_degree_space()
        out = {}
        for (i, j, k), c in self.terms.items():
            if i + j == d:
                out.setdefault((i, j), {})[(0, 0, k)] = c
        return {ij: _raw(tk) for ij, tk in out.items()}

    def subs_t(self, t0) -> "MPoly":
        """Exact substitution of a rational value for t."""
        t0 = _coerce(t0)
        out = MPoly.zero()
        acc = {}
        for (i, j, k), c in self.terms.items():
            val = c
            for _ in range(k):
                val = val * t0
            expo = (i, j, 0)
            prev = acc.get(expo)
            val = val if prev is None else prev + val
            if val.is_zero():
                acc.pop(expo, None)
            else:
                acc[expo] = val
        out.terms = acc
        return out

    def at_origin_t(self) -> "MPoly":
        """Restriction to z = zb = 0, leaving a polynomial in t."""
        return _raw({(0, 0, k): c for (i, j, k), c in self.terms.items() if i == 0 and j == 0})

    # -- numerics -----------------------------------------------------

    def eval(self, z0: complex, t0: float = 0.0) -> complex:
        """Horner evaluation, nesting z then zb then t."""
        z0 = complex(z0)
        zb0 = z0.conjugate()
        nested = {}
        for (i, j, k), c in self.terms.items():
            nested.setdefault(i, {}).setdefault(j, {})[k] = complex(c)
        total = 0.0 + 0.0j
        for i in sorted(nested, reverse=True):
            layer_j = 0.0 + 0.0j
            for j in sorted(nested[i], reverse=True):
                layer_k = 0.0 + 0.0j
                prev_k = None
                for k in sorted(nested[i][j], reverse=True):
                    if prev_k is not None:
                        layer_k *= t0 ** (prev_k - k)
                    layer_k += nested[i][j][k]
                    prev_k = k
                if prev_k:
                    layer_k *= t0 ** prev_k
                # attach zb power by difference from previous j (plain power: sparse exponents)
                layer_j += layer_k * zb0 ** j
            total += layer_j * z0 ** i
        return total

    def eval_naive(self, z0: complex, t0: float = 0.0) -> complex:
        z0 = complex(z0)
        zb0 = z0.conjugate()
        return sum(complex(c) * z0 ** i * zb0 ** j * t0 ** k for (i, j, k), c in self.terms.items())

    # -- presentation -------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: (sum(it[0]), it[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j, k), c in self.sorted_terms():
            factors = [str(c)]
            if i:
                factors.append("z" if i == 1 else f"z^{i}")
            if j:
                factors.append("zb" if j == 1 else f"zb^{j}")
            if k:
                factors.append("t" if k == 1 else f"t^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self})"


def _raw(tmap: dict) -> MPoly:
    p = MPoly()
    p.terms = tmap
    return p


class RationalFn:
    """The fraction num / base**k.

    Every denominator of the construction is a power of one polynomial (W or
    an omega_j), so sums, products and derivatives over a shared base only
    lift numerators: d(num/base^k) = (num' * base - k*num*base') / base^(k+1).
    Fractions over different bases compare by cross-multiplication; their sums
    and products are not needed and raise.  The canonical form (common
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
        if other.base is self.base or other.base == self.base:
            k = max(self.k, other.k)
            return self._lift(k) == other._lift(k)
        return self.num * other.den == other.num * self.den

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

    def eval(self, z0: complex, t0: float = 0.0) -> complex:
        nv = self.num.eval(z0, t0)
        dv = self.base.eval(z0, t0) ** self.k
        if abs(dv) < POLE_FLOOR * (1.0 + abs(nv)):
            raise PoleError(f"denominator ~ 0 at z={z0}, t={t0}")
        return nv / dv

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


def _strip_common(num: MPoly, den: MPoly):
    """Remove the common monomial factor and rescale so den's leading coefficient is 1."""
    def min_expo(p):
        mi = mj = mk = MAX_EXPONENT + 1
        for (i, j, k) in p.terms:
            mi, mj, mk = min(mi, i), min(mj, j), min(mk, k)
        return mi, mj, mk

    ni, nj, nk = min_expo(num)
    di, dj, dk = min_expo(den)
    ci, cj, ck = min(ni, di), min(nj, dj), min(nk, dk)
    if ci or cj or ck:
        num = _raw({(i - ci, j - cj, k - ck): c for (i, j, k), c in num.terms.items()})
        den = _raw({(i - ci, j - cj, k - ck): c for (i, j, k), c in den.terms.items()})
    lead = max(den.terms, key=lambda e: (sum(e), e))
    scale = den.terms[lead]
    if scale != GR_ONE:
        num = _raw({e: c / scale for e, c in num.terms.items()})
        den = _raw({e: c / scale for e, c in den.terms.items()})
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
