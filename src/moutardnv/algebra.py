"""Exact sparse polynomial and rational-function arithmetic over the Gaussian rationals.

Variables are z, zb (the formal conjugate of z) and t.  All coefficients are
exact; floating point only ever appears in the evaluators.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import CoefficientOverflow, ExponentOverflow

#: Per-variable exponent cap; terms beyond this signal malformed input.
MAX_EXPONENT = 64

#: Relative floor below which a denominator value counts as a pole.
POLE_FLOOR = 1e-12


def divide_off_poles(num, den):
    """num / den over arrays of points, where |den| < POLE_FLOOR * (1 + |num|)
    marks a pole: the value there is NaN, and no division by zero happens."""
    import numpy as np
    off = ~(np.abs(den) < POLE_FLOOR * (1.0 + np.abs(num)))
    return np.divide(num, den, out=np.full(den.shape, np.nan, dtype=complex), where=off)


@contextmanager
def float_range(what: str):
    """The one float-range rule of the checks' numeric reads: an overflow or
    an invalid operation of numpy inside the block ends it with
    CoefficientOverflow, the text what and numpy's reason, so no inf or NaN
    is read as a value or as a pole."""
    import numpy as np
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise CoefficientOverflow(f"{what} ({exc})") from None


def _to_float(n: int, d: int) -> float:
    """The exact n / d as a float; CoefficientOverflow when it is beyond
    float range.  Every exact coefficient a numeric check reads passes here."""
    try:
        return n / d
    except OverflowError:
        raise CoefficientOverflow(
            f"a coefficient near 2^{n.bit_length() - d.bit_length()} is beyond float range"
        ) from None


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

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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

    def __complex__(self):
        re, im = self.re, self.im
        return (complex(_to_float(re.numerator, re.denominator))
                + 1j * complex(_to_float(im.numerator, im.denominator)))

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


class MPoly:
    """Sparse polynomial in (z, zb, t) over the Gaussian rationals.

    Stored as Gaussian-integer numerators (re, im), keyed by exponent triple,
    over one positive integer denominator, with the gcd of the denominator and
    all numerators equal to 1.  That form is canonical, so equality is
    structural.  Instances are immutable; the GaussianRational view `terms`
    and the x-y coefficient array read by `eval` are built once, on demand.
    """

    __slots__ = ("_c", "_d", "_view", "_xy")

    def __init__(self):
        """The zero polynomial; every other one is built by `monomial`, by
        `from_numerators` or by arithmetic."""
        _set(self, {}, 1)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        return cls.monomial(0, 0, 0, c)

    @classmethod
    def monomial(cls, i, j, k, coeff=1) -> "MPoly":
        re, im, d = _gauss(coeff)
        if not re and not im:
            return _wrap({}, 1)
        if max(i, j, k) > MAX_EXPONENT:
            raise ExponentOverflow(f"exponent triple {(i, j, k)} exceeds cap {MAX_EXPONENT}")
        return _poly({(i, j, k): (re, im)}, d)

    @classmethod
    def from_numerators(cls, numerators: dict, denominator: int) -> "MPoly":
        """The polynomial sum (re + i*im)/denominator * z^i zb^j t^k over a dict
        (i, j, k) -> (re, im) of nonzero Gaussian integers, the denominator a
        positive integer."""
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
        return gauss_sum([(e, re * m, im * m) for p in (self, other) for m in (d // p._d,)
                          for e, (re, im) in p._c.items()], d)

    def __neg__(self):
        return _wrap({e: (-re, -im) for e, (re, im) in self._c.items()}, self._d)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(*_gauss(other))
        if not isinstance(other, MPoly):
            return NotImplemented
        return sum_of_products(((self, other, 1),))

    __rmul__ = __mul__

    def _scale(self, re, im, d):
        """self * (re + i*im)/d."""
        if not re and not im:
            return _wrap({}, 1)
        return _poly({e: (a * re - b * im, a * im + b * re) for e, (a, b) in self._c.items()},
                     self._d * d)

    def __pow__(self, n: int):
        """self^n for an integer n >= 0."""
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._d == other._d and self._c == other._c

    # -- calculus -----------------------------------------------------

    def diff_z(self) -> "MPoly":
        return _poly({(i - 1, j, k): (re * i, im * i)
                      for (i, j, k), (re, im) in self._c.items() if i > 0}, self._d)

    def diff_t(self) -> "MPoly":
        return _poly({(i, j, k - 1): (re * k, im * k)
                      for (i, j, k), (re, im) in self._c.items() if k > 0}, self._d)

    def conj_swap(self) -> "MPoly":
        """Complex conjugation of a function of (z, zb): swap z <-> zb, conjugate coefficients."""
        return _wrap({(j, i, k): (re, -im) for (i, j, k), (re, im) in self._c.items()}, self._d)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._c)

    def constant_term(self) -> GaussianRational:
        return self.coeff(0, 0, 0)

    def coeff(self, i, j, k=0) -> GaussianRational:
        c = self._c.get((i, j, k))
        return GR_ZERO if c is None else _gr(c[0], c[1], self._d)

    def deg_z(self) -> int:
        return max((i for (i, _, _) in self._c), default=-1)

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

    # -- numerics -----------------------------------------------------

    def eval(self, z0, t0: float = 0.0):
        """`xy_eval` at the real time t0 and an array of points."""
        return xy_eval(self.xy_coefficients(), z0, t0)

    def xy_coefficients(self):
        """The complex array a with self(x + iy, t) = sum a[k, m, n] t^k x^m y^n,
        m and n running to the total degree; built once, read-only.  Term
        c z^i zb^j t^k adds i^n K[n] c at [k, i + j - n, n] for the row
        K = `_xy_row(i, j)`, in Python ints on the Gaussian-integer numerators,
        so each part is exact until its one division by the denominator.  The
        sums are kept in two flat lists, real and imaginary parts, with the
        place of (k, s - n, n) at k T + s(s + 1)/2 + n for the T places of one
        power of t (`_xy_plan`); the array is filled from them in one pass."""
        a = self._xy
        if a is not None:
            return a
        import numpy as np
        deg = max(self.total_degree_space(), 0) + 1
        powers, places = max(self.deg_t(), 0) + 1, deg * (deg + 1) // 2
        real, imag = [0] * (powers * places), [0] * (powers * places)
        for (i, j, k), (re, im) in self._c.items():
            base = k * places
            even, odd = _xy_plan(i, j)
            for o, kn in even:          # i^n = +-1: (re, im) times the signed K[n]
                o += base
                real[o] += re * kn
                imag[o] += im * kn
            for o, kn in odd:           # i^n = +-i: (-im, re) times the signed K[n]
                o += base
                real[o] -= im * kn
                imag[o] += re * kn
        d = self._d
        try:
            flat = [v / d for pair in zip(real, imag) for v in pair]
        except OverflowError:
            for pair in zip(real, imag):
                for v in pair:
                    _to_float(v, d)     # CoefficientOverflow at the first one
            raise
        m, n = _xy_places(deg)
        a = np.zeros((powers, deg, deg), complex)
        a[:, m, n] = np.array(flat).view(complex).reshape(powers, places)
        a.flags.writeable = False
        self._xy = a
        return a

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
        re, im = self._c[lead]
        bits, dbits = max(abs(re), abs(im)).bit_length(), self._d.bit_length()
        if max(bits, dbits) > 1000:
            # hundreds of digits, near or past float range: its size, not its value
            text = f"(|c|~2^{bits - dbits})"
        else:
            text = str(self.coeff(*lead))
            if len(text) > 40:
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


@lru_cache(maxsize=None)
def _xy_row(i: int, j: int) -> tuple:
    """K with (x + iy)^i (x - iy)^j = sum_n i^n K[n] x^(i+j-n) y^n: the
    coefficients of (1 + s)^i (1 - s)^j, from the row of (i, j - 1) or of
    (i - 1, 0)."""
    if i == j == 0:
        return (1,)
    prev, sign = (_xy_row(i, j - 1), -1) if j else (_xy_row(i - 1, 0), 1)
    return tuple(p + sign * q for p, q in zip(prev + (0,), (0,) + prev))


@lru_cache(maxsize=None)
def _xy_plan(i: int, j: int) -> tuple:
    """The places s(s + 1)/2 + n, s = i + j, of the nonzero K[n] of
    `_xy_row(i, j)`, each with K[n] times the sign of i^n, split into even n
    (i^n real) and odd n: the plan of `MPoly.xy_coefficients` for one term."""
    first = (i + j) * (i + j + 1) // 2
    even, odd = [], []
    for n, kn in enumerate(_xy_row(i, j)):
        if kn:
            (odd if n % 2 else even).append((first + n, -kn if n % 4 >= 2 else kn))
    return tuple(even), tuple(odd)


@lru_cache(maxsize=None)
def _xy_places(deg: int) -> tuple:
    """Index arrays (m, n) of the places of `_xy_plan` for total degree below
    deg: place s(s + 1)/2 + n holds the coefficient of x^(s-n) y^n.  Shared
    by every caller, so read-only."""
    import numpy as np
    s = np.repeat(np.arange(deg), np.arange(1, deg + 1))
    n = np.arange(s.size) - s * (s + 1) // 2
    m = s - n
    m.flags.writeable = n.flags.writeable = False
    return m, n


def _horner_t(coeffs, t: float):
    """sum_k coeffs[k] t^k."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    return acc


#: Points that `xy_read` reads at once: its power tables stay this many rows.
XY_BLOCK = 1024


def xy_read(a, t0: float, size: int, tables):
    """sum a[k, m, n] t0^k x^m y^n at size points, for the x-y coefficients a
    of a polynomial (`MPoly.xy_coefficients`), or for each array of a list a
    of them: the slice c = sum_k a[k] t0^k, square, then, per block of
    XY_BLOCK points, one real matrix product of the powers of x with the
    real and imaginary parts of every c side by side, each in one corner of
    a square as wide as the widest, and one batched product with the powers
    of y.  tables(s, e) gives those powers for the points s to e, two
    tables vx[p, m] = x_p^m and vy[p, n] = y_p^n of that width
    (`np.vander(..., increasing=True)`), so the caller decides how its
    points' tables are made.  The values are one flat complex array, or
    for a list one row per array; the arrays of a list are read in the one
    product, as reading each alone at its own width moves the last bit."""
    import numpy as np
    stack = isinstance(a, list)
    cs = [_horner_t(b, t0) for b in a] if stack else [_horner_t(a, t0)]
    n = max(map(len, cs))               # square: m and n run to the total degree
    parts = np.zeros((n, len(cs), 2, n))
    for s, c in enumerate(cs):
        parts[:len(c), s, 0, :len(c)] = c.real
        parts[:len(c), s, 1, :len(c)] = c.imag
    parts = parts.reshape(n, -1)
    out = np.empty((size, 2 * len(cs)))     # (Re, Im) per point and array, read as complex
    for s in range(0, size, XY_BLOCK):
        e = min(s + XY_BLOCK, size)
        vx, vy = tables(s, e)
        rows = (vx @ parts).reshape(e - s, -1, n)
        out[s:e] = (rows @ vy[:, :, None])[..., 0]
    values = out.view(complex)
    return values.T if stack else values.reshape(size)


def xy_eval(a, z0, t0: float = 0.0):
    """`xy_read` of the x-y coefficients a at the array z0 of points, each
    block's power tables made from its points by np.vander; the values have
    z0's shape."""
    import numpy as np
    z = np.asarray(z0, dtype=complex)
    flat = z.reshape(-1)
    m, n = a.shape[1:]

    def tables(s, e):
        block = flat[s:e]
        return np.vander(block.real, m, increasing=True), np.vander(block.imag, n, increasing=True)

    return xy_read(a, t0, flat.size, tables).reshape(z.shape)


# grid rows or columns read at once: a strip's arrays (77 KB on a 201-point
# axis) stay small enough for the allocator to reuse, where a whole-grid
# array (323 KB) is mapped afresh and faulted in again on every call
GRID_STRIP = 48


@lru_cache(maxsize=None)
def grid_axis(lo: float, hi: float, points: int, width: int, *shifts: float) -> tuple:
    """The axis np.linspace(lo, hi, points) of a check's fixed points, or
    with shifts that axis moved by each shift in turn (points times as many
    values), and its power table np.vander(axis, width, increasing=True),
    built once per key: the certificate's and the blow-up search's grids
    take an axis, the finite-difference stencil its grid's axes moved by
    0, h, -h, h/2 and -h/2, and the ray check the one-point axis [0] moved
    by each of its points' coordinates.  The table is made at the exact
    width asked for, not cut from a wider one, so every product keeps its
    shape; shared by every caller, so both are read-only.  A table beyond
    float range raises inside `float_range` and is not kept."""
    import numpy as np
    axis = np.linspace(lo, hi, points)
    if shifts:
        axis = (axis + np.array(shifts)[:, None]).ravel()
    table = np.vander(axis, width, increasing=True)
    axis.flags.writeable = table.flags.writeable = False
    return axis, table


def grid_product(a, vx, vy):
    """sum a[m, n] x^m y^n at each point of the grid of two 1-D axes xs and
    ys, indexed [y, x], from their power tables vx[:, m] = xs^m and
    vy[:, n] = ys^n (`np.vander(..., increasing=True)`, as wide as a): the
    two matrix products V_y a^T V_x^T.  `grid_extremes` passes one strip of
    GRID_STRIP rows as vy; at that width the tests find a strip's values to
    be those of the whole grid bit for bit."""
    return (vy @ a.T) @ vx.T


def grid_extremes(c, v1, v2):
    """The least and the greatest value of f = (v1 @ c) @ v2^T, the grid of
    the power tables v1, v2 indexed [first, second], and, as index pairs,
    its first node of least value, of greatest value and of least |value|
    in first-axis-major order.  f is read in strips of GRID_STRIP rows of
    v1, each one `grid_product`, so no array of the whole grid is made; a
    value beyond float range raises CoefficientOverflow (`float_range`)."""
    import numpy as np
    n2 = len(v2)
    lo = hi = small = None
    with float_range("values on a check's grid leave float range"):
        for s in range(0, len(v1), GRID_STRIP):
            f = grid_product(c.T, v2, v1[s:s + GRID_STRIP])    # indexed [first - s, second]
            first = s * n2                  # the flat index of f's first node
            k = f.argmin()
            if lo is None or f.flat[k] < lo:        # strictly: the first one stays
                lo, low = f.flat[k], first + k
            k = f.argmax()
            if hi is None or f.flat[k] > hi:
                hi, high = f.flat[k], first + k
            k = np.abs(f, out=f).argmin()
            if small is None or f.flat[k] < small:
                small, least = f.flat[k], first + k
    return lo, hi, divmod(low, n2), divmod(high, n2), divmod(least, n2)


def _set(p: MPoly, c: dict, d: int) -> None:
    p._c = c
    p._d = d
    p._view = p._xy = None


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


def gauss_sum(terms, den: int) -> MPoly:
    """The polynomial sum of (re + i*im)/den z^i zb^j t^k over the items
    ((i, j, k), re, im) of terms, Gaussian integers over one denominator,
    an exponent as often as it comes: summed in [re, im] lists and brought
    to lowest terms once.  Sums and the one-pass bilinear forms use it."""
    acc = {}
    get = acc.get
    for e, re, im in terms:
        s = get(e)
        if s is None:
            acc[e] = [re, im]
        else:
            s[0] += re
            s[1] += im
    return _poly({e: (re, im) for e, (re, im) in acc.items() if re or im}, den)


def pair_degrees(fs, gs) -> tuple:
    """The per-axis maxima of the exponents of the polynomials fs and of gs
    (0 when empty), which bound the exponents their term pairs reach:
    ExponentOverflow where the sum of the two is above the cap."""
    fdeg = tuple(map(max, zip((0, 0, 0), *[e for p in fs for e in p._c])))
    gdeg = tuple(map(max, zip((0, 0, 0), *[e for p in gs for e in p._c])))
    expo = tuple(map(int.__add__, fdeg, gdeg))
    if max(expo) > MAX_EXPONENT:
        raise ExponentOverflow(f"product exponent {expo} exceeds cap {MAX_EXPONENT}")
    return fdeg, gdeg


def sum_of_products(products) -> MPoly:
    """sum s f g over the items (f, g, s) of products, s an integer: one
    pass over the term pairs of each product.  The sums of `gauss_sum`,
    made in the pass itself: here the pairs are the whole cost."""
    den = lcm(*(f._d * g._d for f, g, _ in products))
    acc = {}
    get = acc.get
    for f, g, sign in products:
        pair_degrees((f,), (g,))
        scale = sign * den // (f._d * g._d)
        inner = [(i, j, k, re * scale, im * scale) for (i, j, k), (re, im) in g._c.items()]
        for (i1, j1, k1), (p, q) in f._c.items():
            for i2, j2, k2, re, im in inner:
                e = (i1 + i2, j1 + j2, k1 + k2)
                s = get(e)
                if s is None:
                    acc[e] = [p * re - q * im, p * im + q * re]
                else:
                    s[0] += p * re - q * im
                    s[1] += p * im + q * re
    return _poly({e: (re, im) for e, (re, im) in acc.items() if re or im}, den)


class RationalFn:
    """The fraction num / base**k.

    Every denominator of the construction is a power of one nonzero
    polynomial (W, which `moutard.double_w` or `nv.extended_w` checks, or an
    omega_j, which `moutard.build_frame` checks), kept as its base and
    exponent.  The library builds fractions, scales them by a number or a
    polynomial, evaluates and prints them; every identity it checks is a
    polynomial numerator.  The canonical form (common monomial removed,
    leading denominator coefficient 1) is applied only for printing and
    serialization.
    """

    __slots__ = ("num", "base", "k")

    def __init__(self, num: MPoly, base: MPoly, k: int = 1):
        self.num = num
        self.base = base
        self.k = k

    @property
    def den(self) -> MPoly:
        return self.base ** self.k

    def __mul__(self, other):
        """Scaling by a number or a polynomial."""
        if isinstance(other, (int, Fraction, GaussianRational, MPoly)):
            return RationalFn(self.num * other, self.base, self.k)
        return NotImplemented

    def eval(self, z0, t0: float = 0.0):
        """Values at an array of points, by `divide_off_poles`."""
        return divide_off_poles(self.num.eval(z0, t0), self.base.eval(z0, t0) ** self.k)

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
