"""Exponential-polynomial waves: e^{lam*z} (optionally e^{lam*z + lam^3*t}) times
a finite Laurent sum in lam with polynomial or shared-denominator coefficients.

This class of functions is closed under the Moutard transform of the free wave,
which is why it carries the whole eigenfunction pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm, perm

from .algebra import MAX_EXPONENT, MPoly, divide_off_poles, xy_eval
from .errors import ExponentOverflow, ZeroPolynomial


class WaveFn:
    """e^{lam z} * sum_k lam^{-k} f_k, with integer k of either sign.

    coeffs maps k to the MPoly f_k; negative keys carry positive powers of
    lam, which derivatives produce.
    den, when set, is one shared MPoly denominator for every slot.
    """

    __slots__ = ("time_phase", "coeffs", "den")

    def __init__(self, coeffs=None, time_phase: bool = False, den: MPoly = None):
        self.time_phase = time_phase
        self.coeffs = {k: f for k, f in (coeffs or {}).items() if not f.is_zero()}
        if den is not None and den.is_zero():
            raise ZeroPolynomial("wave denominator is zero")
        self.den = den

    @classmethod
    def free(cls, time_phase: bool = False) -> "WaveFn":
        """The free wave e^{lam z} (or e^{lam z + lam^3 t})."""
        return cls({0: MPoly.const(1)}, time_phase=time_phase)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, WaveFn):
            return NotImplemented
        return ((self.time_phase, self.den, self.coeffs)
                == (other.time_phase, other.den, other.coeffs))

    def __add__(self, other):
        if not isinstance(other, WaveFn):
            return NotImplemented
        if self.time_phase != other.time_phase:
            raise ValueError("cannot add waves with different phases")
        if self.den != other.den:
            raise ValueError("cannot add waves over different denominators")
        out = dict(self.coeffs)
        for k, f in other.coeffs.items():
            s = out.get(k)
            out[k] = f if s is None else s + f
        return WaveFn(out, self.time_phase, self.den)

    def __neg__(self):
        return WaveFn({k: -f for k, f in self.coeffs.items()}, self.time_phase, self.den)

    def __sub__(self, other):
        if not isinstance(other, WaveFn):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "WaveFn":
        """Multiply every coefficient by an MPoly or scalar."""
        return WaveFn({k: f * factor for k, f in self.coeffs.items()}, self.time_phase, self.den)

    def __repr__(self):
        phase = "e^{lam z + lam^3 t}" if self.time_phase else "e^{lam z}"
        body = " + ".join(f"lam^{-k}*({f})" for k, f in sorted(self.coeffs.items()))
        den = f" / ({self.den})" if self.den is not None else ""
        return f"WaveFn[{phase} * ({body}){den}]"


D_ZZBAR = {(1, 1, 0): 1}                                    # D_z D_zb
D_ZZ = {(2, 0, 0): 1}                                       # D_z^2
D_TIME_LEG = {(0, 0, 1): 1, (3, 0, 0): -1, (0, 3, 0): -1}   # D_t - D_z^3 - D_zb^3


def hirota(f, g: MPoly, form: dict):
    """sum c D^a (f . g) over the items (a, c) of form, a = (m, n, p) the
    orders in z, zb and t, for a wave or polynomial f and a polynomial g.

    One pass over the term pairs of f (every slot of a wave) and g: as
    D_x^m (x^i . x^i') = H_m(i, i') x^(i+i'-m) (`_weights`), a pair adds
    c H_m H_n H_p times its coefficient product at one exponent.  A wave's
    phase makes D^a the sum in `_phase_orders`, whose power of lam shifts the
    slot.  The weighted terms of g met by one exponent of f are listed once
    for every slot.  A slot that is g itself (a polynomial f is its one
    slot) is read by symmetry: D^b (g . g) is 0 for an odd order |b| and
    symmetric in its pair for an even one, so only the even orders and the
    pairs i <= i' are read, the diagonal once and each later pair doubled.
    The numerators are summed over one denominator and each output slot is
    brought to lowest terms once.
    """
    wave = isinstance(f, WaveFn)
    slots = f.coeffs if wave else {0: f}
    # the per-axis maxima of the exponents, each read in one pass (0 when empty)
    fdeg = tuple(map(max, zip((0, 0, 0), *(e for p in slots.values() for e in p.numerators))))
    gdeg = tuple(map(max, zip((0, 0, 0), *g.numerators)))
    expo = tuple(map(sum, zip(fdeg, gdeg)))
    if max(expo) > MAX_EXPONENT:
        raise ExponentOverflow(f"product exponent {expo} exceeds cap {MAX_EXPONENT}")
    gterms = [(_pack(e), *e, re, im) for e, (re, im) in g.numerators.items()]
    doubled = [(e, i, j, k, 2 * re, 2 * im) for e, i, j, k, re, im in gterms]
    den = lcm(*(p.denominator for p in slots.values()))
    # symmetric -> (its reduced orders, (order, exponent of f) -> [(exponent,
    # weighted coefficient of g)]), built on first use
    kinds, acc = {}, {}
    for slot, p in slots.items():
        symmetric = p is g
        kind = kinds.get(symmetric)
        if kind is None:
            kind = kinds[symmetric] = (
                [(shift, _pack(b), c, [_weights(b[x], fdeg[x], gdeg[x]) for x in range(3)])
                 for (shift, b), c in _phase_orders(form, wave, wave and f.time_phase,
                                                    symmetric).items()], {})
        orders, weighted = kind
        scale = den // p.denominator
        for n, (e1, (p1, q1)) in enumerate(p.numerators.items()):
            p1, q1 = p1 * scale, q1 * scale
            for o, (shift, b, c, (hz, hzb, ht)) in enumerate(orders):
                terms = weighted.get((o, e1))
                if terms is None:
                    partners = gterms[n:n + 1] + doubled[n + 1:] if symmetric else gterms
                    rz, rzb, rt, base = hz[e1[0]], hzb[e1[1]], ht[e1[2]], _pack(e1) - b
                    terms = weighted[o, e1] = [
                        (base + e2, w * re, w * im) for e2, i2, j2, k2, re, im in partners
                        for w in (c * rz[i2] * rzb[j2] * rt[k2],) if w]
                out = acc.setdefault(slot - shift, {})
                for e, re, im in terms:
                    s = out.get(e)
                    if s is None:
                        out[e] = [p1 * re - q1 * im, p1 * im + q1 * re]
                    else:
                        s[0] += p1 * re - q1 * im
                        s[1] += p1 * im + q1 * re
    polys = {slot: MPoly.from_numerators({(e >> 16, e >> 8 & 255, e & 255): (re, im)
                                          for e, (re, im) in out.items() if re or im},
                                         den * g.denominator)
             for slot, out in acc.items()}
    return WaveFn(polys, f.time_phase, f.den) if wave else polys.get(0, MPoly.zero())


def _pack(e) -> int:
    """An exponent triple as one int, 8 bits an axis: sums of packed triples
    are the packed sums while each axis stays in 0..255."""
    return e[0] << 16 | e[1] << 8 | e[2]


def _phase_orders(form: dict, z_phase: bool, t_phase: bool, symmetric: bool) -> dict:
    """(shift, b) -> integer weight of the orders b = (m, n, p) in form under
    the phase: D^a on e^{lam z} f becomes (D_z + lam)^m D_zb^n D^p_t, and on
    e^{lam z + lam^3 t} f (D_z + lam)^m D_zb^n (D_t + lam^3)^p, with lam^shift
    shifting slot k to k - shift.  For D_TIME_LEG on the time phase the lam^3
    of D_t cancels the lam^3 of -D_z^3.  On symmetric, for a slot that is g,
    an odd order, which is 0 there, is left out."""
    out = {}
    for (m, n, p), c in form.items():
        for s in range(m + 1 if z_phase else 1):
            for u in range(p + 1 if t_phase else 1):
                key = (s + 3 * u, (m - s, n, p - u))
                out[key] = out.get(key, 0) + c * comb(m, s) * comb(p, u)
    return {key: c for key, c in out.items() if c and not (symmetric and sum(key[1]) % 2)}


@lru_cache(maxsize=None)
def _weights(m: int, di: int, dj: int) -> tuple:
    """H[i][i'] = H_m(i, i') = sum_r (-1)^r C(m, r) i^(m-r) i'^(r), falling
    factorials, for i <= di and i' <= dj: D_x^m (x^i . x^i') = H x^(i+i'-m)."""
    return tuple(tuple(sum((-1) ** r * comb(m, r) * perm(i, m - r) * perm(j, r)
                           for r in range(m + 1))
                       for j in range(dj + 1))
                 for i in range(di + 1))


def wave_antideriv_z(w: WaveFn) -> WaveFn:
    """Exact z-antiderivative inside the wave class (no integration constant).

    Uses int e^{lam z} z^n dz = e^{lam z} * sum_{j=0..n} (-1)^j n!/(n-j)! z^{n-j} lam^{-(j+1)};
    zb and t ride along.
    """
    out = {}
    for k, f in w.coeffs.items():
        slots = {}        # j -> numerators of the lam^{-(k+j+1)} slot, over f's denominator
        for (n, m, p), (re, im) in f.numerators.items():
            fac = 1
            for j in range(n + 1):
                # fac = (-1)^j n!/(n-j)!
                slots.setdefault(j, {})[(n - j, m, p)] = (re * fac, im * fac)
                fac *= j - n
        for j, nums in slots.items():
            q = MPoly.from_numerators(nums, f.denominator)
            out[k + j + 1] = out[k + j + 1] + q if k + j + 1 in out else q
    return WaveFn(out, w.time_phase, w.den)


def wave_multiplier(w: WaveFn, z0, t0: float = 0.0, lam0: complex = 1.0):
    """Values of the wave without its exponential prefactor at an array of
    points, for a nonzero lam: sum_k lam^{-k} f_k formed on the slots' x-y
    coefficients and read by one `xy_eval`, over the shared denominator read
    by another; a pole of it as in `divide_off_poles`."""
    import numpy as np
    lam0 = complex(lam0)
    arrays = {k: f.xy_coefficients() for k, f in w.coeffs.items()}
    shape = tuple(map(max, zip((1, 1, 1), *(a.shape for a in arrays.values()))))
    total = np.zeros(shape, complex)            # each slot's array fills one corner
    for k, a in arrays.items():
        total[tuple(map(slice, a.shape))] += lam0 ** (-k) * a
    num = xy_eval(total, z0, t0)
    if w.den is None:
        return num
    return divide_off_poles(num, w.den.eval(z0, t0))


def wave_eval(w: WaveFn, z0, t0: float = 0.0, lam0: complex = 1.0):
    """Values including the exponential prefactor at an array of points (NaN
    at a pole)."""
    mult = wave_multiplier(w, z0, t0, lam0)
    return exp_phase(complex(lam0), z0, t0 if w.time_phase else None) * mult


def exp_phase(lam0: complex, z0, t0=None):
    """e^{lam z0} at an array of points z0, times e^{lam^3 t0} unless t0 is
    None."""
    import numpy as np
    phase = lam0 * z0
    if t0 is not None:
        phase += lam0 ** 3 * t0
    return np.exp(phase)
