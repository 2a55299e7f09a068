"""Exponential-polynomial waves: e^{lam*z} (optionally e^{lam*z + lam^3*t}) times
a finite Laurent sum in lam with polynomial or shared-denominator coefficients.

This class of functions is closed under the Moutard transform of the free wave,
which is why it carries the whole eigenfunction pipeline.
"""

from __future__ import annotations

import cmath
from itertools import product
from math import comb, prod

from .algebra import MPoly, divide_off_poles, xy_eval
from .errors import LambdaZeroError, ZeroPolynomial


class WaveFn:
    """e^{lam z} * sum_k lam^{-k} f_k, with integer k of either sign.

    coeffs maps k to the MPoly f_k; negative keys carry positive powers of
    lam, which derivatives produce.
    den, when set, is one shared MPoly denominator for every slot.
    """

    __slots__ = ("time_phase", "coeffs", "den")

    def __init__(self, coeffs=None, time_phase: bool = False, den: MPoly = None):
        self.time_phase = time_phase
        self.coeffs = {}
        if coeffs:
            for k, f in coeffs.items():
                if not f.is_zero():
                    self.coeffs[k] = f
        if den is not None and den.is_zero():
            raise ZeroPolynomial("wave denominator is zero")
        self.den = den

    @classmethod
    def free(cls, time_phase: bool = False) -> "WaveFn":
        """The free wave e^{lam z} (or e^{lam z + lam^3 t})."""
        return cls({0: MPoly.const(1)}, time_phase=time_phase)

    def slot(self, k: int):
        f = self.coeffs.get(k)
        if f is not None:
            return f
        return MPoly.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, WaveFn):
            return NotImplemented
        if self.time_phase != other.time_phase:
            return False
        if (self.den is None) != (other.den is None):
            return False
        if self.den is not None and self.den != other.den:
            return False
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, WaveFn):
            return NotImplemented
        if self.time_phase != other.time_phase:
            raise ValueError("cannot add waves with different phases")
        if not _same_den(self.den, other.den):
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

    def map_coeffs(self, fn) -> "WaveFn":
        return WaveFn({k: fn(f) for k, f in self.coeffs.items()}, self.time_phase, self.den)

    def __repr__(self):
        phase = "e^{lam z + lam^3 t}" if self.time_phase else "e^{lam z}"
        body = " + ".join(f"lam^{-k}*({f})" for k, f in sorted(self.coeffs.items()))
        den = f" / ({self.den})" if self.den is not None else ""
        return f"WaveFn[{phase} * ({body}){den}]"


def _same_den(a, b):
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return a == b


def wave_diff_z(w: WaveFn) -> WaveFn:
    """d/dz: the phase contributes lam * f at slot k-1, the coefficient its z-derivative."""
    out = {}
    for k, f in w.coeffs.items():
        _acc(out, k - 1, f)
        _acc(out, k, f.diff_z())
    return WaveFn(out, w.time_phase, w.den)


def wave_diff_zbar(w: WaveFn) -> WaveFn:
    return w.map_coeffs(lambda f: f.diff_zbar())


def wave_diff_t(w: WaveFn) -> WaveFn:
    """d/dt; with the time phase set, e^{lam^3 t} contributes lam^3 * f at slot k-3."""
    out = {}
    for k, f in w.coeffs.items():
        _acc(out, k, f.diff_t())
        if w.time_phase:
            _acc(out, k - 3, f)
    return WaveFn(out, w.time_phase, w.den)


def _acc(out, k, f):
    if f.is_zero():
        return
    s = out.get(k)
    out[k] = f if s is None else s + f


D_ZZBAR = {(1, 1, 0): 1}                                    # D_z D_zb
D_ZZ = {(2, 0, 0): 1}                                       # D_z^2
D_TIME_LEG = {(0, 0, 1): 1, (3, 0, 0): -1, (0, 3, 0): -1}   # D_t - D_z^3 - D_zb^3
_POLY_DIFFS = (MPoly.diff_z, MPoly.diff_zbar, MPoly.diff_t)


def hirota(f, g: MPoly, form: dict):
    """sum c D^a (f . g) over the items (a, c) of form, a = (m, n, p) the
    orders in z, zb and t, for a wave or polynomial f and a polynomial g:
    D^a (f . g) is the sum over b <= a of (-1)^|b| C(a, b) d^(a-b) f d^b g.

    A wave's derivatives carry its phase.  Each pair of derivatives is scaled
    once, by its summed weight, and the f-terms met by one derivative of g
    share one product with it; for f is g, so do both orders of a pair.
    """
    wave = isinstance(f, WaveFn)
    fdiffs = (wave_diff_z, wave_diff_zbar, wave_diff_t) if wave else _POLY_DIFFS
    times = WaveFn.scale if wave else MPoly.__mul__
    gcache = {(0, 0, 0): g}
    fcache = gcache if f is g else {(0, 0, 0): f}
    weights = {}
    for a, c in form.items():
        for b in product(*(range(x + 1) for x in a)):
            fb, gb = tuple(x - y for x, y in zip(a, b)), b
            if f is g and fb < gb:
                fb, gb = gb, fb
            weights[gb, fb] = weights.get((gb, fb), 0) + c * (-1) ** sum(b) * prod(map(comb, a, b))
    by_g = {}
    for (gb, fb), c in weights.items():
        term = times(_partial(fcache, fdiffs, fb), c)
        by_g[gb] = by_g[gb] + term if gb in by_g else term
    out = times(f, 0)
    for gb, fsum in by_g.items():
        out = out + times(fsum, _partial(gcache, _POLY_DIFFS, gb))
    return out


def _partial(cache: dict, diffs, b):
    """d_z^i d_zb^j d_t^k of cache[(0, 0, 0)] for b = (i, j, k), memoized."""
    if b not in cache:
        axis = next(x for x in range(3) if b[x])
        prev = tuple(v - (x == axis) for x, v in enumerate(b))
        cache[b] = diffs[axis](_partial(cache, diffs, prev))
    return cache[b]


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
            _acc(out, k + j + 1, MPoly.from_numerators(nums, f.denominator))
    return WaveFn(out, w.time_phase, w.den)


def wave_multiplier(w: WaveFn, z0, t0: float = 0.0, lam0: complex = 1.0):
    """Value of the wave without its exponential prefactor, at a point or an
    array of points: sum_k lam^{-k} f_k formed on the slots' x-y coefficients
    and read by one `xy_eval`, over the shared denominator read by another; a
    pole of it as in `divide_off_poles`."""
    import numpy as np
    lam0 = complex(lam0)
    if lam0 == 0 and any(k > 0 for k in w.coeffs):
        raise LambdaZeroError("lam = 0 with negative powers of lam present")
    arrays = {k: f.xy_coefficients() for k, f in w.coeffs.items()}
    shape = tuple(map(max, zip((1, 1, 1), *(a.shape for a in arrays.values()))))
    total = np.zeros(shape, complex)            # each slot's array fills one corner
    for k, a in arrays.items():
        total[tuple(map(slice, a.shape))] += lam0 ** (-k) * a
    num = xy_eval(total, z0, t0)
    if w.den is None:
        return num
    return divide_off_poles(num, w.den.eval(z0, t0), "wave denominator", z0, t0)


def wave_eval(w: WaveFn, z0, t0: float = 0.0, lam0: complex = 1.0):
    """Numeric value including the exponential prefactor, at a point or an
    array of points (NaN at a pole)."""
    mult = wave_multiplier(w, z0, t0, lam0)
    return exp_phase(complex(lam0), z0, t0 if w.time_phase else None) * mult


def exp_phase(lam0: complex, z0, t0=None):
    """e^{lam z0}, times e^{lam^3 t0} unless t0 is None."""
    phase = lam0 * z0
    if t0 is not None:
        phase += lam0 ** 3 * t0
    if isinstance(phase, complex):
        return cmath.exp(phase)
    import numpy as np
    return np.exp(phase)
