"""Exponential-polynomial waves: e^{lam*z} (optionally e^{lam*z + lam^3*t}) times
a finite Laurent sum in lam with polynomial or shared-denominator coefficients.

This class of functions is closed under the Moutard transform of the free wave,
which is why it carries the whole eigenfunction pipeline.
"""

from __future__ import annotations

import cmath

import numpy as np

from .algebra import MPoly, divide_off_poles
from .errors import LambdaZeroError, ZeroPolynomial


class WaveFn:
    """e^{lam z} * sum_k lam^{-k} f_k, with integer k of either sign.

    coeffs maps k to f_k (MPoly, or RationalFn inside the residual checks);
    negative keys carry positive powers of lam, which derivatives produce.
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

    def shift(self, dk: int) -> "WaveFn":
        """Multiply by lam^{-dk}."""
        return WaveFn({k + dk: f for k, f in self.coeffs.items()}, self.time_phase, self.den)

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


def wave_antideriv_z(w: WaveFn) -> WaveFn:
    """Exact z-antiderivative inside the wave class (no integration constant).

    Uses int e^{lam z} z^n dz = e^{lam z} * sum_{j=0..n} (-1)^j n!/(n-j)! z^{n-j} lam^{-(j+1)};
    zb and t ride along.  Coefficients must be plain polynomials.
    """
    out = {}
    for k, f in w.coeffs.items():
        if not isinstance(f, MPoly):
            raise TypeError("wave_antideriv_z needs polynomial coefficients")
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


def wave_antideriv_zbar(w: WaveFn) -> WaveFn:
    """zb-antiderivative; the phase does not involve zb."""
    return w.map_coeffs(lambda f: f.antideriv_zbar())


def wave_multiplier(w: WaveFn, z0, t0: float = 0.0, lam0: complex = 1.0):
    """Value of the wave without its exponential prefactor, at a point or an
    array of points; a pole of the shared denominator as in `divide_off_poles`."""
    lam0 = complex(lam0)
    if lam0 == 0 and any(k > 0 for k in w.coeffs):
        raise LambdaZeroError("lam = 0 with negative powers of lam present")
    total = 0j if isinstance(z0, (int, float, complex)) else np.zeros(np.shape(z0), complex)
    for k, f in w.coeffs.items():
        total += lam0 ** (-k) * f.eval(z0, t0)
    if w.den is None:
        return total
    return divide_off_poles(total, w.den.eval(z0, t0), "wave denominator", z0, t0)


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
    return cmath.exp(phase) if isinstance(phase, complex) else np.exp(phase)


def wave_eval_naive(w: WaveFn, z0: complex, t0: float = 0.0, lam0: complex = 1.0) -> complex:
    """Independent straight-line evaluation used by cross-check tests."""
    lam0 = complex(lam0)
    phase = lam0 * complex(z0) + (lam0 ** 3 * t0 if w.time_phase else 0.0)
    total = 0.0 + 0.0j
    for k, f in w.coeffs.items():
        val = f.eval_naive(z0, t0) if isinstance(f, MPoly) else f.eval(z0, t0)
        total += lam0 ** (-k) * val
    if w.den is not None:
        total /= w.den.eval_naive(z0, t0)
    return cmath.exp(phase) * total
