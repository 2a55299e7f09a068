"""Exponential-polynomial waves: e^{lam*z} (optionally e^{lam*z + lam^3*t}) times
a finite Laurent sum in lam with polynomial coefficients.

This class of functions is closed under the Moutard transform of the free wave,
which is why it carries the whole eigenfunction pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm, perm

from .algebra import MPoly, divide_off_poles, pair_degrees, xy_eval


class WaveFn:
    """e^{lam z} * sum_k lam^{-k} f_k, with integer k of either sign.

    coeffs maps k to the MPoly f_k; negative keys carry positive powers of
    lam, which derivatives produce.  A wave has no denominator: the Faddeev
    wave chi / W reads its W as slot 0 of chi (`faddeev.FaddeevWave`), and
    `wave_eval` takes the denominator to divide by.  Nor has it arithmetic:
    the transform and the superposition form their slots in closed form
    (`moutard.moutard_transform_wave`, `faddeev.faddeev_superpose`).
    """

    __slots__ = ("time_phase", "coeffs")

    def __init__(self, coeffs=None, time_phase: bool = False):
        self.time_phase = time_phase
        self.coeffs = {k: f for k, f in (coeffs or {}).items() if not f.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, WaveFn):
            return NotImplemented
        return (self.time_phase, self.coeffs) == (other.time_phase, other.coeffs)

    def __repr__(self):
        phase = "e^{lam z + lam^3 t}" if self.time_phase else "e^{lam z}"
        body = " + ".join(f"lam^{-k}*({f})" for k, f in sorted(self.coeffs.items()))
        return f"WaveFn[{phase} * ({body})]"


D_ZZBAR = {(1, 1, 0): 1}                                    # D_z D_zb
D_ZZ = {(2, 0, 0): 1}                                       # D_z^2
D_TIME_LEG = {(0, 0, 1): 1, (3, 0, 0): -1, (0, 3, 0): -1}   # D_t - D_z^3 - D_zb^3


def hirota(f, g: MPoly, forms):
    """sum c D^a (f . g) over the items (a, c) of a form, a = (m, n, p) the
    orders in z, zb and t, for a wave or polynomial f and a polynomial g.
    forms is one form, whose result is returned, or a tuple of forms, all
    formed in the one pass, whose results are returned in a list; for a wave
    each is then the pair of D^a (f . g) and slot 0's own term, D^a (g . g)
    where slot 0 is g (`faddeev.residual` reads u off it) and zero
    otherwise.

    One pass over the term pairs of f (every slot of a wave) and g: as
    D_x^m (x^i . x^i') = H_m(i, i') x^(i+i'-m) (`_weights`), a pair adds
    c H_m H_n H_p times its coefficient product at one exponent.  A wave's
    phase makes D^a the sum in `_phase_orders`, whose power of lam shifts the
    slot.  Each slot's output for each form and order is chosen once, and
    each term of f is scaled by c and by its slot's share of that output's
    denominator, the lcm of those of the slots it reads, once per order:
    a slot of large denominator (a wave's W) scales only the outputs that
    read it, so the integers stay small.  Each pair's weight H_m H_n H_p is
    read from the tables as the pair is met.  A slot that is g itself (a
    polynomial f is its one slot) is read by symmetry: D^b (g . g) is 0 for
    an odd order |b| and symmetric in its pair for an even one, so only the
    even orders and the pairs i <= i' are read, the diagonal once and each
    later pair doubled.  Slot 0's own term, which that slot gives unshifted,
    is summed apart when its pair is asked for and added into slot 0 after
    the pass.  Each output's numerators are summed over its one denominator
    and brought to lowest terms once.
    """
    several = isinstance(forms, tuple)
    forms = forms if several else (forms,)
    wave = isinstance(f, WaveFn)
    slots = f.coeffs if wave else {0: f}
    fdeg, gdeg = pair_degrees(slots.values(), (g,))
    gterms = [(_pack(e), *e, re, im) for e, (re, im) in g.numerators.items()]
    doubled = [(e, i, j, k, 2 * re, 2 * im) for e, i, j, k, re, im in gterms]
    phased = [(at, shift, b, c) for at, form in enumerate(forms)
              for (shift, b), c in _phase_orders(form, wave, wave and f.time_phase).items()]
    # symmetric -> (form, shift, reduced order, weight, weight tables per
    # axis); a slot that is g reads the even orders alone
    orders = {symmetric: [(at, shift, _pack(b), c,
                           [_weights(b[x], fdeg[x], gdeg[x]) for x in range(3)])
                          for at, shift, b, c in phased if not (symmetric and sum(b) % 2)]
              for symmetric in {p is g for p in slots.values()}}
    # per form: output slot -> the lcm of the denominators of the slots it reads
    dens = [{} for _ in forms]
    for slot, p in slots.items():
        for at, shift in {order[:2] for order in orders[p is g]}:
            dens[at][slot - shift] = lcm(dens[at].get(slot - shift, 1), p.denominator)
    acc = [{} for _ in forms]      # per form: output slot -> packed exponent -> [re, im]
    own = [{} for _ in forms]      # per form: slot 0's own term, summed apart for a pair
    apart = several and wave
    for slot, p in slots.items():
        symmetric = p is g
        # each order's output, and its weight times the slot's share of that
        # output's denominator
        plan = [(own[at] if apart and symmetric and slot == shift == 0
                 else acc[at].setdefault(slot - shift, {}), b,
                 c * (dens[at][slot - shift] // p.denominator), tables)
                for at, shift, b, c, tables in orders[symmetric]]
        for n, (e1, (p1, q1)) in enumerate(p.numerators.items()):
            partners = gterms[n:n + 1] + doubled[n + 1:] if symmetric else gterms
            packed = _pack(e1)
            for out, b, c, (hz, hzb, ht) in plan:
                rz, rzb, rt, base = hz[e1[0]], hzb[e1[1]], ht[e1[2]], packed - b
                fre, fim = p1 * c, q1 * c
                for e2, i2, j2, k2, re, im in partners:
                    w = rz[i2] * rzb[j2] * rt[k2]
                    if w:
                        re, im, e = w * re, w * im, base + e2
                        s = out.get(e)
                        if s is None:
                            out[e] = [fre * re - fim * im, fre * im + fim * re]
                        else:
                            s[0] += fre * re - fim * im
                            s[1] += fre * im + fim * re

    def poly(out, den):
        return MPoly.from_numerators({(e >> 16, e >> 8 & 255, e & 255): (re, im)
                                      for e, (re, im) in out.items() if re or im},
                                     den * g.denominator)

    results = []
    for out, mine, den in zip(acc, own, dens):
        if mine:
            zero = out.setdefault(0, {})
            for e, (re, im) in mine.items():
                s = zero.setdefault(e, [0, 0])
                s[0] += re
                s[1] += im
        if not wave:
            results.append(poly(out[0], den[0]) if 0 in out else MPoly.zero())
            continue
        res = WaveFn({slot: poly(o, den[slot]) for slot, o in out.items()}, f.time_phase)
        results.append((res, poly(mine, den.get(0, 1))) if apart else res)
    return results if several else results[0]


def _pack(e) -> int:
    """An exponent triple as one int, 8 bits an axis: sums of packed triples
    are the packed sums while each axis stays in 0..255."""
    return e[0] << 16 | e[1] << 8 | e[2]


def _phase_orders(form: dict, z_phase: bool, t_phase: bool) -> dict:
    """(shift, b) -> integer weight of the orders b = (m, n, p) in form under
    the phase: D^a on e^{lam z} f becomes (D_z + lam)^m D_zb^n D^p_t, and on
    e^{lam z + lam^3 t} f (D_z + lam)^m D_zb^n (D_t + lam^3)^p, with lam^shift
    shifting slot k to k - shift.  For D_TIME_LEG on the time phase the lam^3
    of D_t cancels the lam^3 of -D_z^3, and the order is left out."""
    out = {}
    for (m, n, p), c in form.items():
        for s in range(m + 1 if z_phase else 1):
            for u in range(p + 1 if t_phase else 1):
                key = (s + 3 * u, (m - s, n, p - u))
                out[key] = out.get(key, 0) + c * comb(m, s) * comb(p, u)
    return {key: c for key, c in out.items() if c}


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
    return WaveFn(out, w.time_phase)


def multiplier_xy(w: WaveFn, lam0: complex):
    """The x-y coefficients (`MPoly.xy_coefficients`) of the wave without its
    exponential prefactor, for a nonzero lam: sum_k lam^{-k} f_k formed on
    the slots' arrays, so one `xy_read` reads every slot."""
    import numpy as np
    lam0 = complex(lam0)
    arrays = {k: f.xy_coefficients() for k, f in w.coeffs.items()}
    shape = tuple(map(max, zip((1, 1, 1), *(a.shape for a in arrays.values()))))
    total = np.zeros(shape, complex)            # each slot's array fills one corner
    for k, a in arrays.items():
        total[tuple(map(slice, a.shape))] += lam0 ** (-k) * a
    return total


def wave_eval(w: WaveFn, den: MPoly, z0, t0: float = 0.0, lam0: complex = 1.0):
    """Values of the wave w / den, including the exponential prefactor, at an
    array of points: its multiplier (`multiplier_xy`) over den's values, NaN
    at a pole as in `divide_off_poles`."""
    mult = divide_off_poles(xy_eval(multiplier_xy(w, lam0), z0, t0), den.eval(z0, t0))
    return exp_phase(complex(lam0), z0, t0 if w.time_phase else None) * mult


def exp_phase(lam0: complex, z0, t0=None):
    """e^{lam z0} at an array of points z0, times e^{lam^3 t0} unless t0 is
    None."""
    import numpy as np
    phase = lam0 * z0
    if t0 is not None:
        phase += lam0 ** 3 * t0
    return np.exp(phase)
