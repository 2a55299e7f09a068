"""Reference code that only the tests use.

- Term-by-term evaluators, the independent references of the x-y one.
- Polynomial reads the library does not need: the zb-degree, the
  zb-derivative, whether a polynomial is real-valued, and the exact
  substitution of a time, the reference for a slice at t.
- The evolution residual with both of its Hirota forms, and with each form
  P taken through its derivative as d(P) W - 2 P d(W) (four full-plane
  products): the references of `nv.nv_residual`, which forms one form,
  conjugates it, and makes three products.
- `xy_coefficients_per_term`: the x-y float form summed per exponent in a
  dict, the reference of `MPoly.xy_coefficients`, which sums into flat
  lists by a cached plan per (i, j).
- Derivatives of waves, and `hirota_by_products`, the Hirota form built
  from those derivatives and one product per derivative of g: the
  reference of `exppoly.hirota`, which reads every term pair once.
- `certificate_full_grid`: the nonvanishing certificate with W, |W| and its
  rounding scale formed on the whole grid at once, the reference of
  `moutard.nonvanishing_certificate`.  `grid_extremes_full_grid`: a grid
  formed whole, the reference of `algebra.grid_extremes`, which reads it in
  strips for the certificate and the blow-up search.
- `fd_residual_per_step`: the finite-difference check with one read of the
  wave per step, the reference of `harness.fd_residual`, which reads both
  steps' stencils at once.
- `Frac`: sums, products and derivatives of fractions over one shared base,
  with `same_fraction` as its equality.  The library itself only builds,
  scales, evaluates and prints fractions.
- The numeric evidence for paper claims that no `mnv` subcommand prints:
  the decay and the sign of u, and the square-integrability of the kernel
  fraction mu2 of the blowing-up solutions.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partialmethod
from itertools import product

import numpy as np

from moutardnv import moutard, nv
from moutardnv.algebra import (GR_I, GR_ONE, GaussianRational, MPoly, RationalFn, _to_float,
                               _xy_row, grid_product)
from moutardnv.errors import AlgebraError
from moutardnv.exppoly import D_ZZBAR, WaveFn, hirota, wave_eval
from moutardnv.harness import FDReport, _gr_from_json, _grid_points


def eval_naive(p: MPoly, z0, t0: float = 0.0) -> complex:
    z0 = complex(z0)
    zb0 = z0.conjugate()
    return sum(complex(c) * z0 ** i * zb0 ** j * t0 ** k for (i, j, k), c in p.sorted_terms())


def wave_eval_naive(w, z0, t0: float = 0.0, lam0: complex = 1.0) -> complex:
    lam0 = complex(lam0)
    phase = lam0 * complex(z0) + (lam0 ** 3 * t0 if w.time_phase else 0.0)
    total = sum(lam0 ** (-k) * eval_naive(f, z0, t0) for k, f in w.coeffs.items())
    if w.den is not None:
        total /= eval_naive(w.den, z0, t0)
    return cmath.exp(phase) * total


def certificate_full_grid(w: MPoly) -> moutard.NonvanishingReport:
    """`moutard.nonvanishing_certificate` with W, its rounding scale and |W|
    formed on the whole grid at once."""
    if w.is_constant():
        c = w.constant_term()
        if c.is_zero() or not c.is_real():
            return moutard.NonvanishingReport("zero-found", (0.0, 0.0))
        return moutard.NonvanishingReport("certified-positive")
    xmin, xmax, ymin, ymax = moutard.CERTIFICATE_BOX
    xs = np.linspace(xmin, xmax, moutard.CERTIFICATE_GRID_N)
    ys = np.linspace(ymin, ymax, moutard.CERTIFICATE_GRID_N)
    a = w.xy_coefficients()[0].real
    vx = np.vander(xs, a.shape[0], increasing=True)
    vy = np.vander(ys, a.shape[1], increasing=True)
    re = grid_product(a, vx, vy)
    scale = grid_product(np.abs(a), np.abs(vx), np.abs(vy))
    mag = np.abs(re)
    if re.min() <= 0.0 <= re.max() or (mag <= 64 * np.finfo(float).eps * scale).any():
        iy, ix = np.unravel_index(mag.argmin(), re.shape)
        return moutard.NonvanishingReport("zero-found", (float(xs[ix]), float(ys[iy])))
    sign = 1 if re.min() > 0 else -1
    ((i, j), c), *rest = w.spatial_leading_terms().items()
    definite = not rest and i == j and c.is_constant() and sign * c.constant_term().re > 0
    return moutard.NonvanishingReport("certified-positive" if definite else "inconclusive")


def grid_extremes_full_grid(c, v1, v2):
    """`algebra.grid_extremes` with the grid formed whole at once, by the
    same association (v1 @ c) @ v2^T, indexed [first, second], and its nodes
    found by `unravel_index`."""
    f = grid_product(c.T, v2, v1)
    nodes = (np.unravel_index(k, f.shape) for k in (f.argmin(), f.argmax(), np.abs(f).argmin()))
    return (f.min(), f.max(), *(tuple(map(int, n)) for n in nodes))


def fd_residual_per_step(u: RationalFn, fw, lam0: complex, grid, h: float) -> FDReport:
    """`harness.fd_residual` with the wave read once for each step."""
    z = _grid_points(grid)
    uc = u.eval(z, grid.t)
    res = []
    for step in (h, h / 2.0):
        shifts = np.array([0.0, step, -step, 1j * step, -1j * step])
        values = wave_eval(fw.psi, z + shifts[:, None, None], grid.t, lam0)
        used = ~(np.isnan(uc) | np.isnan(values).any(axis=0))
        pc, pe, pw, pn, ps = values[:, used]
        lap = (pe + pw + pn + ps - 4.0 * pc) / step ** 2
        r = np.abs(-lap + uc[used] * pc) / np.maximum(1.0, np.abs(pc))
        res.append((float(r.max(initial=0.0)), int(used.sum())))
    res_h, res_half = res[0][0], res[1][0]
    order = math.log2(res_h / res_half) if res_half > 0 else float("inf")
    return FDReport(res_h, res_half, order, h, res[0][1])


def deg_zbar(p: MPoly) -> int:
    """The zb-degree; -1 for the zero polynomial."""
    return max((j for (_, j, _) in p.numerators), default=-1)


def diff_zbar(p: MPoly) -> MPoly:
    """d/dzb, the conjugate of d/dz on the conjugate: conj(d conj(p))."""
    return p.conj_swap().diff_z().conj_swap()


def is_real_valued(p: MPoly) -> bool:
    return p.conj_swap() == p


def subs_t(p: MPoly, t0) -> MPoly:
    """p with the exact number t0 put for t."""
    t = MPoly.const(t0)
    return sum((MPoly.monomial(i, j, 0, c) * t ** k for (i, j, k), c in p.terms.items()),
               MPoly.zero())


def _over_w2(p: MPoly, w: MPoly, d) -> MPoly:
    """Numerator over w^3 of d(p / w^2) for a derivation d of MPoly."""
    return d(p) * w - p * d(w) * 2


def nv_residual_two_forms(sol) -> MPoly:
    """`nv.nv_residual` with the zb term formed on its own: the numerator over
    Wt^3 of d_t (D_z D_zb) - d_z (D_z^3 D_zb) - d_zb (D_z D_zb^3), each form
    on (Wt . Wt) over Wt^2."""
    wt = sol.wt
    return (_over_w2(sol.u.num, wt, MPoly.diff_t)
            - _over_w2(hirota(wt, wt, {(3, 1, 0): 1}), wt, MPoly.diff_z)
            - _over_w2(hirota(wt, wt, {(1, 3, 0): 1}), wt, diff_zbar))


def nv_residual_four_products(sol) -> MPoly:
    """`nv.nv_residual` with each form P through its own quotient rule,
    d(P) Wt - 2 P d(Wt), and the zb term the conjugate of the z term: four
    full-plane products."""
    wt = sol.wt
    b = _over_w2(hirota(wt, wt, {(3, 1, 0): 1}), wt, MPoly.diff_z)
    return _over_w2(sol.u.num, wt, MPoly.diff_t) - (b + b.conj_swap())


def xy_coefficients_per_term(p: MPoly):
    """`MPoly.xy_coefficients`, uncached, with the exact sums kept in a dict
    by exponent (k, m, n) and each part converted by `_to_float` in the
    dict's order, real part first."""
    acc = {}
    for (i, j, k), (re, im) in p.numerators.items():
        parts = ((re, im), (-im, re), (-re, -im), (im, -re))    # i^n (re + i im)
        for n, kn in enumerate(_xy_row(i, j)):
            pr, pi = parts[n % 4]
            s = acc.setdefault((k, i + j - n, n), [0, 0])
            s[0] += kn * pr
            s[1] += kn * pi
    deg = max(p.total_degree_space(), 0) + 1
    a = np.zeros((max(p.deg_t(), 0) + 1, deg, deg), complex)
    for e, (re, im) in acc.items():
        a[e] = complex(_to_float(re, p.denominator), _to_float(im, p.denominator))
    return a


# ---------------------------------------------------------------------------
# wave derivatives and the Hirota form by products


def wave_diff_z(w: WaveFn) -> WaveFn:
    """d/dz: the phase contributes lam * f at slot k-1, the coefficient its z-derivative."""
    out = {}
    for k, f in w.coeffs.items():
        _acc(out, k - 1, f)
        _acc(out, k, f.diff_z())
    return WaveFn(out, w.time_phase, w.den)


def wave_diff_zbar(w: WaveFn) -> WaveFn:
    return WaveFn({k: diff_zbar(f) for k, f in w.coeffs.items()}, w.time_phase, w.den)


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


_POLY_DIFFS = (MPoly.diff_z, diff_zbar, MPoly.diff_t)


def hirota_by_products(f, g: MPoly, form: dict):
    """`exppoly.hirota` built from derivatives: D^a (f . g) is the sum over
    b <= a of (-1)^|b| C(a, b) d^(a-b) f d^b g, a wave's derivatives carrying
    its phase.  Each pair of derivatives is scaled once, by its summed
    weight, and the f-terms met by one derivative of g share one product
    with it; for f is g, so do both orders of a pair."""
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
            weights[gb, fb] = (weights.get((gb, fb), 0)
                               + c * (-1) ** sum(b) * math.prod(map(math.comb, a, b)))
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


# ---------------------------------------------------------------------------
# fraction calculus


def same_fraction(f: RationalFn, g) -> bool:
    """f and g (a fraction, polynomial or number) are the same function.
    Over bases that differ by a constant factor this takes one rescale,
    over other bases a cross-multiplication."""
    if not isinstance(g, RationalFn):
        g = RationalFn(MPoly.const(0) + g, f.base, 0)
    if g.base != f.base:
        s = _constant_ratio(g.base, f.base)
        if s is None:
            return f.num * g.den == g.num * f.den
        # g.num / (s*base)^k = (g.num / s^k) / base^k
        scale = GR_ONE
        for _ in range(g.k):
            scale = scale / s
        g = RationalFn(g.num * scale, f.base, g.k)
    k = max(f.k, g.k)
    return _lift(f, k) == _lift(g, k)


def _lift(f: RationalFn, k: int) -> MPoly:
    """The numerator of f over base^k, k >= f.k."""
    out = f.num
    for _ in range(k - f.k):
        out = out * f.base
    return out


def _constant_ratio(p: MPoly, q: MPoly):
    """The constant s with p == s * q, or None when there is none."""
    if not q.numerators or p.numerators.keys() != q.numerators.keys():
        return None
    e = next(iter(q.numerators))
    s = p.coeff(*e) / q.coeff(*e)
    return s if q * s == p else None


def frac(f: RationalFn) -> "Frac":
    return Frac(f.num, f.base, f.k)


class Frac(RationalFn):
    """num / base**k with the calculus over one shared base: sums, products
    and d(num/base^k) = (num' * base - k*num*base') / base^(k+1) only lift
    numerators.  A number or polynomial is a fraction with k = 0; a fraction
    over another base raises ValueError."""

    __slots__ = ()

    def _over(self, other) -> "Frac":
        if isinstance(other, (int, Fraction, GaussianRational, MPoly)):
            return Frac(MPoly.const(0) + other, self.base, 0)
        if other.base != self.base:
            raise ValueError("fractions over different bases")
        return frac(other)

    def __add__(self, other):
        other = self._over(other)
        k = max(self.k, other.k)
        return Frac(_lift(self, k) + _lift(other, k), self.base, k)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.base, self.k)

    def __sub__(self, other):
        return self + -self._over(other)

    def __mul__(self, other):
        other = self._over(other)
        return Frac(self.num * other.num, self.base, self.k + other.k)

    __rmul__ = __mul__
    __eq__ = same_fraction
    __hash__ = None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _diff(self, d) -> "Frac":
        if self.k == 0:
            return Frac(d(self.num), self.base, 0)
        return Frac(d(self.num) * self.base - self.num * d(self.base) * self.k,
                    self.base, self.k + 1)

    diff_z = partialmethod(_diff, MPoly.diff_z)
    diff_zbar = partialmethod(_diff, diff_zbar)
    diff_t = partialmethod(_diff, MPoly.diff_t)

    def conj_swap(self) -> "Frac":
        return Frac(self.num.conj_swap(), self.base.conj_swap(), self.k)

    def is_real_valued(self) -> bool:
        return self.conj_swap() == self


def poly_from_json(d) -> MPoly:
    return sum((MPoly.monomial(int(i), int(j), int(k), _gr_from_json(c))
                for i, j, k, c in d["terms"]), MPoly.zero())


def rational_from_json(d) -> RationalFn:
    return RationalFn(poly_from_json(d["num"]), poly_from_json(d["den"]))


# ---------------------------------------------------------------------------
# decay and sign of u


@dataclass
class DecayFit:
    exponent: float
    residual: float          # RMS of the log-log fit


def decay_fit(f: RationalFn, t0: float = 0.0) -> DecayFit:
    """Least-squares slope of log|f| against log r, 100 <= r <= 10^4, along
    eight rays; poles and exact zeros are left out of each ray's fit."""
    rays = [k * math.pi / 4 + 0.07 for k in range(8)]
    rs = np.logspace(2.0, 4.0, 40)
    values = np.abs(f.eval(np.exp(1j * np.array(rays))[:, None] * rs, t0))
    slopes, rms = [], []
    for ang, v in zip(rays, values):
        kept = v > 0.0                          # False at a pole (NaN) and at a zero
        if kept.sum() < 3:
            raise PoleError(f"ray {ang} has too few finite samples")
        logs_r, logs_f = np.log(rs[kept]), np.log(v[kept])
        slope, intercept = np.polyfit(logs_r, logs_f, 1)
        rms.append(float(np.sqrt(np.mean((slope * logs_r + intercept - logs_f) ** 2))))
        slopes.append(float(slope))
    return DecayFit(float(np.mean(slopes)), float(np.mean(rms)))


@dataclass
class SignReport:
    verdict: str             # "nonpositive" | "positive-somewhere"
    max_value: float
    witness: tuple
    certificate: bool
    certificate_detail: str


def sign_check(u: RationalFn, grid) -> SignReport:
    """Numeric maximum of a real-valued rational function over a grid, plus a
    symbolic nonpositivity certificate when the numerator factors as a
    negative constant times a hermitian square."""
    xs, ys = grid.points()
    values = u.eval(_grid_points(grid), grid.t).real
    values[np.isnan(values)] = -np.inf          # a pole
    idx = np.unravel_index(values.argmax(), values.shape)
    worst, witness = float(values[idx]), (float(xs[idx[1]]), float(ys[idx[0]]))
    if worst <= 1e-9:
        return SignReport("nonpositive", worst, None, *hermitian_square_certificate(u.num))
    return SignReport("positive-somewhere", worst, witness,
                      *hermitian_square_certificate(u.num))


def hermitian_square_certificate(num: MPoly):
    """Try to write num = s * N * conj(N) with s a real constant and N linear
    in z; returns (sign_is_nonpositive_consistent, detail)."""
    if num.is_zero():
        return True, "numerator is zero"
    if num.deg_z() > 1 or deg_zbar(num) > 1 or num.deg_t() > 0:
        return False, "no certificate attempted (numerator not bilinear)"
    c00, c10, c01, c11 = (num.coeff(i, j) for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
    if not (c00.is_real() and c11.is_real()):
        return False, "diagonal coefficients not real"
    if c01 != c10.conjugate():
        return False, "cross coefficients not conjugate"
    if c11 * c00 != c10 * c10.conjugate():
        return False, "determinant obstruction: not a hermitian square"
    lead = c11 if not c11.is_zero() else c00
    sgn = "nonpositive" if lead.re < 0 else "nonnegative"
    return True, f"numerator = s*(az+b)*conj(az+b) with s {sgn}"


# ---------------------------------------------------------------------------
# square-integrability of the kernel fraction mu2


class PoleError(AlgebraError):
    """A numeric reference met a zero of a denominator."""


class SingularBeforeBlowup(AlgebraError):
    """The denominator vanished at a sampled time below the reported blow-up time."""


@dataclass
class Mu2Entry:
    t: float
    l2_half: float          # integral of |mu2|^2 over |z| < R/2
    l2_full: float          # over |z| < R
    increment: float        # tail contribution, shrinking when integrable


@dataclass
class Mu2Report:
    harmonic_real: bool     # (d dbar + U)(Re mu2) = 0 exactly
    harmonic_imag: bool
    decay_exponent: int     # from degree bookkeeping
    entries: list = field(default_factory=list)


def mu2_integrability(sol, fw, t_samples, r_outer: float = 40.0,
                      t_star: float = None) -> Mu2Report:
    """Zero-energy eigenfunction check and square-integrability evidence for
    the lam^{-2} kernel fraction at times t_samples before t_star."""
    mu2 = nv.kernel_mu(fw)[2]
    n2 = mu2.num
    u_ok = potential_gap(sol.u, sol.wt).is_zero()
    report = Mu2Report(u_ok and eigen_check(n2 + n2.conj_swap(), sol.u),
                       u_ok and eigen_check((n2 - n2.conj_swap()) * GR_I, sol.u),
                       n2.total_degree_space() - mu2.base.total_degree_space())
    for t0 in map(float, t_samples):
        half, full = (_disc_l2(mu2, t0, r, t_star) for r in (r_outer / 2.0, r_outer))
        report.entries.append(Mu2Entry(t0, half, full, full - half))
    return report


def potential_gap(u: RationalFn, w: MPoly) -> MPoly:
    """Cleared numerator over w^2 of u - D_z D_zb (w . w) / w^2 for a u over
    w^2: zero exactly when u = 2 d dbar log w."""
    if u.base != w or u.k != 2:
        raise ValueError("u must be a fraction over w^2")
    return u.num - hirota(w, w, D_ZZBAR)


def eigen_check(num: MPoly, u: RationalFn) -> bool:
    """(d dbar + U) (num/wt) = 0 exactly for wt = u.base, which is
    D_z D_zb (num . wt) / wt^2 when U = 2 d dbar log wt; that U is the
    caller's to check (`mu2_integrability` does, once per report)."""
    return hirota(num, u.base, D_ZZBAR).is_zero()


def _disc_l2(mu2: RationalFn, t0: float, r: float, t_star) -> float:
    """Integral of |mu2|^2 over |z| < r at time t0 (polar Riemann sum)."""
    wt = mu2.base
    rs = np.linspace(r / 240, r, 240)
    thetas = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
    R, TH = np.meshgrid(rs, thetas)
    Z = R * np.exp(1j * TH)
    den = wt.eval(Z, t0)
    dre = den.real
    singular = dre.min() <= 0.0 <= dre.max()
    idx = np.unravel_index(np.abs(dre).argmin(), dre.shape)
    if not singular:
        # a touching zero leaves the grid minimum tiny but one-signed; refine
        fun = nv._slice_objective(wt.xy_coefficients(), t0, 1.0 if dre[idx] > 0 else -1.0)
        r0 = nv.minimize(fun, (Z[idx].real, Z[idx].imag))
        singular = r0.fun < 1e-6 * (1.0 + abs(wt.eval(0.0, t0)))
    if singular:
        where = f"denominator vanished near z={Z[idx]}, t={t0}"
        if t_star is not None and t0 < t_star:
            raise SingularBeforeBlowup(f"{where} < t_star={t_star}")
        raise PoleError(where)
    vals = np.abs(mu2.num.eval(Z, t0) / den ** mu2.k) ** 2 * R
    return float(vals.sum() * (rs[1] - rs[0]) * (thetas[1] - thetas[0]))
