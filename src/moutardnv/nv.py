"""Time-dependent layer: third-order evolution of holomorphic data, the
extended W (the static W of the evolved seed plus one time term read at the
origin, at every degree), the associated (U, V) pair and its evolution
residual, time-dependent waves through the static frame, wave and residual
code, kernel fractions, and blow-up time detection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import GR_I, MPoly, RationalFn, _horner_t, grid_extremes
from .errors import TemporalResidualNonzero
from .exppoly import D_TIME_LEG, D_ZZ, D_ZZBAR, hirota
from .faddeev import FaddeevWave, bilinear_residual, faddeev_superpose
from .moutard import SeedPair, build_frame, double_w


def heat3_evolve(p: MPoly) -> MPoly:
    """exp(t d^3/dz^3) p = sum_k t^k/k! d^{3k}p for a polynomial p in z alone:
    the polynomial flow of dp/dt = d^3 p/dz^3, and p itself below degree 3.
    That it solves the flow is an identity of the construction, left to the
    tests."""
    out, term, k = p, p.diff_z().diff_z().diff_z(), 1
    while not term.is_zero():
        out = out + term * MPoly.monomial(0, 0, k, Fraction(1, math.factorial(k)))
        term = term.diff_z().diff_z().diff_z()
        k += 1
    return out


class _Evolved(SeedPair):
    """A seed that `evolved_seed` returned: p1 and p2 evolve in t, so the
    seed check of `SeedPair`, which a seed from outside has passed, is not
    made again."""

    def __post_init__(self):
        pass


def evolved_seed(seed: SeedPair) -> SeedPair:
    """The seed evolved in time by `heat3_evolve`, as a new seed that any
    later evolved_seed returns as it is: each seed is evolved once."""
    if isinstance(seed, _Evolved):
        return seed
    return _Evolved(heat3_evolve(seed.p1), heat3_evolve(seed.p2), seed.c)


def extended_w(seed: SeedPair) -> MPoly:
    """The time-dependent W: the static double_w of the evolved seed plus
    c(t) = int_0^t i(X0 - conj(X0)) ds, X0 the bracket X = p1'''p2 - p1 p2'''
    + 2(p1'p2'' - p1''p2') at z = 0: 6(a3 b0 - a0 b3) + 4(a1 b2 - a2 b1) in
    the z^k coefficients a_k, b_k of p1, p2, polynomials in t.  c(t) is the
    one time term that both exact residuals (`nv_residual`,
    `temporal_residual`) accept, at every degree; neither is run here.  Both
    terms are real-valued: double_w is i times a bracket B with conj(B) = -B,
    and i(X0 - conj(X0)) is real."""
    seed = evolved_seed(seed)
    a, b = ([p.coeff_t(k, 0) for k in range(4)] for p in (seed.p1, seed.p2))
    x0 = (a[3] * b[0] - a[0] * b[3]) * 6 + (a[1] * b[2] - a[2] * b[1]) * 4
    return double_w(seed) + ((x0 - x0.conj_swap()) * GR_I).antideriv_t()


@dataclass
class NVSolution:
    """An exact rational solution of the evolution system: the denominator
    polynomial and the potential pair built from it, both over wt^2.  U is
    built with the solution; V, which only `mnv nv-evolve` reads, is built on
    first read, once."""

    wt: MPoly
    u: RationalFn

    @cached_property
    def v(self) -> RationalFn:
        """V = 2 d^2 log Wt, the form D_z^2 on (Wt . Wt) over Wt^2."""
        return RationalFn(hirota(self.wt, self.wt, D_ZZ), self.wt, 2)


def nv_potentials(wt: MPoly) -> NVSolution:
    """U = 2 d dbar log Wt, the form D_z D_zb on (Wt . Wt) over Wt^2, and V
    on first read.  dbar V = d U holds for every nonzero Wt, both sides
    being 2 d^2 dbar log Wt: an identity of the construction, left to the
    tests."""
    return NVSolution(wt, RationalFn(hirota(wt, wt, D_ZZBAR), wt, 2))


def nv_residual(sol: NVSolution) -> MPoly:
    """Cleared numerator over Wt^3 of U_t - d^3 U - dbar^3 U - 3d(VU) - 3dbar(Vb U),
    zero exactly when the pair evolves correctly.  As D_z^3 D_zb (Wt . Wt) / Wt^2 =
    U_zz + 3VU, the equation is d_t (P / Wt^2) = d_z (Q / Wt^2) + d_zb (Qb / Wt^2)
    for P = D_z D_zb (Wt . Wt), Q = D_z^3 D_zb (Wt . Wt) and Qb = D_z D_zb^3
    (Wt . Wt), the conjugate of Q for a real Wt: the numerator over Wt^3 is
    (P_t - Q_z - conj(Q_z)) Wt - 2(P Wt_t - Q Wt_z - conj(Q Wt_z)), three
    products, of which P Wt_t is a scalar multiple when Wt_t is constant (every
    degree-2 time seed).  P is read off sol.u, whose numerator over Wt^2
    `nv_potentials` stores as it is; Wt is an `extended_w`, real-valued by
    construction."""
    wt = sol.wt
    p, q = sol.u.num, hirota(wt, wt, {(3, 1, 0): 1})
    q_z, w_t = q.diff_z(), wt.diff_t()
    qw = q * wt.diff_z()
    pw = p * (w_t.constant_term() if w_t.is_constant() else w_t)
    return (p.diff_t() - q_z - q_z.conj_swap()) * wt - (pw - qw - qw.conj_swap()) * 2


def nv_faddeev(seed: SeedPair, w: MPoly = None) -> FaddeevWave:
    """Time-dependent wave: the spatial superposition over the evolved seed at
    symbolic t around w, by default extended_w(seed), with both the spatial
    equation and the temporal leg d psi/dt = (d^3 + dbar^3 + 3V d + 3Vb dbar) psi
    checked as exact residuals.
    """
    seed = evolved_seed(seed)
    if w is None:
        w = extended_w(seed)
    fw = faddeev_superpose(build_frame(seed, w), time_phase=True)
    tres = temporal_residual(fw)
    if not tres.is_zero():
        raise TemporalResidualNonzero(f"time leg fails: residual {tres.summary()}")
    return fw


def temporal_residual(fw: FaddeevWave) -> MPoly:
    """Cleared numerator of d psi/dt - (d^3 + dbar^3 + 3V d + 3Vb dbar) psi,
    V = 2 d^2 log w: for psi = e^{lam z + lam^3 t} chi / w it is
    (D_t - D_z^3 - D_zb^3)(chi . w) / w^2, whose first nonzero slot is
    returned; zero exactly when the wave follows the evolution."""
    return bilinear_residual(fw, D_TIME_LEG)


def kernel_mu(fw: FaddeevWave) -> dict:
    """The lam^{-k} multiplier fractions of the wave: k -> N_k / W."""
    out = {}
    for k, num in sorted(fw.psi.coeffs.items()):
        if k == 0:
            continue
        out[k] = RationalFn(num, fw.w)
    return out


@dataclass
class BlowupReport:
    """First time t >= 0 at which the real denominator has a real zero, with
    the witness point; t_star is 0.0 when the zero is already there at
    t = 0, and found is False when there is none up to BLOWUP_T_MAX.

    `method` is "grid" when the denominator already changes sign on the
    search grid at t = 0, and "grid+descent" otherwise.  The result is
    numerical evidence from that search, not a certificate."""

    found: bool
    t_star: float = None
    witness: tuple = None
    method: str = ""


def _slice_objective(a, t: float, sign: float):
    """Value, gradient and Hessian in (x, y) of sign * q(x + iy, t) for a
    real-valued q with x-y coefficients a (`MPoly.xy_coefficients`): the
    slice c = sign * sum_k Re a[k] t^k (Im a = 0) and its five derivative
    matrices, stacked and read at a point as two matrix-vector products with
    the powers of y and of x."""
    import numpy as np
    c = sign * _horner_t(a.real, t)     # square: m and n run to the total degree
    d = np.diag(np.arange(1.0, len(c)), 1)      # d/dx of sum c[m, n] x^m y^n is d @ c
    cx, cy = d @ c, c @ d.T
    stack = np.array([c, cx, cy, d @ cx, d @ cy, cy @ d.T])
    e = np.arange(len(c))

    def fun(p):
        v, vx, vy, vxx, vxy, vyy = ((stack @ p[1] ** e) @ p[0] ** e).tolist()
        return v, (vx, vy), ((vxx, vxy), (vxy, vyy))
    return fun


@dataclass
class LocalMin:
    """A local minimum found by `minimize`, and the objective calls it took."""

    x: tuple
    fun: float
    nfev: int


def _descent_step(g, h):
    """Newton step where the 2x2 Hessian is positive definite, otherwise the
    negative gradient scaled by a bound on the Hessian's spectral radius."""
    (a, b), (_, c) = h
    det = a * c - b * b
    if a > 0.0 and det > 0.0:
        return ((b * g[1] - c * g[0]) / det, (b * g[0] - a * g[1]) / det)
    scale = max(abs(a) + abs(b), abs(b) + abs(c)) or 1.0
    return (-g[0] / scale, -g[1] / scale)


DESCENT_XTOL = 1e-12       # step length, relative to 1 + |x|, that ends a descent
DESCENT_MAXITER = 100
DESCENT_HALVINGS = 60
SCAN_TOL = 1e-10           # t-interval length that ends the bisection of `_scan`
BLOWUP_BOX = (-5.0, 5.0, -5.0, 5.0)    # xmin, xmax, ymin, ymax of the search grid
BLOWUP_GRID_N = 161        # points per axis of that grid
BLOWUP_T_MAX = 10.0        # the search covers t in (0, BLOWUP_T_MAX]


def minimize(fun, x0) -> LocalMin:
    """Local minimum of a smooth function of two variables by damped Newton
    descent from x0; `fun(x)` returns the value, the gradient and the Hessian.

    A step that does not lower the value is halved until it does; the descent
    stops when a step is below DESCENT_XTOL or no halving helps.
    """
    x = (float(x0[0]), float(x0[1]))
    f, g, h = fun(x)
    nfev = 1
    for _ in range(DESCENT_MAXITER):
        sx, sy = _descent_step(g, h)
        tol = DESCENT_XTOL * (1.0 + max(abs(x[0]), abs(x[1])))
        for _ in range(DESCENT_HALVINGS):
            if max(abs(sx), abs(sy)) <= tol:
                return LocalMin(x, f, nfev)
            xn = (x[0] + sx, x[1] + sy)
            fn, gn, hn = fun(xn)
            nfev += 1
            if fn < f:
                break
            sx, sy = 0.5 * sx, 0.5 * sy
        else:
            break
        x, f, g, h = xn, fn, gn, hn
    return LocalMin(x, f, nfev)


def blowup_time(q: MPoly) -> BlowupReport:
    """t_star = inf{t > 0: q has a real zero}, for q an `extended_w`: nonzero
    and real-valued by construction.

    The slice q(., t) is the array sum_k a[k] t^k of the x-y coefficients a
    of q (`MPoly.xy_coefficients`), read on the BLOWUP_GRID_N^2 grid of
    BLOWUP_BOX by `algebra.grid_extremes` in x-major order, which keeps only
    its least and greatest values and three nodes and raises
    CoefficientOverflow where a value leaves float range, and at a point by
    `_slice_objective`.  Where q(., 0) changes sign on the grid, t_star
    is 0, with the node of least |q| as witness.  Otherwise, with s its sign
    there, the minimum of a slice is that of s q(., t), found by a damped
    Newton descent on the exact derivatives from the slice's grid argmin;
    among equal grid values the argmin, and the node of least |q|, is the
    node of least x, then of least y.

    One descent at t = 0 gives m0 = min s W0.  If m0 <= 0, W0 already
    vanishes off the grid's nodes (between them or past the box) and t_star
    is 0; where that descent ended past the box, the witness is the zero of
    W0 found by bisection on the segment back to its start (`_zero_between`).
    When q = W0(x, y) + kappa t with a constant kappa (every degree-2 time
    seed), the first zero is then closed and only the t = 0 grid is
    evaluated: t_star = m0 / |kappa| when s kappa < 0; if s kappa >= 0, or
    m0 / |kappa| > BLOWUP_T_MAX, no zero is reported.  Any other q is
    scanned over 200 t-slices of (0, BLOWUP_T_MAX], and the first slice
    whose minimum reaches zero is refined by bisection to SCAN_TOL (`_scan`).
    """
    import numpy as np
    a = q.xy_coefficients().real       # q is real-valued: Im a = 0
    xmin, xmax, ymin, ymax = BLOWUP_BOX
    xs, ys = np.linspace(xmin, xmax, BLOWUP_GRID_N), np.linspace(ymin, ymax, BLOWUP_GRID_N)
    vx, vy = np.vander(xs, a.shape[1], increasing=True), np.vander(ys, a.shape[2], increasing=True)

    def extremes(t):
        return grid_extremes(_horner_t(a, t), vx, vy)     # indexed [x, y]

    def node(index):
        return float(xs[index[0]]), float(ys[index[1]])

    lo, hi, low, high, least = extremes(0.0)
    if lo <= 0.0 <= hi:
        return BlowupReport(True, 0.0, node(least), "grid")
    sign = 1.0 if lo > 0 else -1.0
    x0 = node(low if sign > 0 else high)
    m0, witness = _slice_min(a, 0.0, sign, x0)
    if m0 <= 0.0:
        if not (xmin <= witness[0] <= xmax and ymin <= witness[1] <= ymax):
            objective = _slice_objective(a, 0.0, sign)
            witness = _zero_between(lambda p: objective(p)[0], x0, witness)
        return BlowupReport(True, 0.0, witness, "grid+descent")
    kappa = _constant_slope(q)
    if kappa is None:
        def slice_min(t):
            _, _, low, high, _ = extremes(t)
            return _slice_min(a, t, sign, node(low if sign > 0 else high))
        hit = _scan(slice_min)
    else:
        hit = (m0 / abs(kappa), witness) if sign * kappa < 0.0 else None
    if hit is None or hit[0] > BLOWUP_T_MAX:
        return BlowupReport(False, None, None, "grid+descent")
    return BlowupReport(True, hit[0], hit[1], "grid+descent")


def _zero_between(f, a, b):
    """A point where f <= 0 within DESCENT_XTOL (relative to 1 + |x|) of a
    zero of f, by bisection of the segment from a, where f > 0, to b, where
    f <= 0."""
    while True:
        scale = 1.0 + max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
        if max(abs(b[0] - a[0]), abs(b[1] - a[1])) <= DESCENT_XTOL * scale:
            return b
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        if f(mid) <= 0.0:
            b = mid
        else:
            a = mid


def _slice_min(a, t: float, sign: float, start):
    """The minimum of sign * q(., t), for q with x-y coefficients a, and
    where it is: a damped Newton descent from the point start, the grid
    node of least sign * q(., t)."""
    r = minimize(_slice_objective(a, t, sign), start)
    return r.fun, r.x


def _constant_slope(q: MPoly):
    """kappa, as a float, when the real-valued q is W0(x, y) + kappa t with a
    constant kappa (zero when q has no t); None otherwise."""
    if q.deg_t() > 1 or not q.diff_t().is_constant():
        return None
    return float(q.xy_coefficients()[1, 0, 0].real) if q.deg_t() == 1 else 0.0


def _scan(slice_min):
    """(t, witness) at the first of 200 t-slices of (0, BLOWUP_T_MAX] whose
    minimum reaches zero, refined by bisection until the interval is at most
    SCAN_TOL or its midpoint meets an end in floating point (as it can for a
    large BLOWUP_T_MAX); None when no slice reaches zero."""
    import numpy as np
    lo = 0.0
    hi = None
    for t in np.linspace(0.0, BLOWUP_T_MAX, 201)[1:]:
        m, _ = slice_min(float(t))
        if m <= 0.0:
            hi = float(t)
            break
        lo = float(t)
    if hi is None:
        return None
    witness = None
    while hi - lo > SCAN_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        m, pt = slice_min(mid)
        if m <= 0.0:
            hi, witness = mid, pt
        else:
            lo = mid
    if witness is None:
        _, witness = slice_min(hi)
    return hi, witness

