"""Time-dependent layer: third-order evolution of holomorphic data, the
extended W (the static W of the evolved seed plus one time term read at the
origin, at every degree), the associated (U, V) pair and its evolution
residual, time-dependent waves through the static frame, wave and residual
code, kernel fractions, and blow-up time detection."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import (MPoly, RationalFn, SeedPair, _horner_t, gauss_sum, grid_axis,
                      grid_extremes, pair_degrees)
from .errors import TemporalResidualNonzero
from .exppoly import D_ZZ, D_ZZBAR, hirota
from .faddeev import FaddeevWave, faddeev_superpose
from .moutard import build_frame, double_w


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


def evolved_seed(seed: SeedPair) -> SeedPair:
    """The seed evolved in time by `heat3_evolve`, or the seed itself where
    each polynomial holds t or has degree below 3: heat3_evolve leaves a
    polynomial of degree below 3 as it is and gives one of degree 3 or more
    the nonzero t term d^3 p, so an evolved seed reads as evolved and each
    seed is evolved once."""
    if all(p.deg_t() > 0 or p.deg_z() < 3 for p in (seed.p1, seed.p2)):
        return seed
    return SeedPair(heat3_evolve(seed.p1), heat3_evolve(seed.p2), seed.c)


#: (m, n) -> the weight of a_m b_n in X0 = 6(a3 b0 - a0 b3) + 4(a1 b2 - a2 b1)
X0_WEIGHTS = {(3, 0): 6, (0, 3): -6, (1, 2): 4, (2, 1): -4}


def extended_w(seed: SeedPair) -> MPoly:
    """The time-dependent W: the static double_w of the evolved seed plus
    c(t) = int_0^t i(X0 - conj(X0)) ds = -2 int_0^t Im X0 ds, X0 the
    bracket X = p1'''p2 - p1 p2''' + 2(p1'p2'' - p1''p2') at z = 0: the sum
    of X0_WEIGHTS times a_m b_n in the z^m coefficients a_m, b_n of p1, p2,
    polynomials in t, read in one pass over their term pairs.  c(t) is the
    one time term that both exact residuals (`nv_residual`,
    `temporal_residual`) accept, at every degree; neither is run here.  Both
    terms are real-valued: double_w is i times a bracket B with conj(B) = -B.
    double_w forms the sum, c(t) as its time_term, and rejects it when
    zero: for p2 = mu p1 + i nu, double_w of the evolved seed is c + 2 nu
    Re p1(0) at t, which c(t) brings back to its value at t = 0, so the sum
    can be zero where double_w of the evolved seed is not."""
    seed = evolved_seed(seed)
    a, b = ([(m, k, re, im) for (m, _, k), (re, im) in p.numerators.items() if m <= 3]
            for p in (seed.p1, seed.p2))
    # a multiple of every k + k' + 1
    span = math.lcm(*range(1, 2 * max((k for _, k, _, _ in a + b), default=0) + 2))
    drift = [((0, 0, k1 + k2 + 1), -2 * x * (p * s + q * r) * span // (k1 + k2 + 1), 0)
             for m, k1, p, q in a for n, k2, r, s in b for x in (X0_WEIGHTS.get((m, n)),) if x]
    return double_w(seed, (drift, span))


def nv_potentials(wt: MPoly) -> RationalFn:
    """U = 2 d dbar log Wt, the form D_z D_zb on (Wt . Wt) over Wt^2: its
    base is Wt.  u = -2 Laplacian(log Wt) is -4U."""
    return RationalFn(hirota(wt, wt, D_ZZBAR), wt, 2)


def nv_v(wt: MPoly) -> RationalFn:
    """V = 2 d^2 log Wt, the form D_z^2 on (Wt . Wt) over Wt^2.  dbar V = d U
    holds for every nonzero Wt, both sides being 2 d^2 dbar log Wt: an
    identity of the construction, left to the tests."""
    return RationalFn(hirota(wt, wt, D_ZZ), wt, 2)


def nv_residual(U: RationalFn) -> MPoly:
    """Cleared numerator over Wt^3 of U_t - d^3 U - dbar^3 U - 3d(VU) - 3dbar(Vb U),
    zero exactly when the pair evolves correctly.  As D_z^3 D_zb (Wt . Wt) / Wt^2 =
    U_zz + 3VU, the equation is d_t (P / Wt^2) = d_z (Q / Wt^2) + d_zb (Qb / Wt^2)
    for P = D_z D_zb (Wt . Wt), Q = D_z^3 D_zb (Wt . Wt) and Qb = D_z D_zb^3
    (Wt . Wt), the conjugate of Q for a real Wt: the numerator over Wt^3 is
    (P_t - Q_z - conj(Q_z)) Wt - 2(P Wt_t - Q Wt_z - conj(Q Wt_z)), read in
    one pass over the term pairs of P and of Q with Wt (README, "The NV
    residual in one pass").  Wt and P are read off U = `nv_potentials`(Wt),
    as its base and its numerator over Wt^2; Wt is an `extended_w`,
    real-valued by construction."""
    wt, p = U.base, U.num
    q = hirota(wt, wt, {(3, 1, 0): 1})
    pair_degrees((p, q), (wt,))
    ws = [(i, j, k, re, im) for (i, j, k), (re, im) in wt.numerators.items()]
    terms = []
    for (i, j, k), (a, b) in p.numerators.items():
        a, b = a * q.denominator, b * q.denominator
        terms += [((i + i2, j + j2, k + k2 - 1), f * (a * c - b * d), f * (a * d + b * c))
                  for i2, j2, k2, c, d in ws for f in (k - 2 * k2,) if f]
    for (i, j, k), (a, b) in q.numerators.items():
        a, b = a * p.denominator, b * p.denominator
        for i2, j2, k2, c, d in ws:
            f = 2 * i2 - i
            if f:
                re, im = f * (a * c - b * d), f * (a * d + b * c)
                terms += (((i + i2 - 1, j + j2, k + k2), re, im),
                          ((j + j2, i + i2 - 1, k + k2), re, -im))
    return gauss_sum(terms, p.denominator * q.denominator * wt.denominator)


def nv_faddeev(seed: SeedPair, w: MPoly = None) -> FaddeevWave:
    """Time-dependent wave: the spatial superposition over the evolved seed at
    symbolic t around w, by default extended_w(seed), with both the spatial
    equation and the temporal leg d psi/dt = (d^3 + dbar^3 + 3V d + 3Vb dbar) psi
    checked as exact residuals, the spatial one first.  Both come from the
    one pass of `faddeev.residual`, which the superposition runs.
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
    returned; zero exactly when the wave follows the evolution.  It is the
    time leg that `faddeev.residual`'s pass stored on the wave, or for a
    wave that has none, that form alone (`FaddeevWave.time_leg`), slot 0 of
    chi, w itself, read by symmetry."""
    return fw.time_leg


def kernel_mu(fw: FaddeevWave) -> dict:
    """The lam^{-k} multiplier fractions of the wave: k -> N_k / W."""
    out = {}
    for k, num in sorted(fw.psi.coeffs.items()):
        if k == 0:
            continue
        out[k] = RationalFn(num, fw.w)
    return out


class BlowupReport(NamedTuple):
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


class LocalMin(NamedTuple):
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
    a = q.xy_coefficients().real       # q is real-valued: Im a = 0
    xmin, xmax, ymin, ymax = BLOWUP_BOX
    xs, vx = grid_axis(xmin, xmax, BLOWUP_GRID_N, a.shape[1])
    ys, vy = grid_axis(ymin, ymax, BLOWUP_GRID_N, a.shape[2])

    def extremes(t):
        return grid_extremes(_horner_t(a, t), vx, vy)     # indexed [x, y]

    def node(index):
        return float(xs[index[0]]), float(ys[index[1]])

    lo, hi, low, high, least = extremes(0.0)
    if lo <= 0.0 <= hi:
        return BlowupReport(True, 0.0, node(least), "grid")
    sign = 1.0 if lo > 0 else -1.0
    x0 = node(low if sign > 0 else high)
    objective = _slice_objective(a, 0.0, sign)
    r = minimize(objective, x0)
    m0, witness = r.fun, r.x
    if m0 <= 0.0:
        if not (xmin <= witness[0] <= xmax and ymin <= witness[1] <= ymax):
            witness = _zero_between(lambda p: objective(p)[0], x0, witness)
        return BlowupReport(True, 0.0, witness, "grid+descent")
    kappa = _constant_slope(q)
    if kappa is None:
        def slice_min(t):
            _, _, low, high, _ = extremes(t)
            r = minimize(_slice_objective(a, t, sign), node(low if sign > 0 else high))
            return r.fun, r.x
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

