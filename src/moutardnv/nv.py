"""Time-dependent layer: third-order evolution of holomorphic data, the
extended W, the associated (U, V) pair and its evolution-equation residual,
time-dependent waves, kernel fractions, and blow-up time detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp

from .algebra import GR_I, GaussianRational, MPoly, RationalFn, log_derivative2
from .errors import (NotEvolved, NotHolomorphic, PoleError, SingularBeforeBlowup,
                     TemporalResidualNonzero, ZeroPolynomial)
from .exppoly import WaveFn, wave_diff_t, wave_diff_z, wave_diff_zbar
from .faddeev import FaddeevWave, faddeev_superpose
from .moutard import (MoutardFrame, SeedPair, harmonic_from_holomorphic, kernel_functions,
                      moutard_transform_wave, potential, w_bracket)


def heat3_evolve(p: MPoly) -> MPoly:
    """exp(t d^3/dz^3) p = sum_k t^k/k! d^{3k}p: the polynomial flow of
    dp/dt = d^3 p/dz^3."""
    if not p.is_holomorphic() or p.deg_t() > 0:
        raise NotHolomorphic("heat3_evolve expects a static holomorphic polynomial")
    out = MPoly.zero()
    term = p
    k = 0
    while not term.is_zero():
        tk = term * MPoly.monomial(0, 0, k, GaussianRational(Fraction(1, math.factorial(k))))
        out = out + tk
        term = term.diff_z().diff_z().diff_z()
        k += 1
    return out


def assert_evolved(p: MPoly) -> None:
    if p.diff_t() != p.diff_z().diff_z().diff_z():
        raise NotEvolved("polynomial does not satisfy dp/dt = d^3 p/dz^3")


def evolved_seed(seed: SeedPair) -> SeedPair:
    """Evolve a static seed in time; a t-dependent seed is validated instead."""
    if seed.p1.deg_t() == 0 and seed.p2.deg_t() == 0:
        return SeedPair(heat3_evolve(seed.p1), heat3_evolve(seed.p2), seed.c)
    assert_evolved(seed.p1)
    assert_evolved(seed.p2)
    return seed


def extended_w(seed: SeedPair) -> MPoly:
    """The time-dependent W.

    Spatial legs as in the static double iteration (at fixed t); the time leg
    integrates the third-derivative bracket X = p1'''p2 - p1 p2''' + 2(p1'p2''
    - p1''p2') along the t-axis at the origin.  The resulting 1-form is closed
    for evolved seeds, which is asserted via dW/dt = i(X - conj(X)).
    """
    seed = evolved_seed(seed)
    p1, p2 = seed.p1, seed.p2
    bracket = w_bracket(p1, p2)
    d1, d2, d3 = p1.diff_z(), p1.diff_z().diff_z(), p1.diff_z().diff_z().diff_z()
    e1, e2, e3 = p2.diff_z(), p2.diff_z().diff_z(), p2.diff_z().diff_z().diff_z()
    x = d3 * p2 - p1 * e3 + (d1 * e2 - d2 * e1) * 2
    tleg = x - x.conj_swap()
    g = tleg.at_origin_t().antideriv_t()
    w = (bracket + g) * GR_I + MPoly.const(seed.c)
    if w.diff_t() != tleg * GR_I:
        raise NotEvolved("time leg is not closed; seed is not correctly evolved")
    if not w.is_real_valued():
        raise NotEvolved("extended W failed to be real-valued")
    return w


@dataclass
class NVSolution:
    """An exact rational solution of the evolution system: the denominator
    polynomial and the potential pair built from it, both over wt^2."""

    wt: MPoly
    u: RationalFn
    v: RationalFn


def nv_potentials(wt: MPoly) -> NVSolution:
    """U = 2 d dbar log Wt, V = 2 d^2 log Wt, with dbar V = d U asserted exactly."""
    if wt.is_zero():
        raise ZeroPolynomial("potentials of Wt = 0")
    u = log_derivative2(wt, MPoly.diff_z, MPoly.diff_zbar) * 2
    v = log_derivative2(wt, MPoly.diff_z, MPoly.diff_z) * 2
    if v.diff_zbar() != u.diff_z():
        raise TemporalResidualNonzero("dbar V != d U for this Wt")
    return NVSolution(wt, u, v)


def nv_residual(sol: NVSolution) -> MPoly:
    """Cleared numerator of U_t - d^3 U - dbar^3 U - 3d(VU) - 3dbar(Vb U);
    the zero polynomial exactly when the pair evolves correctly."""
    wt = sol.wt
    if not wt.is_real_valued():
        raise ValueError("nv_residual expects a real-valued Wt")
    u, v = sol.u, sol.v
    vb = RationalFn(v.num.conj_swap(), wt, v.k)
    res = u.diff_t()
    res = res - u.diff_z().diff_z().diff_z()
    res = res - u.diff_zbar().diff_zbar().diff_zbar()
    res = res - (v * u).diff_z() * 3
    res = res - (vb * u).diff_zbar() * 3
    return res.num


def nv_faddeev(seed: SeedPair) -> FaddeevWave:
    """Time-dependent wave: the spatial superposition over the evolved seed at
    symbolic t, with both the spatial equation and the temporal leg
    d psi/dt = (d^3 + dbar^3 + 3V d + 3Vb dbar) psi checked as exact residuals.
    """
    seed = evolved_seed(seed)
    omega1 = harmonic_from_holomorphic(seed.p1)
    omega2 = harmonic_from_holomorphic(seed.p2)
    wt = extended_w(seed)
    u = potential(wt)
    theta1, theta2, phi1, phi2 = kernel_functions(omega1, omega2, wt)
    frame = MoutardFrame(omega1, omega2, wt, u, theta1, theta2, phi1, phi2, seed)
    free = WaveFn.free(time_phase=True)
    psi1 = moutard_transform_wave(omega1, free)
    psi2 = moutard_transform_wave(omega2, free)
    fw = faddeev_superpose(frame, psi1, psi2)
    tres = temporal_residual(fw)
    if not tres.is_zero():
        raise TemporalResidualNonzero(f"time leg fails: residual {tres.summary()}")
    return fw


def temporal_residual(fw: FaddeevWave) -> MPoly:
    """Cleared numerator of d psi/dt - (d^3 + dbar^3 + 3V d + 3Vb dbar) psi,
    slot by slot; zero exactly when the wave follows the evolution."""
    wt = fw.w
    k0 = 1 if fw.psi.den is not None else 0
    mult = WaveFn({k: RationalFn(f, wt, k0) for k, f in fw.psi.coeffs.items()},
                  fw.psi.time_phase)
    v3 = log_derivative2(wt, MPoly.diff_z, MPoly.diff_z) * 6
    vb3 = RationalFn(v3.num.conj_swap(), wt, 2)
    d1 = wave_diff_z(mult)
    d3 = wave_diff_z(wave_diff_z(d1))
    b1 = wave_diff_zbar(mult)
    b3 = wave_diff_zbar(wave_diff_zbar(b1))
    res = wave_diff_t(mult) - d3 - b3 - d1.scale(v3) - b1.scale(vb3)
    for k in sorted(res.coeffs):
        num = res.coeffs[k].num
        if not num.is_zero():
            return num
    return MPoly.zero()


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
    """First positive time at which the (normalized, real) denominator
    acquires a real zero, with the witness point and method agreement."""

    found: bool
    t_star: float = None
    witness: tuple = None
    method: str = ""
    spread: float = None     # |grid+descent - enumeration| when both ran
    detail: str = ""


def normalize_real(q: MPoly) -> MPoly:
    """Rescale a complex multiple of a real-valued polynomial to the real form."""
    if q.is_zero():
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    if q.is_real_valued():
        return q
    for _, c in q.sorted_terms():
        cand = q * c.conjugate()
        if cand.is_real_valued():
            return cand
    raise ValueError("polynomial is not real-valued up to a constant scale")


def _horner_t(coeffs, t: float):
    """sum_k coeffs[k] t^k."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    return acc


def _local_coeffs(q: MPoly) -> np.ndarray:
    """Coefficients [k, d, i, j] of z^i zb^j t^k in d = q, q_z, q_zz, q_zzb."""
    qz = q.diff_z()
    out = np.zeros((q.deg_t() + 1, 4, q.deg_z() + 1, q.deg_zbar() + 1), dtype=complex)
    for d, p in enumerate((q, qz, qz.diff_z(), qz.diff_zbar())):
        for (i, j, k), c in p.complex_terms():
            out[k, d, i, j] = c
    return out


def _slice_objective(local: np.ndarray, t: float, sign: float):
    """Value, gradient and Hessian in (x, y) of sign * q(x + iy, t) for a
    real-valued q given by `_local_coeffs`: with z = x + iy,
    q_x = 2 Re q_z, q_y = -2 Im q_z, q_xx = 2 Re q_zz + 2 q_zzb,
    q_xy = -2 Im q_zz and q_yy = 2 q_zzb - 2 Re q_zz."""
    m = _horner_t(local, t)
    ri, rj = np.arange(m.shape[1]), np.arange(m.shape[2])

    def fun(p):
        z = complex(p[0], p[1])
        v, vz, vzz, vzzb = ((m @ (z.conjugate() ** rj)) @ (z ** ri)).tolist()
        hxy = -2.0 * sign * vzz.imag
        return (sign * v.real, (2.0 * sign * vz.real, -2.0 * sign * vz.imag),
                ((2.0 * sign * (vzz.real + vzzb.real), hxy),
                 (hxy, 2.0 * sign * (vzzb.real - vzz.real))))
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


def blowup_time(q: MPoly, box=(-5.0, 5.0, -5.0, 5.0), grid_n: int = 161,
                refine_tol: float = 1e-10, t_max: float = 10.0) -> BlowupReport:
    """t_star = inf{t > 0: the normalized real form of q has a real zero}.

    Grid scan in t with per-slice spatial minimization (the grid argmin of the
    slice, from precomputed t-coefficient grids, then a damped Newton descent
    on the exact derivatives), refined by bisection; for q affine in t, an
    independent exact-stationarity enumeration (resultant elimination by
    evaluation and interpolation) competes, and the minimum with the
    cross-method spread is reported.
    """
    q = normalize_real(q)
    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, grid_n)
    ys = np.linspace(ymin, ymax, grid_n)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    grids = np.array([p.eval(Z).real for p in q.t_coefficients()])

    f0 = grids[0]
    if f0.min() <= 0.0 <= f0.max():
        idx = np.unravel_index(np.abs(f0).argmin(), f0.shape)
        return BlowupReport(True, 0.0, (float(X[idx]), float(Y[idx])),
                            "grid", 0.0, "zero already present at t = 0")
    sign = 1.0 if f0.min() > 0 else -1.0
    local = _local_coeffs(q)

    def slice_min(t):
        vals = sign * _horner_t(grids, t)
        idx = np.unravel_index(vals.argmin(), vals.shape)
        r = minimize(_slice_objective(local, t, sign), (X[idx], Y[idx]))
        return r.fun, r.x

    ts = np.linspace(0.0, t_max, 201)
    lo = 0.0
    hi = None
    for t in ts[1:]:
        m, _ = slice_min(float(t))
        if m <= 0.0:
            hi = float(t)
            break
        lo = float(t)
    if hi is None:
        return BlowupReport(False, None, None, "grid+descent", None,
                            f"no zero for t in (0, {t_max}]")
    witness = None
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        m, pt = slice_min(mid)
        if m <= 0.0:
            hi, witness = mid, pt
        else:
            lo = mid
    t_grid = hi
    if witness is None:
        _, witness = slice_min(hi)
    method = "grid+descent"
    spread = None

    if q.deg_t() == 1:
        enum = _enumerate_affine(q, t_max)
        if enum is not None:
            t_enum, w_enum = enum
            spread = abs(t_enum - t_grid)
            if t_enum <= t_grid + refine_tol:
                t_grid, witness = t_enum, w_enum
            method = "grid+descent+enumeration"
    return BlowupReport(True, t_grid, witness, method, spread, "")


def _enumerate_affine(q: MPoly, t_max: float):
    """For q = a(x,y) t + b(x,y): minimize t(x,y) = -b/a over the stationary
    points of the gradient system, solved by resultant elimination."""
    a = q.diff_t()
    b = q.subs_t(0)
    if a.deg_t() > 0:
        return None
    # stationary points of -b/a: a*b_x - b*a_x = 0, a*b_y - b*a_y = 0
    g1 = _to_xy(a * _dx(b) - b * _dx(a))
    g2 = _to_xy(a * _dy(b) - b * _dy(a))
    best = None
    for x0, y0 in _real_common_roots(g1, g2):
        av = npp.polyval2d(x0, y0, _to_xy(a))
        if abs(av) < 1e-12:
            continue
        t0 = -npp.polyval2d(x0, y0, _to_xy(b)) / av
        if t0 > 1e-12 and t0 <= t_max and (best is None or t0 < best[0]):
            best = (float(t0), (float(x0), float(y0)))
    return best


def _dx(p: MPoly) -> MPoly:
    return p.diff_z() + p.diff_zbar()


def _dy(p: MPoly) -> MPoly:
    return (p.diff_z() - p.diff_zbar()) * GR_I


def _to_xy(p: MPoly) -> np.ndarray:
    """Real coefficient matrix C with p(x,y) = sum C[i,j] x^i y^j."""
    if p.is_zero():
        return np.zeros((1, 1))
    dz, dzb = p.deg_z(), p.deg_zbar()
    d = dz + dzb
    C = np.zeros((d + 1, d + 1))
    for (i, j, k), c in p.complex_terms():
        if k > 0:
            raise ValueError("spatial polynomial expected")
        # (x+iy)^i (x-iy)^j expanded by binomials
        zi = np.zeros((i + 1, i + 1), dtype=complex)
        for m in range(i + 1):
            zi[i - m, m] = math.comb(i, m) * (1j) ** m
        zj = np.zeros((j + 1, j + 1), dtype=complex)
        for m in range(j + 1):
            zj[j - m, m] = math.comb(j, m) * (-1j) ** m
        prod = np.zeros((i + j + 1, i + j + 1), dtype=complex)
        for (mi, ni), cv in np.ndenumerate(zi):
            if cv == 0:
                continue
            prod[mi:mi + j + 1, ni:ni + j + 1] += cv * zj
        C[: i + j + 1, : i + j + 1] += (c * prod[: i + j + 1, : i + j + 1]).real
    return C


def _y_poly(C, x):
    """Coefficients of y -> p(x, y), highest degree last."""
    ny = C.shape[1]
    return [sum(C[i, j] * x ** i for i in range(C.shape[0])) for j in range(ny)]


def _xy_degrees(C):
    nz = np.argwhere(np.abs(C) > 0)
    if len(nz) == 0:
        return None
    return int(nz[:, 0].max()), int(nz[:, 1].max())


def _real_common_roots(C1, C2, span: float = 10.0):
    """Real solutions of the pair of bivariate polynomials via the y-resultant,
    computed by evaluation at sample x values and interpolation.  The x
    variable is scaled to [-1, 1] so the Chebyshev-node fit stays conditioned.
    """
    d1 = _xy_degrees(C1)
    d2 = _xy_degrees(C2)
    if d1 is None or d2 is None:
        return []
    deg_bound = d1[0] * d2[1] + d2[0] * d1[1]
    if deg_bound == 0:
        return []
    n_samp = deg_bound + 1
    ss = np.cos(np.pi * (np.arange(n_samp) + 0.5) / n_samp)
    dets = []
    for s in ss:
        p1 = _trim(_y_poly(C1, s * span))
        p2 = _trim(_y_poly(C2, s * span))
        dets.append(_sylvester_det(p1, p2))
    dets = np.asarray(dets)
    dscale = np.abs(dets).max()
    if dscale == 0:
        return []
    coef = npp.polyfit(ss, dets / dscale, deg_bound)
    scale = np.abs(coef).max()
    coef = np.trim_zeros(np.where(np.abs(coef) > 1e-10 * scale, coef, 0.0), "b")
    if len(coef) <= 1:
        return []
    roots = npp.polyroots(coef)
    out = []
    for r in roots:
        if abs(r.imag) > 1e-6:
            continue
        x0 = float(r.real) * span
        p1 = _trim(_y_poly(C1, x0))
        if len(p1) <= 1:
            continue
        for yr in npp.polyroots(p1):
            if abs(yr.imag) > 1e-6:
                continue
            y0 = float(yr.real)
            if abs(npp.polyval2d(x0, y0, C2)) < 1e-4 * (1.0 + np.abs(C2).max()):
                out.append(_polish_root(C1, C2, x0, y0))
    return out


def _polish_root(C1, C2, x0, y0):
    """Newton's method on the system C1(x, y) = C2(x, y) = 0 from (x0, y0),
    kept while each step lowers the residual."""
    jac = [[npp.polyder(C, axis=a) for a in (0, 1)] for C in (C1, C2)]
    x, y = float(x0), float(y0)
    res = (npp.polyval2d(x, y, C1), npp.polyval2d(x, y, C2))
    for _ in range(DESCENT_MAXITER):
        (a, b), (c, d) = [[npp.polyval2d(x, y, D) for D in row] for row in jac]
        det = a * d - b * c
        if det == 0.0:
            break
        dx = (b * res[1] - d * res[0]) / det
        dy = (c * res[0] - a * res[1]) / det
        new = (npp.polyval2d(x + dx, y + dy, C1), npp.polyval2d(x + dx, y + dy, C2))
        if not abs(new[0]) + abs(new[1]) < abs(res[0]) + abs(res[1]):
            break
        x, y, res = x + dx, y + dy, new
    return float(x), float(y)


def _trim(coeffs, tol=1e-12):
    c = list(coeffs)
    scale = max((abs(v) for v in c), default=0.0)
    while c and abs(c[-1]) <= tol * max(scale, 1.0):
        c.pop()
    return c


def _sylvester_det(p, q):
    n, m = len(p) - 1, len(q) - 1
    if n < 0 or m < 0:
        return 0.0
    if n == 0:
        return p[0] ** m if m >= 0 else 1.0
    if m == 0:
        return q[0] ** n
    S = np.zeros((n + m, n + m))
    for r in range(m):
        S[r, r:r + n + 1] = p[::-1]
    for r in range(n):
        S[m + r, r:r + m + 1] = q[::-1]
    return float(np.linalg.det(S))


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


def mu2_integrability(sol: NVSolution, fw: FaddeevWave, t_samples, r_outer: float = 40.0,
                      t_star: float = None) -> Mu2Report:
    """Zero-energy eigenfunction check and square-integrability evidence for
    the lam^{-2} kernel fraction."""
    mus = kernel_mu(fw)
    if 2 not in mus:
        raise ValueError("wave has no lam^{-2} slot")
    mu2 = mus[2]
    n2 = mu2.num
    hr = _eigen_check(n2 + n2.conj_swap(), sol.u)
    hi = _eigen_check((n2 - n2.conj_swap()) * GR_I, sol.u)
    decay = n2.total_degree_space() - mu2.base.total_degree_space()
    report = Mu2Report(hr, hi, decay)

    for t0 in t_samples:
        if t_star is not None and t0 >= t_star:
            raise ValueError("t samples must precede the blow-up time")
        norms = []
        for r in (r_outer / 2.0, r_outer):
            norms.append(_disc_l2(mu2, float(t0), r, t_star))
        report.entries.append(Mu2Entry(float(t0), norms[0], norms[1],
                                       norms[1] - norms[0]))
    return report


def _eigen_check(num: MPoly, u: RationalFn) -> bool:
    """(d dbar + U) (num/wt) = 0 exactly, with U = 2 d dbar log wt over wt^2."""
    f = RationalFn(num, u.base, 1)
    return (f.diff_z().diff_zbar() + u * f).num.is_zero()


def _disc_l2(mu2: RationalFn, t0: float, r: float, t_star) -> float:
    """Integral of |mu2|^2 over |z| < r at time t0 (polar Riemann sum)."""
    wt = mu2.base
    nr, ntheta = 240, 96
    rs = np.linspace(r / nr, r, nr)
    thetas = np.linspace(0.0, 2 * np.pi, ntheta, endpoint=False)
    R, TH = np.meshgrid(rs, thetas)
    Z = R * np.exp(1j * TH)
    den = wt.eval(Z, t0)
    num = mu2.num.eval(Z, t0)
    dre = den.real
    singular = dre.min() <= 0.0 <= dre.max()
    idx = np.unravel_index(np.abs(dre).argmin(), dre.shape)
    if not singular:
        # a touching zero leaves the grid minimum tiny but one-signed; refine
        sign = 1.0 if dre[idx] > 0 else -1.0
        fun = _slice_objective(_local_coeffs(wt), t0, sign)
        r0 = minimize(fun, (Z[idx].real, Z[idx].imag))
        singular = r0.fun < 1e-6 * (1.0 + abs(wt.eval(0.0, t0)))
    if singular:
        where = Z[idx]
        if t_star is not None and t0 < t_star:
            raise SingularBeforeBlowup(
                f"denominator vanished near z={where}, t={t0} < t_star={t_star}")
        raise PoleError(f"denominator vanished near z={where}, t={t0}")
    vals = np.abs(num / den ** mu2.k) ** 2 * R
    dr = rs[1] - rs[0]
    dth = thetas[1] - thetas[0]
    return float(vals.sum() * dr * dth)
