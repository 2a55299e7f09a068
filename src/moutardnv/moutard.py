"""The Moutard transformation: harmonic seeds, the double-iteration potential,
kernel functions, and the transform of wave eigenfunctions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .algebra import (GaussianRational, MPoly, RationalFn, _gauss, gauss_sum,
                      grid_axis, grid_extremes, pair_degrees)
from .errors import AlgebraError, ResidualNonzero, ZeroPolynomial
from .exppoly import D_ZZBAR, WaveFn, hirota, wave_antideriv_z


@dataclass(frozen=True)
class SeedPair:
    """Two polynomials in z alone and the real integration constant of the
    double-iteration formula: `harness.seed_from_json` checks a seed file's
    constant, and its polynomials can hold no other variable than z."""

    p1: MPoly
    p2: MPoly
    c: GaussianRational


@dataclass
class MoutardFrame:
    """The polynomials of one double Moutard iteration: the harmonic omegas
    and W, from which `kernel_functions` forms its fractions."""

    omega1: MPoly
    omega2: MPoly
    w: MPoly


def harmonic_from_holomorphic(p: MPoly) -> MPoly:
    """omega = p + conj(p) for a holomorphic p: real-valued and harmonic."""
    return p + p.conj_swap()


def double_w(seed: SeedPair, time_term: tuple = ((), 1)) -> MPoly:
    """Argument of the logarithm in the double-iteration potential formula,
    W = i(p1 conj(p2) - p2 conj(p1) + F - conj(F)) + c with F the
    z-antiderivative of p1'p2 - p1 p2', at fixed t for a time-dependent
    seed, read in one pass over the term pairs of p1 and p2 (README, "W in
    one pass") and rejected when zero: p2 = mu p1 + i nu for real mu, nu
    makes W the constant c + 2 nu Re p1(0) (README, "A constant W").
    `nv.extended_w` passes its time term as time_term = (terms, tspan),
    `gauss_sum` items over p1.denominator * p2.denominator * tspan, which
    are added in the same sum."""
    p1, p2 = seed.p1, seed.p2
    drift, tspan = time_term
    (m1, _, _), (n1, _, _) = pair_degrees((p1,), (p2,))
    span = lcm(tspan, *range(1, m1 + n1 + 1))  # a multiple of tspan and of every m + n
    cr, ci, cd = _gauss(seed.c)
    d12 = p1.denominator * p2.denominator
    bs = [(n, k2, r * cd, s * cd) for (n, _, k2), (r, s) in p2.numerators.items()]
    terms = [((0, 0, 0), cr * span * d12, ci * span * d12)]
    for (m, _, k1), (p, q) in p1.numerators.items():
        for n, k2, r, s in bs:
            k = k1 + k2
            re, im = (p * s - q * r) * span, (p * r + q * s) * span      # i a conj(b)
            terms += ((m, n, k), re, im), ((n, m, k), re, -im)
            if m != n:
                f = (m - n) * (span // (m + n))
                re, im = -(p * s + q * r) * f, (p * r - q * s) * f     # i a b (m - n)/(m + n)
                terms += ((m + n, 0, k), re, im), ((0, m + n, k), re, -im)
    scale = span // tspan * cd
    terms += ((e, re * scale, im * scale) for e, re, im in drift)
    w = gauss_sum(terms, d12 * span * cd)
    if w.is_zero():
        raise ZeroPolynomial("W is identically zero")
    return w


def potential(w: MPoly) -> RationalFn:
    """u = -2 * Laplacian(log W) = -4 D_z D_zb (W . W) / W^2, as the Laplacian
    of log W is 4 d dbar log W = 2 D_z D_zb (W . W) / W^2: the form
    -4 D_z D_zb, so its numerator is brought to lowest terms once."""
    return RationalFn(hirota(w, w, {(1, 1, 0): -4}), w, 2)


def kernel_functions(omega1: MPoly, omega2: MPoly, w: MPoly):
    """theta1 = W/omega1, theta2 = -W/omega2 and their reciprocals phi_j =
    +-omega_j/W, each in the kernel exactly when D_z D_zb (omega_j . W) is
    zero (README, design notes, "Residuals"): ResidualNonzero otherwise.
    A constant W is rejected first: it comes exactly from omega2 = mu omega1
    (README, "A constant W"), so phi2 = -mu phi1 and neither decays."""
    if w.is_constant():
        raise AlgebraError("W is constant, so omega2 is a real multiple of omega1: "
                           "the kernel functions are dependent and do not decay")
    for omega in (omega1, omega2):
        res = hirota(omega, w, D_ZZBAR)
        if not res.is_zero():
            raise ResidualNonzero(f"a kernel function is not in the kernel: "
                                  f"residual {res.summary()}")
    theta1 = RationalFn(w, omega1)
    theta2 = RationalFn(-w, omega2)
    phi1 = RationalFn(omega1, w)
    phi2 = RationalFn(-omega2, w)
    return theta1, theta2, phi1, phi2


def build_frame(seed: SeedPair, w: MPoly = None) -> MoutardFrame:
    """The frame of the seed around w, by default double_w(seed); the time
    layer passes the extended W of an evolved seed.  Every frame's omegas
    and W are nonzero, the denominators of `kernel_functions` and of the
    waves: a seed polynomial p = i gives omega = 0, and double_w and
    `nv.extended_w` reject a zero W."""
    omega1 = harmonic_from_holomorphic(seed.p1)
    omega2 = harmonic_from_holomorphic(seed.p2)
    if w is None:
        w = double_w(seed)
    if omega1.is_zero() or omega2.is_zero():
        raise ZeroPolynomial("kernel_functions needs nonzero omega1, omega2, W")
    return MoutardFrame(omega1, omega2, w)


def moutard_transform_wave(omega: MPoly) -> WaveFn:
    """Transform theta of the free wave phi = e^{lam z} by a harmonic omega,
    returned as the numerator omega*theta: theta is it over omega.  The
    time phase e^{lam^3 t} is constant in z and zb, so the slots are those
    of e^{lam z + lam^3 t} too; the superposed wave carries the phase.

    The first-order system d(omega*theta)/dz = i(phi*omega_z - omega*phi_z),
    d(omega*theta)/dzb = i(omega*phi_zb - phi*omega_zb) has the closed solution
    omega*theta = i(2 int e^{lam z} omega_z dz - e^{lam z} omega), since omega_z
    is holomorphic: slot 0 is -i omega, and the slots k >= 1 are the
    antiderivative of the one-slot wave 2i omega_z.  Both are formed on
    omega's Gaussian-integer numerators, over its denominator: -i(re + i im)
    is im - i re, and 2i m(re + i im) is -2m im + 2i m re for the term of
    z-degree m.  The antiderivative is
    taken in the exponential class (`wave_antideriv_z`), where it is unique,
    so no integration constant appears and the transform decays by
    construction.  omega is `harmonic_from_holomorphic` of a seed
    polynomial, so harmonic: an identity of the construction, left to the
    tests.
    """
    nums, d = omega.numerators, omega.denominator
    two_i_z = MPoly.from_numerators({(i - 1, j, k): (-2 * i * im, 2 * i * re)
                                     for (i, j, k), (re, im) in nums.items() if i}, d)
    rest = wave_antideriv_z(WaveFn({0: two_i_z}))
    return WaveFn({0: MPoly.from_numerators({e: (im, -re) for e, (re, im) in nums.items()}, d),
                   **rest.coeffs})


@dataclass
class NonvanishingReport:
    """Grid/leading-form evidence that W has no real zero."""

    verdict: str                       # "certified-positive" | "zero-found" | "inconclusive"
    witness: tuple = None              # (x, y) where W ~ 0, for a zero found on the grid
    form: MPoly = None                 # the leading form, for a zero it implies past the grid


CERTIFICATE_BOX = (-10.0, 10.0, -10.0, 10.0)    # xmin, xmax, ymin, ymax of the grid
CERTIFICATE_GRID_N = 201                        # points per axis of that grid


def nonvanishing_certificate(w: MPoly) -> NonvanishingReport:
    """Check sign-definiteness of a real-valued W on the CERTIFICATE_GRID_N^2
    grid of CERTIFICATE_BOX plus its leading form.

    certified-positive means sign-definite on the grid: no sign change, |W|
    above its rounding scale sum |a_mn||x|^m|y|^n (a from
    `MPoly.xy_coefficients`) at every grid point, and the leading homogeneous
    form is one t-free monomial c|z|^{2k}, read exactly, with c of the grid's
    sign.  Then W has that sign far enough out on every ray; how far is not
    bounded, so a zero between the box and that radius is not excluded.
    zero-found names the grid node of least |W|, the first in [y, x] order,
    or, where the grid has one sign and such a leading form the other, that
    form: W then changes sign on a ray, so it has a real zero.  Any other
    leading form is inconclusive.
    W is read by `algebra.grid_extremes` in [y, x] order, which raises
    CoefficientOverflow where a value leaves float range.  The rounding
    scale is read only when the least |W| is within 64 eps of the scale at
    the box corner, which bounds every node's: then |W| less 64 eps times
    the scale is read as one more grid, in the same strips.  A constant W,
    nonzero and real (`double_w`), is certified-positive.
    """
    if w.is_constant():
        return NonvanishingReport("certified-positive")
    import numpy as np
    xmin, xmax, ymin, ymax = CERTIFICATE_BOX
    a = w.xy_coefficients()[0].real     # static W (t = 0), real-valued: Im a = 0
    xs, vx = grid_axis(xmin, xmax, CERTIFICATE_GRID_N, a.shape[0])
    ys, vy = grid_axis(ymin, ymax, CERTIFICATE_GRID_N, a.shape[1])
    lo, hi, _, _, (iy, ix) = grid_extremes(a.T, vy, vx)    # indexed [y, x]
    sign = 1 if lo > 0 else -1
    near = lo <= 0.0 <= hi
    if not near:
        tol = np.abs(a) * (64 * np.finfo(float).eps)       # exact: a power of 2
        # no node's scale exceeds the one formed from each axis's largest
        # powers, those of the box corner; the margin covers the rounding of
        # the two sums, and an inf bound only sends W to the guarded grid
        with np.errstate(over="ignore"):
            bound = np.abs(vx).max(axis=0) @ tol @ np.abs(vy).max(axis=0) * (1 + 1e-9)
        if (lo if sign > 0 else -hi) <= bound:
            # sign W - 64 eps scale, W's power tables next to their absolute
            # values and the two coefficient arrays on the diagonal
            zero = np.zeros_like(tol.T)
            gap, *_ = grid_extremes(np.block([[sign * a.T, zero], [zero, -tol.T]]),
                                    np.hstack((vy, np.abs(vy))), np.hstack((vx, np.abs(vx))))
            near = gap <= 0.0
    if near:
        return NonvanishingReport("zero-found", (float(xs[ix]), float(ys[iy])))
    ((i, j), c), *rest = w.spatial_leading_terms().items()
    if rest or i != j or not c.is_constant():
        return NonvanishingReport("inconclusive")
    if sign * c.constant_term().re > 0:
        return NonvanishingReport("certified-positive")
    return NonvanishingReport("zero-found", form=MPoly.monomial(i, j, 0, c.constant_term()))
