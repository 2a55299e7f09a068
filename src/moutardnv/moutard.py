"""The Moutard transformation: harmonic seeds, the double-iteration potential,
kernel functions, and the transform of wave eigenfunctions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GR_I, GaussianRational, MPoly, RationalFn, grid_extremes
from .errors import NotHolomorphic, ZeroPolynomial
from .exppoly import D_ZZBAR, WaveFn, hirota, wave_antideriv_z


@dataclass(frozen=True)
class SeedPair:
    """Two polynomials in z alone and the real integration constant of the
    double-iteration formula, checked here once: no layer below re-checks a
    seed."""

    p1: MPoly
    p2: MPoly
    c: GaussianRational

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not p.is_holomorphic() or p.deg_t() > 0:
                raise NotHolomorphic(f"{name} depends on zb or t")
        if not self.c.is_real():
            raise ValueError("integration constant must be real")


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


def w_bracket(p1: MPoly, p2: MPoly) -> MPoly:
    """(p1*conj(p2) - p2*conj(p1)) + F - conj(F) with F the z-antiderivative of
    p1'p2 - p1 p2' (the dzb-integrand is minus the conjugate of the
    dz-integrand, which is what makes i times the bracket real-valued).  As
    p2*conj(p1) is the conjugate of p1*conj(p2), the bracket is G - conj(G)
    for G = p1*conj(p2) + F."""
    f = (p1.diff_z() * p2 - p1 * p2.diff_z()).antideriv_z()
    g = p1 * p2.conj_swap() + f
    return g - g.conj_swap()


def double_w(seed: SeedPair) -> MPoly:
    """Argument of the logarithm in the double-iteration potential formula:
    W = i*w_bracket(p1, p2) + c, at fixed t for a time-dependent seed.  W is
    zero only when c = 0 and p1, p2 are real multiples of one polynomial, and
    then so is the time term of `nv.extended_w`: this is the one place that
    rejects it."""
    w = w_bracket(seed.p1, seed.p2) * GR_I + MPoly.const(seed.c)
    if w.is_zero():
        raise ZeroPolynomial("W is identically zero")
    return w


def potential(w: MPoly) -> RationalFn:
    """u = -2 * Laplacian(log W) = -4 D_z D_zb (W . W) / W^2, as the Laplacian
    of log W is 4 d dbar log W = 2 D_z D_zb (W . W) / W^2."""
    return RationalFn(hirota(w, w, D_ZZBAR) * -4, w, 2)


def kernel_functions(omega1: MPoly, omega2: MPoly, w: MPoly):
    """theta1 = W/omega1, theta2 = -W/omega2 and their reciprocals phi_j."""
    theta1 = RationalFn(w, omega1)
    theta2 = RationalFn(-w, omega2)
    phi1 = RationalFn(omega1, w)
    phi2 = RationalFn(-omega2, w)
    return theta1, theta2, phi1, phi2


def build_frame(seed: SeedPair, w: MPoly = None) -> MoutardFrame:
    """The frame of the seed around w, by default double_w(seed); the time
    layer passes the extended W of an evolved seed.  Every frame's omegas
    and W are nonzero, the denominators of `kernel_functions` and of the
    waves."""
    omega1 = harmonic_from_holomorphic(seed.p1)
    omega2 = harmonic_from_holomorphic(seed.p2)
    if w is None:
        w = double_w(seed)
    if omega1.is_zero() or omega2.is_zero() or w.is_zero():
        raise ZeroPolynomial("kernel_functions needs nonzero omega1, omega2, W")
    return MoutardFrame(omega1, omega2, w)


def moutard_transform_wave(omega: MPoly, time_phase: bool = False) -> WaveFn:
    """Transform of the free wave phi = e^{lam z} (e^{lam z + lam^3 t} with
    the time phase) by a harmonic omega, as omega*theta over the denominator
    omega.

    The first-order system d(omega*theta)/dz = i(phi*omega_z - omega*phi_z),
    d(omega*theta)/dzb = i(omega*phi_zb - phi*omega_zb) has the closed solution
    omega*theta = i(2 int e^{lam z} omega_z dz - e^{lam z} omega), since omega_z
    is holomorphic.  The antiderivative is taken in the exponential class,
    where it is unique, so no integration constant appears and the transform
    decays by construction.  omega is `harmonic_from_holomorphic` of a seed
    polynomial, so harmonic: an identity of the construction, left to the
    tests.
    """
    free = WaveFn.free(time_phase)
    prod = (wave_antideriv_z(free.scale(omega.diff_z())).scale(2) - free.scale(omega)).scale(GR_I)
    return WaveFn(prod.coeffs, time_phase, den=omega)


@dataclass
class NonvanishingReport:
    """Grid/leading-form evidence that W has no real zero."""

    verdict: str                       # "certified-positive" | "zero-found" | "inconclusive"
    witness: tuple = None              # (x, y) where W ~ 0, for zero-found


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
    zero-found names the grid node of least |W|, the first in [y, x] order.
    W is read by `algebra.grid_extremes` in [y, x] order, which raises
    CoefficientOverflow where a value leaves float range.  The rounding
    scale is read only when the least |W| is within 64 eps of the scale at
    the box corner, which bounds every node's: then |W| less 64 eps times
    the scale is read as one more grid, in the same strips.
    """
    if w.is_constant():
        c = w.constant_term()
        if c.is_zero() or not c.is_real():
            return NonvanishingReport("zero-found", (0.0, 0.0))
        return NonvanishingReport("certified-positive")
    import numpy as np
    xmin, xmax, ymin, ymax = CERTIFICATE_BOX
    xs = np.linspace(xmin, xmax, CERTIFICATE_GRID_N)
    ys = np.linspace(ymin, ymax, CERTIFICATE_GRID_N)
    a = w.xy_coefficients()[0].real     # static W (t = 0), real-valued: Im a = 0
    vx = np.vander(xs, a.shape[0], increasing=True)
    vy = np.vander(ys, a.shape[1], increasing=True)
    lo, hi, _, _, (iy, ix) = grid_extremes(a.T, vy, vx)    # indexed [y, x]
    sign = 1 if lo > 0 else -1
    near = lo <= 0.0 <= hi
    if not near:
        tol = np.abs(a) * (64 * np.finfo(float).eps)       # exact: a power of 2
        abs_vx, abs_vy = np.abs(vx), np.abs(vy)
        # no node's scale exceeds the one formed from each axis's largest
        # powers, those of the box corner; the margin covers the rounding of
        # the two sums, and an inf bound only sends W to the guarded grid
        with np.errstate(over="ignore"):
            bound = abs_vx.max(axis=0) @ tol @ abs_vy.max(axis=0) * (1 + 1e-9)
        if (lo if sign > 0 else -hi) <= bound:
            # sign W - 64 eps scale, W's power tables next to their absolute
            # values and the two coefficient arrays on the diagonal
            zero = np.zeros_like(tol.T)
            gap, *_ = grid_extremes(np.block([[sign * a.T, zero], [zero, -tol.T]]),
                                    np.hstack((vy, abs_vy)), np.hstack((vx, abs_vx)))
            near = gap <= 0.0
    if near:
        return NonvanishingReport("zero-found", (float(xs[ix]), float(ys[iy])))
    ((i, j), c), *rest = w.spatial_leading_terms().items()
    definite = not rest and i == j and c.is_constant() and sign * c.constant_term().re > 0
    return NonvanishingReport("certified-positive" if definite else "inconclusive")
