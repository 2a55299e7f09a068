"""The Moutard transformation: harmonic seeds, the double-iteration potential,
kernel functions, and the transform of eigenfunctions (wave and polynomial paths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GR_I, GaussianRational, MPoly, RationalFn, horner, laplace_log
from .errors import (CompatibilityError, NotHarmonic, NotHolomorphic, ZeroPolynomial)
from .exppoly import (WaveFn, wave_antideriv_z, wave_diff_z, wave_diff_zbar)


@dataclass(frozen=True)
class SeedPair:
    """Two holomorphic polynomials and the real integration constant of the
    double-iteration formula."""

    p1: MPoly
    p2: MPoly
    c: GaussianRational

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not p.is_holomorphic():
                raise NotHolomorphic(f"{name} depends on zb")
        if not self.c.is_real():
            raise ValueError("integration constant must be real")


@dataclass
class MoutardFrame:
    """All pieces of one double Moutard iteration."""

    omega1: MPoly
    omega2: MPoly
    w: MPoly
    u: RationalFn
    theta1: RationalFn
    theta2: RationalFn
    phi1: RationalFn
    phi2: RationalFn
    seed: SeedPair = None


def harmonic_from_holomorphic(p: MPoly) -> MPoly:
    """omega = p + conj(p): real-valued and harmonic."""
    if not p.is_holomorphic():
        raise NotHolomorphic("seed polynomial depends on zb")
    return p + p.conj_swap()


def w_bracket(p1: MPoly, p2: MPoly) -> MPoly:
    """(p1*conj(p2) - p2*conj(p1)) + F - conj(F) with F the z-antiderivative of
    p1'p2 - p1 p2' (the dzb-integrand is minus the conjugate of the
    dz-integrand, which is what makes i times the bracket real-valued)."""
    f = (p1.diff_z() * p2 - p1 * p2.diff_z()).antideriv_z()
    return (p1 * p2.conj_swap() - p2 * p1.conj_swap()) + f - f.conj_swap()


def double_w(seed: SeedPair) -> MPoly:
    """Argument of the logarithm in the double-iteration potential formula:
    W = i*w_bracket(p1, p2) + c."""
    if seed.p1.deg_t() > 0 or seed.p2.deg_t() > 0:
        raise NotHolomorphic("static double_w expects t-free seeds; use nv.extended_w")
    return w_bracket(seed.p1, seed.p2) * GR_I + MPoly.const(seed.c)


def potential(w: MPoly) -> RationalFn:
    """u = -2 * Laplacian(log W)."""
    return laplace_log(w) * -2


def kernel_functions(omega1: MPoly, omega2: MPoly, w: MPoly):
    """theta1 = W/omega1, theta2 = -W/omega2 and their reciprocals phi_j."""
    if omega1.is_zero() or omega2.is_zero() or w.is_zero():
        raise ZeroPolynomial("kernel_functions needs nonzero omega1, omega2, W")
    theta1 = RationalFn(w, omega1)
    theta2 = RationalFn(-w, omega2)
    phi1 = RationalFn(omega1, w)
    phi2 = RationalFn(-omega2, w)
    return theta1, theta2, phi1, phi2


def build_frame(seed: SeedPair) -> MoutardFrame:
    omega1 = harmonic_from_holomorphic(seed.p1.subs_t(0) if seed.p1.deg_t() > 0 else seed.p1)
    omega2 = harmonic_from_holomorphic(seed.p2.subs_t(0) if seed.p2.deg_t() > 0 else seed.p2)
    w = double_w(seed)
    u = potential(w)
    theta1, theta2, phi1, phi2 = kernel_functions(omega1, omega2, w)
    return MoutardFrame(omega1, omega2, w, u, theta1, theta2, phi1, phi2, seed)


def _is_free_wave(phi: WaveFn) -> bool:
    return set(phi.coeffs) == {0} and phi.coeffs[0] == MPoly.const(1)


def moutard_transform_wave(omega: MPoly, phi) -> "WaveFn | RationalFn":
    """Transform of an eigenfunction by omega via the first-order system.

    In complex form: d(omega*theta)/dz = i(phi*omega_z - omega*phi_z) and
    d(omega*theta)/dzb = i(omega*phi_zb - phi*omega_zb).  Waves are handled in
    the exponential class (where the antiderivative is unique, so all
    integration constants vanish and the transform decays by construction);
    polynomial eigenfunctions take the plain-polynomial path.
    """
    if isinstance(phi, MPoly):
        return _transform_poly(omega, phi)
    if not isinstance(phi, WaveFn):
        raise TypeError("phi must be a WaveFn or an MPoly")
    if phi.den is not None:
        raise ValueError("transform expects polynomial-coefficient waves")
    if _is_free_wave(phi):
        lap = omega.diff_z().diff_zbar()
        if not lap.is_zero():
            raise NotHarmonic("first transform needs a harmonic omega")

    dphi_z = wave_diff_z(phi)
    dphi_zb = wave_diff_zbar(phi)
    rhs_z = (phi.scale(omega.diff_z()) - dphi_z.scale(omega)).scale(GR_I)
    rhs_zb = (dphi_zb.scale(omega) - phi.scale(omega.diff_zbar())).scale(GR_I)
    if wave_diff_zbar(rhs_z) != wave_diff_z(rhs_zb):
        raise CompatibilityError("transform legs disagree; phi is not an eigenfunction")
    prod = wave_antideriv_z(rhs_z)
    if wave_diff_zbar(prod) != rhs_zb:
        raise CompatibilityError("zb leg failed after integration")
    return WaveFn(prod.coeffs, phi.time_phase, den=omega)


def _transform_poly(omega: MPoly, phi: MPoly) -> RationalFn:
    rhs_z = (phi * omega.diff_z() - omega * phi.diff_z()) * GR_I
    rhs_zb = (omega * phi.diff_zbar() - phi * omega.diff_zbar()) * GR_I
    if rhs_z.diff_zbar() != rhs_zb.diff_z():
        raise CompatibilityError("transform legs disagree; phi is not an eigenfunction")
    g = rhs_z.antideriv_z()
    rest = rhs_zb - g.diff_zbar()
    if rest.deg_z() > 0:
        raise CompatibilityError("zb leg failed after integration")
    prod = g + rest.antideriv_zbar()
    return RationalFn(prod, omega)


@dataclass
class NonvanishingReport:
    """Grid/leading-form evidence that W has no real zero."""

    verdict: str                       # "certified-positive" | "zero-found" | "inconclusive"
    grid_min_abs: float
    sign: int                          # sign of W on the grid when constant, else 0
    leading_form_definite: bool
    witness: tuple = None              # (x, y) where W ~ 0, for zero-found
    detail: str = ""


def nonvanishing_certificate(w: MPoly, box=(-10.0, 10.0, -10.0, 10.0),
                             grid_n: int = 201) -> NonvanishingReport:
    """Check sign-definiteness of a real-valued W on a box plus its leading form.

    certified-positive means sign-definite: no sign change on the grid, |W|
    above its rounding scale sum |c_ij||z|^(i+j) at every grid point, and the
    leading homogeneous form has the same strict sign on a dense angular grid
    (so no zero can hide outside the box).
    """
    if w.is_constant():
        c = w.constant_term()
        if c.is_zero() or not c.is_real():
            return NonvanishingReport("zero-found", 0.0, 0, False, (0.0, 0.0), "zero constant")
        return NonvanishingReport("certified-positive", abs(float(c.re)), 1 if c.re > 0 else -1,
                                  True, None, "nonzero constant")
    xmin, xmax, ymin, ymax = box
    xs = np.linspace(xmin, xmax, grid_n)
    ys = np.linspace(ymin, ymax, grid_n)
    Z = xs[None, :] + 1j * ys[:, None]
    re = w.eval(Z).real                 # the certificate is for static W: t = 0
    # the rounding scale of W(z), sum |c_ij| |z|^(i+j): one real Horner in |z|
    by_degree = {0: 0.0}
    for (i, j, k), coeff in w.complex_terms():
        if k == 0:
            by_degree[i + j] = by_degree.get(i + j, 0.0) + abs(coeff)
    scale = horner(sorted(by_degree.items(), reverse=True), np.abs(Z))
    near_zero = np.abs(re) <= 64 * np.finfo(float).eps * scale
    if re.min() <= 0.0 <= re.max() or near_zero.any():
        idx = np.unravel_index(np.abs(re).argmin(), re.shape)
        return NonvanishingReport("zero-found", float(np.abs(re).min()), 0, False,
                                  (float(xs[idx[1]]), float(ys[idx[0]])),
                                  "sign change or zero on grid")
    sign = 1 if re.min() > 0 else -1
    grid_min_abs = float(np.abs(re).min())

    d = w.total_degree_space()
    lead = MPoly.from_numerators({e: c for e, c in w.numerators.items()
                                  if e[0] + e[1] == d and e[2] == 0}, w.denominator)
    angles = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    lre = lead.eval(np.exp(1j * angles)).real
    definite = bool((sign * lre > 1e-12).all())
    verdict = "certified-positive" if definite else "inconclusive"
    detail = ("grid sign-definite; leading form strictly "
              + ("definite" if definite else "indefinite or degenerate"))
    return NonvanishingReport(verdict, grid_min_abs, sign, definite, None, detail)
