"""Zero-energy eigenfunctions with exponential asymptotics: the cubic
superposition, exact residuals, and scattering-data extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import MPoly, RationalFn
from .errors import AsymptoticMismatch, ResidualNonzero
from .exppoly import (WaveFn, exp_phase, wave_diff_z, wave_diff_zbar, wave_eval,
                      wave_multiplier)
from .moutard import MoutardFrame, SeedPair, build_frame, moutard_transform_wave, potential


@dataclass
class FaddeevWave:
    """A wave solving (-4 d dbar + u) psi = 0 exactly.

    psi holds the multiplier slots over the shared denominator w; u is always
    -2*Laplacian(log w).  conjugate marks the e^{lam zb} branch obtained by the
    global swap symmetry.
    """

    psi: WaveFn
    u: RationalFn
    w: MPoly
    conjugate: bool = False


@dataclass
class ScatteringData:
    """Leading asymptotic coefficients: A as an exact Laurent sum in lam, B = 0
    structurally for every wave in the constructed class."""

    a_coeffs: dict = field(default_factory=dict)     # k >= 1 -> GaussianRational (lam^-k)

    @property
    def b_is_zero(self) -> bool:
        return True

    def a_at(self, lam0: complex) -> complex:
        return sum(complex(c) * complex(lam0) ** (-k) for k, c in self.a_coeffs.items())

    def format_a(self) -> str:
        if not self.a_coeffs:
            return "0"
        parts = []
        for k in sorted(self.a_coeffs):
            c = self.a_coeffs[k]
            lam = "λ" if k == 1 else f"λ^{k}"
            parts.append(f"{c}/{lam}")
        return " + ".join(parts)

    def __str__(self):
        return f"A={self.format_a()} B=0"


def faddeev_superpose(frame: MoutardFrame, psi1: WaveFn, psi2: WaveFn) -> FaddeevWave:
    """psi = e^{lam z} + (omega2/theta1)(psi2 - psi1), assembled over W.

    psi_j must be the transforms of the free wave by omega_j (slots over the
    denominator omega_j); the omega_j denominators cancel exactly in the
    combination, which is asserted.
    """
    w = frame.w
    if psi1.den != frame.omega1 or psi2.den != frame.omega2:
        raise ValueError("psi_j must come from the omega_j transforms")
    if psi1.time_phase != psi2.time_phase:
        raise ValueError("mixed phases")
    r1 = WaveFn(psi1.coeffs, psi1.time_phase)      # omega1 * psi1, polynomial slots
    r2 = WaveFn(psi2.coeffs, psi2.time_phase)
    combo = r2.scale(frame.omega1) - r1.scale(frame.omega2)
    if not combo.slot(0).is_zero():
        raise ResidualNonzero("omega denominators failed to cancel in the superposition")
    coeffs = dict(combo.coeffs)
    coeffs[0] = w                                  # the leading 1, over the common denominator
    psi = WaveFn(coeffs, psi1.time_phase, den=w)
    fw = FaddeevWave(psi, frame.u, w)
    res = residual(fw)
    if not res.is_zero():
        raise ResidualNonzero(
            f"superposed wave is not an exact eigenfunction: residual {res.summary()}")
    return fw


def residual(fw: FaddeevWave) -> MPoly:
    """Cleared numerator of (-4 d dbar + u) psi.

    Every lam-slot must clear; returns the zero polynomial exactly when psi is
    an eigenfunction, else the first nonzero slot's numerator.
    """
    if fw.psi.den is not None and fw.psi.den != fw.w:
        raise ValueError("wave denominator must match the stored w")
    base = fw.w
    k0 = 1 if fw.psi.den is not None else 0
    mult = WaveFn({k: RationalFn(f, base, k0) for k, f in fw.psi.coeffs.items()},
                  fw.psi.time_phase)
    lap = wave_diff_z(wave_diff_zbar(mult))
    res_wave = lap.scale(-4) + mult.scale(potential(base))
    for k in sorted(res_wave.coeffs):
        num = res_wave.coeffs[k].num
        if not num.is_zero():
            return num
    return MPoly.zero()


def build_faddeev(seed: SeedPair, conjugate: bool = False) -> FaddeevWave:
    """Run the whole static pipeline: frame, two wave transforms, superposition."""
    if conjugate:
        cseed = SeedPair(seed.p1.conj_coeffs(), seed.p2.conj_coeffs(), seed.c)
        fw = build_faddeev(cseed, conjugate=False)
        psi = WaveFn({k: f.conj_swap() for k, f in fw.psi.coeffs.items()},
                     fw.psi.time_phase, den=fw.w.conj_swap())
        return FaddeevWave(psi, fw.u.conj_swap(), fw.w.conj_swap(), conjugate=True)
    frame = build_frame(seed)
    free = WaveFn.free()
    psi1 = moutard_transform_wave(frame.omega1, free)
    psi2 = moutard_transform_wave(frame.omega2, free)
    return faddeev_superpose(frame, psi1, psi2)


def scattering_data(fw: FaddeevWave, validate: bool = True,
                    ray_radius: float = 1e3, ray_tol: float = 0.05) -> ScatteringData:
    """Exact extraction of A(lam) from degree-leading coefficients, with an
    independent numeric ray-fit validation.  B = 0 structurally: no conjugate
    exponential can arise from rational multipliers."""
    w = fw.w
    if w.is_constant():
        for k in fw.psi.coeffs:
            if k != 0:
                raise AsymptoticMismatch("nontrivial slots over a constant denominator")
        return ScatteringData({})
    d = w.total_degree_space()
    lead = w.spatial_leading_terms()
    if len(lead) != 1:
        raise AsymptoticMismatch("denominator leading form is not a single monomial")
    (a, b), lead_poly = next(iter(lead.items()))
    if lead_poly.deg_t() > 0:
        raise AsymptoticMismatch("denominator leading coefficient depends on t")
    lead_c = lead_poly.constant_term()

    a_coeffs = {}
    for k, num in sorted(fw.psi.coeffs.items()):
        if k == 0:
            if num != w:
                raise AsymptoticMismatch("slot 0 is not normalized to 1")
            continue
        deg = num.total_degree_space()
        if deg > d - 1:
            raise AsymptoticMismatch(f"slot {k} numerator does not decay")
        if deg < d - 1:
            continue
        for (i, j), cpoly in num.spatial_leading_terms().items():
            if (i, j) != (a - 1, b) or cpoly.deg_t() > 0:
                raise AsymptoticMismatch(
                    f"slot {k} has a non-radial leading term z^{i} zb^{j} t^{cpoly.deg_t()}")
            a_coeffs[k] = cpoly.constant_term() / lead_c
    sd = ScatteringData(a_coeffs)
    if validate:
        _validate_rays(fw, sd, ray_radius, ray_tol)
    return sd


def _validate_rays(fw: FaddeevWave, sd: ScatteringData, radius: float, tol: float):
    """On six rays, g(r) = z (m - 1) = A + c/r + O(r^-2) for the multiplier m,
    so the Richardson estimate 2 g(2r) - g(r) meets the exact A to O(r^-2).
    Rays through a pole at either radius are skipped."""
    ray = radius * np.exp(1j * (np.arange(6) * (np.pi / 3) + 0.1))
    z = np.stack([ray, 2.0 * ray])
    for lam0 in (1.0, 0.7 + 0.4j):
        expected = sd.a_at(lam0)
        g = z * (wave_multiplier(fw.psi, z, 0.0, lam0) - 1.0)
        got = 2.0 * g[1] - g[0]
        bad = np.flatnonzero(np.abs(got - expected) > tol)
        if bad.size:
            m = bad[0]
            raise AsymptoticMismatch(
                f"ray fit at z={ray[m]}, lam={lam0}: {got[m]} vs exact {expected}")


def faddeev_eval(fw: FaddeevWave, z0, t0: float = 0.0, lam0: complex = 1.0):
    """Numeric value of the wave at a point or an array of points (NaN at a
    pole), honoring the conjugate-branch flag."""
    if not fw.conjugate:
        return wave_eval(fw.psi, z0, t0, lam0)
    return (exp_phase(complex(lam0), z0.conjugate(), t0 if fw.psi.time_phase else None)
            * wave_multiplier(fw.psi, z0, t0, lam0))


def assert_decay_bookkeeping(fw: FaddeevWave) -> None:
    """deg(numerator_k) <= deg(w) - 1 for all k >= 1: the exact decay statement."""
    d = fw.w.total_degree_space()
    for k, num in fw.psi.coeffs.items():
        if k == 0:
            continue
        if num.total_degree_space() > d - 1:
            raise AsymptoticMismatch(f"slot {k} violates degree bookkeeping")
