"""Zero-energy eigenfunctions with exponential asymptotics: the cubic
superposition, exact residuals, and scattering-data extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import MPoly, RationalFn, divide_off_poles
from .errors import AsymptoticMismatch, CoefficientOverflow, ResidualNonzero
from .exppoly import D_ZZBAR, WaveFn, hirota, wave_multiplier
from .moutard import MoutardFrame, SeedPair, build_frame, moutard_transform_wave, potential


@dataclass
class FaddeevWave:
    """A wave psi = e^{lam z} chi / W (e^{lam z + lam^3 t} chi / W on the time
    phase) for (-4 d dbar + u) psi = 0.

    psi holds the multiplier slots chi over its denominator W, so W and the
    potential u = -2*Laplacian(log W) are read off psi: u is built on first
    read, once.
    """

    psi: WaveFn

    def __post_init__(self):
        if self.psi.den is None:
            raise ValueError("a Faddeev wave needs its denominator W")

    @property
    def w(self) -> MPoly:
        return self.psi.den

    @cached_property
    def u(self) -> RationalFn:
        return potential(self.w)


@dataclass
class ScatteringData:
    """Leading asymptotic coefficients: A as an exact Laurent sum in lam, B = 0
    structurally for every wave in the constructed class."""

    a_coeffs: dict = field(default_factory=dict)     # k >= 1 -> GaussianRational (lam^-k)

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


def faddeev_superpose(frame: MoutardFrame, time_phase: bool = False) -> FaddeevWave:
    """psi = e^{lam z} + (omega2/theta1)(psi2 - psi1) for the transforms psi_j
    of the free wave (with the time phase, e^{lam z + lam^3 t}) by the
    frame's omega_j, assembled over W and returned once its exact residual
    is zero.

    With theta1 = W/omega1 and psi_j = r_j/omega_j, psi is
    (W + omega1 r2 - omega2 r1) / W: slot 0 of each r_j is -i omega_j, so
    slot 0 of omega1 r2 - omega2 r1 is zero and slot 0 of psi is W.  Only
    the slots k >= 1 of omega1 r2 - omega2 r1 are formed, not the two
    largest products, which cancel in slot 0; that they do is a test.
    """
    r1, r2 = (WaveFn({k: f for k, f in moutard_transform_wave(om, time_phase).coeffs.items()
                      if k}, time_phase)
              for om in (frame.omega1, frame.omega2))
    coeffs = dict((r2.scale(frame.omega1) - r1.scale(frame.omega2)).coeffs)
    coeffs[0] = frame.w                            # the leading 1, over the common denominator
    fw = FaddeevWave(WaveFn(coeffs, time_phase, den=frame.w))
    res = residual(fw)
    if not res.is_zero():
        raise ResidualNonzero(
            f"superposed wave is not an exact eigenfunction: residual {res.summary()}")
    return fw


def residual(fw: FaddeevWave) -> MPoly:
    """Cleared numerator of (-4 d dbar + u) psi, zero exactly when psi is an
    eigenfunction: with u = -2*Laplacian(log w) it is
    -4 e^{lam z} D_z D_zb (chi . w) / w^2, read by `bilinear_residual`."""
    return bilinear_residual(fw, D_ZZBAR)


def bilinear_residual(fw: FaddeevWave, form: dict) -> MPoly:
    """The first nonzero slot of hirota(chi, w, form) for the wave
    psi = e^{lam z} chi / w (e^{lam z + lam^3 t} chi / w on the time phase)."""
    res = hirota(WaveFn(fw.psi.coeffs, fw.psi.time_phase), fw.w, form)
    return res.coeffs[min(res.coeffs)] if res.coeffs else MPoly.zero()


def build_faddeev(seed: SeedPair) -> FaddeevWave:
    """Run the whole static pipeline: frame, two wave transforms, superposition."""
    return faddeev_superpose(build_frame(seed))


RAY_RADIUS = 1e3          # the rays are read at this radius and at twice it
RAY_TOL = 0.05            # largest |Richardson estimate - exact A| on a ray


def scattering_data(fw: FaddeevWave, validate: bool = True) -> ScatteringData:
    """Exact extraction of A(lam) from degree-leading coefficients, checked
    against A = -2d/lam for W of degree 2d, with an independent numeric ray-fit
    validation.  B = 0 structurally: no conjugate exponential can arise from
    rational multipliers."""
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
    assert_decay_bookkeeping(fw)

    a_coeffs = {}
    for k, num in sorted(fw.psi.coeffs.items()):
        if k == 0 or num.total_degree_space() < d - 1:
            continue
        for (i, j), cpoly in num.spatial_leading_terms().items():
            if (i, j) != (a - 1, b) or cpoly.deg_t() > 0:
                raise AsymptoticMismatch(
                    f"slot {k} has a non-radial leading term z^{i} zb^{j} t^{cpoly.deg_t()}")
            a_coeffs[k] = cpoly.constant_term() / lead_c
    sd = ScatteringData(a_coeffs)
    if a_coeffs != {1: -d}:
        raise AsymptoticMismatch(f"A={sd.format_a()} is not -2d/λ = -{d}/λ for W of degree {d}")
    if validate:
        _validate_rays(fw, sd)
    return sd


def _validate_rays(fw: FaddeevWave, sd: ScatteringData):
    """On six rays, g(r) = z (m - 1) = A + c/r + O(r^-2) for the multiplier m,
    so the Richardson estimate 2 g(2r) - g(r), with r = RAY_RADIUS, meets the
    exact A to O(r^-2), within RAY_TOL.  W is read on the rays once, and
    divides the slots' sum at each lam.
    Rays through a pole at either radius are skipped; a value beyond float
    range there raises CoefficientOverflow, so no ray goes uncompared."""
    import numpy as np
    ray = RAY_RADIUS * np.exp(1j * (np.arange(6) * (np.pi / 3) + 0.1))
    z = np.stack([ray, 2.0 * ray])
    chi = WaveFn(fw.psi.coeffs, fw.psi.time_phase)      # the slots, without W
    lams = (1.0, 0.7 + 0.4j)
    try:
        with np.errstate(over="raise", invalid="raise"):
            w = fw.w.eval(z, 0.0)
            gs = [z * (divide_off_poles(wave_multiplier(chi, z, 0.0, lam0), w) - 1.0)
                  for lam0 in lams]
    except FloatingPointError as exc:
        raise CoefficientOverflow(f"the wave on the rays leaves float range ({exc})") from None
    for lam0, g in zip(lams, gs):
        expected = sd.a_at(lam0)
        got = 2.0 * g[1] - g[0]
        bad = np.flatnonzero(np.abs(got - expected) > RAY_TOL)
        if bad.size:
            m = bad[0]
            raise AsymptoticMismatch(
                f"ray fit at z={ray[m]}, lam={lam0}: {got[m]} vs exact {expected}")


def assert_decay_bookkeeping(fw: FaddeevWave) -> None:
    """deg(numerator_k) <= deg(w) - 1 for all k >= 1: the exact decay statement."""
    d = fw.w.total_degree_space()
    for k, num in fw.psi.coeffs.items():
        if k == 0:
            continue
        if num.total_degree_space() > d - 1:
            raise AsymptoticMismatch(f"slot {k} violates degree bookkeeping")
