"""Zero-energy eigenfunctions with exponential asymptotics: the cubic
superposition, exact residuals, and scattering-data extraction."""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .algebra import (GaussianRational, MPoly, RationalFn, SeedPair, float_range, grid_axis,
                      is_pole, sum_of_products, xy_read)
from .errors import AsymptoticMismatch, ResidualNonzero
from .exppoly import D_TIME_LEG, D_ZZBAR, WaveFn, hirota
from .moutard import MoutardFrame, build_frame, moutard_transform_wave, potential


class FaddeevWave:
    """A wave psi = e^{lam z} chi / W (e^{lam z + lam^3 t} chi / W on the time
    phase) for (-4 d dbar + u) psi = 0.

    psi holds the multiplier slots chi.  As psi e^{-lam z} = 1 + O(1/lam),
    slot 0 of chi is W itself, so W and the potential u = -2*Laplacian(log W)
    are read off psi.  `residual` sets u, and on the time phase the time
    leg, from its one pass; a wave that has not been through it forms each
    alone, on first read, once.
    """

    def __init__(self, psi: WaveFn):
        self.psi = psi

    def __eq__(self, other):
        return self.psi == other.psi if other.__class__ is FaddeevWave else NotImplemented

    def __repr__(self):
        return f"FaddeevWave(psi={self.psi!r})"

    @property
    def w(self) -> MPoly:
        return self.psi.coeffs[0]

    @cached_property
    def u(self) -> RationalFn:
        return potential(self.w)

    @cached_property
    def time_leg(self) -> MPoly:
        """The first nonzero slot of (D_t - D_z^3 - D_zb^3)(chi . w), read by
        `nv.temporal_residual`."""
        return _first_slot(hirota(self.psi, self.w, D_TIME_LEG))

    def __str__(self):
        """psi's slots over W: WaveFn[phase * (slots) / (W)]."""
        return f"{repr(self.psi)[:-1]} / ({self.w})]"


class ScatteringData(NamedTuple):
    """Leading asymptotic coefficients: A as an exact Laurent sum in lam, B = 0
    structurally for every wave in the constructed class."""

    a_coeffs: dict                                  # k >= 1 -> GaussianRational (lam^-k)

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
    slot 0 of omega1 r2 - omega2 r1 is zero and slot 0 of psi is W.  Slot
    k >= 1 is omega1 r2_k - omega2 r1_k, formed per slot over the slots of
    either transform, not the two largest products, which cancel in slot 0;
    that they do is a test.  Each slot is read in one pass over the term
    pairs of both products.  The residual's one pass sets the wave's u and,
    on the time phase, its time leg, which `nv.nv_faddeev` checks next.
    """
    om1, om2 = frame.omega1, frame.omega2
    r1, r2 = (moutard_transform_wave(om).coeffs for om in (om1, om2))
    coeffs = {0: frame.w}                          # the leading 1, over the common denominator
    for k in sorted((r1.keys() | r2.keys()) - {0}):
        coeffs[k] = sum_of_products([(f, g, sign) for f, g, sign in
                                     ((om1, r2.get(k), 1), (om2, r1.get(k), -1)) if g is not None])
    fw = FaddeevWave(WaveFn(coeffs, time_phase))
    res = residual(fw)
    if not res.is_zero():
        raise ResidualNonzero(
            f"superposed wave is not an exact eigenfunction: residual {res.summary()}")
    return fw


def residual(fw: FaddeevWave) -> MPoly:
    """Cleared numerator of (-4 d dbar + u) psi, zero exactly when psi is an
    eigenfunction: with u = -2*Laplacian(log w) it is
    -4 e^{lam z} D_z D_zb (chi . w) / w^2, whose first nonzero slot is
    returned.  Under the phase the form is (D_z + lam) D_zb.

    One hirota pass forms every exact check of the wave over every slot of
    chi, slot 0 (w itself) by symmetry: D_z D_zb, and on the time phase
    D_t - D_z^3 - D_zb^3 as well, whose first nonzero slot is set on
    fw.time_leg for `nv.temporal_residual`.  Slot 0's own term,
    D_z D_zb (w . w), is kept apart in the pass: it is -u/4 over w^2, so
    fw.u is set from it, and the wave is checked against the u that the
    numeric checks read, with no pass of its own."""
    psi = fw.psi
    (spatial, own), *legs = hirota(psi, fw.w, (D_ZZBAR, D_TIME_LEG) if psi.time_phase
                                   else (D_ZZBAR,))
    fw.u = RationalFn(own * -4, fw.w, 2)
    for leg, _ in legs:                            # the time phase's one leg
        fw.time_leg = _first_slot(leg)
    return _first_slot(spatial)


def _first_slot(res: WaveFn) -> MPoly:
    """The slot of least key of a residual wave, zero when it has none."""
    return res.coeffs[min(res.coeffs)] if res.coeffs else MPoly.zero()


def build_faddeev(seed: SeedPair) -> FaddeevWave:
    """Run the whole static pipeline: frame, two wave transforms, superposition."""
    return faddeev_superpose(build_frame(seed))


RAY_RADIUS = 1e3          # the rays are read at this radius and at twice it
RAY_TOL = 0.05            # largest |Richardson estimate - exact A| on a ray
#: The ray check's six rays, z = RAY_RADIUS e^{i(k pi/3 + 0.1)}, and its 12
#: points, the rays at that radius and then at twice it: formed at import.
RAYS = tuple(complex(RAY_RADIUS * math.cos(a), RAY_RADIUS * math.sin(a))
             for a in (k * (math.pi / 3) + 0.1 for k in range(6)))
RAY_POINTS = RAYS + tuple(2.0 * z for z in RAYS)


def scattering_data(fw: FaddeevWave, validate: bool = True) -> ScatteringData:
    """Exact extraction of A(lam) from degree-leading coefficients, checked
    against A = -2d/lam for W of degree 2d, with an independent numeric ray-fit
    validation.  B = 0 structurally: no conjugate exponential can arise from
    rational multipliers.  A constant W has no slot but W itself (README, "A
    constant W"), so psi is e^{lam z} and A = 0.

    W's leading term c z^a zb^b and each slot's terms of degree d - 1 are
    read off their Gaussian-integer numerators in one walk, and A_k, the
    slot's z^(a-1) zb^b coefficient over c, is formed as an exact number
    only for the slots that reach that degree; the tests' reference reads
    them by leading-term polynomials (README, "The scattering coefficient")."""
    w = fw.w
    if w.is_constant():
        return ScatteringData({})
    d = w.total_degree_space()
    lead = [(e, c) for e, c in w.numerators.items() if e[0] + e[1] == d]
    ((a, b, k0), (lre, lim)), *rest = lead
    if any(e[:2] != (a, b) for e, _ in rest):
        raise AsymptoticMismatch("denominator leading form is not a single monomial")
    if rest or k0:
        raise AsymptoticMismatch("denominator leading coefficient depends on t")
    assert_decay_bookkeeping(fw)

    scale, norm = w.denominator, lre * lre + lim * lim    # 1/c = scale (lre - i lim) / norm
    a_coeffs = {}
    for k, num in sorted(fw.psi.coeffs.items()):
        top = [(e, c) for e, c in num.numerators.items() if e[0] + e[1] == d - 1] if k else ()
        if not top:
            continue
        ((i, j, kt), (re, im)), *more = top
        if more or (i, j, kt) != (a - 1, b, 0):
            # the first (i, j) of that degree that is not radial or holds t,
            # with its t-degree
            tdeg = {}
            for (i, j, kt), _ in top:
                tdeg[i, j] = max(tdeg.get((i, j), 0), kt)
            (i, j), kt = next((ij, kt) for ij, kt in tdeg.items() if ij != (a - 1, b) or kt)
            raise AsymptoticMismatch(
                f"slot {k} has a non-radial leading term z^{i} zb^{j} t^{kt}")
        den = num.denominator * norm
        a_coeffs[k] = GaussianRational(Fraction((re * lre + im * lim) * scale, den),
                                       Fraction((im * lre - re * lim) * scale, den))
    sd = ScatteringData(a_coeffs)
    if a_coeffs != {1: -d}:
        raise AsymptoticMismatch(f"A={sd.format_a()} is not -2d/λ = -{d}/λ for W of degree {d}")
    if validate:
        _validate_rays(fw, sd)
    return sd


def _validate_rays(fw: FaddeevWave, sd: ScatteringData):
    """On the six RAYS, g(r) = z (m - 1) = A + c/r + O(r^-2) for the
    multiplier m, so the Richardson estimate 2 g(2r) - g(r), with
    r = RAY_RADIUS, meets the exact A to O(r^-2), within RAY_TOL.  Every
    slot v_k, W = v_0 among them, is read at the 12 RAY_POINTS once, at
    t = 0, by one `xy_read` of the slots' t^0 arrays, its power tables
    those of the points' x's and y's as the one-point axis [0] moved by
    each (`grid_axis`, once per width); m at each lam is sum_k lam^-k v_k
    over v_0, formed with the estimates in Python complex arithmetic on the
    24 values a lam needs, where numpy would spend a call on each step.
    A point where |v_0| < POLE_FLOOR (1 + |sum_k lam^-k v_k|) is a pole
    (`algebra.is_pole`, the rule of `divide_off_poles`), and a ray through
    a pole at either radius is skipped; a lam at which every ray is skipped
    raises AsymptoticMismatch, as nothing was compared.  A value beyond
    float range there, or one that is not finite, raises
    CoefficientOverflow (`algebra.float_range`), so no ray goes
    uncompared."""
    lams = (1.0, 0.7 + 0.4j)
    ks = sorted(fw.psi.coeffs)                     # slot 0, W, first: no slot is below it
    arrays = [fw.psi.coeffs[k].xy_coefficients()[:1] for k in ks]
    width = max(a.shape[1] for a in arrays)
    got = []                                       # got[l][m]: the estimate at lams[l], RAYS[m]
    with float_range("the wave on the rays leaves float range"):
        xs, ys = [z.real for z in RAY_POINTS], [z.imag for z in RAY_POINTS]
        (_, vx), (_, vy) = (grid_axis(0.0, 0.0, 1, width, *part) for part in (xs, ys))
        # cols[p]: every slot at RAY_POINTS[p]
        cols = xy_read(arrays, 0.0, len(RAY_POINTS), lambda s, e: (vx[s:e], vy[s:e])).T.tolist()
        try:
            sizes = [abs(col[0]) for col in cols]                       # |W|
            for lam0 in lams:
                powers = [lam0 ** -k for k in ks]
                gs = []
                for z, col, wsize in zip(RAY_POINTS, cols, sizes):
                    total = sum(map(operator.mul, powers, col))
                    size = abs(total)                   # raises past float range
                    if not size < math.inf:             # an inf or NaN part
                        raise OverflowError
                    # off a pole |total / W| < 1e12, so g and the estimates stay finite
                    gs.append(math.nan if is_pole(wsize, size) else z * (total / col[0] - 1.0))
                got.append([2.0 * far - near for near, far in zip(gs, gs[len(RAYS):])])
        except OverflowError:
            raise FloatingPointError("overflow encountered in the values on the rays") from None
    for lam0, estimates in zip(lams, got):
        if all(map(cmath.isnan, estimates)):
            raise AsymptoticMismatch(f"no ray is readable at lam={lam0}: "
                                     f"each of the {len(RAYS)} meets a pole at r or 2r")
    for lam0, estimates in zip(lams, got):
        expected = sd.a_at(lam0)
        for z, e in zip(RAYS, estimates):
            if abs(e - expected) > RAY_TOL:
                raise AsymptoticMismatch(
                    f"ray fit at z={z}, lam={lam0}: {e} vs exact {expected}")


def assert_decay_bookkeeping(fw: FaddeevWave) -> None:
    """deg(numerator_k) <= deg(w) - 1 for all k >= 1: the exact decay statement."""
    d = fw.w.total_degree_space()
    for k, num in fw.psi.coeffs.items():
        if k == 0:
            continue
        if num.total_degree_space() > d - 1:
            raise AsymptoticMismatch(f"slot {k} violates degree bookkeeping")
