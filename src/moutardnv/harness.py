"""Numeric verification helpers, seed/grid serialization, and fixtures glue."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GaussianRational, MPoly, RationalFn
from .errors import PoleError
from .exppoly import WaveFn, wave_eval
from .faddeev import FaddeevWave, faddeev_eval
from .moutard import SeedPair


@dataclass
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n: int
    t: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid bounds must be increasing")

    def points(self):
        xs = np.linspace(self.x_min, self.x_max, self.n)
        ys = np.linspace(self.y_min, self.y_max, self.n)
        return xs, ys


@dataclass
class DecayFit:
    exponent: float
    r_range: tuple
    residual: float          # RMS of the log-log fit
    spread: float = 0.0      # max deviation of per-ray slopes from the mean


@dataclass
class FDReport:
    res_h: float
    res_half: float
    order: float
    h: float
    points_used: int


def _psi_value(psi, z0, t0, lam0):
    if isinstance(psi, FaddeevWave):
        return faddeev_eval(psi, z0, t0, lam0)
    if isinstance(psi, WaveFn):
        return wave_eval(psi, z0, t0, lam0)
    return psi(z0)


def fd_residual(u: RationalFn, psi, lam0: complex, grid: GridSpec, h: float) -> FDReport:
    """Independent check of (-Laplacian + u) psi = 0 with the 5-point stencil.

    Evaluates at steps h and h/2 and reports the observed convergence order;
    an exact eigenfunction gives order close to 2.
    """
    res = []
    for step in (h, h / 2.0):
        worst = 0.0
        used = 0
        xs, ys = grid.points()
        for y0 in ys:
            for x0 in xs:
                z0 = complex(x0, y0)
                try:
                    uc = u.eval(z0, grid.t)
                    pc = _psi_value(psi, z0, grid.t, lam0)
                    pe = _psi_value(psi, z0 + step, grid.t, lam0)
                    pw = _psi_value(psi, z0 - step, grid.t, lam0)
                    pn = _psi_value(psi, z0 + 1j * step, grid.t, lam0)
                    ps = _psi_value(psi, z0 - 1j * step, grid.t, lam0)
                except PoleError:
                    continue
                lap = (pe + pw + pn + ps - 4.0 * pc) / step ** 2
                r = abs(-lap + uc * pc) / max(1.0, abs(pc))
                worst = max(worst, r)
                used += 1
        res.append((worst, used))
    res_h, res_half = res[0][0], res[1][0]
    order = math.log2(res_h / res_half) if res_half > 0 else float("inf")
    return FDReport(res_h, res_half, order, h, res[0][1])


def decay_fit(f: RationalFn, rays=None, r_range=(1e2, 1e4), n_samples: int = 40,
              t0: float = 0.0) -> DecayFit:
    """Least-squares slope of log|f| against log r along the given rays."""
    if rays is None:
        rays = [k * math.pi / 4 + 0.07 for k in range(8)]
    rs = np.logspace(math.log10(r_range[0]), math.log10(r_range[1]), n_samples)
    slopes = []
    rms = []
    for ang in rays:
        direction = complex(math.cos(ang), math.sin(ang))
        logs_r, logs_f = [], []
        for r in rs:
            try:
                v = abs(f.eval(r * direction, t0))
            except PoleError:
                continue
            if v == 0:
                continue
            logs_r.append(math.log(r))
            logs_f.append(math.log(v))
        if len(logs_r) < 3:
            raise PoleError(f"ray {ang} has too few finite samples")
        slope, intercept = np.polyfit(logs_r, logs_f, 1)
        fit = slope * np.asarray(logs_r) + intercept
        rms.append(float(np.sqrt(np.mean((fit - np.asarray(logs_f)) ** 2))))
        slopes.append(float(slope))
    mean = float(np.mean(slopes))
    spread = float(max(abs(s - mean) for s in slopes))
    return DecayFit(mean, tuple(r_range), float(np.mean(rms)), spread)


@dataclass
class SignReport:
    verdict: str             # "nonpositive" | "positive-somewhere"
    max_value: float
    witness: tuple = None
    certificate: bool = False
    certificate_detail: str = ""


def sign_check(u: RationalFn, grid: GridSpec, tol: float = 1e-9) -> SignReport:
    """Numeric maximum of a real-valued rational function over a grid, plus a
    symbolic nonpositivity certificate when the numerator factors as a
    negative constant times a hermitian square."""
    xs, ys = grid.points()
    worst = -float("inf")
    witness = None
    for y0 in ys:
        for x0 in xs:
            try:
                v = u.eval(complex(x0, y0), grid.t).real
            except PoleError:
                continue
            if v > worst:
                worst, witness = v, (float(x0), float(y0))
    cert, detail = hermitian_square_certificate(u.num)
    if worst <= tol:
        return SignReport("nonpositive", worst, None, cert, detail)
    return SignReport("positive-somewhere", worst, witness, cert, detail)


def hermitian_square_certificate(num: MPoly):
    """Try to write num = s * N * conj(N) with s a real constant and N linear
    in z; returns (sign_is_nonpositive_consistent, detail)."""
    if num.is_zero():
        return True, "numerator is zero"
    if num.deg_z() > 1 or num.deg_zbar() > 1 or num.deg_t() > 0:
        return False, "no certificate attempted (numerator not bilinear)"
    c00 = num.coeff(0, 0)
    c10 = num.coeff(1, 0)
    c01 = num.coeff(0, 1)
    c11 = num.coeff(1, 1)
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
# serialization


def _gr_to_json(c: GaussianRational) -> dict:
    return {"re": str(c.re), "im": str(c.im)}


def _gr_from_json(d) -> GaussianRational:
    return GaussianRational(Fraction(d["re"]), Fraction(d.get("im", "0")))


def seed_to_json(seed: SeedPair, time: bool = False) -> dict:
    def poly(p: MPoly):
        out = []
        for (i, j, k), c in p.sorted_terms():
            if j != 0 or k != 0:
                raise ValueError("seed polynomials must be written in z alone")
            out.append([i, _gr_to_json(c)])
        return out

    return {"p1": poly(seed.p1), "p2": poly(seed.p2),
            "c": _gr_to_json(seed.c), "time": bool(time)}


def seed_from_json(data: dict):
    def poly(entries):
        acc = MPoly.zero()
        for n, c in entries:
            acc = acc + MPoly.monomial(int(n), 0, 0, _gr_from_json(c))
        return acc

    seed = SeedPair(poly(data["p1"]), poly(data["p2"]), _gr_from_json(data["c"]))
    return seed, bool(data.get("time", False))


def save_seed(path, seed: SeedPair, time: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(seed_to_json(seed, time), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_seed(path):
    with open(path) as fh:
        return seed_from_json(json.load(fh))


def poly_to_json(p: MPoly) -> dict:
    return {"terms": [[i, j, k, _gr_to_json(c)] for (i, j, k), c in p.sorted_terms()]}


def poly_from_json(d) -> MPoly:
    acc = MPoly.zero()
    for i, j, k, c in d["terms"]:
        acc = acc + MPoly.monomial(int(i), int(j), int(k), _gr_from_json(c))
    return acc


def rational_to_json(f: RationalFn) -> dict:
    num, den = f.canonical()
    return {"num": poly_to_json(num), "den": poly_to_json(den)}


def rational_from_json(d) -> RationalFn:
    return RationalFn(poly_from_json(d["num"]), poly_from_json(d["den"]))


def wave_to_json(fw: FaddeevWave) -> dict:
    return {
        "time": fw.psi.time_phase,
        "conjugate": fw.conjugate,
        "den": poly_to_json(fw.w),
        "slots": {str(k): poly_to_json(f) for k, f in sorted(fw.psi.coeffs.items())},
    }


def _fmt17(v: float) -> str:
    return format(float(v), ".17g")


def write_grid_csv(path, rows) -> None:
    """rows: iterable of (x, y, t, re, im), written with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("x,y,t,re,im\n")
        for x, y, t, re, im in rows:
            fh.write(",".join(_fmt17(v) for v in (x, y, t, re, im)) + "\n")


def sample_grid(fn, grid: GridSpec):
    """Row-major sweep, y outer and x inner; fn(z, t) -> complex.  Points where
    fn hits a pole are skipped."""
    xs, ys = grid.points()
    for y0 in ys:
        for x0 in xs:
            try:
                v = complex(fn(complex(x0, y0), grid.t))
            except PoleError:
                continue
            yield (float(x0), float(y0), grid.t, v.real, v.imag)
