"""Numeric verification helpers, seed/grid serialization, and fixtures glue."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat

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
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max,
                                       self.t))):
            raise ValueError("grid bounds and t must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid bounds must be increasing")
        if not all(map(math.isfinite, (self.x_max - self.x_min, self.y_max - self.y_min))):
            raise ValueError("grid spans must be finite floats")

    def points(self):
        import numpy as np
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


def _psi_value(psi, z, t0, lam0):
    if isinstance(psi, FaddeevWave):
        return faddeev_eval(psi, z, t0, lam0)
    if isinstance(psi, WaveFn):
        return wave_eval(psi, z, t0, lam0)
    return psi(z)


def _grid_points(grid: GridSpec):
    """The grid as one complex array: y along the rows, x along the columns."""
    xs, ys = grid.points()
    return xs[None, :] + 1j * ys[:, None]


def fd_residual(u: RationalFn, psi, lam0: complex, grid: GridSpec, h: float) -> FDReport:
    """Independent check of (-Laplacian + u) psi = 0 with the 5-point stencil.

    Evaluates at steps h and h/2 and reports the observed convergence order;
    an exact eigenfunction gives order close to 2.  psi is a wave or a
    function of an array of points, NaN at a pole; a grid point is used when
    neither u nor psi has a pole on its stencil.
    """
    import numpy as np
    z = _grid_points(grid)
    uc = u.eval(z, grid.t)
    res = []
    for step in (h, h / 2.0):
        shifts = np.array([0.0, step, -step, 1j * step, -1j * step])
        values = _psi_value(psi, z + shifts[:, None, None], grid.t, lam0)
        used = ~(np.isnan(uc) | np.isnan(values).any(axis=0))
        pc, pe, pw, pn, ps = values[:, used]
        lap = (pe + pw + pn + ps - 4.0 * pc) / step ** 2
        r = np.abs(-lap + uc[used] * pc) / np.maximum(1.0, np.abs(pc))
        res.append((float(r.max(initial=0.0)), int(used.sum())))
    res_h, res_half = res[0][0], res[1][0]
    order = math.log2(res_h / res_half) if res_half > 0 else float("inf")
    return FDReport(res_h, res_half, order, h, res[0][1])


def decay_fit(f: RationalFn, rays=None, r_range=(1e2, 1e4), n_samples: int = 40,
              t0: float = 0.0) -> DecayFit:
    """Least-squares slope of log|f| against log r along the given rays;
    poles and exact zeros are left out of each ray's fit."""
    import numpy as np
    if rays is None:
        rays = [k * math.pi / 4 + 0.07 for k in range(8)]
    rs = np.logspace(math.log10(r_range[0]), math.log10(r_range[1]), n_samples)
    directions = np.array([complex(math.cos(ang), math.sin(ang)) for ang in rays])
    values = np.abs(f.eval(directions[:, None] * rs, t0))
    slopes = []
    rms = []
    for ang, v in zip(rays, values):
        kept = v > 0.0                          # False at a pole (NaN) and at a zero
        if kept.sum() < 3:
            raise PoleError(f"ray {ang} has too few finite samples")
        logs_r, logs_f = np.log(rs[kept]), np.log(v[kept])
        slope, intercept = np.polyfit(logs_r, logs_f, 1)
        fit = slope * logs_r + intercept
        rms.append(float(np.sqrt(np.mean((fit - logs_f) ** 2))))
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
    import numpy as np
    xs, ys = grid.points()
    values = u.eval(_grid_points(grid), grid.t).real
    values[np.isnan(values)] = -np.inf          # a pole
    idx = np.unravel_index(values.argmax(), values.shape)
    worst, witness = float(values[idx]), (float(xs[idx[1]]), float(ys[idx[0]]))
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
    """{"re": x, "im": y} with y optional, each part a rational string or an int."""
    if not isinstance(d, dict) or "re" not in d:
        raise ValueError(f"a coefficient must be an object with 're', got {d!r}")
    parts = (d["re"], d.get("im", "0"))
    if not all(isinstance(x, str) or _is_int(x) for x in parts):
        raise ValueError(f"coefficient parts must be strings or integers, got {d!r}")
    try:
        return GaussianRational(*map(Fraction, parts))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {d!r}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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
    """The seed and its time flag; ValueError for any other shape than
    {"p1": [[n, coefficient], ...], "p2": ..., "c": coefficient, "time": bool},
    n an integer >= 0 and "time" optional."""
    if not isinstance(data, dict):
        raise ValueError("a seed must be a JSON object")

    def poly(name):
        entries = data[name]
        if not isinstance(entries, list):
            raise ValueError(f"{name} must be a list of [degree, coefficient] pairs")
        acc = MPoly.zero()
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2
                    and _is_int(entry[0]) and entry[0] >= 0):
                raise ValueError(f"{name}: expected [integer degree >= 0, coefficient], "
                                 f"got {entry!r}")
            acc = acc + MPoly.monomial(entry[0], 0, 0, _gr_from_json(entry[1]))
        return acc

    time = data.get("time", False)
    if not isinstance(time, bool):
        raise ValueError(f"time must be true or false, got {time!r}")
    return SeedPair(poly("p1"), poly("p2"), _gr_from_json(data["c"])), time


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
    """rows: iterable of (x, y, t, re, im), written with 17 significant digits.
    The first row is taken before the file is opened, so rows that raise at
    once (as `sample_grid` does) leave no file."""
    rows = iter(rows)
    first = list(islice(rows, 1))
    with open(path, "w") as fh:
        fh.write("x,y,t,re,im\n")
        for x, y, t, re, im in chain(first, rows):
            fh.write(",".join(_fmt17(v) for v in (x, y, t, re, im)) + "\n")


def sample_grid(fn, grid: GridSpec):
    """Row-major sweep, y outer and x inner, of fn(z, t): a function of an
    array of points giving their complex values, NaN at a pole.  Points
    where fn has a pole are skipped.  ValueError when a value, or a step of
    computing it, leaves float range (say W at a huge bound, W^2 below the
    potential, or the wave's e^{lam z})."""
    import numpy as np
    xs, ys = grid.points()
    with np.errstate(all="raise", under="ignore"):
        try:
            values = np.asarray(fn(_grid_points(grid), grid.t), dtype=complex)
        except FloatingPointError as exc:
            raise ValueError(f"values on the grid leave float range ({exc})") from None
    finite = ~np.isnan(values)
    rows, cols = np.nonzero(finite)
    yield from zip(xs[cols].tolist(), ys[rows].tolist(), repeat(grid.t),
                   values.real[finite].tolist(), values.imag[finite].tolist())
