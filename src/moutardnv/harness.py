"""Numeric verification helpers, seed/grid serialization, and fixtures glue."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, islice, repeat
from typing import NamedTuple

from .algebra import (MAX_EXPONENT, GaussianRational, MPoly, RationalFn, SeedPair,
                      divide_off_poles, float_range, grid_axis, moved_axis, xy_read)
from .errors import AlgebraError, ExponentOverflow


#: Largest points per axis of a grid: n^2 complex values are held at once.
MAX_GRID_N = 1000

#: The highest degree whose products stay within MAX_EXPONENT: a static
#: seed's W * W reaches twice the z-degree of W, and a time seed's
#: nv_residual P * W reaches 5d - 3 for the larger seed degree d.
SEED_DEGREE_CAP = {"static": MAX_EXPONENT // 2, "time": (MAX_EXPONENT + 3) // 5}


class GridSpec:
    def __init__(self, x_min: float, x_max: float, y_min: float, y_max: float, n: int,
                 t: float = 0.0):
        self.x_min, self.x_max, self.y_min, self.y_max = x_min, x_max, y_min, y_max
        self.n, self.t = n, t
        if not 2 <= self.n <= MAX_GRID_N:
            raise ValueError(f"n must be between 2 and {MAX_GRID_N}, got {self.n}")
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max,
                                       self.t))):
            raise ValueError("grid bounds and t must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid bounds must be increasing")
        if not all(map(math.isfinite, (self.x_max - self.x_min, self.y_max - self.y_min))):
            raise ValueError("grid spans must be finite floats")

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is GridSpec else NotImplemented

    def __repr__(self):
        return f"GridSpec({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def points(self):
        import numpy as np
        xs = np.linspace(self.x_min, self.x_max, self.n)
        ys = np.linspace(self.y_min, self.y_max, self.n)
        return xs, ys


class FDReport(NamedTuple):
    res_h: float
    res_half: float
    order: float
    h: float
    points_used: int


def _grid_points(grid: GridSpec):
    """The grid as one complex array: y along the rows, x along the columns."""
    xs, ys = grid.points()
    return xs[None, :] + 1j * ys[:, None]


#: The stencil of `fd_residual` in reading order, the centre and then E, W,
#: N, S at step h and at step h/2: each point's x and y as places in the
#: shifts (0, h, -h, h/2, -h/2) of its axes.
_STENCIL = ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (3, 0), (4, 0), (0, 3), (0, 4))


def _shifts(h: float) -> tuple:
    return 0.0, h, -h, h / 2.0, -h / 2.0


@lru_cache(maxsize=4)
def _stencil_rows(n: int) -> tuple:
    """The rows ix, iy of the 9n^2 stencil points of an n^2 grid, in the
    order [_STENCIL, y, x], in the tables of its axes moved by `_shifts`
    (a centre is [y, x] at y n + x): built once per n, read-only."""
    import numpy as np
    flat = np.arange(n * n)
    sx, sy = (np.array(places)[:, None] * n for places in zip(*_STENCIL))
    ix, iy = (sx + flat % n).ravel(), (sy + flat // n).ravel()
    ix.flags.writeable = iy.flags.writeable = False
    return ix, iy


@lru_cache(maxsize=4)
def _stencil_phase(x_min: float, x_max: float, y_min: float, y_max: float, n: int, h: float,
                   lam_re: float, lam_im: float, t: float, timed: bool):
    """e^{lam z} at the 9n^2 stencil points (`_stencil_rows`), times
    e^{lam^3 t} when timed: built once per grid, step, lam, t and phase,
    read-only.  A value beyond float range raises inside `float_range`."""
    import numpy as np
    from .exppoly import exp_phase
    ix, iy = _stencil_rows(n)
    points = np.empty(ix.size, complex)
    points.real = moved_axis(x_min, x_max, n, *_shifts(h)).take(ix)
    points.imag = moved_axis(y_min, y_max, n, *_shifts(h)).take(iy)
    phase = exp_phase(complex(lam_re, lam_im), points, t if timed else None)
    phase.flags.writeable = False
    return phase


def fd_residual(u: RationalFn, fw: FaddeevWave, lam0: complex, grid: GridSpec,
                h: float) -> FDReport:
    """Independent check of (-Laplacian + u) psi = 0 with the 5-point stencil,
    for the wave psi of fw and its potential u = fw.u, a fraction over a
    power of fw's W.

    Evaluates at steps h and h/2 and reports the observed convergence order;
    an exact eigenfunction gives order close to 2.  The stencil's 9n^2
    points, in the order [_STENCIL, y, x], gather their x's and y's and
    their powers from the 5n distinct x's and y's of the grid's axes moved
    by 0, h, -h, h/2 and -h/2 (`algebra.grid_axis`, once per grid, step and
    width), by rows built once per n (`_stencil_rows`): W and the wave's
    multiplier are each read once at every point, u's numerator at the
    n^2 centres, each by one `xy_read`, and u's W from the centres' W; the
    wave's exponential at the points is built once per grid, step, lam and
    t (`_stencil_phase`).  A grid point is used for a step when neither u
    nor psi has a pole on its stencil; a step that uses no point raises
    AlgebraError, as it has checked nothing.  A value of u or psi, or a
    step of computing it, beyond float range raises CoefficientOverflow
    (`algebra.float_range`), so no overflow is read as a pole.
    """
    import numpy as np
    from .exppoly import multiplier_xy
    n, t = grid.n, grid.t
    centres = n * n
    lam0 = complex(lam0)
    ix, iy = _stencil_rows(n)

    def read(a, size):
        vx, vy = (grid_axis(lo, hi, n, len(a[0]), *_shifts(h))[1]
                  for lo, hi in ((grid.x_min, grid.x_max), (grid.y_min, grid.y_max)))
        return xy_read(a, t, size, lambda s, e: (vx.take(ix[s:e], axis=0),
                                                 vy.take(iy[s:e], axis=0)))

    with float_range("the finite-difference grid leaves float range"):
        w = read(fw.w.xy_coefficients(), ix.size)
        uc = divide_off_poles(read(u.num.xy_coefficients(), centres), w[:centres] ** u.k)
        mult = divide_off_poles(read(multiplier_xy(fw.psi, lam0), ix.size), w)
        phase = _stencil_phase(grid.x_min, grid.x_max, grid.y_min, grid.y_max, n, h,
                               lam0.real, lam0.imag, t, fw.psi.time_phase)
        values = (phase * mult).reshape(len(_STENCIL), centres)
    # both steps at once, each the E, W, N and S of the one centre
    pc, pe, pw, pn, ps = values[0], *values[1:].reshape(2, 4, centres).transpose(1, 0, 2)
    used = ~(np.isnan(uc) | np.isnan(pc) | np.isnan(pe) | np.isnan(pw) | np.isnan(pn)
             | np.isnan(ps))
    lap = (pe + pw + pn + ps - 4.0 * pc) / np.array([[h ** 2], [(h / 2.0) ** 2]])
    r = np.abs(-lap + uc * pc) / np.maximum(1.0, np.abs(pc))
    res = []
    for k, step in enumerate((h, h / 2.0)):
        if not used[k].any():
            raise AlgebraError(f"the finite-difference check at step {step:g} reads no point: "
                               f"each of the {centres} stencils meets a pole")
        res.append((float(r[k, used[k]].max()), int(used[k].sum())))
    res_h, res_half = res[0][0], res[1][0]
    order = math.log2(res_h / res_half) if res_half > 0 else float("inf")
    return FDReport(res_h, res_half, order, h, res[0][1])


# ---------------------------------------------------------------------------
# serialization


def _gr_to_json(c: GaussianRational) -> dict:
    return {"re": str(c.re), "im": str(c.im)}


def _gr_from_json(d) -> GaussianRational:
    """{"re": x, "im": y} with y optional, each part a rational string or an int."""
    if not isinstance(d, dict) or "re" not in d or not d.keys() <= {"re", "im"}:
        raise ValueError(f"a coefficient must be an object with 're' and optional 'im', got {d!r}")
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
    n an integer >= 0, c real and "time" optional.  Each polynomial is a sum
    of monomials z^n, so a seed file can hold no zb or t.  A static seed
    whose W can pass z-degree SEED_DEGREE_CAP["static"], read off the term
    degrees of p1 and p2, or a time seed whose larger degree passes
    SEED_DEGREE_CAP["time"], raises ExponentOverflow here, before any
    product."""
    if not isinstance(data, dict):
        raise ValueError("a seed must be a JSON object")
    unknown = sorted(data.keys() - {"p1", "p2", "c", "time"})
    if unknown:
        raise ValueError(f"a seed holds only 'p1', 'p2', 'c' and 'time', not {unknown}")
    missing = [name for name in ("p1", "p2", "c") if name not in data]
    if missing:
        raise ValueError(f"a seed must hold {', '.join(map(repr, missing))}")

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
    p1, p2, c = poly("p1"), poly("p2"), _gr_from_json(data["c"])
    if not c.is_real():
        raise ValueError("integration constant must be real")
    kind = "time" if time else "static"
    if time:
        what, degree = "degree", max(p1.deg_z(), p2.deg_z())
    else:   # W's z-degree: m + n for a term pair of z-degrees m != n, m for m = n
        what, degree = "W degree", max((m + n if m != n else m for m, _, _ in p1.numerators
                                        for n, _, _ in p2.numerators), default=0)
    cap = SEED_DEGREE_CAP[kind]
    if degree > cap:
        raise ExponentOverflow(f"a {kind} seed of {what} {degree} exceeds cap {cap}, the highest "
                               f"{what} whose products stay within exponent {MAX_EXPONENT}")
    return SeedPair(p1, p2, c), time


def save_seed(path, seed: SeedPair, time: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(seed_to_json(seed, time), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_seed(path):
    with open(path) as fh:
        return seed_from_json(json.load(fh))


def poly_to_json(p: MPoly) -> dict:
    return {"terms": [[i, j, k, _gr_to_json(c)] for (i, j, k), c in p.sorted_terms()]}


def rational_to_json(f: RationalFn) -> dict:
    num, den = f.canonical()
    return {"num": poly_to_json(num), "den": poly_to_json(den)}


def scattering_to_json(sd: ScatteringData) -> dict:
    return {"A": {str(k): _gr_to_json(c) for k, c in sorted(sd.a_coeffs.items())}, "B": "0"}


def wave_to_json(fw: FaddeevWave) -> dict:
    return {
        "time": fw.psi.time_phase,
        "conjugate": False,             # every wave is on the e^{lam z} branch
        "den": poly_to_json(fw.w),
        "slots": {str(k): poly_to_json(f) for k, f in sorted(fw.psi.coeffs.items())},
    }


def write_grid_csv(path, rows) -> None:
    """rows: iterable of (x, y, t, re, im), written with 17 significant
    digits by one printf-style format per row, streamed to one writelines.
    The first row is taken before the file is opened, so rows that raise at
    once (as `sample_grid` does) leave no file."""
    rows = iter(rows)
    first = list(islice(rows, 1))
    with open(path, "w") as fh:
        fh.write("x,y,t,re,im\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(row)
                      for row in chain(first, rows))


def sample_grid(fn, grid: GridSpec):
    """Row-major sweep, y outer and x inner, of fn(z, t): a function of an
    array of points giving their complex values, NaN at a pole.  Points
    where fn has a pole are skipped.  ValueError when a value, or a step of
    computing it, leaves float range (say W at a huge bound, W^2 below the
    potential, or the wave's e^{lam z}), and when every point is a pole,
    as there is then nothing to sample.  The values are computed before
    the first point is yielded, and each row is turned into Python floats
    only as it is reached."""
    import numpy as np
    xs, ys = grid.points()
    with np.errstate(all="raise", under="ignore"):
        try:
            values = np.asarray(fn(_grid_points(grid), grid.t), dtype=complex)
        except FloatingPointError as exc:
            raise ValueError(f"values on the grid leave float range ({exc})") from None
    if np.isnan(values).all():
        raise ValueError("every point of the grid is a pole of the function sampled")
    xs = xs.tolist()
    for y, row in zip(ys.tolist(), values):
        keep = (~np.isnan(row)).tolist()
        yield from zip(compress(xs, keep), repeat(y), repeat(grid.t),
                       compress(row.real.tolist(), keep), compress(row.imag.tolist(), keep))
