"""Numeric verification helpers, seed/grid serialization, and fixtures glue."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat

from .algebra import GaussianRational, MPoly, RationalFn
from .errors import CoefficientOverflow
from .exppoly import wave_eval
from .faddeev import FaddeevWave
from .moutard import SeedPair


#: Largest points per axis of a grid: n^2 complex values are held at once.
MAX_GRID_N = 1000


@dataclass
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n: int
    t: float = 0.0

    def __post_init__(self):
        if not 2 <= self.n <= MAX_GRID_N:
            raise ValueError(f"n must be between 2 and {MAX_GRID_N}, got {self.n}")
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
class FDReport:
    res_h: float
    res_half: float
    order: float
    h: float
    points_used: int


def _grid_points(grid: GridSpec):
    """The grid as one complex array: y along the rows, x along the columns."""
    xs, ys = grid.points()
    return xs[None, :] + 1j * ys[:, None]


def fd_residual(u: RationalFn, fw: FaddeevWave, lam0: complex, grid: GridSpec,
                h: float) -> FDReport:
    """Independent check of (-Laplacian + u) psi = 0 with the 5-point stencil,
    for the wave psi of fw.

    Evaluates at steps h and h/2 and reports the observed convergence order;
    an exact eigenfunction gives order close to 2.  The wave is read once, at
    the centre and the four neighbours of both steps.  A grid point is used
    for a step when neither u nor psi has a pole on its stencil.  A value of
    u or psi, or a step of computing it, beyond float range raises
    CoefficientOverflow, so no overflow is read as a pole.
    """
    import numpy as np
    z = _grid_points(grid)
    steps = (h, h / 2.0)
    shifts = np.array([0.0, *(s for step in steps for s in (step, -step, 1j * step, -1j * step))])
    try:
        with np.errstate(over="raise", invalid="raise"):
            uc = u.eval(z, grid.t)
            values = wave_eval(fw.psi, z + shifts[:, None, None], grid.t, lam0)
    except FloatingPointError as exc:
        raise CoefficientOverflow(
            f"the finite-difference grid leaves float range ({exc})") from None
    res = []
    for n, step in enumerate(steps):
        stencil = values[[0, *range(4 * n + 1, 4 * n + 5)]]     # centre, E, W, N, S
        used = ~(np.isnan(uc) | np.isnan(stencil).any(axis=0))
        pc, pe, pw, pn, ps = stencil[:, used]
        lap = (pe + pw + pn + ps - 4.0 * pc) / step ** 2
        r = np.abs(-lap + uc[used] * pc) / np.maximum(1.0, np.abs(pc))
        res.append((float(r.max(initial=0.0)), int(used.sum())))
    res_h, res_half = res[0][0], res[1][0]
    order = math.log2(res_h / res_half) if res_half > 0 else float("inf")
    return FDReport(res_h, res_half, order, h, res[0][1])


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


def rational_to_json(f: RationalFn) -> dict:
    num, den = f.canonical()
    return {"num": poly_to_json(num), "den": poly_to_json(den)}


def wave_to_json(fw: FaddeevWave) -> dict:
    return {
        "time": fw.psi.time_phase,
        "conjugate": False,             # every wave is on the e^{lam z} branch
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
