"""Command-line interface: build potentials and waves from seed files, extract
scattering data, run the time evolution and blow-up search, verify invariants,
and sample functions onto CSV grids.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from . import faddeev as fd
from . import harness as hn
from . import moutard as mt
from . import nv
from .errors import AlgebraError, CoefficientOverflow, ExponentOverflow
from .exppoly import wave_eval


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"lambda must be re,im, got {text}")
    lam = complex(float(parts[0]), float(parts[1]))
    if lam == 0 or not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite and nonzero, got {text}")
    return lam


def _parse_grid(text: str, t: float) -> hn.GridSpec:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("grid must be xmin,xmax,ymin,ymax,n")
    return hn.GridSpec(float(parts[0]), float(parts[1]), float(parts[2]),
                       float(parts[3]), int(parts[4]), t)


def _write_json(args, payload) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt_coord(v: float) -> str:
    if abs(v - round(v)) < 5e-5:
        return str(int(round(v)))
    return f"{v:.4f}"


def _pipeline(time: bool):
    """The potential builder and the wave builder of a seed: on a time seed
    u = -2 Laplacian(log W) = -4U, U from `_nv_solution` of the extended W,
    and the time wave; the static ones otherwise."""
    if time:
        return lambda seed: _nv_solution(nv.extended_w(seed)) * -4, nv.nv_faddeev
    return lambda seed: mt.potential(mt.double_w(seed)), fd.build_faddeev


def _evolved_w(seed):
    """The evolved seed and its extended W."""
    es = nv.evolved_seed(seed)
    return es, nv.extended_w(es)


def _nv_solution(wt):
    """U of a time W, failing unless its evolution residual is exactly zero:
    the check of every W that `nv.extended_w` builds."""
    U = nv.nv_potentials(wt)
    if not nv.nv_residual(U).is_zero():
        raise AlgebraError("evolution residual nonzero")
    return U


def cmd_potential(args) -> int:
    seed, time = hn.load_seed(args.seed)
    build_u, _ = _pipeline(time)
    u = build_u(seed)
    print(u)
    _write_json(args, {"u": hn.rational_to_json(u), "w": hn.poly_to_json(u.base)})
    return 0


def cmd_kernel(args) -> int:
    seed, _ = hn.load_seed(args.seed)
    frame = mt.build_frame(seed)
    fracs = dict(zip(("theta1", "theta2", "phi1", "phi2"),
                     mt.kernel_functions(frame.omega1, frame.omega2, frame.w)))
    for name, f in fracs.items():
        print(f"{name} = {f}")
    _write_json(args, {name: hn.rational_to_json(f) for name, f in fracs.items()})
    return 0


def cmd_faddeev(args) -> int:
    seed, time = hn.load_seed(args.seed)
    _, build_wave = _pipeline(time)
    fw = build_wave(seed)
    print("residual=0")
    print(fw)
    _write_json(args, hn.wave_to_json(fw))
    return 0


def cmd_scatter(args) -> int:
    seed, time = hn.load_seed(args.seed)
    _, build_wave = _pipeline(time)
    fw = build_wave(seed)
    sd = fd.scattering_data(fw)
    print(sd)
    _write_json(args, hn.scattering_to_json(sd))
    return 0


def cmd_nv_evolve(args) -> int:
    seed, _ = hn.load_seed(args.seed)
    es, wt = _evolved_w(seed)
    U = _nv_solution(wt)
    print(f"p1(t) = {es.p1}")
    print(f"p2(t) = {es.p2}")
    print(f"Wt = {wt}")
    _write_json(args, {"p1": hn.poly_to_json(es.p1), "p2": hn.poly_to_json(es.p2),
                       "wt": hn.poly_to_json(wt), "u": hn.rational_to_json(U),
                       "v": hn.rational_to_json(nv.nv_v(wt))})
    return 0


def cmd_nv_faddeev(args) -> int:
    seed, _ = hn.load_seed(args.seed)
    fw = nv.nv_faddeev(seed)
    sd = fd.scattering_data(fw)
    print(f"{sd} stationary=yes")
    for k, mu in nv.kernel_mu(fw).items():
        print(f"mu{k} = {mu}")
    _write_json(args, hn.wave_to_json(fw))
    return 0


def _blowup_time(wt):
    """`nv.blowup_time`, failing where W already vanishes at t = 0: there the
    solution is singular from the start, and no blow-up time is found."""
    rep = nv.blowup_time(wt)
    if rep.t_star == 0.0:
        raise AlgebraError(f"W vanishes at t = 0 near {rep.witness}")
    return rep


def cmd_blowup(args) -> int:
    seed, _ = hn.load_seed(args.seed)
    rep = _blowup_time(_nv_solution(nv.extended_w(seed)).base)
    if not rep.found:
        print("no_blowup")
        return 0
    wx, wy = rep.witness
    print(f"t_star≈{rep.t_star:.6f} witness=({_fmt_coord(wx)},{_fmt_coord(wy)})")
    _write_json(args, {"t_star": rep.t_star, "witness": list(rep.witness),
                       "method": rep.method})
    return 0


def cmd_sample_grid(args) -> int:
    seed, time = hn.load_seed(args.seed)
    if args.grid is None:
        raise ValueError("sample-grid requires --grid")
    if args.out is None:
        raise ValueError("sample-grid requires --out")
    grid = _parse_grid(args.grid, args.t)
    build_u, build_wave = _pipeline(time)
    if args.lam is not None:
        lam0 = _parse_lambda(args.lam)
        fw = build_wave(seed)
        fn = lambda z, t: wave_eval(fw.psi, fw.w, z, t, lam0)
    else:
        u = build_u(seed)
        fn = lambda z, t: u.eval(z, t)
    hn.write_grid_csv(args.out, hn.sample_grid(fn, grid))
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    seed, time = hn.load_seed(args.seed)
    checks = []

    def run(name, fn):
        """The check's value, or None when it fails."""
        try:
            out = fn()
        except (ExponentOverflow, CoefficientOverflow):
            raise
        except Exception as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))
            return None
        checks.append((name, True, ""))
        return out

    if not time:
        frame = run("frame-build", lambda: mt.build_frame(seed))
        # without a frame, building it again fails this row with the same error
        fw = run("wave-residual-exact", lambda: fd.faddeev_superpose(
            frame if frame is not None else mt.build_frame(seed)))
        if fw is not None:
            run("decay-bookkeeping", lambda: fd.assert_decay_bookkeeping(fw))
            run("scattering-exact-vs-rays", lambda: fd.scattering_data(fw))

            def fd_order():
                rep = hn.fd_residual(fw.u, fw, 1.0, hn.GridSpec(-2, 2, -2, 2, 7), 1e-2)
                if rep.order < 1.9:
                    raise AlgebraError(f"order {rep.order:.2f} < 1.9")

            run("finite-difference-order", fd_order)
        if frame is not None:
            def nonvanish():
                """Passes on certified-positive alone."""
                rep = mt.nonvanishing_certificate(frame.w)
                if rep.form is not None:
                    raise AlgebraError(f"W vanishes: W has one sign on the grid and its "
                                       f"leading form {rep.form} the other")
                if rep.verdict == "zero-found":
                    raise AlgebraError(f"W vanishes near {rep.witness}")
                if rep.verdict != "certified-positive":
                    raise AlgebraError(f"W is not certified nonvanishing: {rep.verdict}")

            run("denominator-nonvanishing", nonvanish)
    else:
        built = run("extended-w", lambda: _evolved_w(seed))
        if built is not None:
            es, wt = built
            run("evolution-residual-exact", lambda: _nv_solution(wt))
            fw = run("wave-residuals-exact", lambda: nv.nv_faddeev(es, wt))
            if fw is not None:
                run("scattering-exact-vs-rays", lambda: fd.scattering_data(fw))
            run("blowup-search", lambda: _blowup_time(wt))

    ok = all(c[1] for c in checks)
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    for name, good, detail in checks:
        line = f"{'PASS' if good else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
    return 0 if ok else 1


COMMANDS = {
    "potential": cmd_potential,
    "kernel": cmd_kernel,
    "faddeev": cmd_faddeev,
    "scatter": cmd_scatter,
    "nv-evolve": cmd_nv_evolve,
    "nv-faddeev": cmd_nv_faddeev,
    "blowup": cmd_blowup,
    "verify": cmd_verify,
    "sample-grid": cmd_sample_grid,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mnv", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--seed", required=True)
        p.add_argument("--out")
    grid = sub.choices["sample-grid"]
    grid.add_argument("--lambda", dest="lam")
    grid.add_argument("--t", type=float, default=0.0)
    grid.add_argument("--grid")
    grid.add_argument("--csv", action="store_true", help="the output is always CSV")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ExponentOverflow, CoefficientOverflow) as exc:
        print(f"input error: seed too large: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"FAIL {type(exc).__name__}: {exc}")
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
