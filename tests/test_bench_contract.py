"""The benchmark patches library names from outside and reads MPoly's
coefficients as GaussianRationals; a rename or a change of the polynomial
core must fail here rather than break the benchmark silently."""

import contextlib
import importlib.util
import io
import os
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from moutardnv import algebra, cli, exppoly, faddeev, harness, moutard, nv
from moutardnv.algebra import MPoly, grid_product
from moutardnv.exppoly import wave_eval
from moutardnv.faddeev import build_faddeev
from moutardnv.moutard import build_frame, double_w, nonvanishing_certificate

from oracles import (certificate_full_grid, fd_residual_by_wave_eval, grid_extremes_full_grid,
                     is_real_valued, xy_coefficients_per_term)
from test_cli import _build_counts
from test_moutard import near_zero_w

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module        # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_bench_tracing_installs_and_uninstalls():
    tracing = bench_module("tracing")
    before = (MPoly.__mul__, MPoly.__rmul__, MPoly.eval, nv.minimize, nv.extended_w)
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert nv.extended_w is not before[4]
    finally:
        uninstall()
    assert (MPoly.__mul__, MPoly.__rmul__, MPoly.eval, nv.minimize, nv.extended_w) == before


def test_bench_reads_mpoly_as_before():
    for attr in ("__mul__", "__rmul__", "eval"):
        assert attr in MPoly.__dict__
    wl = bench_module("workloads")
    seed, _ = wl.fixture("sec22")
    checks, res = wl.static_op(seed)
    assert not checks.failures
    bits, terms = wl.object_size(res)
    assert bits > 0 and terms >= len(res["w"].terms)
    gold = wl.load_goldens()["static"]["sec22"]
    assert not wl.compare_outputs(wl.exact_outputs(res), gold)
    w = res["w"]
    (i, j, k), _ = w.sorted_terms()[0]
    bad = w + MPoly.monomial(i, j, k, wl.gr(1))
    digest = wl.exact_outputs({"w": w, "fw": None})["w"]
    assert wl.exact_outputs({"w": bad, "fw": None})["w"] != digest


def test_cli_ops_match_their_goldens_in_process(tmp_path, monkeypatch):
    """Every cli op of the benchmark, run by `cli.main` in this process on
    the fixtures saved to inputs/ as the benchmark saves them, gives its
    golden exit code, stdout and output file: a renamed verify row, a
    dropped option or a changed wave file fails here, and not only in a
    benchmark run."""
    wl = bench_module("workloads")
    gold = wl.load_goldens()["cli"]
    assert sorted(op[0] for op in wl.CLI_OPS) == sorted(gold)
    for sub in ("inputs", "out"):
        (tmp_path / sub).mkdir()
    for name in ("sec22", "sec22_cubic", "sec32"):
        wl.hn.save_seed(tmp_path / "inputs" / f"{name}.json", *wl.fixture(name))
    monkeypatch.chdir(tmp_path)
    for op in wl.CLI_OPS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(op[1])
        got = wl.cli_outputs(op, rc, stdout.getvalue(), tmp_path)
        assert not wl.compare_cli(op[0], got, gold[op[0]]), op[0]


def test_ops_replay_the_exact_goldens():
    """The static op on the static pool and both static fixtures, and the
    time op on sec32, the timed time pool and the cubic pool, give the exact
    outputs that goldens.json records (the digests of W and of the wave, A
    and the blow-up report) and fail no check the goldens do not record:
    a changed slot byte fails here, and not only in a benchmark run."""
    wl = bench_module("workloads")
    goldens = wl.load_goldens()
    static = {name: wl.fixture(name)[0] for name in ("sec22", "sec22_cubic")}
    static.update((i, seed) for i, (seed, _) in wl.static_pool(goldens).items())
    cands = wl.time_candidates()
    timed = {"sec32": wl.fixture("sec32")[0], **wl.cubic_pool()}
    for stratum, (size, _) in wl.TIME_DRAW.items():
        ids = [i for i in sorted(cands) if goldens["time"][i]["stratum"] == stratum][:size]
        timed.update((i, cands[i]) for i in ids)
    assert (len(static), len(timed)) == (33, 21)
    for kind, op, seeds in (("static", wl.static_op, static), ("time", wl.time_op, timed)):
        for name, seed in seeds.items():
            gold = goldens[kind][name]
            checks, res = op(seed)
            assert not wl.compare_outputs(wl.exact_outputs(res), gold), name
            recorded = {tuple(f) for f in gold["failures"]}
            assert set(checks.failures) <= recorded, (name, checks.failures)


def test_blowup_matches_goldens_on_sec32_and_time_candidates():
    wl = bench_module("workloads")
    gold = wl.load_goldens()["time"]
    seeds = {"sec32": wl.fixture("sec32")[0], **wl.time_candidates()}
    assert len(seeds) == 49
    for name, seed in seeds.items():
        rep = nv.blowup_time(nv.extended_w(seed))
        got = wl.exact_outputs({"w": None, "fw": None, "blowup": rep})
        assert not wl.compare_outputs(got, {"blowup": gold[name]["blowup"]}), name


def test_blowup_grid_strips_match_the_whole_grid_on_the_time_pools():
    """The blow-up search's strips give the extremes and first nodes of the
    whole grid formed the same way bit for bit on every W of the time
    candidates and the cubic pool, at t = 0 and at two later slices."""
    wl = bench_module("workloads")
    seeds = {**wl.time_candidates(), **wl.cubic_pool()}
    xs = np.linspace(nv.BLOWUP_BOX[0], nv.BLOWUP_BOX[1], nv.BLOWUP_GRID_N)
    ys = np.linspace(nv.BLOWUP_BOX[2], nv.BLOWUP_BOX[3], nv.BLOWUP_GRID_N)
    slices = 0
    for name, seed in seeds.items():
        a = nv.extended_w(seed).xy_coefficients().real
        vx = np.vander(xs, a.shape[1], increasing=True)
        vy = np.vander(ys, a.shape[2], increasing=True)
        for t in (0.0, 0.37, 2.5):
            c = algebra._horner_t(a, t)
            assert algebra.grid_extremes(c, vx, vy) == grid_extremes_full_grid(c, vx, vy), \
                (name, t)
            slices += 1
    assert slices == 3 * (wl.TIME_CANDIDATES + wl.CUBIC_POOL) == 162


def test_time_op_passes_every_check_on_cubic_seeds():
    """The benchmark's untimed cubic time ops and the cubic fixture run every
    check of the time op and fail none. The goldens may still record a
    failure on these seeds, and a recorded failure does not fail a run, so
    only this test shows a regression on them."""
    wl = bench_module("workloads")
    seeds = {**wl.cubic_pool(), "sec22_cubic": wl.fixture("sec22_cubic")[0]}
    assert len(seeds) == wl.CUBIC_POOL + 1
    for name, seed in seeds.items():
        checks, res = wl.time_op(seed)
        assert not checks.failures, (name, checks.failures)
        assert res["w"].deg_t() >= 2 and res["blowup"] is not None, name


def test_traced_blowup_counts_minimize_calls(seed32):
    tracing = bench_module("tracing")
    tracer = tracing.Tracer()
    wt = nv.extended_w(seed32)
    uninstall = tracing.install(tracer)
    try:
        tracer.op = "blowup-sec32"
        nv.blowup_time(wt)
    finally:
        tracer.op = None
        uninstall()
    spans = list(tracing.span_dicts(tracer.spans))
    calls = [d for d in spans if d["name"] == "nv.minimize"]
    assert calls and all(d["nfev"] > 0 for d in calls)
    agg = tracing.aggregate(spans)
    assert agg["nv.blowup_time"]["calls"] == 1
    assert agg["nv.minimize"]["nfev"] >= len(calls)


def test_traced_names_keep_their_callers(tmp_path):
    """Every traced function but the two harness I/O helpers and wave_eval,
    which only the cli workload reaches, records a span on the static and
    time ops: a library change that stops calling one fails here instead of
    leaving its per-layer metric empty.  wave_eval is the wave's reader for
    `mnv sample-grid --lambda`, where it records its span; fd_residual
    reads the wave from its own stencil tables."""
    tracing = bench_module("tracing")
    wl = bench_module("workloads")
    sec22, sec32 = wl.fixture("sec22")[0], wl.fixture("sec32")[0]
    seed = tmp_path / "sec22.json"
    wl.hn.save_seed(seed, sec22)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.op = "static-sec22"
        static_checks, _ = wl.static_op(sec22)
        tracer.op = "time-sec32"
        time_checks, _ = wl.time_op(sec32)
        tracer.op = "sample-grid-psi"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sample-grid", "--seed", str(seed), "--grid=-1,1,-1,1,5",
                           "--lambda=1,0", "--out", str(tmp_path / "psi.csv")])
    finally:
        tracer.op = None
        uninstall()
    assert not static_checks.failures and not time_checks.failures and rc == 0
    seen = {}
    for d in tracing.span_dicts(tracer.spans):
        seen.setdefault(d["op"], set()).add(d["name"])
    traced = {f"{mod}.{fn}" for mod, fns in tracing.FUNCTIONS.items() for fn in fns}
    cli_only = {"harness.write_grid_csv", "harness.load_seed", "exppoly.wave_eval"}
    assert traced - cli_only - seen["static-sec22"] - seen["time-sec32"] == set()
    assert cli_only <= seen["sample-grid-psi"]


def test_ops_form_each_hirota_product_once():
    """static_op(sec22): the wave's one residual pass, which forms every
    slot and sets the potential that the finite-difference check reads.
    time_op(sec32): U, the one third-order form of the evolution residual
    (the other is its conjugate), and the wave's one pass, which forms its
    spatial residual, its u and its time leg; V, which no check reads, is
    not formed.  D_z D_zb (W . W) is formed twice on the time op, as U and
    as the wave's u inside its pass."""
    wl = bench_module("workloads")
    sec22, sec32 = wl.fixture("sec22")[0], wl.fixture("sec32")[0]
    assert _build_counts(lambda: wl.static_op(sec22), ("hirota",)) == {"hirota": 1}
    assert _build_counts(lambda: wl.time_op(sec32), ("hirota",)) == {"hirota": 3}


def test_time_op_validates_a_seed_once_per_entry():
    """time_op passes its seed to evolved_seed and to nv_faddeev, and each
    evolves it once, one heat3_evolve per polynomial; the evolved seed passes
    every layer below as it is.  sec32's quadratics are their own evolution,
    so are never evolved."""
    wl = bench_module("workloads")
    sec32, cubic = wl.fixture("sec32")[0], wl.cubic_pool()["tc-0"]
    for seed, calls in ((sec32, 0), (cubic, 4)):
        assert _build_counts(lambda: wl.time_op(seed), ("heat3_evolve",)) == {"heat3_evolve": calls}


def test_ops_expand_each_polynomial_once_and_read_a_wave_in_two_calls(monkeypatch):
    """No polynomial's x-y array is expanded twice.  fd_residual reads W once
    at its 9n^2 stencil points, the wave's lam-summed slots (d + 1 of them
    for a seed of degree d) in one more read at the same points, and u's
    numerator once at the n^2 centres: three `xy_read` calls and no
    `xy_eval`, u's W being the centres' W.  The ray check makes no
    `xy_eval` call: it reads each slot's x-y array once, W's among them, and
    every slot at both lam in one product."""
    wl = bench_module("workloads")
    sec22, cubic, sec32 = (wl.fixture(name)[0] for name in ("sec22", "sec22_cubic", "sec32"))
    expanded, fds, rays, inside = [], [], [], []
    xy_coefficients, xy_eval, xy_read, fd_residual, validate_rays = (
        MPoly.xy_coefficients, algebra.xy_eval, algebra.xy_read, harness.fd_residual,
        faddeev._validate_rays)

    def counted_xy_coefficients(p):
        if p._xy is None:
            expanded.append(p)          # held, so no id is reused
        for reads in inside:            # every open call made it
            reads.append(p)
        return xy_coefficients(p)

    def counted_xy_eval(*args):
        for reads in inside:
            reads.append("xy_eval")
        return xy_eval(*args)

    def counted_xy_read(a, t0, size, tables):
        for reads in inside:
            reads.append((a, size))
        return xy_read(a, t0, size, tables)

    def counted(fn, calls):             # (arguments, reads) per call
        def wrapped(*args, **kwargs):
            inside.append([])
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((args, inside.pop()))
        return wrapped

    monkeypatch.setattr(MPoly, "xy_coefficients", counted_xy_coefficients)
    for module in (algebra, exppoly):
        monkeypatch.setattr(module, "xy_eval", counted_xy_eval)
    for module in (algebra, harness):
        monkeypatch.setattr(module, "xy_read", counted_xy_read)
    monkeypatch.setattr(harness, "fd_residual", counted(fd_residual, fds))
    monkeypatch.setattr(faddeev, "_validate_rays", counted(validate_rays, rays))
    for op, seed in ((wl.static_op, sec22), (wl.static_op, cubic), (wl.time_op, sec32)):
        expanded.clear()
        fds.clear()
        rays.clear()
        checks, _ = op(seed)
        assert not checks.failures
        assert expanded and len({id(p) for p in expanded}) == len(expanded)
        if op is wl.static_op:
            [((u, fw, _, grid, _), reads)] = fds
            points = grid.n * grid.n
            w, num = (p.xy_coefficients() for p in (fw.w, u.num))
            assert "xy_eval" not in reads
            (wa, wsize), (na, nsize), (ma, msize) = [r for r in reads if isinstance(r, tuple)]
            assert wa is w and na is num and ma is not w
            assert (wsize, nsize, msize) == (9 * points, points, 9 * points)
            assert [r for r in reads if isinstance(r, MPoly)] == \
                [fw.w, u.num, *fw.psi.coeffs.values()]
        else:
            assert fds == []
        [((fw, _), reads)] = rays
        assert reads == [fw.psi.coeffs[k] for k in sorted(fw.psi.coeffs)]


def test_nonvanishing_certificate_matches_eval_on_static_candidates():
    """On every static candidate of the benchmark the certificate, which
    evaluates W in its x-y basis, agrees with the sign of W.eval on the same
    201 x 201 grid.  On those and on the two static fixtures, it finds a zero
    exactly when the blow-up search does, which reads the static W as a W of
    t that is constant in t.  Its row strips give the verdict and witness of
    the whole-grid reference everywhere."""
    wl = bench_module("workloads")
    xs = np.linspace(-10.0, 10.0, 201)
    grid = xs[None, :] + 1j * xs[:, None]
    counts = {}
    for name, (seed, _) in wl.static_candidates().items():
        w = double_w(seed)
        rep = nonvanishing_certificate(w)
        assert rep == certificate_full_grid(w), name
        values = w.eval(grid).real
        counts[rep.verdict] = counts.get(rep.verdict, 0) + 1
        if rep.verdict == "certified-positive":
            assert (values > 0).all() or (values < 0).all(), name
        else:
            assert rep.verdict == "zero-found", name
            assert values.min() <= 0.0 <= values.max(), name
        assert (rep.verdict == "zero-found") == nv.blowup_time(w).found, name
    assert counts == {"certified-positive": 99, "zero-found": 149}
    for name in ("sec22", "sec22_cubic"):
        w = double_w(wl.fixture(name)[0])
        rep = nonvanishing_certificate(w)
        assert rep.verdict == "certified-positive" and rep == certificate_full_grid(w), name
        assert not nv.blowup_time(w).found, name


def test_numeric_checks_skip_work_that_cannot_change_their_result(monkeypatch):
    """fd_residual reads W, u's numerator and the wave for both steps at
    once, each in one `xy_read`, and makes no `xy_eval`.  The certificate
    reads W by one grid_product per strip of the whole grid, each strip at
    most once: first the strips that hold the 2m + 3 rows within W's
    dominance radius, m = `moutard.dominance_steps`, and only where those
    do not certify, the other strips, with its rounding scale as a second
    grid of as many strips only where the least |W| is within 64 eps of the
    corner's scale.  sec22's W (m = 22, rows 77 to 123) is certified from
    two strips; the near-zero W of test_moutard (m = 25) reads both whole
    grids, as a read without the radius does; |z|^2 + 150, whose radius is
    past the box, reads the whole grid alone."""
    wl = bench_module("workloads")
    sec22 = wl.fixture("sec22")[0]
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counted(harness, "xy_read")
    counted(exppoly, "xy_eval")
    counted(algebra, "xy_eval")
    counted(algebra, "grid_product")
    fw = build_faddeev(sec22)
    harness.fd_residual(fw.u, fw, 1.0, harness.GridSpec(-2, 2, -2, 2, 7), 1e-2)
    assert calls == ["xy_read"] * 3
    calls.clear()
    strips = -(-moutard.CERTIFICATE_GRID_N // algebra.GRID_STRIP)
    assert strips == 5
    z, zb = MPoly.monomial(1, 0, 0), MPoly.monomial(0, 1, 0)
    for w, steps, verdict, reads in ((fw.w, 22, "certified-positive", 2),
                                     (near_zero_w(), 25, "zero-found", 2 * strips),
                                     (z * zb + MPoly.const(150), None, "certified-positive",
                                      strips)):
        assert moutard.dominance_steps(w) == steps
        calls.clear()
        assert nonvanishing_certificate(w).verdict == verdict
        assert calls == ["grid_product"] * reads


def _definite(w):
    """W's leading form is one t-free monomial C |z|^2d."""
    ((i, j), c), *rest = w.spatial_leading_terms().items()
    return not rest and i == j and c.is_constant()


def _certificate_ws():
    wl = bench_module("workloads")
    ws = {name: double_w(seed) for name, (seed, _) in wl.static_candidates().items()}
    ws.update((name, double_w(wl.fixture(name)[0])) for name in ("sec22", "sec22_cubic"))
    ws["near-zero"] = near_zero_w()
    return ws


def test_dominance_steps_meet_their_inequality_exactly():
    """R = m CERTIFICATE_STEP for m = `moutard.dominance_steps` meets
    |C| R^2d > sum_k S_k R^k, read in exact rationals off W's terms, and
    R less one step does not, on every W of the static candidates, the
    static fixtures and the near-zero W with such a leading form; where m is
    None, the inequality fails at the last step inside the box.  Any other
    leading form has no m."""
    step = moutard.CERTIFICATE_STEP
    assert step == Fraction(1, 10) and moutard.CERTIFICATE_HALF == 100
    found = Counter()
    for name, w in _certificate_ws().items():
        if not _definite(w):
            assert moutard.dominance_steps(w) is None, name
            found["other"] += 1
            continue
        sums = Counter()
        for (i, j, _), c in w.terms.items():
            sums[i + j] += abs(c.re) + abs(c.im)
        top = max(sums)

        def excess(r):
            return sums[top] * r ** top - sum(s * r ** k for k, s in sums.items() if k < top)

        m = moutard.dominance_steps(w)
        if m is None:
            assert excess(99 * step) <= 0, name
        else:
            assert excess(m * step) > 0 >= excess((m - 1) * step), name
        found[m is None] += 1
    assert found == {False: 173, True: 65, "other": 13}


def test_certified_ws_have_the_leading_sign_outside_the_band():
    """On every W that the certificate certifies from the band of strips
    holding the rows within its dominance radius, every row of the whole
    grid outside those rows has the sign of the leading form, as
    `moutard.dominance_steps` proves for the exact W, and the whole-grid
    reference certifies it too."""
    half, certified = moutard.CERTIFICATE_HALF, 0
    for name, w in _certificate_ws().items():
        m = moutard.dominance_steps(w)
        if m is None or nonvanishing_certificate(w).verdict != "certified-positive":
            continue
        assert certificate_full_grid(w).verdict == "certified-positive", name
        a = w.xy_coefficients()[0].real
        xs = np.linspace(-10.0, 10.0, moutard.CERTIFICATE_GRID_N)
        values = grid_product(a, *(np.vander(xs, len(a), increasing=True) for _ in "xy"))
        outside = np.ones(len(values), bool)          # rows, indexed by y
        outside[half - m - 1:half + m + 2] = False
        sign = 1 if next(iter(w.spatial_leading_terms().values())).constant_term().re > 0 else -1
        assert (sign * values[outside] > 0).all(), name
        certified += 1
    # the 99 certified candidates and the two fixtures, less s2-09, s2-32
    # and s2-35, whose radius passes the box: the whole grid certifies them
    assert certified == 98


def test_real_valued_polynomials_read_half_their_terms_to_the_same_bits(monkeypatch):
    """W and u's numerator of every static candidate and of the time and
    cubic pools' extended W are real-valued: `MPoly.xy_coefficients` plans
    only their terms with i <= j and gives the array of the general path,
    every term and both parts (`oracles.xy_coefficients_per_term`), by ==
    and bit for bit.  A polynomial that is not real-valued, a wave's slot,
    plans every term."""
    wl = bench_module("workloads")
    ws = [double_w(seed) for seed, _ in wl.static_candidates().values()]
    ws += [nv.extended_w(nv.evolved_seed(seed)) for seed in
           [*wl.time_candidates().values(), *wl.cubic_pool().values()]]
    fw = build_faddeev(wl.fixture("sec22")[0])
    planned, plan = [], algebra._xy_plan
    monkeypatch.setattr(algebra, "_xy_plan", lambda i, j: planned.append((i, j)) or plan(i, j))
    polys = [p for w in ws for p in (w, moutard.potential(w).num)] + [fw.psi.coeffs[1]]
    assert len(ws) == 248 + 48 + 6
    assert [is_real_valued(p) for p in polys] == [True] * 2 * len(ws) + [False]
    for p in polys:
        p = MPoly.from_numerators(dict(p.numerators), p.denominator)     # not yet read
        planned.clear()
        a = p.xy_coefficients()
        half = is_real_valued(p)
        assert sorted(planned) == sorted((i, j) for i, j, _ in p.numerators if i <= j or not half)
        ref = xy_coefficients_per_term(p)
        assert (a == ref).all() and a.tobytes() == ref.tobytes()


def test_fixed_point_tables_are_built_once_per_width():
    """The certificate's and the blow-up search's axes and power tables and
    the ray check's points' coordinates and tables, the one-point axis [0]
    moved by each (all `algebra.grid_axis`), equal a fresh np.linspace (the
    rays' coordinates) and np.vander bit for bit at every width that the W
    of the static and time candidates use, are read-only, and are the same
    objects on a second call."""
    wl = bench_module("workloads")
    widths = {len(double_w(seed).xy_coefficients()[0]) for seed, _ in
              wl.static_candidates().values()}
    widths |= {len(nv.extended_w(seed).xy_coefficients()[0]) for seed in
               wl.time_candidates().values()}
    assert widths == set(range(4, 12))

    def same(got, fresh):
        assert not got.flags.writeable
        assert got.dtype == fresh.dtype and got.shape == fresh.shape
        assert got.tobytes() == fresh.tobytes()

    for width in sorted(widths):
        for (lo, hi), n in (((-10.0, 10.0), moutard.CERTIFICATE_GRID_N),
                            (nv.BLOWUP_BOX[:2], nv.BLOWUP_GRID_N),
                            (nv.BLOWUP_BOX[2:], nv.BLOWUP_GRID_N)):
            tables = algebra.grid_axis(lo, hi, n, width)
            axis = np.linspace(lo, hi, n)
            for got, fresh in zip(tables, (axis, np.vander(axis, width, increasing=True))):
                same(got, fresh)
            assert algebra.grid_axis(lo, hi, n, width) is tables
        ray = faddeev.RAY_RADIUS * np.exp(1j * (np.arange(6) * (np.pi / 3) + 0.1))
        z = np.outer([1.0, 2.0], ray).ravel()
        for part in (z.real, z.imag):
            tables = algebra.grid_axis(0.0, 0.0, 1, width, *part.tolist())
            fresh = (part, np.vander(part, width, increasing=True))
            for got, want in zip(tables, fresh, strict=True):
                same(got, want)
            assert algebra.grid_axis(0.0, 0.0, 1, width, *part.tolist()) is tables


def test_a_second_op_builds_no_grid_or_ray_table(monkeypatch):
    """A second time_op(sec32) and static_op(sec22) make no np.vander or
    np.linspace call inside scattering_data, nonvanishing_certificate,
    blowup_time or fd_residual: their fixed points' tables come from the
    caches.  (That
    importing moutardnv and moutardnv.cli loads no numpy is
    test_cli.py::test_import_does_not_load_scipy.)"""
    wl = bench_module("workloads")
    sec22, sec32 = wl.fixture("sec22")[0], wl.fixture("sec32")[0]
    inside, made = [], []

    def counted(fn):
        def wrapped(*args, **kwargs):
            inside.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            if inside:
                made.append((inside[-1], name))
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((faddeev, "scattering_data"), (moutard, "nonvanishing_certificate"),
                         (nv, "blowup_time"), (harness, "fd_residual")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    for name in ("vander", "linspace"):
        monkeypatch.setattr(np, name, recorded(name, getattr(np, name)))
    for op, seed in ((wl.time_op, sec32), (wl.static_op, sec22)):
        op(seed)
        made.clear()
        checks, _ = op(seed)
        assert not checks.failures
        assert made == [], op.__name__


@pytest.mark.parametrize("n", [7, 100])
def test_stencil_tables_are_built_once_and_hold_5n_rows(monkeypatch, n):
    """fd_residual's stencil tables (`algebra.grid_axis` of the grid's axes
    moved by 0, h, -h, h/2 and -h/2) hold the 5n distinct x's and y's of
    the 9n^2 stencil points, not a row per point: every np.vander call
    inside fd_residual makes 5n rows, one table per width and distinct
    axis (this grid's x and y axes are one).  Each axis and table is
    read-only, bit-equal to the grid's axis moved by 0, h, -h, h/2 and
    -h/2 and a fresh np.vander of it, and the same object on a second call;
    the stencil points' x's and y's are the axes' values, and the report is
    the reference's."""
    fw = build_faddeev(bench_module("workloads").fixture("sec22")[0])
    grid, h = harness.GridSpec(-2, 2, -2, 2, n), 1e-2
    shapes = []

    def recorded(fn):
        def wrapped(x, width, increasing):
            shapes.append((len(x), width))
            return fn(x, width, increasing=increasing)
        return wrapped

    algebra.grid_axis.cache_clear()
    monkeypatch.setattr(np, "vander", recorded(np.vander))
    rep = harness.fd_residual(fw.u, fw, 1.0, grid, h)
    monkeypatch.undo()
    assert rep.points_used == n * n
    assert rep == fd_residual_by_wave_eval(fw.u, fw, 1.0, grid, h)
    widths = sorted({len(fw.w.xy_coefficients()[0]), len(fw.u.num.xy_coefficients()[0])})
    assert sorted(shapes) == [(5 * n, width) for width in widths]
    xs = np.linspace(-2, 2, n)
    offsets = (0.0, h, -h, h / 2.0, -h / 2.0)
    moved = np.concatenate([xs + offset for offset in offsets])
    steps = (h, h / 2.0)
    shifts = np.array([0.0, *(s for step in steps for s in (step, -step, 1j * step, -1j * step))])
    points = xs[None, :] + 1j * xs[:, None] + shifts[:, None, None]
    for width in widths:
        tables = algebra.grid_axis(-2, 2, n, width, *offsets)
        assert algebra.grid_axis(-2, 2, n, width, *offsets) is tables
        assert not any(table.flags.writeable for table in tables)
        axis, table = tables
        assert axis.tobytes() == moved.tobytes()
        assert set(points.real.ravel()) == set(points.imag.ravel()) == set(axis)
        fresh = np.vander(moved, width, increasing=True)
        assert table.shape == fresh.shape == (5 * n, width)
        assert table.tobytes() == fresh.tobytes()


def test_fd_reports_equal_the_wave_eval_reader_on_static_candidates():
    """On every static candidate of the benchmark, fd_residual's report at
    the grid `mnv verify` uses equals, by ==, that of the reader before its
    stencil tables (`oracles.fd_residual_by_wave_eval`): the same products
    on the same rows give the same bits."""
    wl = bench_module("workloads")
    grid = harness.GridSpec(-2, 2, -2, 2, 7)
    cands = wl.static_candidates()
    assert len(cands) == 248
    for name, (seed, _) in cands.items():
        fw = build_faddeev(seed)
        rep = harness.fd_residual(fw.u, fw, 1.0, grid, 1e-2)
        assert rep == fd_residual_by_wave_eval(fw.u, fw, 1.0, grid, 1e-2), name


def test_nonvanishing_certificate_memory_peak():
    """The benchmark bounds the peak RSS of the static ops, and the
    certificate's 201 x 201 grid is their largest allocation.  It is read in
    strips of GRID_STRIP rows, W and its rounding scale as two matrix
    products each of 1-D power tables, so no array of the whole grid is made:
    within 0.5 MiB (about 1.3 MiB for the whole grid at once)."""
    wl = bench_module("workloads")
    pool = wl.static_pool(wl.load_goldens())
    seed = next(s for s, d in pool.values() if d == 5)
    w = build_frame(seed).w
    tracemalloc.start()
    try:
        rep = nonvanishing_certificate(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict != "zero-found"
    assert peak <= 0.5 * 2 ** 20


def test_blowup_time_memory_peak(seed32):
    """The time ops' largest allocation is the blow-up search's 161 x 161
    grid of one time slice of W.  It is read in strips of GRID_STRIP
    x-columns from 1-D power tables, so no array of the whole grid is made:
    within 0.3 MiB on sec32 (about 0.6 MiB for the whole grid at once)."""
    wt = nv.extended_w(seed32)
    tracemalloc.start()
    try:
        rep = nv.blowup_time(wt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.found and rep.witness == (-1.0, 0.0)
    assert peak <= 0.3 * 2 ** 20


def test_grid_eval_memory_peak(seed22):
    """sample-grid reads u or the wave on the cli workload's 101 x 101 grid:
    `xy_eval` reads the points in blocks of XY_BLOCK, so neither evaluation
    holds more than a few arrays of the grid's size, within 1.0 MiB."""
    fw = build_faddeev(seed22)
    u = fw.u
    xs = np.linspace(-3.0, 3.0, 101)
    z = xs[None, :] + 1j * xs[:, None]
    for evaluate in (lambda: u.eval(z, 0.0), lambda: wave_eval(fw.psi, fw.w, z, 0.0, 1.0)):
        tracemalloc.start()
        try:
            values = evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == z.shape and np.isfinite(values).all()
        assert peak <= 1.0 * 2 ** 20


def test_sample_grid_memory_peak(seed22):
    """sample-grid on a 400 x 400 grid of u holds the grid's complex values
    and turns one row at a time into Python floats, so streaming its points
    peaks within 14 MiB (about 10 MiB; Python lists of the whole grid would
    take about 26)."""
    u = build_faddeev(seed22).u
    grid = harness.GridSpec(-3.0, 3.0, -3.0, 3.0, 400)
    tracemalloc.start()
    try:
        points = sum(1 for _ in harness.sample_grid(u.eval, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points == 400 * 400
    assert peak <= 14 * 2 ** 20
