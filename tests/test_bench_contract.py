"""The benchmark patches library names from outside and reads MPoly's
coefficients as GaussianRationals; a rename or a change of the polynomial
core must fail here rather than break the benchmark silently."""

import contextlib
import importlib.util
import io
import os
import sys
import tracemalloc

import numpy as np

from moutardnv import algebra, cli, exppoly, faddeev, harness, moutard, nv
from moutardnv.algebra import MPoly
from moutardnv.exppoly import wave_eval
from moutardnv.faddeev import build_faddeev
from moutardnv.moutard import build_frame, double_w, nonvanishing_certificate

from oracles import certificate_full_grid, grid_extremes_full_grid
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


def test_traced_names_keep_their_callers():
    """Every traced function but the two harness I/O helpers, which only the
    cli workload reaches, records a span on the static and time ops: a
    library change that stops calling one fails here instead of leaving its
    per-layer metric empty."""
    tracing = bench_module("tracing")
    wl = bench_module("workloads")
    sec22, sec32 = wl.fixture("sec22")[0], wl.fixture("sec32")[0]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.op = "static-sec22"
        static_checks, _ = wl.static_op(sec22)
        tracer.op = "time-sec32"
        time_checks, _ = wl.time_op(sec32)
    finally:
        tracer.op = None
        uninstall()
    assert not static_checks.failures and not time_checks.failures
    seen = {d["name"] for d in tracing.span_dicts(tracer.spans)}
    traced = {f"{mod}.{fn}" for mod, fns in tracing.FUNCTIONS.items() for fn in fns}
    assert traced - {"harness.write_grid_csv", "harness.load_seed"} - seen == set()


def test_ops_form_each_hirota_product_once():
    """static_op(sec22): the wave residual and the potential that the
    finite-difference check reads.  time_op(sec32): U, the one third-order
    form of the evolution residual (the other is its conjugate), and the
    wave's two residuals; V, which no check reads, is not formed."""
    wl = bench_module("workloads")
    sec22, sec32 = wl.fixture("sec22")[0], wl.fixture("sec32")[0]
    assert _build_counts(lambda: wl.static_op(sec22), ("hirota",)) == {"hirota": 2}
    assert _build_counts(lambda: wl.time_op(sec32), ("hirota",)) == {"hirota": 4}


def test_time_op_validates_a_seed_once_per_entry():
    """time_op passes its seed to evolved_seed and to nv_faddeev, and each
    evolves it once, one heat3_evolve per polynomial (sec32's quadratics are
    their own evolution); the evolved seed passes every layer below as it is."""
    wl = bench_module("workloads")
    sec32, cubic = wl.fixture("sec32")[0], wl.cubic_pool()["tc-0"]
    for seed in (sec32, cubic):
        assert _build_counts(lambda: wl.time_op(seed), ("heat3_evolve",)) == {"heat3_evolve": 4}


def test_ops_expand_each_polynomial_once_and_read_a_wave_in_two_calls(monkeypatch):
    """No polynomial's x-y array is expanded twice.  Each wave_multiplier
    call reads the lam-summed numerator in one `xy_eval` and W, when the
    wave carries it, in another, whatever the number of slots (d + 1 for a
    seed of degree d).  The ray check reads the slots without W at its two
    lam and W once: three `xy_eval` calls."""
    wl = bench_module("workloads")
    sec22, cubic, sec32 = (wl.fixture(name)[0] for name in ("sec22", "sec22_cubic", "sec32"))
    expanded, per_call, rays, inside = [], [], [], []
    xy_coefficients, xy_eval, multiplier, validate_rays = (
        MPoly.xy_coefficients, algebra.xy_eval, exppoly.wave_multiplier, faddeev._validate_rays)

    def counted_xy_coefficients(p):
        if p._xy is None:
            expanded.append(p)          # held, so no id is reused
        return xy_coefficients(p)

    def counted_xy_eval(*args):
        inside[:] = [n + 1 for n in inside]     # every open call made it
        return xy_eval(*args)

    def counted(fn, calls):             # (first argument, xy_eval calls) per call
        def wrapped(*args, **kwargs):
            inside.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((args[0], inside.pop()))
        return wrapped

    monkeypatch.setattr(MPoly, "xy_coefficients", counted_xy_coefficients)
    for module in (algebra, exppoly):
        monkeypatch.setattr(module, "xy_eval", counted_xy_eval)
    for module in (exppoly, faddeev):
        monkeypatch.setattr(module, "wave_multiplier", counted(multiplier, per_call))
    monkeypatch.setattr(faddeev, "_validate_rays", counted(validate_rays, rays))
    for op, seed in ((wl.static_op, sec22), (wl.static_op, cubic), (wl.time_op, sec32)):
        expanded.clear()
        per_call.clear()
        rays.clear()
        checks, _ = op(seed)
        assert not checks.failures
        assert expanded and len({id(p) for p in expanded}) == len(expanded)
        assert per_call and all(n == 1 + (wave.den is not None) for wave, n in per_call)
        assert [n for _, n in rays] == [3]


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
    """fd_residual reads the wave once for both steps.  The certificate reads
    W by one grid_product per strip, and its rounding scale, as a second
    grid of as many strips, only where the least |W| is within 64 eps of the
    corner's scale: on sec22's W it is not, on the near-zero W of
    test_moutard it is."""
    wl = bench_module("workloads")
    sec22 = wl.fixture("sec22")[0]
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counted(harness, "wave_eval")
    counted(algebra, "grid_product")
    fw = build_faddeev(sec22)
    harness.fd_residual(fw.u, fw, 1.0, harness.GridSpec(-2, 2, -2, 2, 7), 1e-2)
    assert calls == ["wave_eval"]
    strips = -(-moutard.CERTIFICATE_GRID_N // algebra.GRID_STRIP)
    assert strips == 5
    calls.clear()
    assert nonvanishing_certificate(fw.w).verdict == "certified-positive"
    assert calls == ["grid_product"] * strips
    calls.clear()
    assert nonvanishing_certificate(near_zero_w()).verdict == "zero-found"
    assert calls == ["grid_product"] * (2 * strips)


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
    for evaluate in (lambda: u.eval(z, 0.0), lambda: wave_eval(fw.psi, z, 0.0, 1.0)):
        tracemalloc.start()
        try:
            values = evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == z.shape and np.isfinite(values).all()
        assert peak <= 1.0 * 2 ** 20
