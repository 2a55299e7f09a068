"""The benchmark patches library names from outside and reads MPoly's
coefficients as GaussianRationals; a rename or a change of the polynomial
core must fail here rather than break the benchmark silently."""

import importlib.util
import os
import sys
import tracemalloc

from moutardnv import nv
from moutardnv.algebra import MPoly
from moutardnv.moutard import build_frame, nonvanishing_certificate

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


def test_blowup_matches_goldens_on_sec32_and_time_candidates():
    wl = bench_module("workloads")
    gold = wl.load_goldens()["time"]
    seeds = {"sec32": wl.fixture("sec32")[0], **wl.time_candidates()}
    assert len(seeds) == 49
    for name, seed in seeds.items():
        rep = nv.blowup_time(nv.extended_w(seed))
        got = wl.exact_outputs({"w": None, "fw": None, "blowup": rep})
        assert not wl.compare_outputs(got, {"blowup": gold[name]["blowup"]}), name


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


def test_nonvanishing_certificate_memory_peak():
    """The benchmark bounds the peak RSS of the static ops, and the
    certificate's 201 x 201 grid is their largest allocation: evaluating W
    there builds no table of powers and stays within 4.0 MiB."""
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
    assert peak <= 4.0 * 2 ** 20
