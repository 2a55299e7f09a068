"""moutardnv benchmark.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Workloads (see BENCHMARK.json): static-exact, time-evolution, cli.

With --trace 0 the run generates the workload's inputs from --seed, times
whole passes over them in one process for about --seconds (at least two
passes and 21 timed ops), checks every output against bench/goldens.json
and prints the end-to-end metrics; the time of every timed op and set-up
interpreter is scaled to a reference machine speed (see speed_scale). With
--trace 1 it runs one pass with every op untraced and traced back to back,
runs the fixture self-test traced, and prints the per-module metrics; spans
are recorded around the public functions of the library from outside
(bench/tracing.py).
Per-run files (inputs, manifest, report, spans) go to .bench_build/moutardnv/.
The last line of stdout is one JSON object with the result.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Load comes from this one process with no threads, so that on a machine with
# few cores the benchmark does not compete with itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("static-exact", "time-evolution", "cli")
MIN_PASSES = 2
# so that the tail, ten samples from the top, lies above the median; with 9
# calls a pass, cli needs three passes and measures longer than the others
MIN_SAMPLES = 21
SETUP_REPEATS = 5
REF_LOOP_S = 0.005       # the speed_scale loop's time at the reference speed
PROBE_REPEATS = 11
SETUP_CODE = ("import sys, moutardnv\n"
              "from moutardnv.harness import load_seed\n"
              "for p in sys.argv[1:]:\n"
              "    load_seed(p)\n")

# span name -> the per-module metrics reported from it
SPAN_METRICS = {
    "algebra.MPoly.mul": ("calls", "term_pairs", "self_s", "fill"),
    "algebra.MPoly.eval": ("calls", "self_s"),
    "exppoly.wave_eval": ("calls", "self_s"),
    "exppoly.wave_antideriv_z": ("self_s",),
    "moutard.moutard_transform_wave": ("self_s",),
    "moutard.build_frame": ("self_s",),
    "moutard.nonvanishing_certificate": ("self_s",),
    "faddeev.faddeev_superpose": ("self_s",),
    "faddeev.residual": ("self_s",),
    "faddeev.scattering_data": ("self_s", "failed"),
    "harness.fd_residual": ("self_s",),
    "nv.extended_w": ("self_s", "failed"),
    "nv.nv_potentials": ("self_s",),
    "nv.nv_residual": ("self_s",),
    "nv.nv_faddeev": ("self_s",),
    "nv.temporal_residual": ("self_s",),
    "nv.blowup_time": ("self_s", "minimize_calls", "nfev"),
    "harness.sample_grid": ("points", "self_s"),
    "harness.write_grid_csv": ("self_s",),
    "harness.load_seed": ("self_s",),
}
CLI_COMMANDS = ("verify", "scatter", "blowup", "potential", "faddeev", "sample-grid")
UNITS = {"calls": "count", "term_pairs": "count", "self_s": "s", "fill": "ratio",
         "failed": "count", "minimize_calls": "count", "nfev": "count", "points": "count"}


def die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


class Tally:
    """Attempted and failed ops, failing stages, and golden mismatches.

    A check failure recorded in the op's golden is a known defect of the
    library at the commit the goldens were recorded at (the ray check on
    degree-5 static seeds, NotEvolved on cubic time seeds). It is counted in
    `known_defect` and `failed_share` and listed by stage, but the op is not
    failed: it did what the recorded program does, and every check still ran.
    An op fails if a check fails that its golden does not record, or if an
    output differs from its golden; both are also problems, so the run is not
    correct. A fix that makes a recorded check pass fails nothing."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.stages = Counter()
        self.mismatches = []

    def add(self, op_id, failures, mismatches, known=()):
        self.attempted += 1
        unexpected = [f for f in failures if f not in known]
        if unexpected or mismatches:
            self.failed += 1
        elif failures:
            self.known_defect += 1
        for stage in failures:
            self.stages[stage] += 1
        self.mismatches += [f"{op_id}: {m}" for m in mismatches]
        self.mismatches += [f"{op_id}: check failed, not in its golden: {f}" for f in unexpected]

    def failed_share(self):
        """Ops with any failing check or mismatch, known defects included."""
        return (self.failed + self.known_defect) / max(self.attempted, 1)


class Runner:
    def __init__(self, wl, plan, goldens, tally):
        self.wl = wl
        self.plan = plan
        self.goldens = goldens
        self.tally = tally
        self.seeds = {}
        self.sizes = []          # (max coefficient bits, output terms) per traced op
        self.cli_walls = []      # (command, wall s) of untraced cli calls
        self.timings = []        # (op id, wall s[, speed scale]), in run order

    def load_inputs(self):
        for inp in self.plan.inputs:
            if inp.kind != "cli-seed":
                self.seeds[inp.id] = self.wl.hn.load_seed(inp.path)[0]

    def run_input(self, inp, tracer=None, label=None):
        wl = self.wl
        op = wl.static_op if inp.kind == "static" else wl.time_op
        seed = self.seeds[inp.id]
        gc.collect()
        gc.freeze()          # the benchmark's own objects stay out of timed collections
        if tracer is not None:
            tracer.op = label or inp.id
        t0 = time.perf_counter()
        ck, res = op(seed)
        dt = time.perf_counter() - t0
        self.timings.append((inp.id, dt))
        if tracer is not None:
            tracer.op = None
            self.sizes.append(wl.object_size(res))
        gold = self.goldens[inp.kind][inp.id]
        self.tally.add(inp.id, [f"{s} {e}" for s, e in ck.failures],
                       wl.compare_outputs(wl.exact_outputs(res), gold),
                       {f"{s} {e}" for s, e in gold.get("failures", [])})
        return dt

    def run_cli(self, op, cwd, spans_file=None):
        wl = self.wl
        out_file = op[2]
        if out_file is not None:
            (Path(cwd) / out_file).unlink(missing_ok=True)
        rc, stdout, stderr, wall = wl.run_child(wl.cli_argv(op, spans_file), cwd)
        if spans_file is None:
            self.cli_walls.append((op[1][0], wall))
        self.timings.append((op[0], wall))
        failures = [] if rc == 0 else [f"exit {rc}"]
        if rc not in (0, 1):
            failures.append(stderr.strip().splitlines()[-1] if stderr.strip() else "no stderr")
        got = wl.cli_outputs(op, rc, stdout, cwd)
        self.tally.add(op[0], failures, wl.compare_cli(op[0], got, self.goldens["cli"][op[0]]))
        return wall

    def items(self):
        """The timed ops of one pass, in order."""
        if self.plan.workload == "cli":
            return list(self.plan.cli_ops)
        return [inp for inp in self.plan.inputs if inp.timed]

    def run_item(self, item, tracer=None, spans_dir=None):
        if self.plan.workload != "cli":
            return self.run_input(item, tracer)
        spans_file = None if spans_dir is None else spans_dir / f"{item[0]}.jsonl"
        return self.run_cli(item, self.plan.dir, spans_file)


def speed_scale():
    """REF_LOOP_S over the median of seven timings of a fixed stdlib Fraction loop.

    The CPU speed of a shared virtual machine drifts: on a 2-core VM the loop
    took from 4.6 to 8.4 ms within 90 s, and process CPU time drifted with
    wall time. A wall time times the mean of this call's results just before
    and just after it drifts much less: over 160 s on that VM the quartile
    spread of one repeated op fell from 0.29 to 0.07 of its median in
    process, and from 0.22 to 0.13 for one `mnv` process. The loop uses no
    code of the repo, so a change to the library moves only the op's time."""
    loops = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1500):
            acc += Fraction(1, i)
        loops.append(time.perf_counter() - t0)
    return REF_LOOP_S / statistics.median(loops)


def measure_setup(wl, plan):
    files = [str(inp.path) for inp in plan.inputs]
    walls = []
    before = speed_scale()
    for _ in range(SETUP_REPEATS):
        rc, _, err, wall = wl.run_child([sys.executable, "-c", SETUP_CODE, *files], plan.dir)
        if rc != 0:
            die(f"set-up interpreter failed: {err.strip()}")
        after = speed_scale()
        walls.append(wall * (before + after) / 2)
        before = after
    return statistics.median(walls)


def tail(samples, pass_size):
    """(percentile, value) of the tail.

    The percentile is the highest one with at least ten samples beyond it in
    the shortest run this workload can make (MIN_PASSES passes and
    MIN_SAMPLES ops), so it stays the same however many passes fit into
    --seconds; the value is the nearest-rank percentile of all samples."""
    n_min = pass_size * max(MIN_PASSES, -(-MIN_SAMPLES // pass_size))
    share = Fraction(n_min - 10, n_min)
    s = sorted(samples)
    rank = math.ceil(share * len(s))
    return float(100 * share), s[rank - 1]


def self_checks(wl, goldens, plan, workdir):
    """Generator determinism and a negative test of the output check."""
    problems = []
    again = wl.plan(plan.workload, plan.seed, goldens, workdir / "regen")
    for a, b in zip(plan.inputs, again.inputs):
        if a.path.read_bytes() != b.path.read_bytes():
            problems.append(f"generator not deterministic for {a.id}")
    if (plan.dir / "manifest.json").read_bytes() != (again.dir / "manifest.json").read_bytes():
        problems.append("manifest not deterministic")
    for inp in plan.inputs:
        if inp.kind != "cli-seed" and \
                goldens[inp.kind][inp.id]["seed_sha"] != wl.file_sha(inp.path):
            problems.append(f"input {inp.id} differs from the recorded one")

    # one corrupted coefficient of W must be caught
    from moutardnv.algebra import MPoly
    seed, _ = wl.fixture("sec22")
    w = wl.mt.double_w(seed)
    gold = goldens["static"]["sec22"]
    if wl.compare_outputs({"w": wl.exact_outputs({"w": w, "fw": None})["w"]}, {"w": gold["w"]}):
        problems.append("uncorrupted W does not match its golden")
    (i, j, k), _ = w.sorted_terms()[0]
    bad = w + MPoly.monomial(i, j, k, wl.gr(1))
    if not wl.compare_outputs({"w": wl.exact_outputs({"w": bad, "fw": None})["w"]},
                              {"w": gold["w"]}):
        problems.append("a corrupted coefficient of W was not caught")
    return problems


def measure(seconds, wl, goldens, plan, tally):
    runner = Runner(wl, plan, goldens, tally)
    runner.load_inputs()
    setup_s = measure_setup(wl, plan)
    for inp in plan.inputs:
        if inp.kind != "cli-seed" and not inp.timed:
            runner.run_input(inp)          # counts toward failures, not timing
    samples, scales = [], []
    passes = 0
    t_start = time.perf_counter()
    before = speed_scale()
    while True:
        t0 = time.perf_counter()
        for item in runner.items():
            wall = runner.run_item(item)
            after = speed_scale()
            scale = (before + after) / 2
            samples.append(wall * scale)
            scales.append(scale)
            runner.timings[-1] += (scale,)
            before = after
        last = time.perf_counter() - t0
        passes += 1
        if passes >= MIN_PASSES and len(samples) >= MIN_SAMPLES \
                and time.perf_counter() - t_start + last > seconds:
            break
    q, tail_value = tail(samples, len(runner.items()))
    if plan.workload == "cli":
        # the largest reaped child: the cli calls and the set-up interpreters
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.tail": (tail_value, "s"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"passes": passes, "samples": len(samples), "tail_percentile": round(q, 2),
            "measured_s": time.perf_counter() - t_start,
            "speed_scale.min": min(scales), "speed_scale.max": max(scales)}
    return metrics, info, runner.timings


def traced(wl, goldens, plan, tally, problems):
    import tracing
    runner = Runner(wl, plan, goldens, tally)
    spans_dir = plan.dir / "spans"
    spans_dir.mkdir()
    tracer = tracing.Tracer()
    runner.load_inputs()
    # each op runs untraced and traced back to back, in alternating order, so
    # that slow phases of the machine and warm-up fall on both sides alike
    plain, samples = [], []
    for n, item in enumerate(runner.items()):
        for traced_run in ((False, True) if n % 2 == 0 else (True, False)):
            if not traced_run:
                plain.append(runner.run_item(item))
                continue
            uninstall = tracing.install(tracer)
            try:
                samples.append(runner.run_item(item, tracer, spans_dir))
            finally:
                uninstall()
    untraced_s, traced_s = sum(plain), sum(samples)

    uninstall = tracing.install(tracer)
    try:
        tracer.op = "load"                 # load_seed spans
        runner.load_inputs()
        tracer.op = None
        for inp in plan.inputs:
            if inp.kind != "cli-seed" and not inp.timed:
                runner.run_input(inp, tracer)
        fixture_selftest(wl, goldens, tally, tracer, plan.dir)
    finally:
        uninstall()

    spans = list(tracing.span_dicts(tracer.spans))
    # cli children, one file per call
    for prefix, d in (("", spans_dir), ("selftest/", plan.dir / "selftest" / "spans")):
        for f in sorted(d.glob("*.jsonl")):
            spans += [dict(s, op=prefix + f.stem) for s in tracing.read_spans(f)]
    tracing.write_spans(plan.dir / "spans.jsonl", spans)

    fired = {d["name"] for d in spans if str(d["op"]).startswith("selftest/")}
    for name in SPAN_METRICS:
        if name not in fired:
            problems.append(f"span {name} did not fire on the fixture ops")
    # the workload's own figures; the self-test spans only prove coverage
    own = [d for d in spans if not str(d["op"]).startswith("selftest/")]
    agg = tracing.aggregate(own)
    metrics = {}
    for name, quantities in SPAN_METRICS.items():
        a = agg.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        for qty in quantities:
            if qty == "fill":
                value = a.get("out_terms", 0) / max(a.get("term_pairs", 0), 1)
            elif qty in ("minimize_calls", "nfev"):
                m = agg.get("nv.minimize", {"calls": 0})
                value = m["calls"] if qty == "minimize_calls" else m.get("nfev", 0)
            else:
                value = a.get(qty, 0)
            metrics[f"{name}.{qty}"] = (value, UNITS[qty])
    # a metric that does not apply to the workload reads 0
    imports = [d["dur"] for d in own if d["name"] == "cli.import"]
    metrics["cli.import_s"] = (median0(imports), "s")
    for cmd in CLI_COMMANDS:
        walls = [w for c, w in runner.cli_walls if c == cmd]
        metrics[f"cli.{cmd}.wall_s"] = (median0(walls), "s")
    metrics["algebra.max_coeff_bits"] = (max((b for b, _ in runner.sizes), default=0), "bits")
    metrics["algebra.output_terms"] = (max((t for _, t in runner.sizes), default=0), "count")
    probe_s, na, nb = mul_probe(wl)
    metrics["algebra.mpoly_mul.probe_s"] = (probe_s, "s")
    metrics["algebra.mpoly_mul.probe_terms_a"] = (na, "count")
    metrics["algebra.mpoly_mul.probe_terms_b"] = (nb, "count")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "share")
    info = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s, "spans": len(spans)}
    return metrics, info, runner.timings


def median0(values):
    return statistics.median(values) if values else 0


def fixture_selftest(wl, goldens, tally, tracer, workdir):
    """Every fixture op, traced and checked against its golden: static sec22
    and sec22_cubic, time sec32, and all cli ops. Their spans carry the op
    label selftest/<name>; they have a runner of their own, so that none of
    their sizes or walls enter the workload's metrics."""
    runner = Runner(wl, None, goldens, tally)
    d = workdir / "selftest"
    for sub in ("inputs", "out", "spans"):
        (d / sub).mkdir(parents=True)
    for name, kind in (("sec22", "static"), ("sec22_cubic", "static"), ("sec32", "time")):
        tracer.op = f"selftest/{name}"
        seed, time_flag = wl.fixture(name)
        path = d / "inputs" / f"{name}.json"
        wl.hn.save_seed(path, seed, time_flag)
        runner.seeds[name] = wl.hn.load_seed(path)[0]
        runner.run_input(wl.Input(name, kind, "fixture", False, path), tracer, f"selftest/{name}")
    for op in wl.CLI_OPS:
        runner.run_cli(op, d, d / "spans" / f"{op[0]}.jsonl")


def mul_probe(wl):
    """W^3 * W of one fixed-RNG degree-3 seed, untraced; median of repeats."""
    w = wl.mt.double_w(wl.probe_seed())
    w3 = w * w * w
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        w3 * w
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(w3.terms), len(w.terms)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "moutardnv" / "__init__.py").is_file():
        die(f"no moutardnv sources under {src}")
    sys.path.insert(0, str(src))
    import moutardnv
    if Path(moutardnv.__file__).resolve().parent != (src / "moutardnv").resolve():
        die(f"moutardnv was imported from {moutardnv.__file__}, not from {src}")
    import workloads as wl
    if not wl.GOLDENS.is_file():
        die("bench/goldens.json is missing")
    goldens = wl.load_goldens()

    workdir = ROOT / ".bench_build" / "moutardnv" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = wl.plan(args.workload, args.seed, goldens, workdir)
    problems = self_checks(wl, goldens, plan, workdir)
    tally = Tally()
    if args.trace:
        metrics, info, timings = traced(wl, goldens, plan, tally, problems)
    else:
        metrics, info, timings = measure(args.seconds, wl, goldens, plan, tally)
    problems += tally.mismatches
    correct = not problems
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {(m["name"], m["unit"]) for m in listed} != {(k, u) for k, (_, u) in metrics.items()}:
        die("the metrics of this run differ from those listed in BENCHMARK.json")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": correct, "problems": problems, "attempted": tally.attempted,
              "failed": tally.failed, "known_defect": tally.known_defect,
              "failed_share": tally.failed_share(),
              "failed_stages": dict(sorted(tally.stages.items())),
              "info": info, "timings": timings,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(workdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    for key, value in info.items():
        print(f"  {key:44s} {value:>14.6g}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}  "
          f"known defect {tally.known_defect}  failed_share {tally.failed_share():.4f}")
    for stage, n in sorted(tally.stages.items()):
        print(f"    failed stage: {stage} x{n}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
