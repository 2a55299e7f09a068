"""Inputs, operations and output checks of the three workloads.

Seeds of random ops come from fixed pools drawn with fixed RNG seeds, the
polynomials as `tests/test_properties.random_seed` draws them. `goldens.json`
holds the outputs of every pool member, recorded by `record_goldens.py`, and
which static candidates are admissible and which blow-up branch each time
candidate takes. The workload seed only chooses which pool members a run uses
and in what order, so every input of every run has a golden. The library sees
only the seed files written here with `harness.save_seed`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
GOLDENS = BENCH / "goldens.json"

from moutardnv import faddeev as fd  # noqa: E402
from moutardnv import harness as hn  # noqa: E402
from moutardnv import moutard as mt  # noqa: E402
from moutardnv import nv  # noqa: E402
from moutardnv.algebra import GaussianRational, MPoly  # noqa: E402
from moutardnv.errors import AsymptoticMismatch  # noqa: E402
from moutardnv.moutard import SeedPair  # noqa: E402

STATIC_POOL_SEED = 20260824
TIME_POOL_SEED = 32
CUBIC_POOL_SEED = 33
PROBE_SEED = 3

# degree -> (pool size, drawn per pass); sec22 adds a degree-2 and
# sec22_cubic a degree-3 op to every pass. Most ops are of degree 3, so that
# the median and the tail both fall among ops of one kind and cost.
STATIC_DRAW = {2: (6, 3), 3: (16, 14), 4: (6, 2), 5: (3, 1)}
# blow-up branch -> (pool size, drawn per pass); sec32 adds a "blowup" op.
# The 11 draws per pass follow the branch shares of the 48 candidates in
# goldens.json (24 zero-at-0, 17 blowup, 7 none), by largest remainder. A run
# leaves out one pool member per branch: the branches' costs differ 10-fold
# (about 0.3, 1-2 and 3 s), so the median and tail of 24 samples lie where
# the branches meet, and a larger pool would move them with the seed.
TIME_DRAW = {"zero-at-0": (6, 5), "blowup": (5, 4), "none": (3, 2)}
TIME_CANDIDATES = 48
STATIC_CANDIDATES = 8
CUBIC_POOL, CUBIC_DRAW = 6, 2

NUM_RTOL = 1e-9          # CSV values
T_STAR_TOL = 1e-6        # blow-up time, absolute
WITNESS_TOL = 1e-4       # blow-up witness coordinates, absolute
CSV_SAMPLE_EVERY = 50

WHY = {
    "static-exact": "exact MPoly products of the static verify checks: "
                    "an integer core or one fraction type shows here; "
                    "SciPy or evaluator changes should not",
    "time-evolution": "blow-up search and PowerFrac residuals in t of the time "
                      "verify branch: SciPy, search and evaluator changes show here",
    "cli": "whole mnv calls, import included: per-point eval, printing and "
           "JSON/CSV output instead of large products",
}
TIMED_DEGREE = {"static-exact": "2-5", "time-evolution": "2", "cli": "2-3 (fixtures)"}


# ---------------------------------------------------------------------------
# seed generation

def gr(re_, im=0):
    return GaussianRational(Fraction(re_), Fraction(im))


def random_holomorphic(rng, max_deg):
    p = MPoly.zero()
    for n in range(1, max_deg + 1):
        re_ = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + MPoly.monomial(n, 0, 0, GaussianRational(re_, im))
    return p


def random_seed(rng, max_deg, c=None):
    while True:
        p1 = random_holomorphic(rng, max_deg)
        p2 = random_holomorphic(rng, max_deg)
        if not (p1.is_zero() or p2.is_zero()):
            return SeedPair(p1, p2, gr(rng.choice([-1000, 1000]) if c is None else c))


def static_seed(rng, d):
    """A random seed whose c = ±1000 takes the sign of W's leading form
    -2 Im(a conj(b)) |z|^(2d), so that W has one sign at 0 and at infinity."""
    s = random_seed(rng, d)
    a, b = s.p1.coeff(d, 0), s.p2.coeff(d, 0)
    return SeedPair(s.p1, s.p2, gr(1000 if (a * b.conjugate()).im < 0 else -1000))


def fixture(name):
    return hn.load_seed(FIXTURES / f"{name}.json")


def static_candidates():
    """id -> (seed, degree): STATIC_CANDIDATES draws for each pool slot."""
    rng = random.Random(STATIC_POOL_SEED)
    out = {}
    for d, (size, _) in STATIC_DRAW.items():
        for n in range(size * STATIC_CANDIDATES):
            out[f"s{d}-{n:02d}"] = (static_seed(rng, d), d)
    return out


def static_pool(goldens):
    """The first admissible candidates of each degree; see
    record_goldens.admissible."""
    cands = static_candidates()
    out = {}
    for d, (size, _) in STATIC_DRAW.items():
        ids = [i for i, (_, deg) in cands.items()
               if deg == d and goldens["static"][i]["admissible"]][:size]
        if len(ids) < size:
            raise RuntimeError(f"static pool has {len(ids)} degree-{d} seeds, needs {size}")
        out.update((i, cands[i]) for i in ids)
    return out


def _perturb(rng, p):
    acc = MPoly.zero()
    for (i, _, _), c in p.sorted_terms():
        acc = acc + MPoly.monomial(i, 0, 0, GaussianRational(
            c.re + Fraction(rng.randint(-4, 4), 4), c.im + Fraction(rng.randint(-4, 4), 4)))
    return acc


def time_candidates():
    """id -> seed: rational perturbations of sec32's coefficients, degree 2."""
    base, _ = fixture("sec32")
    rng = random.Random(TIME_POOL_SEED)
    out = {}
    while len(out) < TIME_CANDIDATES:
        p1, p2 = _perturb(rng, base.p1), _perturb(rng, base.p2)
        if p1.deg_z() == 2 and p2.deg_z() == 2:
            out[f"tp-{len(out):02d}"] = SeedPair(p1, p2, base.c)
    return out


def cubic_pool():
    rng = random.Random(CUBIC_POOL_SEED)
    return {f"tc-{n}": random_seed(rng, 3, c=-20) for n in range(CUBIC_POOL)}


def probe_seed():
    return random_seed(random.Random(PROBE_SEED), 3)


@dataclass
class Input:
    id: str
    kind: str            # "static" | "time" | "cli-seed"
    stratum: str
    timed: bool
    path: Path = None


@dataclass
class Plan:
    workload: str
    seed: int
    dir: Path
    inputs: list                       # Input, in pass order
    cli_ops: list = field(default_factory=list)


def file_sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def plan(workload, seed, goldens, workdir: Path) -> Plan:
    """Draw the run's inputs from the pools and write them with save_seed.

    The same workload seed gives the same files, byte for byte."""
    rng = random.Random(f"{workload}:{seed}")
    indir = workdir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    chosen = []                        # (Input, SeedPair, time flag)
    if workload == "static-exact":
        pool = static_pool(goldens)
        for name, deg in (("sec22", 2), ("sec22_cubic", 3)):
            chosen.append((Input(name, "static", f"degree-{deg}", True), fixture(name)[0], False))
        for d, (size, k) in STATIC_DRAW.items():
            ids = sorted(i for i, (_, deg) in pool.items() if deg == d)
            for i in rng.sample(ids, k):
                chosen.append((Input(i, "static", f"degree-{d}", True), pool[i][0], False))
    elif workload == "time-evolution":
        cands = time_candidates()
        chosen.append((Input("sec32", "time", "blowup", True), fixture("sec32")[0], True))
        for stratum, (size, k) in TIME_DRAW.items():
            ids = [i for i in sorted(cands) if goldens["time"][i]["stratum"] == stratum][:size]
            if len(ids) < size:
                raise RuntimeError(f"time pool has {len(ids)} '{stratum}' seeds, needs {size}")
            for i in rng.sample(ids, k):
                chosen.append((Input(i, "time", stratum, True), cands[i], True))
        cubics = cubic_pool()
        for i in rng.sample(sorted(cubics), CUBIC_DRAW):
            chosen.append((Input(i, "time", "cubic", False), cubics[i], True))
    elif workload == "cli":
        for name in ("sec22", "sec22_cubic", "sec32"):
            s, t = fixture(name)
            chosen.append((Input(name, "cli-seed", "fixture", False), s, t))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    timed = [c for c in chosen if c[0].timed]
    untimed = [c for c in chosen if not c[0].timed]
    rng.shuffle(timed)
    inputs = []
    for inp, s, t in timed + untimed:
        inp.path = indir / f"{inp.id}.json"
        hn.save_seed(inp.path, s, t)
        inputs.append(inp)
    p = Plan(workload, seed, workdir, inputs)
    if workload == "cli":
        (workdir / "out").mkdir(exist_ok=True)
        p.cli_ops = list(CLI_OPS)
        rng.shuffle(p.cli_ops)
    manifest = {
        "workload": workload, "seed": seed, "why": WHY[workload],
        "timed_degree": TIMED_DEGREE[workload],
        "inputs": [{"id": i.id, "file": f"inputs/{i.path.name}", "sha256": file_sha(i.path),
                    "stratum": i.stratum, "timed": i.timed} for i in inputs],
        "cli_ops": [op[0] for op in p.cli_ops],
    }
    with open(workdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return p


# ---------------------------------------------------------------------------
# in-process ops: the checks `mnv verify` runs, every check attempted

class Checks:
    """Runs each check, records the failing stage and error type, goes on."""

    def __init__(self):
        self.failures = []

    def run(self, stage, fn):
        try:
            return fn()
        except Exception as exc:  # a failing check is recorded, not fatal
            self.failures.append((stage, type(exc).__name__))
            return None


def static_op(seed):
    ck = Checks()
    frame = ck.run("frame-build", lambda: mt.build_frame(seed))
    fw = ck.run("wave-residual-exact", lambda: fd.build_faddeev(seed))
    sd = None
    if fw is not None:
        ck.run("decay-bookkeeping", lambda: fd.assert_decay_bookkeeping(fw))
        sd = ck.run("scattering-exact-vs-rays", lambda: fd.scattering_data(fw))

        def fd_order():
            rep = hn.fd_residual(fw.u, fw, 1.0, hn.GridSpec(-2, 2, -2, 2, 7), 1e-2)
            if rep.order < 1.9:
                raise ArithmeticError(f"order {rep.order:.2f} < 1.9")

        ck.run("finite-difference-order", fd_order)
    if frame is not None:
        def nonvanish():
            rep = mt.nonvanishing_certificate(frame.w)
            if rep.verdict == "zero-found":
                raise ArithmeticError(f"W vanishes near {rep.witness}")

        ck.run("denominator-nonvanishing", nonvanish)
    return ck, {"w": frame.w if frame else None, "fw": fw, "sd": sd}


def time_op(seed):
    ck = Checks()
    es = ck.run("evolve", lambda: nv.evolved_seed(seed))
    wt = ck.run("extended-w", lambda: nv.extended_w(es)) if es is not None else None
    rep = None
    if wt is not None:
        sol = ck.run("nv-potentials", lambda: nv.nv_potentials(wt))
        if sol is not None:
            def residual_zero():
                if not nv.nv_residual(sol).is_zero():
                    raise ArithmeticError("evolution residual nonzero")

            ck.run("evolution-residual-exact", residual_zero)
    fw = ck.run("wave-residuals-exact", lambda: nv.nv_faddeev(seed))
    sd = None
    if fw is not None:
        sd = ck.run("scattering-exact-vs-rays", lambda: fd.scattering_data(fw))
    if wt is not None:
        rep = ck.run("blowup-search", lambda: nv.blowup_time(wt))
    return ck, {"w": wt, "fw": fw, "sd": sd, "blowup": rep}


# ---------------------------------------------------------------------------
# canonical outputs and the golden comparison

def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def exact_outputs(res) -> dict:
    """Digests of the canonical JSON of W and the wave, and the exact A(λ).

    A is read with validate=False so that a failing ray check still yields it."""
    out = {}
    if res["w"] is not None:
        out["w"] = _digest(hn.poly_to_json(res["w"]))
    fw = res["fw"]
    if fw is not None:
        out["wave"] = _digest(hn.wave_to_json(fw))
        try:
            sd = res["sd"] or fd.scattering_data(fw, validate=False)
            out["A"] = {str(k): str(c) for k, c in sorted(sd.a_coeffs.items())}
        except AsymptoticMismatch:
            pass
    rep = res.get("blowup")
    if rep is not None:
        out["blowup"] = {"found": rep.found, "t_star": rep.t_star,
                         "witness": list(rep.witness) if rep.witness else None}
    return out


def compare_outputs(got: dict, gold: dict) -> list:
    """Mismatch messages. Exact fields compare exactly; the blow-up time and
    witness within T_STAR_TOL and WITNESS_TOL. A field without a golden (it
    raised when the goldens were recorded) is not compared."""
    bad = []
    for key in ("w", "wave", "A"):
        if key in gold and got.get(key) != gold[key]:
            bad.append(f"{key} differs")
    if "blowup" in gold:
        g, b = got.get("blowup"), gold["blowup"]
        if g is None or g["found"] != b["found"]:
            bad.append("blowup found differs")
        elif b["found"]:
            if abs(g["t_star"] - b["t_star"]) > T_STAR_TOL:
                bad.append(f"t_star {g['t_star']} vs {b['t_star']}")
            if any(abs(x - y) > WITNESS_TOL for x, y in zip(g["witness"], b["witness"])):
                bad.append(f"witness {g['witness']} vs {b['witness']}")
    return bad


def object_size(res):
    """(max coefficient bit length, output terms) of W and the wave slots."""
    polys = [res["w"]] if res["w"] is not None else []
    if res["fw"] is not None:
        polys += list(res["fw"].psi.coeffs.values())
    bits = 0
    for p in polys:
        for c in p.terms.values():
            for q in (c.re, c.im):
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits, sum(len(p.terms) for p in polys)


# ---------------------------------------------------------------------------
# cli ops: whole `mnv` processes, run one at a time

GRID = "--grid=-3,3,-3,3,101"
# (op id, argv, output file); seeds are relative to the run directory
CLI_OPS = [
    ("verify-sec22", ["verify", "--seed", "inputs/sec22.json"], None),
    ("verify-sec22_cubic", ["verify", "--seed", "inputs/sec22_cubic.json"], None),
    ("verify-sec32", ["verify", "--seed", "inputs/sec32.json"], None),
    ("scatter-sec22_cubic", ["scatter", "--seed", "inputs/sec22_cubic.json"], None),
    ("blowup-sec32", ["blowup", "--seed", "inputs/sec32.json"], None),
    ("potential-sec22", ["potential", "--seed", "inputs/sec22.json"], None),
    ("faddeev-sec22_cubic", ["faddeev", "--seed", "inputs/sec22_cubic.json",
                             "--out", "out/wave.json"], "out/wave.json"),
    ("sample-grid-u", ["sample-grid", "--seed", "inputs/sec22.json", GRID,
                       "--csv", "--out", "out/u.csv"], "out/u.csv"),
    ("sample-grid-psi", ["sample-grid", "--seed", "inputs/sec22.json", GRID,
                         "--lambda=1,0", "--csv", "--out", "out/psi.csv"], "out/psi.csv"),
]
NUMERIC_STDOUT = {"blowup-sec32"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd, timeout=120.0):
    """Run one process to completion. Returns (rc, stdout, stderr, wall s)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def cli_argv(op, spans_file=None):
    _, args, _ = op
    if spans_file is None:
        return [sys.executable, "-m", "moutardnv.cli", *args]
    return [sys.executable, str(BENCH / "traced_mnv.py"), str(spans_file), *args]


def csv_summary(path) -> dict:
    xyt = hashlib.sha256()
    sums = [0.0, 0.0, 0.0, 0.0]
    sample = []
    rows = 0
    with open(path) as fh:
        header = fh.readline()
        for n, line in enumerate(fh):
            x, y, t, re_, im = line.rstrip("\n").split(",")
            xyt.update(f"{x},{y},{t}\n".encode())
            vr, vi = float(re_), float(im)
            sums[0] += vr
            sums[1] += vi
            sums[2] += abs(vr)
            sums[3] += abs(vi)
            if n % CSV_SAMPLE_EVERY == 0:
                sample.append([vr, vi])
            rows += 1
    return {"header": header.strip(), "rows": rows, "xyt": xyt.hexdigest(),
            "sums": sums, "sample": sample}


def cli_outputs(op, rc, stdout, cwd) -> dict:
    out = {"rc": rc, "stdout": stdout}
    fname = op[2]
    if fname is not None:
        path = Path(cwd) / fname
        if not path.exists():
            out["file"] = None
        elif fname.endswith(".csv"):
            out["file"] = csv_summary(path)
        else:
            out["file"] = file_sha(path)
    return out


_NUM = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _close(a, b, rtol, atol=1e-12):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def compare_cli(op_id, got, gold) -> list:
    bad = []
    if got["rc"] != gold["rc"]:
        bad.append(f"exit code {got['rc']} vs {gold['rc']}")
    if op_id in NUMERIC_STDOUT:
        g_nums = [float(x) for x in _NUM.findall(got["stdout"])]
        b_nums = [float(x) for x in _NUM.findall(gold["stdout"])]
        if _NUM.sub("#", got["stdout"]) != _NUM.sub("#", gold["stdout"]) \
                or len(g_nums) != len(b_nums) \
                or any(abs(x - y) > WITNESS_TOL for x, y in zip(g_nums, b_nums)):
            bad.append("stdout differs")
    elif got["stdout"] != gold["stdout"]:
        bad.append("stdout differs")
    if "file" in gold:
        g, b = got.get("file"), gold["file"]
        if isinstance(b, str) or b is None:
            if g != b:
                bad.append("output file differs")
        elif not isinstance(g, dict):
            bad.append("output file missing")
        elif (g["header"], g["rows"], g["xyt"]) != (b["header"], b["rows"], b["xyt"]):
            bad.append("csv grid differs")
        elif not all(_close(x, y, NUM_RTOL) for x, y in zip(g["sums"], b["sums"])) \
                or len(g["sample"]) != len(b["sample"]) \
                or not all(_close(x, y, NUM_RTOL) for gs, bs in zip(g["sample"], b["sample"])
                           for x, y in zip(gs, bs)):
            bad.append("csv values differ")
    return bad


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)
