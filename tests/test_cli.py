import contextlib
import cProfile
import hashlib
import io
import json
import subprocess
import sys

import pytest

from moutardnv import cli, nv
from moutardnv import faddeev as fd
from moutardnv.algebra import RationalFn
from moutardnv.harness import load_seed
from moutardnv.moutard import double_w, potential

from conftest import fixture_path


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "moutardnv.cli", *args],
                          capture_output=True, text=True)


def test_scatter_reference_output():
    r = run_cli("scatter", "--seed", fixture_path("sec22.json"))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "A=-4/λ B=0"


def test_scatter_cubic_output():
    r = run_cli("scatter", "--seed", fixture_path("sec22_cubic.json"))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "A=-6/λ B=0"


def test_blowup_reference_output():
    r = run_cli("blowup", "--seed", fixture_path("sec32.json"))
    assert r.returncode == 0
    line = r.stdout.splitlines()[0]
    assert line.startswith("t_star≈2.416667 witness=(")
    assert line.endswith("witness=(-1,0)") or line.endswith("witness=(0,-1)")


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_blowup_tol_must_be_positive_and_finite(tol):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["blowup", "--seed", fixture_path("sec32.json"), f"--tol={tol}"])
    assert rc == 2
    assert "refine_tol must be positive and finite" in stderr.getvalue()


def test_blowup_tol_below_float_spacing_terminates():
    # the bisection stops where its midpoint rounds to an end of the interval
    r = subprocess.run([sys.executable, "-m", "moutardnv.cli", "blowup", "--seed",
                        fixture_path("sec32.json"), "--tol", "1e-300"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    digest = hashlib.sha256(r.stdout.encode()).hexdigest()
    assert digest == OUTPUT_DIGESTS[("blowup", "sec32")][0]


def test_potential_writes_json(tmp_path):
    out = tmp_path / "u.json"
    r = run_cli("potential", "--seed", fixture_path("sec22.json"), "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert "u" in data and "w" in data
    assert r.stdout.strip()          # canonical fraction text on stdout


def test_verify_passes_on_fixtures():
    for name in ("sec22.json", "sec32.json"):
        r = run_cli("verify", "--seed", fixture_path(name))
        assert r.returncode == 0, r.stdout + r.stderr
        lines = r.stdout.splitlines()
        assert lines[0] == "verify: PASS"
        assert all(l.startswith("PASS") for l in lines[1:])


def test_nv_faddeev_output():
    r = run_cli("nv-faddeev", "--seed", fixture_path("sec32.json"))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "A=-4/λ B=0 stationary=yes"


def test_kernel_and_nv_evolve_run():
    assert run_cli("kernel", "--seed", fixture_path("sec22.json")).returncode == 0
    r = run_cli("nv-evolve", "--seed", fixture_path("sec32.json"))
    assert r.returncode == 0
    assert r.stdout.startswith("p1(t) = ")


def test_sample_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    r = run_cli("sample-grid", "--seed", fixture_path("sec22.json"),
                "--grid=-1,1,-1,1,3", "--csv", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,t,re,im"
    assert len(lines) == 10


@pytest.mark.parametrize("name,options", [("sec22", ["--lambda=1,0"]),
                                          ("sec32", ["--t", "1"])])
def test_sample_grid_in_a_fresh_interpreter_matches_in_process(name, options, tmp_path):
    # the child loads numpy at its first float call; in process it is loaded already
    argv = ["sample-grid", "--seed", fixture_path(f"{name}.json"), "--grid=-1.5,1,-1,1.5,4",
            *options]
    fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
    r = run_cli(*argv, "--out", str(fresh))
    assert r.returncode == 0, r.stderr
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(here)]) == 0
    assert len(here.read_text().splitlines()) > 1
    assert fresh.read_bytes() == here.read_bytes()


BAD_GRID_OPTIONS = {
    "infinite-bound": ("sec22", ["--grid=-inf,3,-3,3,5"]),
    "nan-t": ("sec22", ["--grid=-1,1,-1,1,5", "--t", "nan"]),
    "nan-lambda": ("sec22", ["--grid=-1,1,-1,1,5", "--lambda=nan,0"]),
    "infinite-lambda": ("sec22", ["--grid=-1,1,-1,1,5", "--lambda=1,inf"]),
    "zero-lambda": ("sec32", ["--grid=-1,1,-1,1,5", "--lambda=0,0"]),
    # the span, and so np.linspace's step, overflows
    "huge-span": ("sec22", ["--grid=-1e308,1e308,-1,1,3"]),
    # W overflows at x = +-1e200: these points read as poles and were dropped
    "huge-w": ("sec22", ["--grid=-1e200,1e200,-1,1,3"]),
    "huge-wave-phase": ("sec22", ["--grid=-1000,1000,-1,1,3", "--lambda=1,0"]),
}


@pytest.mark.parametrize("name,options", BAD_GRID_OPTIONS.values(),
                         ids=BAD_GRID_OPTIONS.keys())
def test_sample_grid_bad_number_is_input_error(name, options, tmp_path):
    out = tmp_path / "grid.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["sample-grid", "--seed", fixture_path(f"{name}.json"), *options,
                       "--out", str(out)])
    assert rc == 2, stdout.getvalue()
    assert "input error" in stderr.getvalue()
    assert not out.exists()


def test_sample_grid_time_seed_samples_extended_w(tmp_path):
    # at t = 1 the time term of W changes u everywhere but at the origin,
    # which the grid leaves out
    out = tmp_path / "u.csv"
    rc = cli.main(["sample-grid", "--seed", fixture_path("sec32.json"), "--t", "1",
                   "--grid=-1.5,1,-1,1.5,3", "--csv", "--out", str(out)])
    assert rc == 0
    seed = load_seed(fixture_path("sec32.json"))[0]
    u_time, u_static = potential(nv.extended_w(seed)), potential(double_w(seed))
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    for x, y, t, re, im in rows:
        z, got = complex(x, y), complex(re, im)
        assert t == 1.0
        assert abs(got - u_time.eval(z, 1.0)) <= 1e-12 * (1.0 + abs(got))
        assert abs(got - u_static.eval(z, 1.0)) > 1e-3


def test_kernel_on_a_cubic_time_seed_prints_the_t0_kernel(tmp_path):
    data = json.loads(open(fixture_path("sec22_cubic.json")).read())
    data["time"] = True
    time_seed = tmp_path / "sec22_cubic_time.json"
    time_seed.write_text(json.dumps(data))
    outputs = []
    for path in (fixture_path("sec22_cubic.json"), str(time_seed)):
        out, stdout = tmp_path / "kernel.json", io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["kernel", "--seed", path, "--out", str(out)])
        assert rc == 0, stdout.getvalue()
        outputs.append((stdout.getvalue(), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_missing_seed_is_input_error():
    r = run_cli("scatter", "--seed", "/no/such/file.json")
    assert r.returncode == 2


def _sec22_with(**changes):
    with open(fixture_path("sec22.json")) as fh:
        return json.dumps({**json.load(fh), **changes})


MALFORMED_SEEDS = {
    "not-json": "{not json",
    "top-level-list": "[]",
    "p1-number": _sec22_with(p1=5),
    "bare-coefficient": _sec22_with(p1=[[2, 3]]),
    "fractional-degree": _sec22_with(p1=[[1.5, {"re": "1"}]]),
    "bool-degree": _sec22_with(p1=[[True, {"re": "1"}]]),
    "negative-degree": _sec22_with(p1=[[-1, {"re": "1"}]]),
    "float-part": _sec22_with(p1=[[1, {"re": 0.1}]]),
    "zero-denominator": _sec22_with(p1=[[1, {"re": "1/0"}]]),
    "c-number": _sec22_with(c=7),
    "time-string": _sec22_with(time="no"),
}


@pytest.mark.parametrize("text", MALFORMED_SEEDS.values(), ids=MALFORMED_SEEDS.keys())
def test_malformed_seed_is_input_error(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["potential", "--seed", str(bad)])
    assert rc == 2
    assert "input error" in stderr.getvalue()


@pytest.mark.parametrize("name", ["sec22", "sec22_cubic", "sec32"])
def test_verify_differentiates_no_fraction(name, monkeypatch):
    # every residual verify checks is a polynomial numerator: none lifts a
    # fraction through a derivative
    def lifted(*_):
        raise AssertionError("RationalFn derivative taken")

    monkeypatch.setattr(RationalFn, "_diff", lifted)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["verify", "--seed", fixture_path(f"{name}.json")])
    assert rc == 0, stdout.getvalue()


def test_cli_determinism(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"o{i}.json"
        r = run_cli("faddeev", "--seed", fixture_path("sec22.json"), "--out", str(out))
        assert r.returncode == 0
        outs.append((r.stdout, out.read_bytes()))
    assert outs[0] == outs[1]


# (command, fixture) -> sha256 of (stdout, the --out file), or None where the
# command writes no --out file (verify). Printed fractions are in canonical
# form, so any change to the exact objects or to their printing shows here.
# nv-evolve, nv-faddeev and blowup do not apply to the cubic static seed.
OUTPUT_DIGESTS = {
    ("potential", "sec22"):
        ("c540c0bcff3c768db5b3645c8c5259df8579582e8fd691dab9ec80f23b310d19",
         "d688a08ae0427b17cbb9e878a5ae6128bf77591a48585c2551025e39e5a3de06"),
    ("potential", "sec22_cubic"):
        ("1cb17fc7eb00b4ae2efae3fda49430b779e88f03e06b2ac744725015b891dcd2",
         "886429e7837eba5d31c87604cfdbb6d0aa38860cbd01e34ca2e17b531b9fd566"),
    ("potential", "sec32"):
        ("6aa660c873d1902be23b0fe2f0856d6bb43716aa5a77e4472f14a23076ec568c",
         "69a5bdaedcb1ebc78f6810fd2bf9dae8221148ee83e8ccdb4aad5a3f869055b2"),
    ("kernel", "sec22"):
        ("e6b79ce379ad8bd179414d334f944e1ba8354d54927dbb09bd6164dce95a62b9",
         "e3b9fe3e08a02587c2be8f7b6bb64f3f6868fac7523fdbce4fc7895595f38dda"),
    ("kernel", "sec22_cubic"):
        ("a81b7d80a17f4ac158760ce08c529dfab4455fcd0034882f32a7fd5044af93f7",
         "f34b1b38713cecf55b9f239e4a73b25d54ac3b9ebf7214056df675dbf144bd7d"),
    ("kernel", "sec32"):
        ("a5453e5c5b222eff48033af1bb43fab1289d8181eefd0762393aa7c6be9a73d1",
         "a4e091089b2862d76768851c0b25f6cabad5bce044941f3dfc3c2153bfa2a3c8"),
    ("faddeev", "sec22"):
        ("c669ba52629fe08a1c87627ae0211b44de8c3ce9c432092327ec532a5bcb5b12",
         "b07075863953864fd1707198b5c6237682a39b24d11688f99ffd852b282d7792"),
    ("faddeev", "sec22_cubic"):
        ("5b0986b0252636c39adb8c335761ed1bb395508d0f2b44170fc9a09f7a18f9bc",
         "dde0c222ace33c1dda9d53489319f6c23be7acb36903ae76709a5d400665d83a"),
    ("faddeev", "sec32"):
        ("e9fb4b15d6f13ca3a1e488f11bd4e2d8294065f65d94edf2c3633220f25922bc",
         "e649f5fe3aa80da10fb3c788b3c10d466c464a326a410ed0818ba04e632b8070"),
    ("scatter", "sec22"):
        ("627803eb44dff7828eb1561a7fa2c2abdd7a94e4472c9d7afcf2f43263c1cc4f",
         "21cd3cd837bd4dcd7f7aaff14aa98ff7eeddc44d707210bb83f1b949ce606a60"),
    ("scatter", "sec22_cubic"):
        ("8588246465403e76000e00f5fc8b637b9c7d351b656a93fdde2c3e546f9ee20a",
         "a626bb12ae0898ff94abe76fb1996e899b57b2626566786297077c0be6a0b85b"),
    ("scatter", "sec32"):
        ("627803eb44dff7828eb1561a7fa2c2abdd7a94e4472c9d7afcf2f43263c1cc4f",
         "21cd3cd837bd4dcd7f7aaff14aa98ff7eeddc44d707210bb83f1b949ce606a60"),
    ("nv-evolve", "sec22"):
        ("b86c2ee807e4cd340bfcb354ca17c7a36e2fc84a02a8b58c5e94c97c7d51974b",
         "581104839f33de79bdd70bc8d840c02a3d70a6b7d0594d31a7fb1f520d08ee88"),
    ("nv-evolve", "sec32"):
        ("a540582cce8753eca4de6545f81c637ad0fdb69679624f4ecfcb0f25a7e4ec6e",
         "0d5c82f2f3e8f4e85e97d60b2271b061419b0f9de8f9d2736b33241eb734758b"),
    ("nv-faddeev", "sec22"):
        ("e19393911d58ed471e5ced016b440cd665022e931512fe9683460e8ecedb8f51",
         "584df153a9c38312d676d957cf0bcf76360450c3ac685f1d4c2d9ba5394ef6da"),
    ("nv-faddeev", "sec32"):
        ("43f2891ed2533f6e2e84683cacfbdea41dfe9f30918444a9254b27542754351f",
         "e649f5fe3aa80da10fb3c788b3c10d466c464a326a410ed0818ba04e632b8070"),
    ("blowup", "sec32"):
        ("4a169e89f01561098d98a9c94bb8b7615da2881ef577185bb8f2422ecf808add",
         "1b6d66f6f9cf77864a1e0614a519034ceb0608fa2c8b97a8c335fdd0123cc6be"),
    ("verify", "sec22"):
        ("d5143ad9e0c75620b5a24c3280bd1cd1bb2b038e724c9c18986920314de0c821", None),
    ("verify", "sec22_cubic"):
        ("d5143ad9e0c75620b5a24c3280bd1cd1bb2b038e724c9c18986920314de0c821", None),
    ("verify", "sec32"):
        ("d05ad73952d061da9db3cd2977de109710157d44382ca42765d337422872a7bc", None),
}


@pytest.mark.parametrize("command,name", sorted(OUTPUT_DIGESTS))
def test_cli_output_bytes_unchanged(command, name, tmp_path):
    out = tmp_path / "out.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main([command, "--seed", fixture_path(f"{name}.json"), "--out", str(out)])
    assert rc == 0
    got = (hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
           hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None)
    assert got == OUTPUT_DIGESTS[(command, name)]


def test_oversized_seed_is_input_error(tmp_path):
    seed = tmp_path / "z40.json"
    seed.write_text(json.dumps({"p1": [[40, {"re": "1", "im": "0"}]],
                                "p2": [[1, {"re": "1", "im": "0"}]],
                                "c": {"re": "1", "im": "0"}, "time": False}))
    for command in ("potential", "scatter", "verify"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main([command, "--seed", str(seed)])
        assert rc == 2, (command, stdout.getvalue())
        assert "ExponentOverflow" not in stdout.getvalue()
        assert "exceeds cap" in stderr.getvalue()


def _loaded_after(*argvs):
    """In a fresh interpreter that imports moutardnv and moutardnv.cli and
    then runs `cli.main` on each argv: the exit codes, and which of scipy and
    numpy are loaded at the end."""
    code = ("import contextlib, io, json, sys, moutardnv, moutardnv.cli\n"
            "rcs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rcs.append(moutardnv.cli.main(argv))\n"
            "print(json.dumps([rcs, sorted({'scipy', 'numpy'} & set(sys.modules))]))\n")
    r = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_import_does_not_load_scipy():
    # nor numpy, which only the numeric checks import, at their first call:
    # the exact-only subcommands never load it, and verify's checks do
    assert _loaded_after() == [[], []]
    exact_only = [[command, "--seed", fixture_path(f"{name}.json")]
                  for command in ("potential", "kernel", "faddeev", "nv-evolve")
                  for name in ("sec22", "sec22_cubic", "sec32")]
    rcs, loaded = _loaded_after(*exact_only)
    assert loaded == []
    # the cubic static seed does not evolve (NotEvolved); every other call succeeds
    assert rcs == [1 if argv[0] == "nv-evolve" and "sec22_cubic" in argv[2] else 0
                   for argv in exact_only]
    assert _loaded_after(["verify", "--seed", fixture_path("sec22.json")]) == [[0], ["numpy"]]


@pytest.mark.parametrize("time", [False, True])
def test_verify_on_a_zero_w_seed_prints_every_check(time, tmp_path):
    # p1 = p2 = z and c = 0 give W = 0: every check fails, none aborts the table
    seed = tmp_path / "zero.json"
    seed.write_text(json.dumps({"p1": [[1, {"re": "1", "im": "0"}]],
                                "p2": [[1, {"re": "1", "im": "0"}]],
                                "c": {"re": "0", "im": "0"}, "time": time}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["verify", "--seed", str(seed)])
    lines = stdout.getvalue().splitlines()
    assert rc == 1
    assert lines[0] == "verify: FAIL"
    rows = [line.split()[1] for line in lines[1:]]
    assert all(line.split()[0] in ("PASS", "FAIL") for line in lines[1:])
    if time:
        assert rows == ["extended-w", "evolution-residual-exact",
                        "wave-residuals-exact", "blowup-search"]
    else:
        assert rows == ["frame-build", "wave-residual-exact"]
        assert lines[1].split(" ", 2)[2] == lines[2].split(" ", 2)[2]


@pytest.mark.parametrize("argv", [["potential", "--t", "5"], ["verify", "--tol", "1"],
                                  ["scatter", "--lambda=1,0"]])
def test_an_option_the_subcommand_does_not_read_is_an_input_error(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", fixture_path("sec22.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in stderr.getvalue()


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    options = {name: sorted(a.dest for a in p._actions if a.dest != "help")
               for name, p in sub.choices.items()}
    assert options.pop("blowup") == ["out", "seed", "tol"]
    assert options.pop("sample-grid") == ["csv", "grid", "lam", "out", "seed", "t"]
    assert all(v == ["out", "seed"] for v in options.values())
    assert len(options) == 7


BUILDERS = ("extended_w", "double_w", "build_frame", "laplace_log", "nv_potentials",
            "heat3_evolve")


def _build_counts(fn, names=BUILDERS):
    """Calls of the named functions in moutardnv while fn runs, by name."""
    prof = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        prof.runcall(fn)
    prof.create_stats()
    counts = dict.fromkeys(names, 0)
    for (path, _, name), (_, calls, *_) in prof.stats.items():
        if name in names and "moutardnv" in path:
            counts[name] += calls
    return counts


BUILD_COUNTS = [
    ("verify", "sec22", {"double_w": 1, "build_frame": 1, "laplace_log": 1}),
    ("verify", "sec22_cubic", {"double_w": 1, "build_frame": 1, "laplace_log": 1}),
    ("verify", "sec32", {"extended_w": 1, "double_w": 1, "build_frame": 1,
                         "laplace_log": 1, "nv_potentials": 1}),
    ("faddeev", "sec22_cubic", {"double_w": 1, "build_frame": 1, "laplace_log": 1}),
    ("scatter", "sec22_cubic", {"double_w": 1, "build_frame": 1, "laplace_log": 1}),
    ("nv_faddeev", "sec32", {"extended_w": 1, "double_w": 1, "build_frame": 1,
                             "laplace_log": 1}),
    ("build_faddeev", "sec22", {"double_w": 1, "build_frame": 1, "laplace_log": 1}),
]


@pytest.mark.parametrize("what,name,expected", BUILD_COUNTS,
                         ids=[f"{what}-{name}" for what, name, _ in BUILD_COUNTS])
def test_each_object_is_built_once(what, name, expected):
    # one W, one frame and one potential per call, and verify's (U, V) pair;
    # sec32's quadratics are their own evolution, so heat3_evolve never runs on it
    path = fixture_path(f"{name}.json")
    builders = {"nv_faddeev": nv.nv_faddeev, "build_faddeev": fd.build_faddeev}
    if what in builders:
        seed = load_seed(path)[0]
        fn = lambda: builders[what](seed)
    else:
        fn = lambda: cli.main([what, "--seed", path])
    assert _build_counts(fn) == {**dict.fromkeys(BUILDERS, 0), **expected}


def test_verify_on_sec32_forms_hirota_products_once():
    # D_z D_zb (W . W) is formed by nv_potentials, by the frame's laplace_log
    # and by potential_gap, the independent check of the wave's u; nv_residual
    # reads it off U. Then D_z^2, D_z^3 D_zb and D_z D_zb^3 on (W . W), and the
    # two wave residuals.
    counts = _build_counts(lambda: cli.main(["verify", "--seed", fixture_path("sec32.json")]),
                           ("hirota",))
    assert counts == {"hirota": 8}
