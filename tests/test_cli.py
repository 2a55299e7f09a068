import contextlib
import cProfile
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from moutardnv import cli, nv
from moutardnv import faddeev as fd
from moutardnv.algebra import MPoly, RationalFn
from moutardnv.harness import SEED_DEGREE_CAP, load_seed
from moutardnv.moutard import double_w, potential

from conftest import FIXTURES, fixture_path


def run_cli(*args):
    # numpy warnings are errors, as in-process under pytest's filterwarnings
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "moutardnv.cli",
                           *args], capture_output=True, text=True)


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
    assert line.endswith("witness=(-1,0)")


def test_blowup_sec32_time_is_exact(seed32, tmp_path):
    # sec32's W is W0 + kappa t, and its first zero is at t = 29/12 exactly:
    # the library and the --out file give that time correctly rounded
    t_star = float(Fraction(29, 12))
    rep = nv.blowup_time(nv.extended_w(seed32))
    assert rep.t_star == t_star and rep.witness == (-1.0, 0.0)
    out = tmp_path / "blowup.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["blowup", "--seed", fixture_path("sec32.json"), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["t_star"] == t_star and data["witness"] == [-1.0, 0.0]


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


def test_cubic_time_seed_passes_every_time_subcommand():
    # sec22_cubic's polynomials as a time seed: W is the static W of the
    # evolved cubics plus their origin time term, and every check accepts it
    for command in ("nv-evolve", "nv-faddeev", "verify", "blowup", "potential", "scatter"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main([command, "--seed", fixture_path("sec22_cubic_time.json")])
        assert rc == 0, (command, stdout.getvalue())


@pytest.mark.parametrize("term", [MPoly.monomial(0, 0, 1), MPoly.monomial(0, 0, 2, 5)],
                         ids=["t", "5t^2"])
def test_a_wrong_time_term_fails_every_time_subcommand(monkeypatch, tmp_path, term):
    # W + t and W + 5t^2 are real and free of zb, so no check inside
    # extended_w sees them: the evolution residual, which nv-evolve, blowup,
    # potential, sample-grid and verify run, and the wave's temporal
    # residual, which nv-faddeev and scatter run, do
    build = nv.extended_w
    monkeypatch.setattr(nv, "extended_w", lambda seed: build(seed) + term)
    out = tmp_path / "u.csv"
    argvs = [[command, "--seed", fixture_path(f"{name}.json")]
             for command in ("nv-evolve", "blowup") for name in ("sec32", "sec22_cubic")]
    argvs += [[command, "--seed", fixture_path("sec32.json")]
              for command in ("potential", "verify", "nv-faddeev", "scatter")]
    argvs.append(["sample-grid", "--seed", fixture_path("sec32.json"),
                  "--grid=-1,1,-1,1,3", "--out", str(out)])
    for argv in argvs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        assert rc == 1, (argv, stdout.getvalue())
        assert "FAIL" in stdout.getvalue(), argv
    assert not out.exists()


@pytest.mark.parametrize("name", ["sec22", "sec22_cubic", "sec32"])
@pytest.mark.parametrize("term,expected", [(MPoly.monomial(1, 1, 0), 1), (MPoly.const(1), 0)],
                         ids=["zzb", "1"])
def test_kernel_checks_each_phi_is_in_the_kernel(monkeypatch, name, term, expected):
    # W + zzb in place of W puts neither phi_j = +-omega_j/W in the kernel,
    # and kernel fails on it; W + 1 keeps both there (c is free in W), and
    # kernel prints them
    from moutardnv import moutard
    build = moutard.double_w
    monkeypatch.setattr(moutard, "double_w", lambda seed: build(seed) + term)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["kernel", "--seed", fixture_path(f"{name}.json")])
    assert rc == expected
    if expected:
        assert stdout.getvalue().startswith(
            "FAIL ResidualNonzero: a kernel function is not in the kernel: residual ")
    else:
        names = [line.split(" = ")[0] for line in stdout.getvalue().splitlines()]
        assert names == ["theta1", "theta2", "phi1", "phi2"]


@pytest.mark.parametrize("time", [False, True], ids=["static", "time"])
def test_kernel_rejects_dependent_kernel_functions(time, tmp_path):
    # p2 = 2 p1 + i makes omega2 = 2 omega1 and W the constant 7 (README,
    # "A constant W"), so phi2 = -2 phi1 and neither decays: kernel exits 1
    # and writes nothing
    seed, out = tmp_path / "dependent.json", tmp_path / "kernel.json"
    seed.write_text(json.dumps({
        "p1": [[0, {"re": "1"}], [1, {"re": "1"}], [3, {"re": "1"}]],
        "p2": [[0, {"re": "2", "im": "1"}], [1, {"re": "2"}], [3, {"re": "2"}]],
        "c": {"re": "5"}, "time": time}))
    assert double_w(load_seed(str(seed))[0]) == MPoly.const(7)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["kernel", "--seed", str(seed), "--out", str(out)])
    assert rc == 1
    assert stdout.getvalue() == ("FAIL AlgebraError: W is constant, so omega2 is a real multiple "
                                 "of omega1: the kernel functions are dependent and do not "
                                 "decay\n")
    assert not out.exists()


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
    "infinite-bound": ("sec22", ["--grid=-inf,3,-3,3,5"], "grid bounds and t must be finite"),
    "nan-t": ("sec22", ["--grid=-1,1,-1,1,5", "--t", "nan"], "grid bounds and t must be finite"),
    "nan-lambda": ("sec22", ["--grid=-1,1,-1,1,5", "--lambda=nan,0"],
                   "lambda must be finite and nonzero, got nan,0"),
    "infinite-lambda": ("sec22", ["--grid=-1,1,-1,1,5", "--lambda=1,inf"],
                        "lambda must be finite and nonzero, got 1,inf"),
    "zero-lambda": ("sec32", ["--grid=-1,1,-1,1,5", "--lambda=0,0"],
                    "lambda must be finite and nonzero, got 0,0"),
    "one-part-lambda": ("sec22", ["--grid=-1,1,-1,1,5", "--lambda=1"],
                        "lambda must be re,im, got 1"),
    "three-part-lambda": ("sec22", ["--grid=-1,1,-1,1,5", "--lambda=1,0,2"],
                          "lambda must be re,im, got 1,0,2"),
    # the span, and so np.linspace's step, overflows
    "huge-span": ("sec22", ["--grid=-1e308,1e308,-1,1,3"], "grid spans must be finite floats"),
    # W overflows at x = +-1e200: these points read as poles and were dropped
    "huge-w": ("sec22", ["--grid=-1e200,1e200,-1,1,3"], "values on the grid leave float range"),
    "huge-wave-phase": ("sec22", ["--grid=-1000,1000,-1,1,3", "--lambda=1,0"],
                        "values on the grid leave float range"),
}


@pytest.mark.parametrize("name,options,message", BAD_GRID_OPTIONS.values(),
                         ids=BAD_GRID_OPTIONS.keys())
def test_sample_grid_bad_number_is_input_error(name, options, message, tmp_path):
    out = tmp_path / "grid.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["sample-grid", "--seed", fixture_path(f"{name}.json"), *options,
                       "--out", str(out)])
    assert rc == 2, stdout.getvalue()
    assert stderr.getvalue().startswith(f"input error: {message}")
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
    outputs = []
    for path in (fixture_path("sec22_cubic.json"), fixture_path("sec22_cubic_time.json")):
        out, stdout = tmp_path / "kernel.json", io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["kernel", "--seed", path, "--out", str(out)])
        assert rc == 0, stdout.getvalue()
        outputs.append((stdout.getvalue(), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_missing_seed_is_input_error():
    r = run_cli("scatter", "--seed", "/no/such/file.json")
    assert r.returncode == 2


def _sec22_with(without=(), **changes):
    with open(fixture_path("sec22.json")) as fh:
        data = {**json.load(fh), **changes}
    return json.dumps({k: v for k, v in data.items() if k not in without})


MALFORMED_SEEDS = {
    "not-json": ("{not json", "Expecting property name"),
    "top-level-list": ("[]", "a seed must be a JSON object"),
    "p1-number": (_sec22_with(p1=5), "p1 must be a list of [degree, coefficient] pairs"),
    "bare-coefficient": (_sec22_with(p1=[[2, 3]]), "a coefficient must be an object with 're'"),
    "fractional-degree": (_sec22_with(p1=[[1.5, {"re": "1"}]]),
                          "p1: expected [integer degree >= 0, coefficient]"),
    "bool-degree": (_sec22_with(p1=[[True, {"re": "1"}]]),
                    "p1: expected [integer degree >= 0, coefficient]"),
    "negative-degree": (_sec22_with(p1=[[-1, {"re": "1"}]]),
                        "p1: expected [integer degree >= 0, coefficient]"),
    "float-part": (_sec22_with(p1=[[1, {"re": 0.1}]]),
                   "coefficient parts must be strings or integers"),
    "zero-denominator": (_sec22_with(p1=[[1, {"re": "1/0"}]]), "zero denominator in coefficient"),
    "c-number": (_sec22_with(c=7), "a coefficient must be an object with 're'"),
    "complex-c": (_sec22_with(c={"re": "-20", "im": "1"}), "integration constant must be real"),
    "time-string": (_sec22_with(time="no"), "time must be true or false"),
    "missing-p2": (_sec22_with(without=("p2",)), "a seed must hold 'p2'\n"),
    "missing-c": (_sec22_with(without=("c",)), "a seed must hold 'c'\n"),
    "misspelled-time": (_sec22_with(without=("time",), tmie=True),
                        "a seed holds only 'p1', 'p2', 'c' and 'time', not ['tmie']\n"),
    "misspelled-im": (_sec22_with(p1=[[1, {"re": "1", "img": "3"}]]),
                      "a coefficient must be an object with 're' and optional 'im'"),
}


@pytest.mark.parametrize("text,message", MALFORMED_SEEDS.values(), ids=MALFORMED_SEEDS.keys())
def test_malformed_seed_is_input_error(tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["potential", "--seed", str(bad)])
    assert rc == 2
    assert stderr.getvalue().startswith(f"input error: {message}")


def _times(poly_json, factor):
    """A poly_to_json form with every coefficient times the rational factor."""
    return {"terms": [[i, j, k, {part: str(Fraction(c[part]) * factor) for part in ("re", "im")}]
                      for i, j, k, c in poly_json["terms"]]}


@pytest.mark.parametrize("name", ["sec32", "sec22_cubic_time"])
def test_nv_evolve_writes_u_over_minus_four(tmp_path, name):
    """nv-evolve --out writes the NV potential U under "u", and potential
    --out writes u = -2 Laplacian(log W) = -4U over the same W^2."""
    outs = {}
    for command in ("nv-evolve", "potential"):
        outs[command] = tmp_path / f"{command}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--seed", fixture_path(f"{name}.json"),
                             "--out", str(outs[command])]) == 0
    U, u = (json.loads(outs[c].read_text())["u"] for c in ("nv-evolve", "potential"))
    assert {"num": _times(U["num"], -4), "den": U["den"]} == u
    assert U["num"] != u["num"]


@pytest.mark.parametrize("name", ["sec22", "sec22_cubic", "sec32"])
def test_verify_differentiates_no_fraction(name):
    # every residual verify checks is a polynomial numerator: the library's
    # fractions have no derivative to lift a fraction through
    assert not [m for m in dir(RationalFn) if "diff" in m]
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
    ("potential", "sec22_cubic_time"):
        ("91121d7bb79681edc9342f336bca83481e8188980bc60a57803a33913940e3f7",
         "dd66274f8049c280eb417c89fffbeb3c348592d25f6cdaf8fcca3e6ea122c577"),
    ("kernel", "sec22"):
        ("e6b79ce379ad8bd179414d334f944e1ba8354d54927dbb09bd6164dce95a62b9",
         "e3b9fe3e08a02587c2be8f7b6bb64f3f6868fac7523fdbce4fc7895595f38dda"),
    ("kernel", "sec22_cubic"):
        ("a81b7d80a17f4ac158760ce08c529dfab4455fcd0034882f32a7fd5044af93f7",
         "f34b1b38713cecf55b9f239e4a73b25d54ac3b9ebf7214056df675dbf144bd7d"),
    ("kernel", "sec32"):
        ("a5453e5c5b222eff48033af1bb43fab1289d8181eefd0762393aa7c6be9a73d1",
         "a4e091089b2862d76768851c0b25f6cabad5bce044941f3dfc3c2153bfa2a3c8"),
    ("kernel", "sec22_cubic_time"):
        ("a81b7d80a17f4ac158760ce08c529dfab4455fcd0034882f32a7fd5044af93f7",
         "f34b1b38713cecf55b9f239e4a73b25d54ac3b9ebf7214056df675dbf144bd7d"),
    ("faddeev", "sec22"):
        ("c669ba52629fe08a1c87627ae0211b44de8c3ce9c432092327ec532a5bcb5b12",
         "b07075863953864fd1707198b5c6237682a39b24d11688f99ffd852b282d7792"),
    ("faddeev", "sec22_cubic"):
        ("5b0986b0252636c39adb8c335761ed1bb395508d0f2b44170fc9a09f7a18f9bc",
         "dde0c222ace33c1dda9d53489319f6c23be7acb36903ae76709a5d400665d83a"),
    ("faddeev", "sec32"):
        ("e9fb4b15d6f13ca3a1e488f11bd4e2d8294065f65d94edf2c3633220f25922bc",
         "e649f5fe3aa80da10fb3c788b3c10d466c464a326a410ed0818ba04e632b8070"),
    ("faddeev", "sec22_cubic_time"):
        ("24f12ac85cd4cdddf3c8cfb1cc04b4ed34e209f189cdf35aa410a50600786bf3",
         "d038ec4163ae37c2c0dc2a87ec73532af337544ec64a910db5757500633224fa"),
    ("scatter", "sec22"):
        ("627803eb44dff7828eb1561a7fa2c2abdd7a94e4472c9d7afcf2f43263c1cc4f",
         "21cd3cd837bd4dcd7f7aaff14aa98ff7eeddc44d707210bb83f1b949ce606a60"),
    ("scatter", "sec22_cubic"):
        ("8588246465403e76000e00f5fc8b637b9c7d351b656a93fdde2c3e546f9ee20a",
         "a626bb12ae0898ff94abe76fb1996e899b57b2626566786297077c0be6a0b85b"),
    ("scatter", "sec32"):
        ("627803eb44dff7828eb1561a7fa2c2abdd7a94e4472c9d7afcf2f43263c1cc4f",
         "21cd3cd837bd4dcd7f7aaff14aa98ff7eeddc44d707210bb83f1b949ce606a60"),
    ("scatter", "sec22_cubic_time"):
        ("8588246465403e76000e00f5fc8b637b9c7d351b656a93fdde2c3e546f9ee20a",
         "a626bb12ae0898ff94abe76fb1996e899b57b2626566786297077c0be6a0b85b"),
    ("nv-evolve", "sec22"):
        ("b86c2ee807e4cd340bfcb354ca17c7a36e2fc84a02a8b58c5e94c97c7d51974b",
         "581104839f33de79bdd70bc8d840c02a3d70a6b7d0594d31a7fb1f520d08ee88"),
    ("nv-evolve", "sec22_cubic"):
        ("56a3889ce27c1c97b9f11309e698caab38c7e0a0246c3b029e41e0e87d482f14",
         "10e3cdb224e1988cf29fa61e3fa75317316b1303b620b7ac96dc5d0be77c1e0d"),
    ("nv-evolve", "sec32"):
        ("a540582cce8753eca4de6545f81c637ad0fdb69679624f4ecfcb0f25a7e4ec6e",
         "0d5c82f2f3e8f4e85e97d60b2271b061419b0f9de8f9d2736b33241eb734758b"),
    ("nv-evolve", "sec22_cubic_time"):
        ("56a3889ce27c1c97b9f11309e698caab38c7e0a0246c3b029e41e0e87d482f14",
         "10e3cdb224e1988cf29fa61e3fa75317316b1303b620b7ac96dc5d0be77c1e0d"),
    ("nv-faddeev", "sec22"):
        ("e19393911d58ed471e5ced016b440cd665022e931512fe9683460e8ecedb8f51",
         "584df153a9c38312d676d957cf0bcf76360450c3ac685f1d4c2d9ba5394ef6da"),
    ("nv-faddeev", "sec22_cubic"):
        ("9e79adf7ebcab0b8959db8c62af1806cce0ca5a5bf1896945d7199ae30b73a8f",
         "d038ec4163ae37c2c0dc2a87ec73532af337544ec64a910db5757500633224fa"),
    ("nv-faddeev", "sec32"):
        ("43f2891ed2533f6e2e84683cacfbdea41dfe9f30918444a9254b27542754351f",
         "e649f5fe3aa80da10fb3c788b3c10d466c464a326a410ed0818ba04e632b8070"),
    ("nv-faddeev", "sec22_cubic_time"):
        ("9e79adf7ebcab0b8959db8c62af1806cce0ca5a5bf1896945d7199ae30b73a8f",
         "d038ec4163ae37c2c0dc2a87ec73532af337544ec64a910db5757500633224fa"),
    ("blowup", "sec22"):           # no blow-up up to t = 10: no --out file
        ("8cf468de26239f028e1748dfd9cdb8ac3eb80d8f9f45c2294b283f6af255fdea", None),
    ("blowup", "sec22_cubic"):
        ("8cf468de26239f028e1748dfd9cdb8ac3eb80d8f9f45c2294b283f6af255fdea", None),
    ("blowup", "sec32"):
        ("4a169e89f01561098d98a9c94bb8b7615da2881ef577185bb8f2422ecf808add",
         "2b1d02f6f6ab88e03ee626913a678b01afd874e9005dd6d001c9723f91d5097b"),
    ("blowup", "sec22_cubic_time"):
        ("8cf468de26239f028e1748dfd9cdb8ac3eb80d8f9f45c2294b283f6af255fdea", None),
    ("verify", "sec22"):
        ("d5143ad9e0c75620b5a24c3280bd1cd1bb2b038e724c9c18986920314de0c821", None),
    ("verify", "sec22_cubic"):
        ("d5143ad9e0c75620b5a24c3280bd1cd1bb2b038e724c9c18986920314de0c821", None),
    ("verify", "sec32"):
        ("d05ad73952d061da9db3cd2977de109710157d44382ca42765d337422872a7bc", None),
    ("verify", "sec22_cubic_time"):
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


def test_every_fixture_is_pinned_on_every_subcommand():
    # sample-grid needs a --grid, which these rows do not pass
    fixtures = {f[:-len(".json")] for f in os.listdir(FIXTURES) if f.endswith(".json")}
    commands = set(cli.COMMANDS) - {"sample-grid"}
    assert len(fixtures) >= 4
    assert set(OUTPUT_DIGESTS) == {(c, n) for c in commands for n in fixtures}


# sha256 of the stdout of the exact subcommands on BIG_SEED: they read no
# coefficient as a float, so they print the seed's objects in full
BIG_SEED_STDOUT = {
    "potential": "b6e3bcf5d460b4aaa22196ce852e8ee27427d7f37a9544ff2450c9a43626d744",
    "kernel": "932c18f3d5108f6554443568269e41c0eb41cb080f36bf32b987dc6b34dec50e",
    "faddeev": "7d2d0d8767a72c8917d411b81cf7c94826a779d6199e9d8c2d47046cfdee0da5",
    "nv-evolve": "cf68c1e3e24179fee8a343d5a4f92778a98a3f04d8485b4e6b0118bf8240a6ba",
}
BIG_SEED = {"p1": [[1, {"re": "1" + "0" * 400, "im": "0"}], [2, {"re": "1", "im": "1"}]],
            "p2": [[2, {"re": "1", "im": "0"}]], "c": {"re": "1", "im": "0"}, "time": False}


def test_a_coefficient_beyond_float_range_is_input_error(tmp_path):
    # W has coefficients near 10^400: the subcommands that read a coefficient
    # as a float reject the seed, the exact ones print it
    seed, out = tmp_path / "big.json", tmp_path / "grid.csv"
    seed.write_text(json.dumps(BIG_SEED))
    for argv in (["scatter"], ["nv-faddeev"], ["blowup"], ["verify"],
                 ["sample-grid", "--grid=-1,1,-1,1,3", "--out", str(out)]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv + ["--seed", str(seed)])
        assert rc == 2, (argv, stdout.getvalue())
        assert "beyond float range" in stderr.getvalue()
    assert not out.exists()
    for command, digest in BIG_SEED_STDOUT.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([command, "--seed", str(seed)]) == 0
        assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == digest


def test_ray_values_beyond_float_range_are_input_error(tmp_path):
    # W has a 2e300 |z|^4 leading term: every value of the wave on the rays
    # (r = 10^3 and 2 10^3) leaves float range, so no ray could be compared
    big = "1" + "0" * 150
    for time in (False, True):
        seed = tmp_path / f"huge_{time}.json"
        seed.write_text(json.dumps({
            "p1": [[1, {"re": "1", "im": "0"}], [2, {"re": big, "im": "0"}]],
            "p2": [[1, {"re": "1", "im": "1"}], [2, {"re": "0", "im": big}]],
            "c": {"re": "1", "im": "0"}, "time": time}))
        for command in ("scatter", "nv-faddeev", "verify"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main([command, "--seed", str(seed)])
            assert rc == 2, (command, time, stdout.getvalue())
            assert "seed too large" in stderr.getvalue(), (command, time)


def _scaled(name, exponent):
    """The fixture with p1 and p2 times 10^exponent and c times its square:
    W is scaled by 10^(2 exponent), and u = -2 Laplacian(log W) and the wave
    stay the fixture's."""
    with open(fixture_path(f"{name}.json")) as fh:
        data = json.load(fh)
    s = 10 ** exponent

    def scale(c, f):
        return {k: str(Fraction(v) * f) for k, v in c.items()}

    return json.dumps({**data, "p1": [[n, scale(c, s)] for n, c in data["p1"]],
                       "p2": [[n, scale(c, s)] for n, c in data["p2"]],
                       "c": scale(data["c"], s * s)})


@pytest.mark.parametrize("name,exponent,rc", [("sec22", 75, 0), ("sec22", 76, 2),
                                              ("sec32", 76, 0)])
def test_fd_grid_values_beyond_float_range_are_input_error(tmp_path, name, exponent, rc):
    # at 10^76, W^2 below u leaves float range on the finite-difference
    # grid: the seed is too large for that check, which has not failed; the
    # time branch runs no finite-difference check and passes every row
    seed = tmp_path / "scaled.json"
    seed.write_text(_scaled(name, exponent))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(["verify", "--seed", str(seed)]) == rc, stdout.getvalue()
    if rc:
        assert "the finite-difference grid leaves float range" in stderr.getvalue()
        assert "FAIL" not in stdout.getvalue()
    else:
        assert stdout.getvalue().startswith("verify: PASS")


@pytest.mark.parametrize("exponent,failing", [
    (-2, []),
    (-6, ["finite-difference-order"]),
    (-20, ["scattering-exact-vs-rays", "finite-difference-order"])])
def test_a_numeric_check_that_reads_nothing_fails(tmp_path, exponent, failing):
    # sec22 scaled by 10^(2 exponent): the pole rule |W| < POLE_FLOOR (1 + |num|)
    # marks every stencil from 10^-6 and every ray from 10^-20, and a check
    # that read no point has shown nothing, so its row fails (exit 1)
    seed = tmp_path / "scaled.json"
    seed.write_text(_scaled("sec22", exponent))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["verify", "--seed", str(seed)])
    rows = stdout.getvalue().splitlines()
    assert rc == (1 if failing else 0), rows
    assert [row.split()[1] for row in rows[1:] if row.startswith("FAIL")] == failing
    messages = {"finite-difference-order": "reads no point",
                "scattering-exact-vs-rays": "no ray is readable at lam=1.0"}
    for name in failing:
        row = next(row for row in rows if row.startswith(f"FAIL {name} "))
        assert messages[name] in row, row
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["scatter", "--seed", str(seed)])
    if "scattering-exact-vs-rays" in failing:
        assert rc == 1
        assert stdout.getvalue().startswith("FAIL AsymptoticMismatch: no ray is readable")
    else:
        assert rc == 0 and stdout.getvalue().startswith("A=-4/λ B=0")


@pytest.mark.parametrize("exponent,options,rc", [(0, [], 0), (-6, [], 2),
                                                  (0, ["--lambda=1,0"], 0),
                                                  (-20, ["--lambda=1,0"], 2)])
def test_sample_grid_of_poles_only_is_input_error(tmp_path, exponent, options, rc):
    # every point of the grid is a pole by the pole rule, of u at 10^-6 and
    # of the wave at 10^-20: no CSV of a header alone is written
    seed, out = tmp_path / "scaled.json", tmp_path / "grid.csv"
    seed.write_text(_scaled("sec22", exponent))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert cli.main(["sample-grid", "--seed", str(seed), "--grid=-3,3,-3,3,11", *options,
                         "--out", str(out)]) == rc
    if rc:
        assert stderr.getvalue() == ("input error: every point of the grid is a pole of the "
                                     "function sampled\n")
        assert not out.exists()
    else:
        assert len(out.read_text().splitlines()) == 122


def test_blowup_grid_values_beyond_float_range_are_input_error(tmp_path):
    # W has a 2e306 |z|^4 leading term, finite as a coefficient: the blow-up
    # grid leaves float range, and an inf there is no value of W
    big = "1" + "0" * 153
    seed = tmp_path / "huge.json"
    seed.write_text(json.dumps({
        "p1": [[1, {"re": "1", "im": "0"}], [2, {"re": big, "im": "0"}]],
        "p2": [[1, {"re": "1", "im": "1"}], [2, {"re": "0", "im": big}]],
        "c": {"re": "1", "im": "0"}, "time": True}))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["blowup", "--seed", str(seed)])
    assert rc == 2 and stdout.getvalue() == ""
    assert stderr.getvalue().startswith("input error: seed too large: ")
    assert "float range" in stderr.getvalue()


def test_a_zero_omega_is_rejected_where_a_frame_is_built(tmp_path):
    # p1 = i gives omega1 = i + conj(i) = 0 and W = 1: the potential u = 0 is
    # printed, and every subcommand that builds the frame rejects it
    seed = tmp_path / "omega0.json"
    seed.write_text(json.dumps({"p1": [[0, {"re": "0", "im": "1"}]],
                                "p2": [[1, {"re": "1", "im": "0"}]],
                                "c": {"re": "1", "im": "0"}, "time": False}))
    message = "ZeroPolynomial: kernel_functions needs nonzero omega1, omega2, W"
    for command, expected in (("potential", 0), ("kernel", 1), ("faddeev", 1), ("verify", 1)):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main([command, "--seed", str(seed)])
        assert rc == expected, (command, stdout.getvalue())
        assert (message in stdout.getvalue()) == (expected == 1), command


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


@pytest.mark.parametrize("time", [False, True], ids=["static", "time"])
def test_w_beyond_the_exponent_cap_is_input_error(tmp_path, time):
    # p1 of degree 33 and p2 of degree 32 give W an F term z^65, one past
    # the cap: every subcommand that builds W exits 2 before reading it
    seed = tmp_path / "z33.json"
    seed.write_text(json.dumps({"p1": [[33, {"re": "1"}], [1, {"re": "1", "im": "2"}]],
                                "p2": [[32, {"re": "2", "im": "1"}]],
                                "c": {"re": "1"}, "time": time}))
    for command in ("potential", "kernel", "scatter", "verify"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main([command, "--seed", str(seed)])
        assert rc == 2, (command, stdout.getvalue())
        assert "exceeds cap" in stderr.getvalue()


@pytest.mark.parametrize("kind,top", [("static", 16), ("time", 13)])
def test_a_seed_above_its_degree_cap_is_input_error_before_any_product(tmp_path, kind, top):
    # p1 = z^d + (1 + 2i) z and p2 = (2 + i) z^(d - 1) give W of z-degree
    # 2d - 1, so W * W reaches 2(2d - 1) on a static seed, and nv_residual's
    # P * W reaches 5d - 3 on a time seed: MAX_EXPONENT = 64 caps W's degree
    # at 32 and a time seed's at 13.  The seed of degree top loads, and one
    # degree past it exits 2 on potential and verify, naming the degree and
    # the cap, before any W
    def seed_file(degree):
        path = tmp_path / f"z{degree}.json"
        path.write_text(json.dumps({"p1": [[degree, {"re": "1"}], [1, {"re": "1", "im": "2"}]],
                                    "p2": [[degree - 1, {"re": "2", "im": "1"}]],
                                    "c": {"re": "1"}, "time": kind == "time"}))
        return str(path)

    what, degree, cap = ("W degree", 2 * top + 1, 32) if kind == "static" else \
        ("degree", top + 1, 13)
    assert SEED_DEGREE_CAP[kind] == cap
    seed, time = load_seed(seed_file(top))
    assert (seed.p1.deg_z(), time) == (top, kind == "time")
    for command in ("potential", "verify"):
        rcs, stderr = [], io.StringIO()
        with contextlib.redirect_stderr(stderr):
            counts = _build_counts(lambda: rcs.append(cli.main([command, "--seed",
                                                                seed_file(top + 1)])))
        assert rcs == [2] and counts == dict.fromkeys(BUILDERS, 0), command
        assert stderr.getvalue() == (f"input error: seed too large: a {kind} seed of {what} "
                                     f"{degree} exceeds cap {cap}, the highest {what} whose "
                                     f"products stay within exponent 64\n")


@pytest.mark.parametrize("p1,p2,degree", [
    ([[17, {"re": "1"}], [1, {"re": "1", "im": "2"}]], [[0, {"re": "2", "im": "1"}]], 17),
    ([[17, {"re": "1"}], [1, {"re": "1", "im": "2"}]], [[1, {"re": "2", "im": "1"}]], 18),
    ([[5, {"re": "1"}], [1, {"re": "1", "im": "2"}]], [[2, {"re": "2", "im": "1"}]], 7),
    ([[32, {"re": "1"}]], [[0, {"re": "2", "im": "1"}]], 32),
], ids=["17-0", "17-1", "5-2", "32-0"])
def test_a_static_seed_is_capped_by_the_z_degree_of_its_w(tmp_path, p1, p2, degree):
    # the static cap reads W's z-degree off the seeds' term degrees, m + n
    # for a term pair of z-degrees m != n and m for m = n, not the larger
    # seed degree: each seed here, the last at the cap of 32, loads, builds
    # W of that z-degree and prints its potential
    from moutardnv import moutard
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"p1": p1, "p2": p2, "c": {"re": "1"}, "time": False}))
    seed, _ = load_seed(str(path))
    assert moutard.double_w(seed).deg_z() == degree
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["potential", "--seed", str(path)]) == 0


def _loaded_after(*argvs):
    """In a fresh interpreter that imports moutardnv and moutardnv.cli and
    then runs `cli.main` on each argv: the exit codes, and which of scipy,
    numpy and numpy.polynomial are loaded at the end."""
    code = ("import contextlib, io, json, sys, moutardnv, moutardnv.cli\n"
            "rcs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rcs.append(moutardnv.cli.main(argv))\n"
            "print(json.dumps([rcs, sorted({'scipy', 'numpy', 'numpy.polynomial'} & set(sys.modules))]))\n")
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
    # every call succeeds, nv-evolve on the cubic static seed too
    assert rcs == [0] * len(exact_only)
    assert _loaded_after(["verify", "--seed", fixture_path("sec22.json")]) == [[0], ["numpy"]]
    # the blow-up search is grid evaluation and descent: no numpy.polynomial
    assert _loaded_after(["blowup", "--seed", fixture_path("sec32.json")]) == [[0], ["numpy"]]


def _loaded_by(code):
    """The modules that a fresh interpreter has loaded after running code
    and a bare one has not."""
    show = "import sys\nprint(*sorted(sys.modules))\n"
    bare, after = (set(subprocess.run([sys.executable, "-c", c], capture_output=True,
                                      text=True, check=True).stdout.split())
                   for c in (show, code + show))
    return after - bare


def test_a_cold_start_compiles_only_the_layers_it_reaches():
    # loading a seed compiles algebra, errors and harness alone: no wave,
    # float or time layer, no numpy, and no dataclasses with the inspect it
    # pulls in; importing the CLI loads neither of those two either
    heavy = {"dataclasses", "inspect", "numpy"}
    loaded = _loaded_by("import moutardnv\nfrom moutardnv.harness import load_seed\n"
                        f"load_seed({fixture_path('sec22.json')!r})\n")
    assert not loaded & heavy
    assert {m for m in loaded if m.startswith("moutardnv")} == {
        "moutardnv", "moutardnv.algebra", "moutardnv.errors", "moutardnv.harness"}
    loaded = _loaded_by("import moutardnv.cli\n")
    assert not loaded & heavy and "moutardnv.nv" in loaded


@pytest.mark.parametrize("time", [False, True])
def test_verify_on_a_zero_w_seed_prints_every_check(time, tmp_path):
    # p1 = p2 = z and c = 0 give W = 0: every check that runs fails, none
    # aborts the table
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
        # every later check reads the extended W, which is rejected
        assert rows == ["extended-w"]
    else:
        assert rows == ["frame-build", "wave-residual-exact"]
        assert lines[1].split(" ", 2)[2] == lines[2].split(" ", 2)[2]


@pytest.mark.parametrize("time", [False, True])
def test_verify_fails_where_w_vanishes_at_t0(time, tmp_path):
    # p1 = z, p2 = iz, c = -1: W = -1 + 2 z zb at t = 0, zero on a circle of
    # the grids, so the static and the time verify fail on the same zero
    seed = tmp_path / "circle.json"
    seed.write_text(json.dumps({"p1": [[1, {"re": "1"}]], "p2": [[1, {"re": "0", "im": "1"}]],
                                "c": {"re": "-1"}, "time": time}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["verify", "--seed", str(seed)])
    lines = stdout.getvalue().splitlines()
    assert rc == 1 and lines[0] == "verify: FAIL"
    failed = [line for line in lines[1:] if line.startswith("FAIL")]
    if time:
        assert failed == ["FAIL blowup-search (AlgebraError: W vanishes at t = 0 "
                          "near (-0.5, -0.5))"]
        assert len(lines) == 6              # the five rows of every time verify
    else:
        assert failed == ["FAIL denominator-nonvanishing (AlgebraError: W vanishes "
                          "near (-0.5, -0.5))"]


def test_blowup_fails_where_w_vanishes_at_t0(tmp_path):
    # the time seed of test_verify_fails_where_w_vanishes_at_t0: blowup fails
    # on the zero at t = 0 as verify's blowup-search row does
    seed = tmp_path / "circle.json"
    seed.write_text(json.dumps({"p1": [[1, {"re": "1"}]], "p2": [[1, {"re": "0", "im": "1"}]],
                                "c": {"re": "-1"}, "time": True}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["blowup", "--seed", str(seed)])
    assert rc == 1
    assert stdout.getvalue() == "FAIL AlgebraError: W vanishes at t = 0 near (-0.5, -0.5)\n"


ZERO_W_ARGV = {"sample-grid": ["--grid=-1,1,-1,1,3", "--out"]}


@pytest.mark.parametrize("time", [False, True])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_subcommand_rejects_a_zero_w_with_one_message(command, time, tmp_path):
    # p2 = 3 p1 and c = 0 give W = 0, and on the time seed a zero time leg
    # too; p2 = p1 + i and c = -2 Re p1(0) with p1 cubic give W = 0 while
    # the static W of the evolved seed is 12t, which the time term cancels
    seeds = [([[1, {"re": "1"}], [2, {"re": "1"}]], [[1, {"re": "3"}], [2, {"re": "3"}]], "0"),
             ([[0, {"re": "1"}], [3, {"re": "1"}]],
              [[0, {"re": "1", "im": "1"}], [3, {"re": "1"}]], "-2")]
    for p1, p2, c in seeds:
        seed = tmp_path / "zero.json"
        seed.write_text(json.dumps({"p1": p1, "p2": p2, "c": {"re": c}, "time": time}))
        out = tmp_path / "out.csv"
        argv = [command, "--seed", str(seed)] + ZERO_W_ARGV.get(command, ["--out"]) + [str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        assert rc == 1, c
        assert "ZeroPolynomial: W is identically zero" in stdout.getvalue(), c
        assert not out.exists()


@pytest.mark.parametrize("argv", [["potential", "--t", "5"], ["verify", "--tol", "1"],
                                  ["scatter", "--lambda=1,0"], ["blowup", "--tol", "1"]])
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
    assert options.pop("sample-grid") == ["csv", "grid", "lam", "out", "seed", "t"]
    assert all(v == ["out", "seed"] for v in options.values())
    assert len(options) == 8


BUILDERS = ("extended_w", "double_w", "build_frame", "potential", "nv_potentials", "nv_v",
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
    ("verify", "sec22", {"double_w": 1, "build_frame": 1, "potential": 0}),
    ("verify", "sec22_cubic", {"double_w": 1, "build_frame": 1, "potential": 0}),
    ("verify", "sec32", {"extended_w": 1, "double_w": 1, "build_frame": 1, "potential": 0,
                         "nv_potentials": 1}),
    ("verify", "sec22_cubic_time", {"extended_w": 1, "double_w": 1, "build_frame": 1,
                                    "potential": 0, "nv_potentials": 1, "heat3_evolve": 2}),
    ("nv-evolve", "sec32", {"extended_w": 1, "double_w": 1, "nv_potentials": 1, "nv_v": 1}),
    ("faddeev", "sec22_cubic", {"double_w": 1, "build_frame": 1, "potential": 0}),
    ("scatter", "sec22_cubic", {"double_w": 1, "build_frame": 1, "potential": 0}),
    ("nv_faddeev", "sec32", {"extended_w": 1, "double_w": 1, "build_frame": 1,
                             "potential": 0}),
    ("build_faddeev", "sec22", {"double_w": 1, "build_frame": 1, "potential": 0}),
]


@pytest.mark.parametrize("what,name,expected", BUILD_COUNTS,
                         ids=[f"{what}-{name}" for what, name, _ in BUILD_COUNTS])
def test_each_object_is_built_once(what, name, expected):
    # one W and one frame per call, and the time verify's U; no separate
    # potential for a wave, whose exact residual sets its u from the pass
    # that checks it, which the static verify's finite-difference check
    # reads again, and V only by nv-evolve, which writes it; the seed read
    # from the file is evolved once, one heat3_evolve per polynomial, and
    # the evolved seed passes every later layer as it is; sec32's
    # quadratics are their own evolution, so are never evolved
    path = fixture_path(f"{name}.json")
    builders = {"nv_faddeev": nv.nv_faddeev, "build_faddeev": fd.build_faddeev}
    if what in builders:
        seed = load_seed(path)[0]
        fn = lambda: builders[what](seed)
    else:
        fn = lambda: cli.main([what, "--seed", path])
    assert _build_counts(fn) == {**dict.fromkeys(BUILDERS, 0), **expected}


def test_verify_on_sec32_forms_hirota_products_once():
    # D_z D_zb (W . W) is formed by nv_potentials, and nv_residual reads it
    # off U. Then D_z^3 D_zb on (W . W), whose conjugate is D_z D_zb^3 for
    # the real W; and the wave's one pass, which forms its spatial residual,
    # its u (W's own term, kept apart) and its time leg. V's D_z^2 is never
    # formed.
    counts = _build_counts(lambda: cli.main(["verify", "--seed", fixture_path("sec32.json")]),
                           ("hirota",))
    assert counts == {"hirota": 3}


@pytest.mark.parametrize("name,c,form", [("sec22", "1000000", "-17/8*z^2*zb^2"),
                                         ("sec22_cubic", "1000000000000", "-4*z^3*zb^3")])
def test_verify_fails_on_a_leading_form_of_the_other_sign(name, c, form, tmp_path):
    # W > 0 on the certificate's grid, and its leading form is negative: W
    # has a real zero past the grid, and the row names the form
    with open(fixture_path(f"{name}.json")) as fh:
        data = {**json.load(fh), "c": {"re": c, "im": "0"}}
    seed = tmp_path / "big_c.json"
    seed.write_text(json.dumps(data))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["verify", "--seed", str(seed)])
    lines = stdout.getvalue().splitlines()
    assert rc == 1 and lines[0] == "verify: FAIL"
    assert [line for line in lines[1:] if line.startswith("FAIL")] == [
        f"FAIL denominator-nonvanishing (AlgebraError: W vanishes: W has one sign on the "
        f"grid and its leading form {form} the other)"]


def test_verify_passes_the_certificate_row_on_certified_positive_alone(monkeypatch):
    # an inconclusive certificate is no proof that W does not vanish
    from moutardnv import moutard
    monkeypatch.setattr(moutard, "nonvanishing_certificate",
                        lambda w: moutard.NonvanishingReport("inconclusive"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["verify", "--seed", fixture_path("sec22.json")])
    lines = stdout.getvalue().splitlines()
    assert rc == 1 and lines[0] == "verify: FAIL"
    assert [line for line in lines[1:] if line.startswith("FAIL")] == [
        "FAIL denominator-nonvanishing (AlgebraError: W is not certified nonvanishing: "
        "inconclusive)"]
