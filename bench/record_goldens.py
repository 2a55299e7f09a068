"""Record bench/goldens.json: the outputs of every pool member and cli op.

usage: PYTHONPATH=src python3 bench/record_goldens.py

Run this only at a commit whose outputs are trusted; the benchmark compares
every later run against the file it writes.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl
from moutardnv import harness as hn
from moutardnv import moutard as mt


def admissible(w, half=10.0, n=201) -> bool:
    """W keeps one sign on a grid over [-half, half]^2. A sign change proves
    a real zero: the potential is singular and `mnv verify` rightly rejects
    the seed, so it is no valid input."""
    xs = np.linspace(-half, half, n)
    z = xs[None, :] + 1j * xs[:, None]
    vals = np.zeros_like(z)
    for (i, j, _), c in w.terms.items():
        vals += complex(c) * z ** i * np.conj(z) ** j
    return bool(vals.real.min() > 0.0 or vals.real.max() < 0.0)


def stratum(res) -> str:
    """The branch of the blow-up search a time seed takes."""
    rep = res.get("blowup")
    if rep is None:
        return "error"
    if not rep.found:
        return "none"
    return "zero-at-0" if rep.t_star == 0.0 else "blowup"


def record_op(op, seed, time_flag, tmp: Path, name: str) -> dict:
    path = tmp / f"{name}.json"
    hn.save_seed(path, seed, time_flag)
    loaded, _ = hn.load_seed(path)
    ck, res = op(loaded)
    entry = {"seed_sha": wl.file_sha(path), "failures": [list(f) for f in ck.failures]}
    entry.update(wl.exact_outputs(res))
    if op is wl.time_op:
        entry["stratum"] = stratum(res)
    print(name, entry["failures"], entry.get("stratum", ""), file=sys.stderr, flush=True)
    return entry


def main():
    goldens = {"static": {}, "time": {}, "cli": {}}
    with tempfile.TemporaryDirectory(dir=wl.ROOT / ".bench_build") as tmpname:
        tmp = Path(tmpname)
        for name in ("sec22", "sec22_cubic"):
            goldens["static"][name] = record_op(wl.static_op, wl.fixture(name)[0], False, tmp, name)
        admitted = {d: 0 for d in wl.STATIC_DRAW}
        for name, (seed, d) in wl.static_candidates().items():
            if admitted[d] == wl.STATIC_DRAW[d][0] or not admissible(mt.double_w(seed)):
                goldens["static"][name] = {"admissible": False}
                continue
            admitted[d] += 1
            goldens["static"][name] = record_op(wl.static_op, seed, False, tmp, name)
            goldens["static"][name]["admissible"] = True
        goldens["time"]["sec32"] = record_op(wl.time_op, wl.fixture("sec32")[0], True, tmp, "sec32")
        for name, seed in list(wl.time_candidates().items()) + list(wl.cubic_pool().items()):
            goldens["time"][name] = record_op(wl.time_op, seed, True, tmp, name)

        (tmp / "inputs").mkdir()
        (tmp / "out").mkdir()
        for name in ("sec22", "sec22_cubic", "sec32"):
            seed, time_flag = wl.fixture(name)
            hn.save_seed(tmp / "inputs" / f"{name}.json", seed, time_flag)
        for op in wl.CLI_OPS:
            rc, stdout, _, _ = wl.run_child(wl.cli_argv(op), tmp)
            goldens["cli"][op[0]] = wl.cli_outputs(op, rc, stdout, tmp)
            print(op[0], rc, file=sys.stderr, flush=True)
    with open(wl.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    (wl.ROOT / ".bench_build").mkdir(exist_ok=True)
    main()
