"""The traced benchmark run patches library names from outside; a rename in
the library must fail here rather than break that run silently."""

import importlib.util
import os

from moutardnv import nv
from moutardnv.algebra import MPoly

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def test_bench_tracing_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = (MPoly.__mul__, MPoly.__rmul__, MPoly.eval, nv.minimize, nv.extended_w)
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert nv.extended_w is not before[4]
    finally:
        uninstall()
    assert (MPoly.__mul__, MPoly.__rmul__, MPoly.eval, nv.minimize, nv.extended_w) == before
