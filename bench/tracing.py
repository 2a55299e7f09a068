"""Spans around the public functions of moutardnv, recorded from outside.

`install(tracer)` replaces every module binding of each traced function with a
wrapper (for example `faddeev.build_frame` and `nv.moutard_transform_wave` as
well as `moutard.build_frame`), so calls made inside the library are seen too.
Nothing under `src/` changes. Spans are recorded only while `Tracer.op`
names the op being run, so the benchmark's own checks between ops leave none;
they stay in memory until `write_spans`.

A span is a list; its fields are indexed by the constants below. Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

ID, PARENT, OP, NAME, DUR, CHILD, FAILED, ATTRS = range(8)

MODULES = ("algebra", "exppoly", "moutard", "faddeev", "nv", "harness", "cli")

# module -> public functions whose spans the benchmark reports
FUNCTIONS = {
    "exppoly": ("wave_eval", "wave_antideriv_z"),
    "moutard": ("build_frame", "moutard_transform_wave", "nonvanishing_certificate"),
    "faddeev": ("faddeev_superpose", "residual", "scattering_data"),
    "nv": ("extended_w", "nv_potentials", "nv_residual", "nv_faddeev",
           "temporal_residual", "blowup_time"),
    "harness": ("fd_residual", "write_grid_csv", "load_seed"),
}
GENERATORS = {"harness": ("sample_grid",)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def new(self, name):
        parent = self.stack[-1][ID] if self.stack else -1
        rec = [len(self.spans), parent, self.op, name, 0.0, 0.0, 0, None]
        self.spans.append(rec)
        return rec

    def enter(self, rec):
        self.stack.append(rec)
        return time.perf_counter()

    def leave(self, rec, t0):
        d = time.perf_counter() - t0
        self.stack.pop()
        rec[DUR] += d
        if self.stack:
            self.stack[-1][CHILD] += d

    def inside(self, name) -> bool:
        return any(rec[NAME] == name for rec in self.stack)


def _wrap(tracer, name, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        rec = tracer.new(name)
        t0 = tracer.enter(rec)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[FAILED] += 1
            raise
        finally:
            tracer.leave(rec, t0)
        if attrs is not None:
            rec[ATTRS] = attrs(args, out)
        return out
    return traced


def _wrap_generator(tracer, name, fn):
    """The work of a generator happens in next(), so the span is entered and
    left around each step and counts the points it yields."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if tracer.op is None:
            return gen
        rec = tracer.new(name)
        rec[ATTRS] = {"points": 0}

        def steps():
            while True:
                t0 = tracer.enter(rec)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    rec[FAILED] += 1
                    raise
                finally:
                    tracer.leave(rec, t0)
                rec[ATTRS]["points"] += 1
                yield item
        return steps()
    return traced


def _mul_attrs(args, out):
    a, b = args
    return {"term_pairs": len(a.terms) * len(b.terms), "out_terms": len(out.terms)}


def install(tracer: Tracer):
    """Patch every binding; returns a function that restores the originals."""
    mods = [importlib.import_module("moutardnv")]
    mods += [importlib.import_module(f"moutardnv.{m}") for m in MODULES]
    restore = []

    def rebind(fn, wrapper):
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    for modname, names in FUNCTIONS.items():
        mod = importlib.import_module(f"moutardnv.{modname}")
        for fname in names:
            fn = getattr(mod, fname)
            rebind(fn, _wrap(tracer, f"{modname}.{fname}", fn))
    for modname, names in GENERATORS.items():
        mod = importlib.import_module(f"moutardnv.{modname}")
        for fname in names:
            fn = getattr(mod, fname)
            rebind(fn, _wrap_generator(tracer, f"{modname}.{fname}", fn))

    from moutardnv import nv
    from moutardnv.algebra import MPoly
    plain_mul = MPoly.__mul__
    traced_mul = _wrap(tracer, "algebra.MPoly.mul", plain_mul, _mul_attrs)

    def mul(self, other):
        """Spans for polynomial products only; scaling by a number is not one."""
        if isinstance(other, MPoly):
            return traced_mul(self, other)
        return plain_mul(self, other)

    ev = _wrap(tracer, "algebra.MPoly.eval", MPoly.eval)
    for attr, wrapper in (("__mul__", mul), ("__rmul__", mul), ("eval", ev)):
        restore.append((MPoly, attr, MPoly.__dict__[attr]))
        setattr(MPoly, attr, wrapper)

    # minimize calls and function evaluations, counted where nv calls SciPy
    minimize = nv.minimize

    def counted_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        if tracer.inside("nv.blowup_time"):
            rec = tracer.new("nv.minimize")
            rec[ATTRS] = {"nfev": int(res.nfev)}
        return res

    restore.append((nv, "minimize", minimize))
    nv.minimize = counted_minimize

    def uninstall():
        for obj, attr, val in reversed(restore):
            setattr(obj, attr, val)
    return uninstall


def span_dicts(spans):
    for rec in spans:
        d = {"id": rec[ID], "parent": rec[PARENT], "op": rec[OP],
             "name": rec[NAME], "dur": rec[DUR], "self": rec[DUR] - rec[CHILD],
             "failed": rec[FAILED]}
        if rec[ATTRS]:
            d.update(rec[ATTRS])
        yield d


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        for d in spans:
            fh.write(json.dumps(d, separators=(",", ":")) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def aggregate(span_list) -> dict:
    """name -> calls, total self time, failures and summed attributes."""
    out = {}
    for d in span_list:
        agg = out.setdefault(d["name"], {"calls": 0, "self_s": 0.0, "failed": 0})
        agg["calls"] += 1
        agg["self_s"] += d["self"]
        agg["failed"] += d["failed"]
        for key in ("term_pairs", "out_terms", "points", "nfev"):
            if key in d:
                agg[key] = agg.get(key, 0) + d[key]
    return out
