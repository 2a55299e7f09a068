"""Every name a library module imports is used in that module, every
module-level private function or class is read in its own module, every
module-level function or class is reached from `mnv` or the benchmark, every
method is read by name in the library or the benchmark, every parameter with
a default is passed at some call in the library or the benchmark, every
operator of the exact types and the wave is called by `mnv` or the
benchmark or named by the benchmark, no module imports numpy when it is
itself imported, no module imports dataclasses and harness imports no wave,
float or time layer when it is itself imported, every `lru_cache` is keyed
on numbers alone (each of its function's parameters annotated int, float
or bool), np.vander is called only in `algebra.grid_axis` and
`algebra.xy_eval`, and every library name and test that README cites
exists.

No linter is installed, so these are the unused-import and dead-code
checks: they parse each module under src/moutardnv/ and compare the names
its imports or definitions bind with the names code reads, string
annotations included.  The exact chain runs without numpy, which only the
functions that evaluate floats import, each in its own body, and a seed
loads without the layers that build from it.  The operator check runs the
code instead of parsing it: which special method an operator reaches
(`x + y` or `y + x`, `__add__` or `__radd__`) is decided at run time.
"""

import ast
import importlib
import os
import re

import pytest

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, "..", "src", "moutardnv")
BENCH = os.path.join(TESTS, "..", "bench")
README = os.path.join(TESTS, "..", "README.md")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _imported(tree):
    """name -> line for every name bound by an import statement."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Names read anywhere in the module, inside string annotations too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in
                           args.posonlyargs + args.args + args.kwonlyargs
                           + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= _used(ast.parse(ann.value, mode="eval"))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = _parse(os.path.join(SRC, module))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{module}: imported but not used: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom x import (a, b as c)\n"
                     "def f(p: 'a') -> None:\n    return os\n")
    imported = _imported(tree)
    assert set(imported) == {"os", "a", "c"}
    assert {n for n in imported if n not in _used(tree)} == {"c"}


def _unread_private(tree):
    """name -> line for every module-level _-prefixed function or class that
    no other top-level statement of the module reads."""
    out = {}
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")):
            rest = ast.Module([n for n in tree.body if n is not node], [])
            if node.name not in _used(rest):
                out[node.name] = node.lineno
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_private_helpers(module):
    tree = _parse(os.path.join(SRC, module))
    unread = _unread_private(tree)
    assert not unread, f"{module}: private helper never read: {unread}"


def test_check_sees_an_unread_private_helper():
    tree = ast.parse("def _a():\n    return _a()\n"
                     "def _b():\n    return 1\n"
                     "class _C:\n    pass\n"
                     "def f(x: '_C'):\n    return _b()\n")
    assert set(_unread_private(tree)) == {"_a"}


def _import_nodes(tree, eager=False):
    """Every import statement of the tree; with eager, those that run when
    the module is imported: every one outside a function body."""
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        if not (eager and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))):
            nodes.extend(ast.iter_child_nodes(node))


def _eager_imports(tree):
    """Top-level package of every absolute import that runs when the module
    is imported."""
    out = set()
    for node in _import_nodes(tree, eager=True):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_module_level_numpy_import(module):
    tree = _parse(os.path.join(SRC, module))
    assert "numpy" not in _eager_imports(tree), f"{module} imports numpy when imported"


def test_check_sees_a_module_level_import():
    tree = ast.parse("import numpy.linalg as la\nfrom . import errors\n"
                     "try:\n    from numpy import polynomial\nexcept ImportError:\n    pass\n"
                     "class C:\n    import json\n"
                     "def f():\n    import scipy\n"
                     "    def g():\n        import math\n")
    assert _eager_imports(tree) == {"numpy", "json"}


# the layers that loading a seed does not reach: harness, which loads it,
# imports them only in the bodies of the functions that read them
SEED_LOADER_SKIPS = {".exppoly", ".faddeev", ".moutard", ".nv"}


def _imported_modules(tree, eager=False):
    """Each module that an import statement of the tree names, a relative
    one with its dots ('.exppoly' for `from .exppoly import f` and for
    `from . import exppoly`); with eager, only the imports that run when
    the module is imported."""
    out = set()
    for node in _import_nodes(tree, eager):
        if isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            out |= ({dots + node.module} if node.module
                    else {dots + alias.name for alias in node.names})
        else:
            out |= {alias.name for alias in node.names}
    return out


def _cold_start_faults(modules):
    """'module: imported' for every import of dataclasses in the modules
    (name -> parsed tree), which pulls in inspect and ast, and for every
    import of a layer in SEED_LOADER_SKIPS that runs when harness is
    imported."""
    faults = [f"{mod}: dataclasses" for mod, tree in modules.items()
              if "dataclasses" in _imported_modules(tree)]
    if "harness" in modules:
        faults += [f"harness: {name}" for name in sorted(
            _imported_modules(modules["harness"], eager=True) & SEED_LOADER_SKIPS)]
    return sorted(faults)


def test_no_dataclasses_and_a_seed_loads_without_the_layers_built_from_it():
    modules = {f[:-3]: _parse(os.path.join(SRC, f)) for f in MODULES}
    assert "harness" in modules and _cold_start_faults(modules) == []


def test_check_sees_a_dataclass_and_an_eager_layer_import():
    modules = {"harness": ast.parse("from .moutard import SeedPair\nfrom . import nv, errors\n"
                                    "from .algebra import MPoly\n"
                                    "def f():\n    from .exppoly import exp_phase\n"),
               "a": ast.parse("def g():\n    import dataclasses as dc\n"),
               "b": ast.parse("from dataclasses import dataclass\n"),
               "c": ast.parse("from .faddeev import FaddeevWave\n")}
    assert _cold_start_faults(modules) == ["a: dataclasses", "b: dataclasses", "harness: .moutard",
                                           "harness: .nv"]


# the annotations a cached function's parameters may carry: its key is then
# numbers only, so each cache is a table of constants and no call can reuse
# a result built from another call's polynomial or seed
CACHE_KEY_TYPES = {"int", "float", "bool"}


def _cached_off_numbers(tree):
    """'name' of every function decorated with lru_cache (`@lru_cache`,
    `@lru_cache(...)`, `@functools.lru_cache...`) one of whose parameters
    is not annotated int, float or bool."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cached = any(_reads(d.func if isinstance(d, ast.Call) else d) & {"lru_cache", "cache"}
                     for d in fn.decorator_list)
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        if cached and not all(_annotation(a.annotation) in CACHE_KEY_TYPES for a in params):
            out.append(fn.name)
    return out


def _annotation(node):
    """The name an annotation gives, a string annotation parsed."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    return node.id if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("module", MODULES)
def test_every_cache_is_keyed_on_numbers(module):
    assert _cached_off_numbers(_parse(os.path.join(SRC, module))) == []


def test_check_sees_a_cache_keyed_on_an_object():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=None)\ndef rows(i: int, j: 'int') -> tuple:\n    pass\n"
                     "@lru_cache\ndef axis(lo: float, hi: float, on: bool):\n    pass\n"
                     "@functools.lru_cache(maxsize=8)\ndef of_poly(p: MPoly):\n    pass\n"
                     "@lru_cache\ndef bare(n):\n    pass\n"
                     "@cache\ndef listed(ns: list):\n    pass\n"
                     "@lru_cache\ndef star(*ns: int, **kw: int):\n    pass\n"
                     "def plain(p: MPoly):\n    pass\n")
    assert _cached_off_numbers(tree) == ["of_poly", "bare", "listed"]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


# the one cached table builder of the checks' fixed points, and the reader
# that makes the tables of the points it is given: another builder of power
# tables would be another copy of every rule about float reads
VANDER_CALLERS = {"algebra.grid_axis", "algebra.xy_eval"}


def _vander_callers(modules):
    """'module.name' of the module-level function or class around every
    call `vander(...)` or `x.vander(...)` (np.vander) in the modules (name
    -> parsed tree), and 'module.<top>' for a call outside them."""
    out = set()
    for module, tree in modules.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "vander" in (getattr(node.func, "attr", None),
                                                               getattr(node.func, "id", None)):
                    out.add(f"{module}.{top.name if isinstance(top, DEFINITIONS) else '<top>'}")
    return out


def test_np_vander_is_called_only_in_grid_axis_and_xy_eval():
    modules = {f[:-3]: _parse(os.path.join(SRC, f)) for f in MODULES}
    assert _vander_callers(modules) == VANDER_CALLERS


def test_check_sees_a_vander_call_outside_grid_axis_and_xy_eval():
    tree = ast.parse("import numpy as np\nfrom numpy import vander\n"
                     "def grid_axis(x):\n    return np.vander(x, 3)\n"
                     "def xy_eval(z):\n    def tables(s):\n        return np.vander(s, 2)\n"
                     "    return tables(z)\n"
                     "class Rays:\n    def tables(self, x):\n        return vander(x, 4)\n"
                     "def near(x):\n    return x.vander, np.vander_like(x)\n"
                     "TABLE = np.vander([1.0], 2)\n")
    assert _vander_callers({"algebra": tree}) == VANDER_CALLERS | {"algebra.Rays",
                                                                   "algebra.<top>"}


def _reads(node, strings=False):
    """Every name and attribute a subtree reads; with strings, every string
    constant that is an identifier too (bench/tracing.py wraps library
    functions by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and str(sub.value).isidentifier():
            out.add(sub.value)
    return out


def _unreached(modules, roots):
    """'module.name' of every module-level function or class of the modules
    (name -> parsed tree) that neither the names in roots nor a module-level
    statement other than an import reach, following the bodies of what is
    reached.  Definitions are matched by name alone, so a name read anywhere
    reaches every definition of it."""
    defs, reached = {}, set(roots)
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _reads(node)
    todo = [name for name in reached if name in defs]
    while todo:
        for node in defs[todo.pop()]:
            for name in _reads(node) & defs.keys() - reached:
                reached.add(name)
                todo.append(name)
    return sorted(f"{mod}.{node.name}" for mod, tree in modules.items()
                  for node in tree.body
                  if isinstance(node, DEFINITIONS) and node.name not in reached)


def _bench_names():
    """Every name, attribute and identifier string the benchmark reads."""
    return set().union(*(_reads(_parse(os.path.join(BENCH, f)), strings=True)
                         for f in sorted(os.listdir(BENCH)) if f.endswith(".py")))


def test_every_definition_is_reached_from_mnv_or_the_benchmark():
    modules = {f[:-3]: _parse(os.path.join(SRC, f)) for f in MODULES}
    assert _unreached(modules, _bench_names()) == []


def test_check_sees_an_unreached_definition():
    # TABLE -> Entry -> Entry.run -> b.middle -> end: a chain across modules;
    # orphan reads itself and is read by no one
    modules = {"a": ast.parse("import b\n"
                              "def orphan():\n    return orphan()\n"
                              "class Entry:\n    def run(self):\n        return b.middle()\n"
                              "TABLE = {'run': Entry}\n"),
               "b": ast.parse("def middle():\n    return end()\n"
                              "def end():\n    return 2\n")}
    assert _unreached(modules, set()) == ["a.orphan"]
    assert _unreached(modules, {"orphan"}) == []


def _unread_methods(modules, readers):
    """'Class.method' of every method, dunders left out, of a module-level
    class of the modules (parsed trees) whose name no attribute of the
    readers (parsed trees) reads."""
    reads = {sub.attr for tree in readers for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)}
    return sorted(f"{node.name}.{fn.name}" for tree in modules for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  for fn in node.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (fn.name.startswith("__") and fn.name.endswith("__"))
                  and fn.name not in reads)


def test_every_method_is_read_in_the_library_or_the_benchmark():
    src = [_parse(os.path.join(SRC, f)) for f in MODULES]
    bench = [_parse(os.path.join(BENCH, f)) for f in sorted(os.listdir(BENCH))
             if f.endswith(".py")]
    assert _unread_methods(src, src + bench) == []


def test_check_sees_an_unread_method():
    tree = ast.parse("class A:\n    def __init__(self):\n        self.used()\n"
                     "    def used(self):\n        return 1\n"
                     "    def orphan(self):\n        return 2\n"
                     "    @property\n    def size(self):\n        return 3\n"
                     "def f(a):\n    return a.size\n")
    assert _unread_methods([tree], [tree]) == ["A.orphan"]


def _calls(trees):
    """(callee name, positional arguments before the first starred one,
    whether one is starred, keyword names) of every call in the trees.  A
    call names its callee by the name or attribute called; cls(...) in a
    class body names that class."""
    out = []
    for tree in trees:
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = owner.get(node, func.id) if func.id == "cls" else func.id
            else:
                continue
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            out.append((name, starred[0] if starred else len(node.args), bool(starred),
                        {kw.arg for kw in node.keywords}))
    return out


def _unpassed_parameters(modules, callers):
    """'module.function.parameter' of every parameter with a default of a
    function or method of the modules (name -> parsed tree) that no call in
    the callers (parsed trees) to a callee of its name passes, by name or by
    position.  A class's __init__ is called by the class's name, and a
    method's positions start after self or cls; a starred positional
    argument passes every later position."""
    calls = _calls(callers)
    out = []
    for mod, tree in modules.items():
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update((fn, node.name) for fn in node.body
                               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(fn)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls and not static else 0
            callee = cls if cls and fn.name == "__init__" else fn.name
            args = fn.args
            positional = args.posonlyargs + args.args
            params = [(arg.arg, index - skip) for index, arg in
                      enumerate(positional) if index >= len(positional) - len(args.defaults)]
            params += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            where = f"{mod}.{cls}.{fn.name}" if cls else f"{mod}.{fn.name}"
            for param, pos in params:
                if not any(name == callee and (param in keywords or pos is not None
                                                and (pos < npos or starred))
                           for name, npos, starred, keywords in calls):
                    out.append(f"{where}.{param}")
    return sorted(out)


def test_every_default_parameter_is_passed_by_mnv_or_the_benchmark():
    modules = {f[:-3]: _parse(os.path.join(SRC, f)) for f in MODULES}
    bench = [_parse(os.path.join(BENCH, f)) for f in sorted(os.listdir(BENCH))
             if f.endswith(".py")]
    assert _unpassed_parameters(modules, [*modules.values(), *bench]) == []


def test_check_sees_a_parameter_no_call_passes():
    # f.b and g.x are passed by no call; K.__init__.n by cls(3), K.m.p and
    # K.m.q by the starred argument, f.c by name and h.y by position
    tree = ast.parse("def f(a, b=1, *, c=2):\n    return a\n"
                     "def g(x=0):\n    return x\n"
                     "def h(x, y=0):\n    return y\n"
                     "class K:\n    def __init__(self, n=0):\n        self.n = n\n"
                     "    @classmethod\n    def make(cls):\n        return cls(3)\n"
                     "    def m(self, p=1, q=2):\n        return p\n"
                     "f(1, c=3)\nK.make().m(*[1, 2])\nh(1, 2)\n")
    assert _unpassed_parameters({"a": tree}, [tree]) == ["a.f.b", "a.g.x"]
    assert _unpassed_parameters({"a": tree}, [ast.parse("f(1, 2)\ng(x=1)\n")]) == \
        ["a.K.__init__.n", "a.K.m.p", "a.K.m.q", "a.f.c", "a.h.y"]


# the operators left to the language's defaults or read only by tests and
# printing: construction, equality, text and the complex value of a scalar
UNPROBED = {"__init__", "__eq__", "__repr__", "__str__", "__complex__"}


def _operators(classes):
    """(class, name) of every special method defined in the classes' bodies,
    an alias such as __radd__ = __add__ under its own name, UNPROBED left
    out."""
    return [(cls, name) for cls in classes for name, fn in vars(cls).items()
            if name.startswith("__") and name.endswith("__") and callable(fn)
            and name not in UNPROBED]


def _uncalled_operators(monkeypatch, classes, drive, named):
    """'Class.name' of every operator of the classes that drive() never
    calls and that is not in named: each is replaced, while drive runs, by a
    wrapper that records its call."""
    called = set()

    def probe(key, fn):
        def wrapped(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)
        return wrapped

    operators = _operators(classes)
    with monkeypatch.context() as patch:
        for cls, name in operators:
            patch.setattr(cls, name, probe((cls, name), vars(cls)[name]))
        drive()
    return sorted(f"{cls.__name__}.{name}" for cls, name in operators
                  if (cls, name) not in called and name not in named)


def test_every_operator_is_called_by_mnv_or_the_benchmark(monkeypatch, tmp_path):
    """Every subcommand in-process on each fixture, sample-grid with and
    without --lambda, a static and a time op of the benchmark and its seed
    generation call every arithmetic or hash operator of the exact types
    and the wave that the benchmark does not patch by name."""
    import contextlib
    import io

    from moutardnv import cli
    from moutardnv.algebra import GaussianRational, MPoly, RationalFn
    from moutardnv.exppoly import WaveFn

    from conftest import FIXTURES
    from test_bench_contract import bench_module

    wl = bench_module("workloads")
    fixtures = sorted(os.path.join(FIXTURES, f) for f in os.listdir(FIXTURES)
                      if f.endswith(".json"))
    assert len(fixtures) >= 4
    grid = ["--grid=-1,1,-1,1,5", "--t", "0.3"]

    def drive():
        for path in fixtures:
            for command in cli.COMMANDS:
                for extra in ([grid, [*grid, "--lambda=0.7,0.4"]] if command == "sample-grid"
                              else [[]]):
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main([command, "--seed", path, "--out", str(tmp_path / "out"),
                                       *extra])
                    assert rc == 0, (command, path, extra)
        wl.static_op(wl.fixture("sec22")[0])
        wl.time_op(wl.fixture("sec32")[0])
        wl.static_candidates()
        wl.time_candidates()

    classes = (GaussianRational, MPoly, RationalFn, WaveFn)
    assert _uncalled_operators(monkeypatch, classes, drive, _bench_names()) == []


def test_check_sees_an_uncalled_operator(monkeypatch):
    class Num:
        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            return Num(self.v + other.v)

        __radd__ = __add__

        def __neg__(self):
            return Num(-self.v)

        def __hash__(self):
            return hash(self.v)

    def drive():
        assert (Num(1) + Num(2)).v == 3

    assert _uncalled_operators(monkeypatch, [Num], drive, set()) == ["Num.__hash__",
                                                                     "Num.__neg__",
                                                                     "Num.__radd__"]
    assert _uncalled_operators(monkeypatch, [Num], drive, {"__neg__", "__radd__"}) == \
        ["Num.__hash__"]
    assert Num.__add__ is Num.__radd__          # the probes are gone


def _unraised_errors(errors, modules):
    """Every exception class that the errors module (a parsed tree) defines,
    its base AlgebraError left out, that no raise statement of the modules
    (parsed trees) names, as `raise E` or `raise E(...)`."""
    raised = set()
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= _reads(exc)
    return sorted(node.name for node in errors.body
                  if isinstance(node, ast.ClassDef) and node.name != "AlgebraError"
                  and node.name not in raised)


def test_every_error_type_is_raised_by_the_library():
    modules = [_parse(os.path.join(SRC, f)) for f in MODULES]
    assert _unraised_errors(_parse(os.path.join(SRC, "errors.py")), modules) == []


def test_check_sees_an_unraised_error_type():
    errors = ast.parse("class AlgebraError(Exception):\n    pass\n"
                       "class Used(AlgebraError):\n    pass\n"
                       "class Bare(AlgebraError):\n    pass\n"
                       "class Caught(AlgebraError):\n    pass\n"
                       "class Orphan(AlgebraError):\n    pass\n")
    module = ast.parse("from .errors import Bare, Caught, Orphan, Used, errors\n"
                       "def f(x):\n    if x:\n        raise Used(f'{x}')\n"
                       "    try:\n        raise errors.Bare\n"
                       "    except Caught:\n        raise\n"
                       "    return isinstance(x, Orphan)\n")
    assert _unraised_errors(errors, [module]) == ["Caught", "Orphan"]


README_MODULES = ("algebra", "exppoly", "moutard", "faddeev", "nv", "harness", "cli")


def _stale_references(text, tests_dir):
    """README's `module.name` citations that name no attribute of
    moutardnv.<module> (a `module.py` file name is not one), and its
    `test_x.py::name` and `oracles.py::name` citations that name no def or
    class in that file of tests_dir."""
    stale = []
    for module, name in re.findall(rf"`({'|'.join(README_MODULES)})\.(\w+)", text):
        if name != "py" and not hasattr(importlib.import_module(f"moutardnv.{module}"), name):
            stale.append(f"{module}.{name}")
    defs = {}
    for path, name in re.findall(r"\b((?:test_\w+|oracles)\.py)::(\w+)", text):
        if path not in defs:
            defs[path] = {node.name for node in ast.walk(_parse(os.path.join(tests_dir, path)))
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        if name not in defs[path]:
            stale.append(f"{path}::{name}")
    return stale


def test_every_citation_in_readme_exists():
    with open(README) as fh:
        assert _stale_references(fh.read(), TESTS) == []


def test_check_sees_a_stale_citation():
    text = ("`nv.extended_w` and `nv._Evolved(seed)`, `moutard.py`, `cli.main`,\n"
            "`faddeev.bilinear_residual`, tests/test_nv.py::test_manakov_identity,\n"
            "`test_nv.py::no_such_test`, `oracles.py::Frac`, `oracles.py::gone`")
    assert _stale_references(text, TESTS) == ["nv._Evolved", "faddeev.bilinear_residual",
                                              "test_nv.py::no_such_test", "oracles.py::gone"]
