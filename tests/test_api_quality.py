"""Package-wide API quality gates.

A library is adoptable when its public surface is documented and its
exports are honest.  These tests walk every ``repro`` module and enforce:

* every module has a docstring,
* every name in ``__all__`` actually exists in the module,
* every public function/class reachable through ``__all__`` has a
  docstring,
* public callables have no positional-only surprises (inspectable
  signatures),
* no module reaches into another module's underscore-prefixed names,
* nothing current still points at the retired host-time harness,
* the optimizer's config carries no field, and the compile/tune surface
  no ``topo`` parameter, that exists only to be passed along,
* there is one optimiser with one price — no ``strategy`` to choose, one
  caller of ``plan_cost`` under ``scl`` + ``tune`` — and one stream model,
* the whole-machine walk makes no per-request timeline call,
* the Plan IR has one point-to-point instruction and its transports two
  methods, and the un-annotated fragment cost is nobody's parameter,
* the batched engine declines what it does not win instead of growing
  the machinery back.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not m.name.endswith("__main__")
)


@pytest.mark.parametrize("modname", MODULES)
def test_module_has_docstring(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and mod.__doc__.strip(), f"{modname} lacks a docstring"


@pytest.mark.parametrize("modname", MODULES)
def test_all_exports_exist(modname):
    mod = importlib.import_module(modname)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{modname}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("modname", MODULES)
def test_public_symbols_documented(modname):
    mod = importlib.import_module(modname)
    undocumented = []
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{modname}: undocumented exports {undocumented}"


@pytest.mark.parametrize("modname", MODULES)
def test_public_callables_have_inspectable_signatures(modname):
    mod = importlib.import_module(modname)
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            inspect.signature(obj)  # raises if not inspectable


def test_no_private_names_imported_across_modules():
    """``from repro.x import _name`` couples the importer to another
    module's internals.  Private *modules* (``stream._runner``,
    ``machine._reference``) are exempt on both ends: they are part of
    their package's implementation."""
    offenders = []
    for modname in MODULES:
        if "._" in modname:
            continue
        with open(importlib.util.find_spec(modname).origin,
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level \
                    or not (node.module or "").startswith("repro"):
                continue
            offenders += [
                f"{modname}:{node.lineno} imports {node.module}.{a.name}"
                for a in node.names
                if a.name.startswith("_")
                and f"{node.module}.{a.name}" not in MODULES]
    assert not offenders, "\n".join(offenders)


def test_nothing_current_mentions_the_retired_perf_harness():
    """``benchmarks/e2e`` is the one host-time instrument.  Source, docs,
    CI and the verify skill must not send a reader to the harness it
    replaced; the history files (``CHANGES.md`` / ``CHANGELOG.md``) may."""
    root = pathlib.Path(__file__).resolve().parents[1]
    retired = ("repro.perf", "repro perf", "benchmarks/perf",
               "benchmarks.perf", "BENCH_simulator")
    offenders = []
    for top in ("src", "docs", "README.md", "DESIGN.md", "CONTRIBUTING.md",
                ".github", ".claude"):
        path = root / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if not file.is_file() or "__pycache__" in file.parts:
                continue
            text = file.read_text(encoding="utf-8", errors="ignore")
            offenders += [f"{file.relative_to(root)}: {name}"
                          for name in retired if name in text]
    assert not offenders, "\n".join(offenders)


def test_every_opt_config_field_is_read_by_the_optimizer():
    """A field of ``OptConfig`` splits the plan cache per value, so it
    must decide something: ``config.<field>`` / ``opt.<field>`` is read in
    ``plan/opt.py`` or ``plan/lower.py`` outside the class itself."""
    import dataclasses

    from repro.plan.opt import OptConfig

    read = set()
    for modname in ("repro.plan.opt", "repro.plan.lower"):
        with open(importlib.util.find_spec(modname).origin,
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        tree.body = [node for node in tree.body
                     if not (isinstance(node, ast.ClassDef)
                             and node.name == "OptConfig")]
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("config", "opt")}
    unread = {f.name for f in dataclasses.fields(OptConfig)} - read
    assert not unread, f"OptConfig fields nothing reads: {sorted(unread)}"


@pytest.mark.parametrize("modname", [
    "repro.plan", "repro.tune", "repro.scl.optimize", "repro.tune.search",
    "repro.tune.workloads", "repro.plan.cli"])
def test_no_compile_or_tune_callable_takes_a_topology(modname):
    """Plans are priced on a ``MachineSpec`` alone; a ``topo`` parameter
    on this surface has nothing to feed.  Nor a ``strategy``: the beam
    search is the optimiser, rewriting to fixpoint is one engine call."""
    mod = importlib.import_module(modname)
    offenders = [f"{name}({banned}=)" for name in mod.__all__
                 if callable(getattr(mod, name))
                 for banned in ("topo", "strategy")
                 if banned in inspect.signature(getattr(mod, name)).parameters]
    assert not offenders, f"{modname}: {offenders}"


def _module_tree(modname):
    with open(importlib.util.find_spec(modname).origin,
              encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_expressions_are_priced_in_one_place():
    """One lower-then-``plan_cost`` body serves ``estimate_cost`` and the
    search, so a predicted cost is always the cost of the plan that
    lowering config produces; ``tune.search`` does no lowering of its own."""
    callers = []
    for modname in MODULES:
        if not modname.startswith(("repro.scl", "repro.tune")):
            continue
        for fn in ast.walk(_module_tree(modname)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None)) == "plan_cost"
                    for node in ast.walk(fn)):
                callers.append(f"{modname}.{fn.name}")
    assert callers == ["repro.scl.optimize.price"]
    used = {getattr(node, field, None)
            for node in ast.walk(_module_tree("repro.tune.search"))
            for field in ("id", "attr", "name")}  # names, attributes, imports
    assert not used & {"lower_uncached", "modules"}, used


def test_there_is_one_stream_model():
    """Stream plans are the stream layer: ``run_staged`` has one importer
    and ``repro.stream`` exports ``stream.plan`` plus the machine
    pipeline."""
    importers = [modname for modname in MODULES
                 if any(isinstance(node, ast.ImportFrom)
                        and any(a.name == "run_staged" for a in node.names)
                        for node in ast.walk(_module_tree(modname)))]
    assert importers == ["repro.stream.plan"]
    import repro.stream
    import repro.stream.plan

    foreign = (set(repro.stream.__all__) - set(repro.stream.plan.__all__)
               - {"PipelineStage", "pipeline_machine"})
    assert not foreign, sorted(foreign)


def test_the_walk_makes_no_per_request_timeline_call():
    """``plan.vexec`` advances the lockstep timeline one instruction at a
    time (``work_all`` / ``exchange``).  A ``send`` / ``recv`` / ``poll``
    call, or the request classes and the direct transport that pumping a
    generator needs, would be the per-request path creeping back."""
    with open(importlib.util.find_spec("repro.plan.vexec").origin,
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    calls = sorted({node.func.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)}
                   & {"send", "recv", "poll"})
    imports = sorted({alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names}
                     & {"Send", "Recv", "Compute", "DIRECT"})
    assert not calls and not imports, (calls, imports)


def test_the_batched_engine_declines_what_it_does_not_win():
    """``machine.batch`` serves segment drives over FIFO streams and the
    last processor's monotone snapshot; timed receives, multi-blocked
    quiescence and non-monotone wildcard drains leave through
    ``BatchFallback`` (the measurements are in ``docs/calibration.md``).
    No name, attribute, parameter or slot of the deleted timeout /
    lookahead-solver / out-of-order machinery may come back, and the
    module stays small; prose may still say why a shape is declined."""
    with open(importlib.util.find_spec("repro.machine.batch").origin,
              encoding="utf-8") as fh:
        source = fh.read()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used.add(node.name)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__"
                      for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    banned = {"deadline", "dlov", "ooo", "_fire_timeout", "_solo_pick",
              "_TIMEOUTS", "_MSG_TX", "_INF"}
    assert not used & banned, sorted(used & banned)
    assert len(source.splitlines()) <= 800


def test_a_plan_transport_is_exchange_and_collective():
    """A rotate is the exchange of its shift: the IR has no instruction
    for it and neither transport a method."""
    from repro.faults.plan_exec import ReliableTransport
    from repro.machine.plan_exec import DirectTransport
    from repro.plan import ir

    assert not hasattr(ir, "Rotate")
    for transport in (DirectTransport, ReliableTransport):
        public = {name for name, member in vars(transport).items()
                  if inspect.isfunction(member) and not name.startswith("_")}
        assert public == {"exchange", "collective"}, transport.__name__


@pytest.mark.parametrize("modname", [
    "repro.scl.compile", "repro.machine.plan_exec", "repro.plan.vexec",
    "repro.faults.plan_exec", "repro.serve.service", "repro.stream.plan"])
def test_the_fragment_cost_default_is_not_passed_around(modname):
    """``ir.DEFAULT_FRAGMENT_OPS`` has one value in use, read where a
    charge is computed; no function, method or dataclass on the compiled
    path takes it as a parameter or keeps it as a field."""
    import dataclasses

    banned = {"default", "fragment_default_ops", "fragment_ops"}
    mod = importlib.import_module(modname)
    owned = [obj for obj in vars(mod).values()
             if getattr(obj, "__module__", None) == modname]
    functions = [obj for obj in owned if inspect.isfunction(obj)]
    offenders = []
    for cls in (obj for obj in owned if inspect.isclass(obj)):
        functions += [m for m in vars(cls).values() if inspect.isfunction(m)]
        if dataclasses.is_dataclass(cls):
            offenders += [f"{cls.__name__}.{f.name}"
                          for f in dataclasses.fields(cls)
                          if f.name in banned]
    offenders += [f"{fn.__qualname__}({name}=)" for fn in functions
                  for name in inspect.signature(fn).parameters
                  if name in banned]
    assert not offenders, f"{modname}: {offenders}"


def test_top_level_all_is_complete():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_version_is_pep440_ish():
    import re

    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
