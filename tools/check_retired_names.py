#!/usr/bin/env python3
"""Lint: retired parameter/field names must not reappear under ``src/``.

Each name below once selected between two ways of doing the same thing;
the redundant path was deleted, and the selector with it. This lint fails
if one grows back:

* ``construction`` — chose between the COO and the expression-path LP/MILP
  builders (one construction path now); as a ``SolverOptions`` field it
  also split the fingerprint cache on a speed-only setting.
* ``incremental`` — chose between a growing shared model and a fresh build
  in the horizon search and in POP (a larger horizon is a rebuild now).
* ``track_rows`` — made ``LpBuilder`` record a row layout for the
  epoch-delta growth path.
* ``warm_start`` — threaded a primal seed to solver backends that cannot
  consume one.
* ``parallel`` — a second setting for the fan-out width ``jobs`` already
  states (``jobs=1`` is the sequential loop).
* ``warm_from`` / ``initial_epochs`` — shipped a prior *result* through
  planner, pool, ``synthesize`` and the solve facades to seed the horizon
  estimate; measured a net loser once the cold bound was tight, and it made
  a served schedule depend on what the cache held first. A request is
  answered from its own content; the horizon ladder starts at the bound.
* ``fabric_view`` — a hook through which ``FleetOrchestrator`` reached
  back into the ``AdaptationController`` it wrapped. The orchestrator is
  a controller subclass now, and its share policy overrides ``_view``.

Walks the AST and flags every function parameter and every class-level
field carrying a retired name. Keyword arguments to *calls* (span
attributes such as ``span(..., construction="cold")``) are labels, not
parameters, and are not flagged.

The same walk flags every ``scipy.optimize`` import, and every
``scipy.optimize`` attribute chain, except the bundled HiGHS binding
``scipy.optimize._highspy``: every model, LP or MILP, is solved on a live
HiGHS session (``repro.solver.Session``) that holds the model as stated,
so a second backend beside it would be a fallback path with its own
option translation and status table, not a choice. (Code outside
``src/`` — the tests' oracles, the ledger's host calibration loop — may
still call them.)

The walk also flags the MILP's per-family COO emitters — any function
named ``_build_coo``, ``_ranges_take`` or ``_coo_*``, defined or referred
to — and every string starting ``milp.family.`` (the spans they ran
under): the §3.1 MILP is written as the same stem-level template as the
LP (``repro.core.template.ModelTemplate``) and expanded by the same code,
so a hand-written emitter beside it would be a second model path.

It flags ``_check_flow_impl`` too, defined or referred to: the scalar
per-entry replay of fractional schedules that ``check_flow`` ran before it
was written as array kernels. It lives on as the tests' differential
reference (``tests/flow_oracle.py``); one flow replay in library code.
So is ``_check_schedule_impl``, the multi-pass replay of integral
schedules (a per-link rescan of every load, a scan of every arrival pool
per send) that ``check_schedule`` ran before it was one linear pass: it
lives on as ``tests/schedule_oracle.py``.

And it flags the hand-written shortcut gates, defined or referred to:
``_vet_reduced_outcome`` (the symmetry quotient LP), ``_vet_cut_outcome``
(the lex-leader cut MILP), ``_pop_conformance`` (the POP fan-out),
``_replays_clean`` (the hierarchical dedup hit) and
``symmetry.note_fallback`` (their counter). Every shortcut's replay verdict
becomes an answer in one trust gate,
``repro.simulate.conformance.vetted``, which counts and records each
fallback; a second gate beside it would be a fallback that is not counted.

It flags ``_job_view`` and ``_replan_incumbents``, defined or referred to:
the wrapper ``FleetOrchestrator`` routed its share view and its
admission/retirement replans through them. As a controller subclass it
overrides ``_view``, ``add_job`` and ``remove_job`` and calls
``replan_all`` itself.

It flags ``_maybe_add_symmetry_cuts`` and ``_shortest_paths``, defined
or referred to, and every *call* of ``add_symmetry_cuts``. The first hung
lex-leader cuts on every symmetric MILP; they were slower than no cuts on
every MILP measured, so the MILP path takes no symmetry shortcut.
``add_symmetry_cuts`` itself stays defined (the ledger's staged replica
still calls it), but no library path may add cuts again. The second was
a per-source heap Dijkstra run twice per solve, from every source;
earliest arrivals and shortest-path trees are one array pass over all
sources (``repro.core.epochs.reachability``), shared by the horizon
bound and the model builders.

It flags a module-level ``networkx`` import, ``import networkx`` or
``from networkx …`` anywhere that runs when the module loads (a class body
or an ``if``/``try`` included). Its one user is the TACCL-like baseline's
router, which imports it on first use. Loaded eagerly it costs every
process that imports ``repro``, a serving process included, ≈ 11 MB
and 0.15–0.2 s. A function-local import is allowed.

Deleted *exports* are checked by import: ``repro.obs.rspan`` (the second
span API; ``span()`` is the only one), the ``repro.simulate.simulator``
adapter module, and the expression algebra of ``repro.solver``
(``Variable``, ``LinExpr``, ``Constraint``, ``Relation``, ``quicksum``) —
with it the ``Model`` methods that consumed it (``add_var``,
``add_constr``, ``set_objective``, ``var``): a model is stated as arrays.
``LpSession`` is ``Session`` now that it holds MILPs too, and
``SolverOptions.to_scipy`` went with ``milp``. So did ``repro.solver.io``
(``write_lp``, ``save_lp``, ``lp_statistics``): a hand-written LP writer
beside HiGHS's own, which ``Session.write`` calls. So are the paper's
Algorithm 1 horizon sweep and its helpers (``algorithm1_num_epochs``, ``candidate_completion_times``,
``lp_feasible_horizon``, ``min_time_seconds``): measured against the
load-spread path bound it lost — its coarse grids are as large as the tight
model itself — and the horizon ladder starts from one estimate. With the
result-level seed went ``repro.failures.replan`` (its one wrapper; re-plan
with ``synthesize`` on the degraded fabric, or ``repair_schedule``) and
``ScheduleCache.get_near`` (the donor index). ``repro.core.symmetry`` no
longer has ``PermutationVerifier``, a randomised row-multiset hash run once
per generator, nor its one-shot wrappers ``verify_column_permutation`` and
``induced_column_permutation``, nor ``column_orbits``: the LP quotient is
proved by one exact equitable-partition check and a lex-leader cut's
generator by an exact row match. ``repro.core.lp.LpTemplate`` is
``repro.core.template.ModelTemplate``, shared by both builders, with no
alias left at the old name. ``strips_to_schedule`` (in ``repro.core`` and
``repro.core.decompose``) labelled every unit of an aggregated LP commodity
with one chunk id, so its schedules failed delivery; ``strips_to_events``
quantises strips with a fresh chunk id per unit. Fleet recovery replays
the WAL through the registry's own transitions, so its second reader is
gone: ``repro.fleet.controller``'s ``_parse_wal``, ``_ParsedWal`` and
``_parse_link_key``, and ``ScheduleRegistry.restore``, which installed
what that reader built. So is ``repro.fleet.wal.WAL_FORMAT_VERSION``, a
version nothing wrote or read; the snapshot's ``registry_state_version``
is the one checked.

Two retired *parameters* are checked by signature. One is ``sink`` on
``Planner.__init__`` and ``AdaptationController.__init__``. Tracing is
process-global — it is turned on by ``obs.configure`` or a CLI verb's
``--trace``, never by a constructor that only wrapped that call. The name
stays legitimate inside ``repro.obs.trace`` (a ``Tracer`` *has* a sink),
so it cannot join the blanket ``RETIRED`` set. The other is ``symmetry``
on ``Planner.__init__``: a second symmetry knob beside
``SolverOptions.symmetry``, which the planner reads off each request. The
name is that field's own, so it cannot join ``RETIRED`` either.

Exit status 0 when clean, 1 with a findings listing otherwise.
"""

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

RETIRED = frozenset({"construction", "incremental", "track_rows",
                     "warm_start", "parallel", "warm_from",
                     "initial_epochs", "fabric_view"})

#: (package, attribute) pairs that were deleted and must stay unexported
RETIRED_EXPORTS = (
    ("repro.obs", "rspan"), ("repro.simulate", "simulator"),
    *(("repro.solver", name) for name in (
        "Variable", "LinExpr", "Constraint", "Relation", "quicksum",
        "LpSession", "io", "write_lp", "save_lp", "lp_statistics")),
    ("repro.core", "algorithm1_num_epochs"),
    ("repro.core.epochs", "algorithm1_num_epochs"),
    ("repro.core.epochs", "candidate_completion_times"),
    ("repro.core.epochs", "min_time_seconds"),
    ("repro.core.lp", "lp_feasible_horizon"), ("repro.core.lp", "LpTemplate"),
    ("repro.failures", "replan"), ("repro.failures.repair", "replan"),
    *(("repro.core.symmetry", name) for name in (
        "PermutationVerifier", "verify_column_permutation",
        "induced_column_permutation", "column_orbits")),
    ("repro.core", "strips_to_schedule"),
    ("repro.core.decompose", "strips_to_schedule"),
    ("repro.fleet.wal", "WAL_FORMAT_VERSION"),
    *(("repro.fleet.controller", name) for name in (
        "_parse_wal", "_ParsedWal", "_parse_link_key")))

#: (module, class, attribute) triples: the class must not have it
RETIRED_METHODS = (
    *(("repro.solver.model", "Model", name)
      for name in ("add_var", "add_constr", "set_objective", "var")),
    ("repro.solver.options", "SolverOptions", "to_scipy"),
    ("repro.service.cache", "ScheduleCache", "get_near"),
    ("repro.fleet.controller", "ScheduleRegistry", "restore"))

#: (module, class, parameter) triples: the constructor must not take it
RETIRED_INIT_PARAMS = (
    ("repro.service.planner", "Planner", "sink"),
    ("repro.service.planner", "Planner", "symmetry"),
    ("repro.fleet.controller", "AdaptationController", "sink"))

#: the MILP's per-family COO emitters (and ``_coo_*``), and their spans
RETIRED_EMITTERS = frozenset({"_build_coo", "_ranges_take"})
RETIRED_SPAN_PREFIX = "milp.family."

#: the scalar fractional and multi-pass integral replays, now only the
#: tests' references
RETIRED_REPLAYS = frozenset({"_check_flow_impl", "_check_schedule_impl"})

#: the hand-written shortcut gates, now the one ``vetted``
RETIRED_GATES = frozenset({"_vet_reduced_outcome", "_vet_cut_outcome",
                           "_pop_conformance", "_replays_clean",
                           "note_fallback"})

#: the wrapper orchestrator's share view and incumbent replan
RETIRED_WRAPPERS = frozenset({"_job_view", "_replan_incumbents"})

#: the MILP's lex-cut hook and the per-source heap Dijkstra
RETIRED_PASSES = frozenset({"_maybe_add_symmetry_cuts", "_shortest_paths"})

#: defined for the ledger's staged replica, called by no library path
UNCALLED = frozenset({"add_symmetry_cuts"})

#: the one ``scipy.optimize`` module library code may import
HIGHS_BINDING = "scipy.optimize._highspy"

#: packages library code imports only inside the function that uses them
LAZY_PACKAGES = ("networkx",)


def _second_backend(module: str) -> bool:
    """``module`` is ``scipy.optimize`` or below it, outside the binding."""
    return (module + ".").startswith("scipy.optimize.") \
        and not (module + ".").startswith(HIGHS_BINDING + ".")


def _emitter(name: str) -> bool:
    return name in RETIRED_EMITTERS or name.startswith("_coo_")


def _lazy(module: str) -> bool:
    return any((module + ".").startswith(package + ".")
               for package in LAZY_PACKAGES)


def _load_time_nodes(tree: ast.Module):
    """Every node that runs when the module loads: all but function
    bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def find_retired(path: pathlib.Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.arg in RETIRED:
                    findings.append(
                        (arg.lineno,
                         f"`{arg.arg}` parameter of {node.name}()"))
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target]
                           if isinstance(stmt, ast.AnnAssign) else [])
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in RETIRED:
                        findings.append(
                            (stmt.lineno,
                             f"`{target.id}` field of class {node.name}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) \
                and not node.level else ""
            if any(_second_backend(prefix + alias.name)
                   for alias in node.names):
                findings.append((node.lineno, "`scipy.optimize` import"))
        elif isinstance(node, ast.Attribute) and node.attr == "optimize" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "scipy":
            findings.append((node.lineno, "`scipy.optimize` use"))
        name = (node.name if isinstance(node, ast.FunctionDef)
                else node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else "")
        if _emitter(name):
            findings.append((node.lineno, f"`{name}` COO emitter"))
        if name in RETIRED_REPLAYS:
            findings.append((node.lineno, f"`{name}` second replay"))
        if name in RETIRED_GATES:
            findings.append((node.lineno, f"`{name}` second shortcut gate"))
        if name in RETIRED_WRAPPERS:
            findings.append((node.lineno, f"`{name}` orchestrator wrapper"))
        if name in RETIRED_PASSES:
            findings.append((node.lineno, f"`{name}` retired solve pass"))
        if isinstance(node, ast.Call):
            callee = node.func
            called = (callee.attr if isinstance(callee, ast.Attribute)
                      else callee.id if isinstance(callee, ast.Name) else "")
            if called in UNCALLED:
                findings.append((node.lineno, f"call of `{called}`"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith(RETIRED_SPAN_PREFIX):
            findings.append((node.lineno, f"`{node.value}` span"))
    for node in _load_time_nodes(tree):
        modules = ([alias.name for alias in node.names]
                   if isinstance(node, ast.Import)
                   else [node.module] if isinstance(node, ast.ImportFrom)
                   and not node.level else [])
        if any(_lazy(module) for module in modules):
            findings.append((node.lineno, "module-level `networkx` import"))
    return findings


def find_retired_exports() -> list[str]:
    import importlib
    import inspect

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    findings = [f"{package}.{name} is exported again"
                for package, name in RETIRED_EXPORTS
                if hasattr(importlib.import_module(package), name)]
    findings += [f"{module}.{cls}.{name} is back"
                 for module, cls, name in RETIRED_METHODS
                 if hasattr(getattr(importlib.import_module(module), cls),
                            name)]
    for module, cls, param in RETIRED_INIT_PARAMS:
        init = getattr(importlib.import_module(module), cls).__init__
        if param in inspect.signature(init).parameters:
            findings.append(f"{module}.{cls}.__init__ takes `{param}` again")
    return findings


def main() -> int:
    failures = [f"{path.relative_to(REPO)}:{lineno}: {what}"
                for path in sorted(SRC.rglob("*.py"))
                for lineno, what in find_retired(path)]
    failures += find_retired_exports()
    if failures:
        print(f"{len(failures)} retired name(s) in library code (each "
              "selected a path that was deleted; do not add the selector "
              "back):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("retired-names-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
