"""A staged replica of ``synthesize`` built only from public calls.

``synthesize`` is a black box from outside; to say where a cold solve
spends its time without spans inside the program, the traced pass walks
the same pipeline one public function at a time — epoch plan, model build,
compile, symmetry detect/reduce (or lex cuts), backend, extraction, vetting
— under the benchmark's own spans. The replica must reproduce the black
box: the workloads compare its objective and finish time with
``synthesize``'s on every instance, so it cannot drift silently.

Horizon searches (``minimize_epochs``) and POP fan-outs are driven through
their single public entry point and booked as ``core.lp.search``: their
inner build/backend split needs spans inside the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import symmetry
from repro.core.epochs import (build_epoch_plan, next_horizon,
                               path_based_epoch_bound)
from repro.core.lp import (LpBuilder, extract_lp_outcome,
                           minimize_epochs_lp)
from repro.core.milp import MilpBuilder, extract_outcome
from repro.core.pop import solve_lp_pop
from repro.core.solve import Method
from repro.errors import InfeasibleError
from repro.simulate import check_flow, check_schedule
from repro.solver import SolveStatus

from harness import Tracer
from instances import Instance, solve_space

#: span names of the stages, in pipeline order (their durations sum to the
#: replica's wall up to glue code; the rest is "unattributed")
STAGES = ("core.epochs.plan", "core.lp.build", "core.milp.build",
          "solver.model.compile", "core.symmetry.detect",
          "core.symmetry.reduce", "solver.model.backend",
          "core.lp.extract", "core.milp.extract", "core.lp.search",
          "simulate.conformance.check")


@dataclass
class StagedOutcome:
    """What one pass through the replica produced and counted."""

    method: str
    finish_time: float
    objective: float | None
    schedule: object
    plan: object
    #: the (possibly hyper-edge-rewritten) space the schedule lives in
    topology: object
    demand: object
    counts: dict = field(default_factory=dict)
    violations: int = 0


def staged_synthesize(instance: Instance, tracer: Tracer) -> StagedOutcome:
    """Solve ``instance`` stage by stage under ``tracer`` spans."""
    request = instance.request
    config = request.config
    topo, demand, hyper_groups = solve_space(request)
    if instance.pop_partitions or request.minimize_epochs:
        return _search(instance, topo, demand, config, tracer)
    method = request.method
    if method is Method.AUTO:
        method = Method.MILP if request.demand.benefits_from_copy() \
            else Method.LP
    if method is Method.LP:
        return _fixed_horizon(topo, demand, config, tracer, hyper_groups,
                              milp=False,
                              aggregate=not demand.benefits_from_copy())
    if method is Method.MILP:
        return _fixed_horizon(topo, demand, config, tracer, hyper_groups,
                              milp=True, aggregate=True)
    raise ValueError(f"the staged replica has no {method.value} pipeline")


def _search(instance, topo, demand, config, tracer) -> StagedOutcome:
    with tracer.span("core.epochs.plan"):
        probe = build_epoch_plan(topo, config, num_epochs=1)
        path_based_epoch_bound(topo, demand, probe)
    with tracer.span("core.lp.search"):
        if instance.pop_partitions:
            outcome = solve_lp_pop(topo, demand, config,
                                   num_partitions=instance.pop_partitions)
            stats = {"horizon_solves": outcome.attempts}
            objective = None
        else:
            outcome = minimize_epochs_lp(topo, demand, config)
            stats = outcome.result.stats
            objective = outcome.result.objective
    return StagedOutcome(
        method="lp", finish_time=outcome.finish_time, objective=objective,
        schedule=outcome.schedule, plan=outcome.plan, topology=topo,
        demand=demand,
        counts={"core.lp.horizon_probes": stats.get("horizon_solves", 1),
                "core.epochs.horizon_epochs": outcome.plan.num_epochs})


def _fixed_horizon(topo, demand, config, tracer, hyper_groups, *,
                   milp: bool, aggregate: bool) -> StagedOutcome:
    """The ``solve_lp`` / ``solve_milp`` retry ladder, one stage at a time."""
    layer = "core.milp" if milp else "core.lp"
    auto = config.num_epochs is None
    bound = None
    with tracer.span("core.epochs.plan"):
        if auto:
            probe = build_epoch_plan(topo, config, num_epochs=1)
            bound = path_based_epoch_bound(topo, demand, probe)
        num_epochs = bound if auto else config.num_epochs
    last_error = None
    probes = 0
    for _ in range(3 if auto else 1):
        probes += 1
        with tracer.span("core.epochs.plan"):
            plan = build_epoch_plan(topo, config, num_epochs=num_epochs)
        try:
            with tracer.span(f"{layer}.build"):
                builder = (MilpBuilder(topo, demand, config, plan,
                                       hyper_groups=hyper_groups) if milp
                           else LpBuilder(topo, demand, config, plan,
                                          aggregate=aggregate))
                problem = builder.build()
        except InfeasibleError as err:
            last_error = err
            num_epochs = next_horizon(num_epochs, bound)
            continue
        model = problem.model
        with tracer.span("solver.model.compile"):
            compiled = model.compile()
        counts = {f"{layer}.cols": model.num_vars,
                  f"{layer}.rows": int(compiled.A.shape[0]),
                  "core.epochs.horizon_epochs": num_epochs}
        if not milp:
            counts["core.lp.nnz"] = int(compiled.A.nnz)
        result, assisted = _solve(problem, topo, demand, config, tracer,
                                  counts, milp)
        if result.status.has_solution:
            with tracer.span(f"{layer}.extract"):
                outcome = (extract_outcome(problem, result) if milp
                           else extract_lp_outcome(problem, result))
            violations = 0
            if assisted:
                # the pipeline vets every symmetry-assisted solution
                with tracer.span("simulate.conformance.check"):
                    check = check_schedule if milp else check_flow
                    report = check(outcome.schedule, topo, demand,
                                   outcome.plan, config=config)
                violations = len(report.violations)
            counts["core.lp.horizon_probes"] = probes
            return StagedOutcome(
                method="milp" if milp else "lp",
                finish_time=outcome.finish_time,
                objective=result.objective, schedule=outcome.schedule,
                plan=outcome.plan, topology=topo, demand=demand,
                counts=counts, violations=violations)
        if result.status is not SolveStatus.INFEASIBLE:
            result.require_solution()
        last_error = InfeasibleError(
            f"infeasible at horizon K={num_epochs}", status="horizon")
        num_epochs = next_horizon(num_epochs, bound)
    raise last_error


def _solve(problem, topo, demand, config, tracer, counts, milp):
    """Backend stage, through the quotient (LP) or lex cuts (MILP) when the
    pipeline would use them; returns ``(result, symmetry_assisted)``."""
    model = problem.model
    variables = (problem.f_vars, problem.b_vars, problem.r_vars)
    if symmetry.symmetry_enabled(config.solver, model.num_vars):
        with tracer.span("core.symmetry.detect"):
            generators = symmetry.find_generators(topo, demand)
        counts["core.symmetry.generators"] = len(generators)
        if generators and milp:
            with tracer.span("core.symmetry.reduce"):
                cuts = symmetry.add_symmetry_cuts(
                    model, generators, model.num_vars, *variables)
            with tracer.span("solver.model.backend"):
                return model.solve(config.solver), bool(cuts)
        if generators:
            with tracer.span("core.symmetry.reduce"):
                orbit_map = symmetry.reduce_lp(
                    model, generators, model.num_vars, *variables)
            if orbit_map is not None:
                counts["core.symmetry.cols_reduced"] = \
                    orbit_map.stats["symmetry_cols_reduced"]
                counts["core.symmetry.rows_reduced"] = \
                    orbit_map.stats["symmetry_rows_reduced"]
                with tracer.span("solver.model.backend"):
                    return symmetry.solve_reduced(orbit_map,
                                                  config.solver), True
    with tracer.span("solver.model.backend"):
        return model.solve(config.solver), False
