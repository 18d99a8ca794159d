"""md_scf: one supervised DC-MESH trajectory, timed one MD step at a time.

The ``repro-mesh run`` system (:func:`repro.serve.workloads.run_system`:
16^3 grid, two O atoms, 2 domains, laser on) with one excited carrier on
the serial backend, the paper's 3 SCF x 3 CG and ``n_qd=5``, under a
:class:`~repro.resilience.RunSupervisor` that checkpoints every step.
Each operation is one ``run(1)``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.common import Window
from perfbench.workloads import (
    Context,
    load_references,
    relative_mismatch,
    store_reference,
    timed_op,
)

#: Program inputs on top of the ``run`` job defaults (seed comes from
#: the benchmark seed).
OVERRIDES = {"n_qd": 5, "nscf": 3, "ncg": 3}

#: Relative tolerance of the default-seed reference check.
REFERENCE_RTOL = 1e-8

#: Steps recorded in the reference (checked as far as a run gets).
REFERENCE_STEPS = 20


class MDState:
    """A built simulation and its supervisor, plus what the checks need."""

    def __init__(self, name: str, sim: Any, supervisor: Any) -> None:
        self.name = name
        self.sim = sim
        self.supervisor = supervisor
        self.nelec = [
            float(sum(sim.species[i].zval for i in st.atom_indices))
            for st in sim.dc.states
        ]


def setup(name: str, ctx: Context) -> MDState:
    """Build the system, converge the initial SCF, excite one carrier and
    write the generation-0 checkpoint."""
    from repro import DCMESHSimulation, VirtualGPU
    from repro.parallel.executor import make_executor
    from repro.resilience import RunSupervisor, SupervisorConfig
    from repro.serve.jobs import PARAM_DEFAULTS
    from repro.serve.workloads import run_system

    params = dict(PARAM_DEFAULTS["run"])
    params.update(OVERRIDES, seed=ctx.seed)
    grid, positions, species, laser, config = run_system(params)
    sim = DCMESHSimulation(
        grid, (2, 1, 1), positions, species,
        laser=laser, config=config, device=VirtualGPU(),
        buffer_width=int(params["buffer"]),
        executor=make_executor("serial", seed=ctx.seed),
    )
    sim.excite_carrier(0)
    supervisor = RunSupervisor(sim, ctx.work / "checkpoints",
                               SupervisorConfig(checkpoint_every=1))
    supervisor.run(0)  # writes the generation-0 checkpoint
    return MDState(name, sim, supervisor)


def _step(state: MDState) -> Any:
    return state.supervisor.run(1)[-1]


def _check_step(state: MDState, record: Any, ctx: Context) -> bool:
    ok = True
    for alpha, (st, nelec) in enumerate(zip(state.sim.dc.states, state.nelec)):
        total = float(st.occupations.sum())
        if abs(total - nelec) > 1e-9 * max(1.0, nelec):
            ctx.fail(f"step {record.step}: domain {alpha} occupations sum "
                     f"to {total!r}, expected {nelec!r}")
            ok = False
    return ok


def _trajectory_row(state: MDState, record: Any) -> Dict[str, Any]:
    return {
        "step": record.step,
        "band_energy": record.band_energy,
        "excited_population": record.excited_population,
        "positions": state.sim.md_state.positions.ravel().tolist(),
    }


def check_reference(rows: List[Dict[str, Any]], reference: List[Dict[str, Any]],
                    rtol: float = REFERENCE_RTOL) -> List[str]:
    """Mismatches of a trajectory against the committed reference rows.

    Rows are compared step by step as far as both go; the last common
    step is the run's final state.
    """
    problems = []
    for got, want in zip(rows, reference):
        if got["step"] != want["step"]:
            problems.append(f"step {got['step']} != reference {want['step']}")
            continue
        for key in ("band_energy", "excited_population", "positions"):
            bad = relative_mismatch(got[key], want[key], rtol)
            if bad is not None:
                problems.append(f"step {got['step']} {key}: {bad}")
    return problems


def run(state: MDState, ctx: Context) -> Dict[str, Any]:
    """Time steps until the window closes; check every one."""
    tracing = ctx.tracing
    walls: List[float] = []
    traced_walls: List[float] = []
    roots: List[int] = []
    rows: List[Dict[str, Any]] = []
    attempted = failed = 0
    window = Window(ctx.seconds)
    while window.open():
        traced = tracing is not None and attempted % 2 == 1
        attempted += 1
        record, wall, root = timed_op(ctx, traced, lambda: _step(state))
        if traced:
            roots.append(root)
            traced_walls.append(wall)
        else:
            walls.append(wall)
        rows.append(_trajectory_row(state, record))
        if not _check_step(state, record, ctx):
            failed += 1
    try:
        state.sim.ledger.assert_no_psi_traffic()
    except AssertionError as exc:
        ctx.fail(f"shadow-dynamics ledger: {exc}")
        failed = attempted
    faults = state.supervisor.log.count("fault")
    if faults:
        ctx.fail(f"supervisor recorded {faults} fault(s)")
        failed = max(failed, faults)
    if ctx.default_seed:
        failed += _reference(state.name, rows, ctx)
    return {
        "op_walls": walls,
        "traced_walls": traced_walls,
        "trace_roots": roots,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "jobs": len(walls),
        "traj_steps": len(walls),
        "loop_wall": sum(walls),
    }


def _reference(name: str, rows: List[Dict[str, Any]], ctx: Context) -> int:
    keep = rows[:REFERENCE_STEPS]
    if ctx.update_references:
        if len(keep) < REFERENCE_STEPS:
            ctx.fail(f"only {len(keep)} steps for a "
                     f"{REFERENCE_STEPS}-step reference")
            return 1
        store_reference(name, {"seed": ctx.seed, "steps": keep})
        return 0
    reference = load_references().get(name)
    if reference is None:
        ctx.fail(f"no committed reference for {name}")
        return 1
    problems = check_reference(keep, reference["steps"])
    for problem in problems:
        ctx.fail(f"reference: {problem}")
    return len(problems)
