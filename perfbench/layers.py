"""Layer map of the traced run: what is wrapped, and what it reports.

:data:`PATCHES` names every wrapped entry point and the layer span it
records.  :data:`PER_LAYER` lists every per-layer metric with its unit,
the direction that is better, and the end-to-end metric it should move;
``BENCHMARK.json`` carries the same list.  Flop and byte rates use the
program's own ``trace_charge`` tallies (computed from array sizes, not
measured traffic); every timing comes from the wrappers.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from perfbench.common import median
from perfbench.tracing import Patch, SpanIndex


def _file_bytes(path: Any) -> float:
    """Size of a written file plus its integrity sidecar, if present."""
    total = float(os.path.getsize(path))
    sidecar = f"{path}.json"
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def _checkpoint_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"bytes": _file_bytes(result)}


def _vcycles(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"multigrid.vcycles": float(result[1].cycles)}


def _jobs(n: int):
    def measure(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
        return {"jobs": float(n)}
    return measure


def _batch_jobs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"jobs": float(len(result))}


def _first_job_id(message: Any) -> Any:
    jobs = message.get("jobs") if isinstance(message, dict) else None
    if isinstance(jobs, list) and jobs and isinstance(jobs[0], dict):
        return jobs[0].get("id")
    return None


def _request_in(args: tuple, kwargs: dict, result: Any) -> Any:
    return _first_job_id(result)       # the parsed request


def _reply_out(args: tuple, kwargs: dict, result: Any) -> Any:
    return _first_job_id(args[0])      # the response being encoded


PATCHES: Tuple[Patch, ...] = (
    # core: containers (orchestration only) and the per-step setup
    Patch("repro.core.mesh:DCMESHSimulation", "md_step", "core.md_step"),
    Patch("repro.core.mesh:DCMESHSimulation", "__init__", "core.setup"),
    Patch("repro.core.mesh", "scissor_shift", "core.scissor"),
    # parallel: executor dispatch (tasks get task:<label> spans)
    Patch("repro.parallel.backends.serial:SerialBackend", "map",
          "parallel.map", kind="map"),
    # qxmd: global-local SCF, its kernels, forces, surface hopping
    Patch("repro.qxmd.dftsolver:GlobalDCSolver", "__init__", "qxmd.dc_solve"),
    Patch("repro.qxmd.dftsolver:GlobalDCSolver", "solve", "qxmd.dc_solve"),
    Patch("repro.qxmd.dftsolver", "cg_eigensolve", "qxmd.cg"),
    Patch("repro.qxmd.dftsolver", "hartree_potential", "qxmd.hartree"),
    Patch("repro.qxmd.dftsolver", "lda_exchange_correlation", "qxmd.xc"),
    Patch("repro.multigrid.poisson:PoissonMultigrid", "solve",
          "multigrid.vcycles", kind="count", measure=_vcycles),
    Patch("repro.qxmd.forces:ForceCalculator", "__init__", "qxmd.forces"),
    Patch("repro.qxmd.forces:ForceCalculator", "electrostatic_forces",
          "qxmd.forces"),
    Patch("repro.qxmd.forces:ForceCalculator", "nonlocal_forces",
          "qxmd.forces"),
    Patch("repro.pseudo.local", "core_repulsion_pair_forces", "qxmd.forces"),
    Patch("repro.core.mesh", "density", "qxmd.forces"),
    Patch("repro.core.mesh", "nonadiabatic_couplings",
          "qxmd.surface_hopping"),
    Patch("repro.qxmd.surface_hopping:FSSH", "step", "qxmd.surface_hopping"),
    # lfd: the QD propagator kernels and the occupation remap
    Patch("repro.lfd.propagator", "kinetic_step", "lfd.kinetic"),
    Patch("repro.lfd.propagator", "potential_phase_step", "lfd.potential"),
    Patch("repro.lfd.propagator", "potential_phase", "lfd.potential"),
    Patch("repro.lfd.nonlocal_corr:NonlocalCorrector", "apply",
          "lfd.nonlocal"),
    Patch("repro.core.mesh", "remap_occ", "lfd.remap"),
    # resilience: supervisor container, checkpoint writer, health guards
    Patch("repro.resilience.supervisor:RunSupervisor", "run",
          "resilience.run"),
    Patch("repro.resilience.supervisor", "write_checkpoint",
          "resilience.checkpoint", measure=_checkpoint_bytes),
    Patch("repro.resilience.guards:HealthGuard", "check_wavefunction",
          "resilience.guard"),
    Patch("repro.resilience.guards:HealthGuard", "check_md_step",
          "resilience.guard"),
    # ensemble: batched FSSH swarm kernels and statistics, as the
    # daemon's coalesced ensemble groups run them (a group round runs
    # its stacked batch tasks inline)
    Patch("repro.ensemble.swarm", "propagate_amplitudes_batch",
          "ensemble.propagate"),
    Patch("repro.ensemble.swarm", "hop_probabilities_batch",
          "ensemble.hop_prob"),
    Patch("repro.ensemble.swarm", "select_hops", "ensemble.select"),
    Patch("repro.ensemble.swarm", "resolve_hops", "ensemble.select"),
    Patch("repro.serve.coalesce:EnsembleGroupRun", "md_step",
          "ensemble.group_round"),
    Patch("repro.serve.coalesce", "step_swarm", "ensemble.step_swarm"),
    Patch("repro.serve.coalesce", "compute_stats", "ensemble.stats"),
    # serve: per-kind execution entry points and the artifact store
    Patch("repro.serve.workloads", "run_payload", "serve.exec.run",
          measure=_jobs(1)),
    Patch("repro.qxmd.scf", "scf_solve_batch", "serve.exec.scf",
          measure=_batch_jobs),
    Patch("repro.serve.workloads", "spectrum_ground_state",
          "serve.exec.spectrum"),
    Patch("repro.serve.workloads", "spectrum_payload", "serve.exec.spectrum",
          measure=_jobs(1)),
    Patch("repro.serve.daemon", "run_group_supervised",
          "serve.exec.ensemble", measure=_batch_jobs),
    Patch("repro.serve.daemon", "loads_line", "serve.request_in",
          kind="mark", measure=_request_in),
    Patch("repro.serve.daemon", "dumps_line", "serve.reply_out",
          kind="mark", measure=_reply_out),
    Patch("repro.artifacts.store:ArtifactStore", "get", "artifacts.get"),
    Patch("repro.artifacts.store:ArtifactStore", "put", "artifacts.put",
          measure=_checkpoint_bytes),
)

#: Spans that only orchestrate; their own time is unexplained by layers.
CONTAINERS = ("core.md_step", "resilience.run")

LFD_SPANS = ("lfd.kinetic", "lfd.potential", "lfd.nonlocal", "lfd.remap")
QXMD_SPANS = ("qxmd.dc_solve", "qxmd.cg", "qxmd.hartree", "qxmd.xc",
              "qxmd.forces", "qxmd.surface_hopping")
RESILIENCE_SPANS = ("resilience.checkpoint", "resilience.guard")
ENSEMBLE_SPANS = ("ensemble.propagate", "ensemble.hop_prob",
                  "ensemble.select", "ensemble.group_round", "ensemble.stats")

#: Spans that the per-layer metrics and the shape-check shares attribute
#: time to: the self time that ``md.coverage`` counts as explained.
LAYER_SPANS = (LFD_SPANS + QXMD_SPANS + RESILIENCE_SPANS + ENSEMBLE_SPANS
               + ("core.scissor", "parallel.map"))
SERVE_KINDS = ("scf", "spectrum", "ensemble", "run")

#: (name, unit, better, end-to-end metric it should move).
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("lfd.kinetic.s", "s", "lower",
     "md_scf/step_s.p50, serve_mixed/jobs_per_s"),
    ("lfd.kinetic.gbps", "GB/s", "higher",
     "md_scf/step_s.p50, serve_mixed/jobs_per_s"),
    ("lfd.potential.s", "s", "lower",
     "md_scf/step_s.p50, serve_mixed/jobs_per_s"),
    ("lfd.nonlocal.s", "s", "lower",
     "md_scf/step_s.p50, serve_mixed/jobs_per_s"),
    ("lfd.nonlocal.gflops", "GFLOP/s", "higher",
     "md_scf/step_s.p50, serve_mixed/jobs_per_s"),
    ("lfd.remap.s", "s", "lower", "md_scf/step_s.p50, serve_mixed/jobs_per_s"),
    ("qxmd.dc_solve.s", "s", "lower", "md_scf/step_s.p50"),
    ("qxmd.cg.s", "s", "lower", "md_scf/step_s.p50"),
    ("qxmd.cg.calls", "count", "lower", "md_scf/step_s.p50"),
    ("qxmd.hartree.s", "s", "lower", "md_scf/step_s.p50"),
    ("multigrid.vcycles", "count", "lower", "md_scf/step_s.p50"),
    ("qxmd.xc.s", "s", "lower", "md_scf/step_s.p50"),
    ("core.scissor.s", "s", "lower", "md_scf/step_s.p50"),
    ("qxmd.forces.s", "s", "lower", "md_scf/step_s.p50"),
    ("parallel.map.overhead_s", "s", "lower", "md_scf/step_s.p50"),
    ("resilience.checkpoint.s", "s", "lower",
     "md_scf/step_s.p50, serve_mixed/latency_s.p90"),
    ("resilience.checkpoint.mb", "MB", "lower",
     "md_scf/step_s.p50, serve_mixed/latency_s.p90"),
    ("resilience.guard.s", "s", "lower", "md_scf/step_s.p50"),
    ("core.setup.scf_s", "s", "lower", "md_scf/setup_s"),
    ("ensemble.propagate.s", "s", "lower", "serve_mixed/traj_steps_per_s"),
    ("ensemble.hop_prob.s", "s", "lower", "serve_mixed/traj_steps_per_s"),
    ("ensemble.select.s", "s", "lower", "serve_mixed/traj_steps_per_s"),
    ("ensemble.batch_other.s", "s", "lower", "serve_mixed/traj_steps_per_s"),
    ("ensemble.stats.s", "s", "lower", "serve_mixed/traj_steps_per_s"),
    ("serve.queue_wait_s", "s", "lower", "serve_mixed/latency_s.p50"),
    ("serve.wire_s", "s", "lower", "serve_mixed/latency_s.p50"),
    ("serve.memo_hit_ratio", "ratio", "higher", "serve_mixed/latency_s.p50"),
    ("serve.warm_hit_ratio", "ratio", "higher", "serve_mixed/latency_s.p50"),
    ("artifacts.get_s", "s", "lower", "serve_mixed/latency_s.p50"),
    ("artifacts.put_s", "s", "lower", "serve_mixed/latency_s.p50"),
    ("artifacts.mb_written", "MB", "lower", "serve_mixed/latency_s.p50"),
    ("serve.exec_s.scf", "s", "lower",
     "serve_mixed/latency_s.p90, serve_mixed/jobs_per_s"),
    ("serve.exec_s.spectrum", "s", "lower",
     "serve_mixed/latency_s.p90, serve_mixed/jobs_per_s"),
    ("serve.exec_s.ensemble", "s", "lower",
     "serve_mixed/latency_s.p90, serve_mixed/jobs_per_s"),
    ("serve.exec_s.run", "s", "lower",
     "serve_mixed/latency_s.p90, serve_mixed/jobs_per_s"),
    ("serve.jobs_per_group", "count", "higher", "serve_mixed/jobs_per_s"),
    ("serve.busy_shed", "count", "lower", "serve_mixed/jobs_per_s, failed"),
    ("ensemble.hops", "count", "higher", "nothing (correctness count)"),
    ("md.coverage", "ratio", "higher", "nothing (diagnostic)"),
    ("obs.trace_overhead", "ratio", "lower", "nothing (diagnostic)"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def grid_layers(idx: SpanIndex, tracing: Any, n_ops: int) -> Dict[str, float]:
    """LFD, QXMD, parallel and resilience layers, per operation."""
    kin_s = idx.self_total("lfd.kinetic")
    nl_s = idx.self_total("lfd.nonlocal")
    _, kin_bytes = tracing.charged("kin_prop")
    nl_flops, _ = tracing.charged("nonlocal_corr")
    vcycles = sum(v for name, v, _ in tracing.recorder.counts
                  if name == "multigrid.vcycles")
    return {
        "lfd.kinetic.s": _per(kin_s, n_ops),
        "lfd.kinetic.gbps": _per(kin_bytes / 1e9, kin_s),
        "lfd.potential.s": _per(idx.self_total("lfd.potential"), n_ops),
        "lfd.nonlocal.s": _per(nl_s, n_ops),
        "lfd.nonlocal.gflops": _per(nl_flops / 1e9, nl_s),
        "lfd.remap.s": _per(idx.self_total("lfd.remap"), n_ops),
        "qxmd.dc_solve.s": _per(idx.self_total("qxmd.dc_solve"), n_ops),
        "qxmd.cg.s": _per(idx.self_total("qxmd.cg"), n_ops),
        "qxmd.cg.calls": _per(idx.calls("qxmd.cg"), n_ops),
        "qxmd.hartree.s": _per(idx.self_total("qxmd.hartree"), n_ops),
        "multigrid.vcycles": _per(vcycles, n_ops),
        "qxmd.xc.s": _per(idx.self_total("qxmd.xc"), n_ops),
        "core.scissor.s": _per(idx.self_total("core.scissor"), n_ops),
        "qxmd.forces.s": _per(idx.self_total("qxmd.forces"), n_ops),
        "parallel.map.overhead_s": _per(idx.self_total("parallel.map"), n_ops),
        "resilience.checkpoint.s": _per(
            idx.self_total("resilience.checkpoint"), n_ops),
        "resilience.checkpoint.mb": _per(
            idx.extra_total("resilience.checkpoint", "bytes") / 1e6, n_ops),
        "resilience.guard.s": _per(idx.self_total("resilience.guard"), n_ops),
        "md.coverage": idx.coverage(CONTAINERS, LAYER_SPANS),
    }


def setup_scf_seconds(idx: SpanIndex) -> float:
    """Initial-SCF wall (inclusive) per simulation construction."""
    setups = idx.calls("core.setup")
    total = sum(s[3] - s[2] for s in idx.named("qxmd.dc_solve")
                if idx.has_ancestor(s, "core.setup"))
    return _per(total, setups)


def ensemble_layers(idx: SpanIndex, n_ops: int) -> Dict[str, float]:
    """Swarm kernels, batch-task remainder and statistics, per job."""
    return {
        "ensemble.propagate.s": _per(idx.self_total("ensemble.propagate"), n_ops),
        "ensemble.hop_prob.s": _per(idx.self_total("ensemble.hop_prob"), n_ops),
        "ensemble.select.s": _per(idx.self_total("ensemble.select"), n_ops),
        # Batch-task time outside step_swarm: a coalesced group round
        # runs its tasks inline, so the round's own time is that rest.
        "ensemble.batch_other.s": _per(
            idx.self_total("ensemble.group_round"), n_ops),
        "ensemble.stats.s": _per(idx.self_total("ensemble.stats"), n_ops),
    }


def serve_layers(idx: SpanIndex, n_jobs: int) -> Dict[str, float]:
    """Artifact-store and per-kind execution times of served jobs."""
    out = {
        "artifacts.get_s": _per(idx.self_total("artifacts.get"), n_jobs),
        "artifacts.put_s": _per(idx.self_total("artifacts.put"), n_jobs),
        "artifacts.mb_written": _per(
            idx.extra_total("artifacts.put", "bytes") / 1e6, n_jobs),
    }
    for kind in SERVE_KINDS:
        name = f"serve.exec.{kind}"
        out[f"serve.exec_s.{kind}"] = _per(
            idx.inclusive_total(name), idx.extra_total(name, "jobs"))
    return out


def trace_overhead(traced: List[float], untraced: List[float]) -> float:
    """Traced / untraced median operation time, minus one."""
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, reading 0 where a workload bypasses it."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name, *_ in PER_LAYER}


def shares(idx: SpanIndex, op_wall: float) -> Dict[str, float]:
    """Self-time shares of the layer families in the operations' wall."""
    if op_wall <= 0:
        return {"lfd": 0.0, "qxmd": 0.0, "resilience": 0.0}
    return {
        "lfd": idx.self_total(*LFD_SPANS) / op_wall,
        "qxmd": idx.self_total(*QXMD_SPANS) / op_wall,
        "resilience": idx.self_total(*RESILIENCE_SPANS) / op_wall,
    }


def shape_failures(workload: str, metrics: Dict[str, float],
                   share: Dict[str, float]) -> List[str]:
    """Reasons the traced run no longer exercises its workload's layers."""
    bad: List[str] = []
    if workload == "md_scf":
        if metrics["md.coverage"] < 0.95:
            bad.append(f"md.coverage {metrics['md.coverage']:.3f} < 0.95")
        if share["qxmd"] + share["resilience"] < 0.50:
            bad.append(f"qxmd.* + resilience.* is "
                       f"{share['qxmd'] + share['resilience']:.1%} "
                       f"of the step (< 50%)")
        if share["lfd"] > 0.20:
            bad.append(f"lfd.* is {share['lfd']:.1%} of the step (> 20%)")
    if workload == "serve_mixed":
        if metrics["serve.jobs_per_group"] <= 1.0:
            bad.append("no coalescing (jobs per group <= 1)")
        if metrics["serve.memo_hit_ratio"] <= 0.0:
            bad.append("no memo hits")
        if metrics["serve.warm_hit_ratio"] <= 0.0:
            bad.append("no warm-pool hits")
        if metrics["serve.busy_shed"] > 0:
            bad.append(f"{metrics['serve.busy_shed']:.0f} job(s) shed busy")
    return bad

