"""Command-line interface for the DC-MESH reproduction.

Subcommands::

    repro-mesh info                      # hardware/config summary
    repro-mesh run [...]                 # a small coupled DC-MESH run
    repro-mesh scaling [...]             # Figs. 2-3 scaling tables
    repro-mesh spectrum [...]            # delta-kick absorption spectrum
    repro-mesh tune [...]                # correctness-gated autotuning
    repro-mesh ensemble [...]            # batched FSSH trajectory swarms
    repro-mesh serve [...]               # persistent batching daemon
    repro-mesh submit [...]              # client for a running daemon

Every subcommand is also importable (``from repro.cli import main``) and
returns a process exit code, so it is unit-testable without spawning
processes.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

import numpy as np


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.device import A100, EPYC_7543_CORE
    from repro.parallel import PolarisModel

    print(f"repro {repro.__version__} -- DC-MESH reproduction (IPPS 2024)")
    print(f"  A100 model: {A100.peak_flops_dp / 1e12:.1f} DP TFLOP/s, "
          f"{A100.mem_bandwidth / 1e12:.2f} TB/s HBM2")
    print(f"  CPU core model: {EPYC_7543_CORE.name}, "
          f"{EPYC_7543_CORE.peak_flops_dp / 1e9:.1f} DP GFLOP/s")
    polaris = PolarisModel(nnodes=256)
    print(f"  Polaris model: up to {PolarisModel.MAX_NODES} nodes; "
          f"256-node allocation = {polaris.nranks} ranks/GPUs")
    return 0


def _install_tracer(args: argparse.Namespace):
    """Install a global tracer when ``--trace-out`` was given."""
    if not getattr(args, "trace_out", None):
        return None
    from repro.obs import Tracer, set_tracer

    return set_tracer(Tracer())


def _finish_tracer(args: argparse.Namespace, tracer) -> None:
    """Write the Chrome trace and per-phase summary; restore null tracing."""
    if tracer is None:
        return
    from repro.obs import phase_report, set_tracer, write_chrome_trace

    set_tracer(None)
    path = write_chrome_trace(args.trace_out, tracer)
    print(f"trace: {len(tracer.records)} spans -> {path} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    print(phase_report(tracer.records))


def _install_profile(args: argparse.Namespace) -> None:
    """Activate the ``--tuning-profile`` file, if one was given."""
    if not getattr(args, "tuning_profile", None):
        return
    from repro.tuning import TuningProfile, set_active_profile

    profile = TuningProfile.load(args.tuning_profile)
    set_active_profile(profile)
    tuned = ", ".join(profile.tuned_ids) or "none (all defaults)"
    print(f"tuning profile: {args.tuning_profile} (tuned: {tuned})")


#: Kernel tunables whose ``backend`` parameter selects the array-API
#: substrate (the ``parallel.executor`` ``backend`` is the executor kind).
_ARRAY_BACKEND_TUNABLES = ("lfd.kin_prop",)


def _install_array_backend(args: argparse.Namespace) -> None:
    """Layer ``--array-backend`` over the active tuning profile.

    Must run *after* :func:`_install_profile`: an explicit CLI substrate
    choice overrides whatever a persisted profile recorded, matching the
    ``resolve_backend`` precedence (explicit > profile > default).
    """
    name = getattr(args, "array_backend", None)
    if not name:
        return
    from repro.backend import get_backend
    from repro.tuning import TuningProfile, set_active_profile
    from repro.tuning.profile import get_active_profile

    resolved = get_backend(name).name
    base = get_active_profile().to_dict()
    overrides = {tid: dict(p) for tid, p in base["overrides"].items()}
    for tid in _ARRAY_BACKEND_TUNABLES:
        overrides.setdefault(tid, {})["backend"] = resolved
    set_active_profile(
        TuningProfile(overrides, source=f"{base['source']}+array-backend")
    )
    print(f"array backend: {resolved}")


def _cmd_run(args: argparse.Namespace) -> int:
    tracer = _install_tracer(args)
    try:
        _install_profile(args)
        _install_array_backend(args)
        return _run_body(args)
    finally:
        _finish_tracer(args, tracer)


def _run_body(args: argparse.Namespace) -> int:
    from repro.parallel.executor import make_executor
    from repro.serve.workloads import run_system

    # The system is built by the same function the serving daemon uses,
    # so daemon run jobs and CLI runs execute identical physics.
    grid, positions, species, laser, config = run_system({
        "grid": args.grid,
        "spacing": args.spacing,
        "species": args.species,
        "dt_md": args.dt_md,
        "n_qd": args.n_qd,
        "nscf": args.nscf,
        "ncg": args.ncg,
        "e0": args.e0,
        "omega": args.omega,
        "seed": args.seed,
        "array_backend": args.array_backend,
    })
    extras = {}
    if args.hang_timeout is not None:
        if args.backend == "process":
            extras["hang_timeout"] = args.hang_timeout
        else:
            print(f"note: --hang-timeout only applies to --backend process "
                  f"(ignored for {args.backend})")
    executor = make_executor(args.backend, workers=args.workers,
                             seed=args.seed, **extras)
    print(f"backend: {executor.name} ({executor.workers} worker(s))")
    try:
        return _run_sim(args, grid, positions, species, laser, config,
                        executor)
    finally:
        executor.shutdown()


def _run_sim(args, grid, positions, species, laser, config, executor) -> int:
    from repro import DCMESHSimulation, VirtualGPU, aut_to_fs
    from repro.core.checkpoint import load_checkpoint, save_checkpoint

    sim = DCMESHSimulation(
        grid, (2, 1, 1), positions, species,
        laser=laser, config=config, device=VirtualGPU(),
        buffer_width=args.buffer, executor=executor,
    )
    if args.restart:
        restart = pathlib.Path(args.restart)
        if restart.is_dir():
            # A rotation directory: restore the newest generation that
            # passes verification, degrading past torn/corrupt ones.
            from repro.resilience.checkpointing import restore_newest_verified

            path, _, skipped = restore_newest_verified(sim, restart)
            for bad, _error in skipped:
                print(f"warning: skipped corrupt checkpoint {bad.name}")
            print(f"restarted from {path} at step {sim.step_count}")
        else:
            load_checkpoint(sim, restart)
            print(f"restarted from {args.restart} at step {sim.step_count}")
    if args.excite:
        sim.excite_carrier(0)

    supervisor = None
    if args.checkpoint_every > 0:
        from repro.resilience.supervisor import RunSupervisor, SupervisorConfig

        supervisor = RunSupervisor(
            sim,
            args.checkpoint_dir,
            SupervisorConfig(
                checkpoint_every=args.checkpoint_every,
                max_retries=args.max_retries,
                log_path=args.resilience_log,
                deadline_s=args.deadline,
                retry_budget=args.retry_budget,
            ),
        )
        print(
            f"supervised run: checkpoint every {args.checkpoint_every} "
            f"step(s) -> {args.checkpoint_dir}, max {args.max_retries} "
            f"retries/segment"
            + (f", {args.deadline:g}s deadline/segment"
               if args.deadline else "")
            + (f", {args.retry_budget} total retries"
               if args.retry_budget is not None else "")
        )

    if supervisor is not None:
        records = supervisor.run(args.steps)
    else:
        # Unsupervised: an armed deadline bounds the whole run (there
        # is no checkpointed segment to replay, so expiry fails fast).
        from repro.resilience.liveness import deadline_scope

        with deadline_scope(args.deadline, "cli.run"):
            records = sim.run(args.steps)
    print("step    t[fs]     T[K]   E_band[Ha]   n_exc  hops")
    for rec in records:
        print(
            f"{rec.step:4d}  {aut_to_fs(rec.time):8.4f}  {rec.temperature:7.1f}"
            f"  {rec.band_energy:11.4f}  {rec.excited_population:6.2f}"
            f"  {rec.hops:4d}"
        )
    sim.ledger.assert_no_psi_traffic()
    if supervisor is not None:
        faults = supervisor.log.count("fault")
        print(
            f"resilience: {faults} fault(s), "
            f"{supervisor.total_retries} retry(ies), "
            f"{supervisor.log.count('checkpoint')} checkpoint(s)"
        )
        if args.resilience_log:
            print(f"resilience events logged to {args.resilience_log}")
    if args.checkpoint:
        path = save_checkpoint(sim, args.checkpoint)
        print(f"checkpoint written to {path}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.parallel import strong_scaling_study, weak_scaling_study
    from repro.parallel.scaling import calibrated_model

    model = calibrated_model()
    if args.mode in ("weak", "both"):
        print("weak scaling (40 atoms/rank):")
        for p in weak_scaling_study(model):
            print(f"  P={p.nranks:5d}  atoms={int(p.natoms):6d}  "
                  f"t={p.step_time:7.2f}s  eta={p.efficiency:.4f}")
    if args.mode in ("strong", "both"):
        for natoms, plist in ((5120.0, (64, 128, 256)),
                              (10240.0, (128, 256, 512))):
            print(f"strong scaling ({int(natoms)} atoms):")
            for p in strong_scaling_study(model, natoms, plist):
                print(f"  P={p.nranks:5d}  t={p.step_time:7.2f}s  "
                      f"eta={p.efficiency:.4f}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    tracer = _install_tracer(args)
    try:
        _install_profile(args)
        _install_array_backend(args)
        return _spectrum_body(args)
    finally:
        _finish_tracer(args, tracer)


def _cmd_tune(args: argparse.Namespace) -> int:
    tracer = _install_tracer(args)
    try:
        return _tune_body(args)
    finally:
        _finish_tracer(args, tracer)


def _tune_body(args: argparse.Namespace) -> int:
    from repro.tuning import (
        TuningCache,
        TuningSession,
        format_report,
        write_report_json,
    )

    cache = TuningCache(args.cache) if args.cache else TuningCache()
    session = TuningSession(cache=cache)
    result = session.run(
        select=args.select or None,
        force=args.force,
        strategy=args.search,
        warmup=args.warmup,
        repeats=args.repeats,
        seed=args.seed,
    )
    print(format_report(result))
    if args.report:
        path = write_report_json(result, args.report)
        print(f"report written to {path}")
    if args.profile_out:
        profile = result.profile()
        profile.save(args.profile_out)
        print(f"profile written to {args.profile_out} "
              f"(use with --tuning-profile)")
    return 0


def _spectrum_body(args: argparse.Namespace) -> int:
    from repro.serve.workloads import spectrum_ground_state, spectrum_payload

    # Both stages run through the daemon's workload functions, so a
    # spectrum served warm from the daemon's pool is bit-identical to
    # this one-shot path.
    params = {"grid": args.grid, "norb": args.norb, "depth": args.depth,
              "steps": args.steps, "seed": args.seed}
    gs = spectrum_ground_state(params)
    print("KS levels (Ha):", np.round(gs.evals, 4))
    payload = spectrum_payload(gs, params, deadline_s=args.deadline)
    print("absorption peaks (Ha):", np.round(payload["peaks"][:5], 4))
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    tracer = _install_tracer(args)
    try:
        _install_profile(args)
        _install_array_backend(args)
        return _ensemble_body(args)
    finally:
        _finish_tracer(args, tracer)


def _ensemble_body(args: argparse.Namespace) -> int:
    from repro.ensemble import EnsembleConfig, EnsembleRun, model_path
    from repro.qxmd.sh_kernels import HopPolicy

    policy = HopPolicy(
        hop_rescale=args.hop_rescale,
        hop_reject=args.hop_reject,
        dec_correction=None if args.decoherence == "none" else args.decoherence,
        edc_parameter=args.edc_parameter,
    )
    path = model_path(nsteps=args.nsteps, nstates=args.nstates,
                      dt=args.dt, seed=args.path_seed,
                      coupling=args.coupling)
    config = EnsembleConfig(
        ntraj=args.ntraj,
        istate=args.istate,
        seed=args.seed,
        substeps=args.substeps,
        policy=policy,
        batch_size=args.batch_size,
        array_backend=args.array_backend,
    )
    extras = {}
    if args.hang_timeout is not None and args.backend == "process":
        extras["hang_timeout"] = args.hang_timeout
    run = EnsembleRun(path, config, backend=args.backend,
                      workers=args.workers, round_size=args.round_size,
                      **extras)
    try:
        return _ensemble_drive(args, run)
    finally:
        run.close()


def _ensemble_drive(args: argparse.Namespace, run) -> int:
    from repro.resilience.liveness import deadline_scope

    print(f"ensemble: {run.config.ntraj} trajectories x "
          f"{run.path.nsteps} steps, {run.path.nstates} states, "
          f"batch_size={run.batch_size} "
          f"({len(run.batches)} batches, round_size={run.round_size})")
    p = run.config.policy
    print(f"hop policy: rescale={p.hop_rescale}, reject={p.hop_reject}, "
          f"decoherence={p.dec_correction or 'off'}"
          + (f" (C={p.edc_parameter:g} Ha)"
             if p.dec_correction == "edc" else ""))

    if args.restart:
        from repro.resilience.checkpointing import restore_newest_verified

        path, _, skipped = restore_newest_verified(run, args.restart)
        for bad, _error in skipped:
            print(f"warning: skipped corrupt checkpoint {bad.name}")
        print(f"resumed from {path.name}: "
              f"{int(run.done.sum())}/{len(run.batches)} batches done")

    rounds = run.rounds_remaining
    if args.stop_after is not None:
        rounds = min(rounds, args.stop_after)

    if args.checkpoint_every > 0:
        from repro.resilience.supervisor import RunSupervisor, SupervisorConfig

        supervisor = RunSupervisor(
            run,
            args.checkpoint_dir,
            SupervisorConfig(
                checkpoint_every=args.checkpoint_every,
                max_retries=args.max_retries,
                log_path=args.resilience_log,
                deadline_s=args.deadline,
            ),
        )
        print(f"supervised: checkpoint every {args.checkpoint_every} "
              f"round(s) -> {args.checkpoint_dir}")
        supervisor.run(rounds)
    else:
        with deadline_scope(args.deadline, "cli.ensemble"):
            for _ in range(rounds):
                run.md_step()

    if not run.complete:
        print(f"stopped early: {int(run.done.sum())}/{len(run.batches)} "
              f"batches done (resume with --restart)")
        return 0

    result = run.result()
    stats = result.stats
    every = args.print_every or max(1, run.path.nsteps // 10)
    hdr = "  ".join(f"p{k}(mean+-se)" for k in range(run.path.nstates))
    print(f"step  {hdr}  coherence  active-hist")
    for s in range(0, run.path.nsteps, every):
        pops = "  ".join(
            f"{stats.pop_mean[s, k]:.4f}+-{stats.pop_stderr[s, k]:.4f}"
            for k in range(run.path.nstates)
        )
        hist = "/".join(str(int(c)) for c in stats.active_counts[s])
        print(f"{s:4d}  {pops}  "
              f"{stats.coherence_mean[s]:.4f}+-{stats.coherence_stderr[s]:.4f}"
              f"  {hist}")
    print(f"total hops: {int(result.hops.sum())} "
          f"(mean {result.hops.mean():.2f}/trajectory)")
    if args.out:
        from repro.resilience.atomicio import write_archive

        write_archive(args.out, {
            "pop_mean": stats.pop_mean,
            "pop_stderr": stats.pop_stderr,
            "active_fraction": stats.active_fraction,
            "active_counts": stats.active_counts,
            "coherence_mean": stats.coherence_mean,
            "coherence_stderr": stats.coherence_stderr,
            "hops": result.hops,
        }, {}, "ensemble.stats.v1")
        print(f"statistics written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import BatchPolicy, ServeConfig, ServeDaemon
    from repro.serve.jobs import DEFAULT_DEADLINE_S
    from repro.serve.scheduler import ARRIVAL_GAP_S

    config = ServeConfig(
        socket_path=pathlib.Path(args.socket),
        artifact_root=(None if args.no_artifacts
                       else pathlib.Path(args.artifact_root)),
        artifact_max_bytes=args.artifact_max_bytes,
        scratch_root=(pathlib.Path(args.scratch_dir)
                      if args.scratch_dir else None),
        policy=BatchPolicy(max_batch=args.max_batch),
        max_queue=args.max_queue,
        pool_entries=args.pool_entries,
        pool_max_bytes=args.pool_max_bytes,
        default_deadline_s=(DEFAULT_DEADLINE_S if args.deadline is None
                            else args.deadline),
        max_retries=args.max_retries,
    )
    daemon = ServeDaemon(config)
    print(f"serving on {config.socket_path} "
          f"(batch <= {config.policy.max_batch} jobs, dispatched when "
          f"arrivals pause for {ARRIVAL_GAP_S * 1e3:g} ms, "
          f"queue <= {config.max_queue}, "
          f"artifacts: {config.artifact_root or 'off'})")
    asyncio.run(daemon.run())
    snapshot = daemon.metrics.snapshot()
    print(f"drained: {snapshot['completed']} completed, "
          f"{snapshot['failed']} failed, "
          f"{snapshot['busy_shed']} shed busy, "
          f"{snapshot['shutdown_shed']} shed at shutdown")
    return 0


def _parse_job_param(text: str):
    """``key=value`` with JSON-typed values (bare words stay strings)."""
    import json

    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.socket, timeout_s=args.timeout)
    if args.op == "ping":
        ok = client.ping()
        print("pong" if ok else "no answer")
        return 0 if ok else 1
    if args.op == "stats":
        import json

        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if args.op == "invalidate":
        dropped = client.invalidate(scope=args.scope)
        print(f"invalidated: {dropped['pool']} pooled state(s), "
              f"{dropped['artifacts']} artifact(s)")
        return 0
    if args.op == "shutdown":
        client.shutdown()
        print("daemon drained")
        return 0
    job = {"kind": args.kind, "params": dict(args.param or [])}
    if args.deadline is not None:
        job["deadline_s"] = args.deadline
    if args.no_memoize:
        job["memoize"] = False
    try:
        result = client.run_job(**job)  # type: ignore[arg-type]
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    arrays = {k: v for k, v in result.items() if isinstance(v, np.ndarray)}
    for key in sorted(result):
        value = result[key]
        if isinstance(value, np.ndarray):
            print(f"{key}: array{value.shape} {value.dtype}")
        else:
            print(f"{key}: {value}")
    if args.out and arrays:
        from repro.resilience.atomicio import write_archive

        write_archive(args.out, arrays, {}, "serve.result.v1")
        print(f"arrays written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-mesh argument parser (see module doc)."""
    parser = argparse.ArgumentParser(
        prog="repro-mesh",
        description="DC-MESH quantum light-matter dynamics (IPPS 2024 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="hardware/config summary").set_defaults(
        func=_cmd_info
    )

    run = sub.add_parser("run", help="run a small coupled simulation")
    run.add_argument("--grid", type=int, default=16, help="mesh points/axis")
    run.add_argument("--spacing", type=float, default=0.6, help="bohr")
    run.add_argument("--species", default="O", help="pseudo-atom symbol")
    run.add_argument("--steps", type=int, default=5, help="MD steps")
    run.add_argument("--dt-md", type=float, default=2.0, help="Delta_MD (a.u.)")
    run.add_argument("--n-qd", type=int, default=20, help="QD steps per MD step")
    run.add_argument("--nscf", type=int, default=2)
    run.add_argument("--ncg", type=int, default=3)
    run.add_argument("--buffer", type=int, default=3, help="LDC buffer width")
    run.add_argument("--e0", type=float, default=0.02, help="laser peak field")
    run.add_argument("--omega", type=float, default=0.3, help="laser frequency")
    run.add_argument("--excite", action="store_true",
                     help="seed a photo-excited carrier")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--backend", choices=("serial", "thread", "process"),
                     default=None,
                     help="domain executor backend (physics is identical "
                          "on all three; default: resolved from the "
                          "active tuning profile, serial untuned)")
    run.add_argument("--workers", type=int, default=None,
                     help="worker count for thread/process backends "
                          "(default: CPU count)")
    run.add_argument("--hang-timeout", type=float, default=None,
                     help="seconds a process-backend chunk may go without "
                          "a heartbeat before its worker is declared "
                          "wedged and killed (heals like a crash)")
    run.add_argument("--deadline", type=float, default=None,
                     help="wall-clock budget in seconds: per checkpointed "
                          "segment under --checkpoint-every, for the whole "
                          "run otherwise")
    run.add_argument("--retry-budget", type=int, default=None,
                     help="total recoveries allowed across the whole "
                          "supervised run (default: unbounded)")
    run.add_argument("--checkpoint", help="write a checkpoint after the run")
    run.add_argument("--restart",
                     help="restore this verified checkpoint first (a "
                          "rotation directory restores its newest "
                          "verified generation)")
    run.add_argument("--checkpoint-every", type=int, default=0,
                     help="supervise the run, checkpointing every N MD "
                          "steps (0 = unsupervised)")
    run.add_argument("--max-retries", type=int, default=3,
                     help="max replays of a failed segment before aborting")
    run.add_argument("--checkpoint-dir", default="checkpoints",
                     help="directory for rotating supervised checkpoints")
    run.add_argument("--resilience-log",
                     help="write supervisor events to this JSON-lines file")
    run.add_argument("--trace-out",
                     help="write a Chrome trace-event JSON of this run")
    run.add_argument("--array-backend",
                     choices=("numpy", "array_api_strict", "auto"),
                     default=None,
                     help="array-API substrate for the LFD propagation "
                          "kernels (default: resolve from the tuning "
                          "profile)")
    run.add_argument("--tuning-profile",
                     help="activate a tuned parameter profile written by "
                          "'tune --profile-out'")
    run.set_defaults(func=_cmd_run)

    scaling = sub.add_parser("scaling", help="Figs. 2-3 scaling tables")
    scaling.add_argument("--mode", choices=("weak", "strong", "both"),
                         default="both")
    scaling.set_defaults(func=_cmd_scaling)

    spectrum = sub.add_parser("spectrum", help="delta-kick absorption run")
    spectrum.add_argument("--grid", type=int, default=12)
    spectrum.add_argument("--norb", type=int, default=4)
    spectrum.add_argument("--depth", type=float, default=3.0,
                          help="model-well depth (Ha)")
    spectrum.add_argument("--steps", type=int, default=800)
    spectrum.add_argument("--seed", type=int, default=0)
    spectrum.add_argument("--deadline", type=float, default=None,
                          help="wall-clock budget in seconds for the "
                               "propagation loop")
    spectrum.add_argument("--trace-out",
                          help="write a Chrome trace-event JSON of this run")
    spectrum.add_argument("--array-backend",
                          choices=("numpy", "array_api_strict", "auto"),
                          default=None,
                          help="array-API substrate for the propagation "
                               "kernels")
    spectrum.add_argument("--tuning-profile",
                          help="activate a tuned parameter profile written "
                               "by 'tune --profile-out'")
    spectrum.set_defaults(func=_cmd_spectrum)

    tune = sub.add_parser(
        "tune", help="correctness-gated autotuning of the hot paths"
    )
    tune.add_argument("--select", action="append",
                      help="tunable id to tune (repeatable; default: all)")
    tune.add_argument("--cache",
                      help="tuning cache path (default: "
                           ".repro-tuning/cache.json)")
    tune.add_argument("--force", action="store_true",
                      help="drop cached winners and re-tune from scratch")
    tune.add_argument("--search", choices=("auto", "exhaustive", "halving"),
                      default="auto", help="search strategy")
    tune.add_argument("--warmup", type=int, default=1,
                      help="unmeasured warmup calls per candidate")
    tune.add_argument("--repeats", type=int, default=3,
                      help="timed repeats per candidate (median/MAD)")
    tune.add_argument("--seed", type=int, default=0,
                      help="search seed (sub-sampling of huge spaces)")
    tune.add_argument("--report",
                      help="write the machine-readable tuning report here")
    tune.add_argument("--profile-out",
                      help="write the resolved tuning profile here")
    tune.add_argument("--trace-out",
                      help="write a Chrome trace-event JSON of the tuning "
                           "run")
    tune.set_defaults(func=_cmd_tune)

    ens = sub.add_parser(
        "ensemble",
        help="batched FSSH trajectory-swarm ensemble over a classical path",
    )
    ens.add_argument("--ntraj", type=int, default=32,
                     help="ensemble size (trajectories)")
    ens.add_argument("--nsteps", type=int, default=50,
                     help="MD steps of the classical path")
    ens.add_argument("--nstates", type=int, default=4,
                     help="adiabatic states of the model path")
    ens.add_argument("--dt", type=float, default=1.0, help="MD step (a.u.)")
    ens.add_argument("--path-seed", type=int, default=7,
                     help="seed of the synthetic classical path")
    ens.add_argument("--coupling", type=float, default=0.08,
                     help="nonadiabatic coupling scale of the model path")
    ens.add_argument("--seed", type=int, default=2024,
                     help="ensemble seed; trajectory i draws from the "
                          "(seed, i) stream on every backend")
    ens.add_argument("--istate", type=int, default=None,
                     help="initial active state (default: highest)")
    ens.add_argument("--substeps", type=int, default=20,
                     help="electronic RK4 sub-steps per MD step")
    ens.add_argument("--batch-size", type=int, default=None,
                     help="most trajectories per swarm batch (default: "
                          "the ensemble.swarm tunable, 256 untuned); a "
                          "batch is never wider than its share of a round")
    ens.add_argument("--hop-rescale", choices=("energy", "augment", "none"),
                     default="energy",
                     help="velocity handling after accepted hops "
                          "(unixmd hop_rescale; 'none' = classical-path "
                          "approximation)")
    ens.add_argument("--hop-reject", choices=("keep", "reverse"),
                     default="keep",
                     help="frustrated-hop velocity policy (unixmd "
                          "hop_reject)")
    ens.add_argument("--decoherence", choices=("none", "edc"),
                     default="none",
                     help="decoherence correction (unixmd dec_correction)")
    ens.add_argument("--edc-parameter", type=float, default=0.1,
                     help="EDC energy constant C in Ha (unixmd default 0.1)")
    ens.add_argument("--backend", choices=("serial", "thread", "process"),
                     default=None,
                     help="executor backend for batch fan-out (results are "
                          "bit-identical on all three; default: tuning "
                          "profile, serial untuned)")
    ens.add_argument("--workers", type=int, default=None,
                     help="worker count for thread/process backends")
    ens.add_argument("--round-size", type=int, default=None,
                     help="batches per supervisable round (default: "
                          "worker count)")
    ens.add_argument("--hang-timeout", type=float, default=None,
                     help="process-backend heartbeat watchdog timeout")
    ens.add_argument("--deadline", type=float, default=None,
                     help="wall-clock budget in seconds: per round under "
                          "--checkpoint-every, whole run otherwise")
    ens.add_argument("--checkpoint-every", type=int, default=0,
                     help="supervise the ensemble, checkpointing the "
                          "partial swarm every N rounds (0 = off)")
    ens.add_argument("--checkpoint-dir", default="checkpoints",
                     help="directory for rotating partial-ensemble "
                          "checkpoints")
    ens.add_argument("--max-retries", type=int, default=3,
                     help="max replays of a failed round before aborting")
    ens.add_argument("--resilience-log",
                     help="write supervisor events to this JSON-lines file")
    ens.add_argument("--restart",
                     help="resume a partial ensemble from this checkpoint "
                          "rotation directory")
    ens.add_argument("--stop-after", type=int, default=None,
                     help="stop after N rounds even if batches remain "
                          "(checkpointed partial ensembles resume with "
                          "--restart)")
    ens.add_argument("--print-every", type=int, default=None,
                     help="print streaming statistics every N steps "
                          "(default: ~10 lines)")
    ens.add_argument("--out", help="write per-step ensemble statistics to "
                                   "this .npz")
    ens.add_argument("--trace-out",
                     help="write a Chrome trace-event JSON of this run")
    ens.add_argument("--array-backend",
                     choices=("numpy", "array_api_strict", "auto"),
                     default=None,
                     help="array-API substrate for the batched FSSH kernels")
    ens.add_argument("--tuning-profile",
                     help="activate a tuned parameter profile written by "
                          "'tune --profile-out'")
    ens.set_defaults(func=_cmd_ensemble)

    serve = sub.add_parser(
        "serve",
        help="persistent serving daemon: batched jobs over a unix socket",
    )
    serve.add_argument("--socket", default=".repro-serve.sock",
                       help="unix socket path to listen on")
    serve.add_argument("--artifact-root", default=".repro-artifacts",
                       help="content-addressed artifact store directory")
    serve.add_argument("--no-artifacts", action="store_true",
                       help="disable result memoization entirely")
    serve.add_argument("--artifact-max-bytes", type=int, default=None,
                       help="LRU byte budget of the artifact store "
                            "(default: unbounded)")
    serve.add_argument("--scratch-dir", default=None,
                       help="supervisor checkpoint scratch directory "
                            "(default: a private temp dir)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="max jobs coalesced into one batch (a batch "
                            "is dispatched as soon as arrivals pause)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="bounded admission queue depth (beyond it, "
                            "jobs are shed with a typed ServerBusy)")
    serve.add_argument("--pool-entries", type=int, default=8,
                       help="warm-state pool entry cap (LRU), per pool: "
                            "each lane's and the daemon's scf pool")
    serve.add_argument("--pool-max-bytes", type=int, default=None,
                       help="warm-state pool byte budget (LRU), per pool")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-job wall-clock budget in seconds of a job "
                            "that names none (default: "
                            "repro.serve.jobs.DEFAULT_DEADLINE_S, 300)")
    serve.add_argument("--max-retries", type=int, default=1,
                       help="supervisor retries per job segment")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one job (or op) to a serving daemon"
    )
    submit.add_argument("--socket", default=".repro-serve.sock",
                        help="daemon unix socket path")
    submit.add_argument("--op",
                        choices=("submit", "ping", "stats", "invalidate",
                                 "shutdown"),
                        default="submit", help="operation to perform")
    submit.add_argument("--kind",
                        choices=("run", "spectrum", "scf", "ensemble"),
                        default="ensemble", help="job kind (op=submit)")
    submit.add_argument("--param", action="append", metavar="KEY=VALUE",
                        type=_parse_job_param,
                        help="job parameter override (repeatable; values "
                             "parse as JSON, bare words as strings)")
    submit.add_argument("--deadline", type=float, default=None,
                        help="per-job wall-clock budget in seconds")
    submit.add_argument("--no-memoize", action="store_true",
                        help="skip the artifact store for this job")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="client socket timeout in seconds")
    submit.add_argument("--scope",
                        choices=("pool", "artifacts", "all"),
                        default="pool",
                        help="what to drop (op=invalidate)")
    submit.add_argument("--out",
                        help="write the result's arrays to this .npz")
    submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    from repro.resilience.atomicio import CheckpointCorruptError
    from repro.resilience.liveness import DeadlineExceeded
    from repro.tuning.profile import TuningProfileError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointCorruptError, DeadlineExceeded,
            TuningProfileError) as exc:
        # An expired --deadline is an intentional bound; an archive that
        # fails verification or an unusable --tuning-profile is bad
        # input, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
