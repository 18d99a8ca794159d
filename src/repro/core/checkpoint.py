"""Checkpoint/restart for DC-MESH simulations.

Long NAQMD trajectories (the paper's production runs are thousands of MD
steps) need restart capability.  A checkpoint captures everything the MD
loop evolves: atomic positions/velocities, per-domain orbitals,
occupations and eigenvalues, surface-hopping carriers, cached forces,
simulation time and the RNG state -- so a restarted run continues the
*identical* trajectory (asserted by the tests).

Format: one verified archive of :mod:`repro.resilience.atomicio` --
arrays are stored natively, small structured state (carrier actives,
RNG state, tuning profile) rides in the archive's JSON record.  The
write is an atomic, fsync'd publish, so a crash or a full disk leaves
the previous file at the path intact, and it honours the
``checkpoint.enospc`` / ``checkpoint.torn_write`` fault sites.  The
load recomputes the embedded SHA-256 and checks the schema before it
looks at a single array, then validates every shape against ``sim``
before it applies any state: a torn, corrupt or incompatible file
raises and leaves the simulation as it was.
"""

from __future__ import annotations

import pathlib
from typing import Union

from repro.backend import get_backend
from repro.core.mesh import DCMESHSimulation
from repro.qxmd.surface_hopping import SurfaceHoppingState
from repro.resilience.atomicio import read_archive, write_archive
from repro.tuning.profile import (
    TuningProfile,
    get_active_profile,
    set_active_profile,
)

CHECKPOINT_VERSION = 2
#: Archive schema of a DC-MESH checkpoint; files of another version are
#: refused by the verified reader.
CHECKPOINT_SCHEMA = f"dcmesh.checkpoint.v{CHECKPOINT_VERSION}"


def save_checkpoint(sim: DCMESHSimulation, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Atomically write the full mutable state of a simulation to ``path``."""
    arrays = {
        "positions": sim.md_state.positions,
        "velocities": sim.md_state.velocities,
        "masses": sim.md_state.masses,
    }
    meta = {
        "time": sim.time,
        "step_count": sim.step_count,
        "ndomains": len(sim.dc.states),
        "has_prev_forces": sim._prev_forces is not None,
        "carriers": {
            str(alpha): [c.active for c in carriers]
            for alpha, carriers in sim.carriers.items()
        },
        # Active tuning profile: a resumed run must replay the identical
        # tuned parameters.
        "tuning_profile": get_active_profile().to_dict(),
        # Array-API substrate the run was produced on.
        "array_backend": sim.config.array_backend or "numpy",
        "rng_state": sim.rng.bit_generator.state,
    }
    if sim._prev_forces is not None:
        arrays["prev_forces"] = sim._prev_forces
    for st in sim.dc.states:
        a = st.domain.alpha
        arrays[f"psi_{a}"] = st.wf.psi
        arrays[f"occ_{a}"] = st.occupations
        arrays[f"eig_{a}"] = st.eigenvalues
        arrays[f"vloc_{a}"] = st.vloc
    for alpha, carriers in sim.carriers.items():
        for i, c in enumerate(carriers):
            arrays[f"carrier_{alpha}_{i}"] = c.amplitudes
    return write_archive(path, arrays, meta, CHECKPOINT_SCHEMA,
                         fault_prefix="checkpoint")


def load_checkpoint(sim: DCMESHSimulation, path: Union[str, pathlib.Path]) -> None:
    """Restore a checkpoint into a compatibly constructed simulation.

    ``sim`` must have been built with the same grid, domains, species and
    configuration as the checkpointed run; mismatches raise ValueError.
    A missing, torn or corrupt file, or one of another checkpoint
    version, raises
    :class:`~repro.resilience.atomicio.CheckpointCorruptError`.
    """
    data, meta = read_archive(path, CHECKPOINT_SCHEMA)
    # ---- phase 1: validate EVERYTHING before touching ``sim``. ----
    # A mid-load failure must not leave the simulation half-restored,
    # so every array is shape-checked (and the tuning profile and
    # substrate parsed) first; only then is any state applied.
    if meta["ndomains"] != len(sim.dc.states):
        raise ValueError(
            f"checkpoint has {meta['ndomains']} domains, simulation "
            f"has {len(sim.dc.states)}"
        )
    if data["positions"].shape != sim.md_state.positions.shape:
        raise ValueError("atom count mismatch with the checkpoint")
    for name in ("velocities", "masses"):
        want = getattr(sim.md_state, name).shape
        if data[name].shape != want:
            raise ValueError(
                f"{name} shape mismatch {data[name].shape} vs {want}"
            )
    if meta["has_prev_forces"]:
        if "prev_forces" not in data:
            raise ValueError("checkpoint is missing prev_forces")
        if data["prev_forces"].shape != sim.md_state.positions.shape:
            raise ValueError("prev_forces shape mismatch")
    for st in sim.dc.states:
        a = st.domain.alpha
        for key in (f"psi_{a}", f"occ_{a}", f"eig_{a}", f"vloc_{a}"):
            if key not in data:
                raise ValueError(f"checkpoint is missing array {key!r}")
        if data[f"psi_{a}"].shape != st.wf.psi.shape:
            raise ValueError(
                f"domain {a}: orbital shape mismatch "
                f"{data[f'psi_{a}'].shape} vs {st.wf.psi.shape}"
            )
        if data[f"occ_{a}"].shape != (st.wf.norb,):
            raise ValueError(f"domain {a}: occupation shape mismatch")
        if data[f"eig_{a}"].shape != (st.wf.norb,):
            raise ValueError(f"domain {a}: eigenvalue shape mismatch")
        if data[f"vloc_{a}"].shape != st.domain.local_grid.shape:
            raise ValueError(f"domain {a}: potential shape mismatch")
    for alpha_str, actives in meta["carriers"].items():
        alpha = int(alpha_str)
        if not (0 <= alpha < len(sim.dc.states)):
            raise ValueError(f"carrier domain {alpha} out of range")
        norb = sim.dc.states[alpha].wf.norb
        for i, active in enumerate(actives):
            key = f"carrier_{alpha}_{i}"
            if key not in data:
                raise ValueError(f"checkpoint is missing array {key!r}")
            if data[key].shape != (norb,):
                raise ValueError(
                    f"carrier {alpha}/{i}: amplitude shape mismatch"
                )
            if not (0 <= int(active) < norb):
                raise ValueError(
                    f"carrier {alpha}/{i}: active state out of range"
                )
    profile = TuningProfile.from_dict(meta["tuning_profile"])
    # Validate eagerly (phase 1): an unknown substrate name must fail
    # before any state is applied.
    array_backend = get_backend(str(meta["array_backend"])).name

    # ---- phase 2: apply (cannot fail on shape grounds anymore). ----
    # The arrays were read fresh from the archive: this load owns them.
    sim.md_state.positions = data["positions"]
    sim.md_state.velocities = data["velocities"]
    sim.md_state.masses = data["masses"]
    sim.time = float(meta["time"])
    sim.step_count = int(meta["step_count"])
    sim._prev_forces = data["prev_forces"] if meta["has_prev_forces"] else None
    for st in sim.dc.states:
        a = st.domain.alpha
        st.wf.psi[...] = data[f"psi_{a}"]
        st.occupations = data[f"occ_{a}"]
        st.eigenvalues = data[f"eig_{a}"]
        st.vloc = data[f"vloc_{a}"]
    sim.carriers.clear()
    for alpha_str, actives in meta["carriers"].items():
        alpha = int(alpha_str)
        sim.carriers[alpha] = [
            SurfaceHoppingState(amplitudes=data[f"carrier_{alpha}_{i}"],
                                active=int(active))
            for i, active in enumerate(actives)
        ]
    sim.rng.bit_generator.state = meta["rng_state"]
    set_active_profile(profile)
    # Resume on the substrate the checkpoint was produced on so the
    # trajectory continues through the same kernel paths.
    sim.config.array_backend = array_backend
