"""Checkpoint/restart for DC-MESH simulations.

Long NAQMD trajectories (the paper's production runs are thousands of MD
steps) need restart capability.  A checkpoint captures everything the MD
loop evolves: atomic positions/velocities, per-domain orbitals,
occupations and eigenvalues, surface-hopping carriers, cached forces,
simulation time and the RNG state -- so a restarted run continues the
*identical* trajectory (asserted by the tests).

Format: a single ``.npz`` archive; arrays are stored natively, small
structured state (carrier amplitudes, RNG state) via named entries.
Members are stored uncompressed, like every other archive the package
writes: the bulk is orbital mantissas, which deflate barely shrinks
(about 8%) at roughly twenty times the write time.  Each zip member
still carries a CRC-32 that is checked as the member is read, and
:func:`load_checkpoint` reads every member before it applies any state,
so a flipped data byte fails the load and leaves the simulation as it
was.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Union

import numpy as np

from repro.backend import get_backend
from repro.core.mesh import DCMESHSimulation
from repro.qxmd.surface_hopping import SurfaceHoppingState
from repro.tuning.profile import (
    TuningProfile,
    get_active_profile,
    set_active_profile,
)

CHECKPOINT_VERSION = 1


def save_checkpoint(sim: DCMESHSimulation, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write the full mutable state of a simulation to ``path`` (.npz)."""
    path = pathlib.Path(path)
    arrays = {
        "positions": sim.md_state.positions,
        "velocities": sim.md_state.velocities,
        "masses": sim.md_state.masses,
    }
    meta = {
        "version": CHECKPOINT_VERSION,
        "time": sim.time,
        "step_count": sim.step_count,
        "ndomains": len(sim.dc.states),
        "has_prev_forces": sim._prev_forces is not None,
        "carriers": {
            str(alpha): [c.active for c in carriers]
            for alpha, carriers in sim.carriers.items()
        },
        # Active tuning profile: a resumed run must replay the identical
        # tuned parameters (optional key; version stays 1).
        "tuning_profile": get_active_profile().to_dict(),
        # Array-API substrate the run was produced on (optional key;
        # pre-substrate checkpoints simply lack it).
        "array_backend": sim.config.array_backend or "numpy",
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
    # RNG state: serialize the bit-generator state deterministically.
    arrays["rng_state"] = np.frombuffer(
        json.dumps(sim.rng.bit_generator.state).encode(), dtype=np.uint8
    )
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # Write through an explicit handle so the archive can be fsync'd:
    # the resilience layer renames this file into place, and a rename
    # must never publish a name whose blocks are still in flight.
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    return path


def load_checkpoint(sim: DCMESHSimulation, path: Union[str, pathlib.Path]) -> None:
    """Restore a checkpoint into a compatibly constructed simulation.

    ``sim`` must have been built with the same grid, domains, species and
    configuration as the checkpointed run; mismatches raise ValueError.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as data:
        # ---- phase 1: validate EVERYTHING before touching ``sim``. ----
        # A mid-load failure must not leave the simulation half-restored,
        # so every array is shape-checked (and the RNG state parsed)
        # first; only then is any state applied.
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {meta['version']} != "
                f"supported {CHECKPOINT_VERSION}"
            )
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
            if "prev_forces" not in data.files:
                raise ValueError("checkpoint is missing prev_forces")
            if data["prev_forces"].shape != sim.md_state.positions.shape:
                raise ValueError("prev_forces shape mismatch")
        for st in sim.dc.states:
            a = st.domain.alpha
            for key in (f"psi_{a}", f"occ_{a}", f"eig_{a}", f"vloc_{a}"):
                if key not in data.files:
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
                if key not in data.files:
                    raise ValueError(f"checkpoint is missing array {key!r}")
                if data[key].shape != (norb,):
                    raise ValueError(
                        f"carrier {alpha}/{i}: amplitude shape mismatch"
                    )
                if not (0 <= int(active) < norb):
                    raise ValueError(
                        f"carrier {alpha}/{i}: active state out of range"
                    )
        rng_state = json.loads(bytes(data["rng_state"].tobytes()).decode())
        profile = (
            TuningProfile.from_dict(meta["tuning_profile"])
            if "tuning_profile" in meta
            else None  # pre-tuning checkpoint: leave the active profile
        )
        array_backend = meta.get("array_backend")
        if array_backend is not None:
            # Validate eagerly (phase 1): an unknown substrate name must
            # fail before any state is applied.
            array_backend = get_backend(str(array_backend)).name

        # ---- phase 2: apply (cannot fail on shape grounds anymore). ----
        sim.md_state.positions = data["positions"].copy()
        sim.md_state.velocities = data["velocities"].copy()
        sim.md_state.masses = data["masses"].copy()
        sim.time = float(meta["time"])
        sim.step_count = int(meta["step_count"])
        sim._prev_forces = (
            data["prev_forces"].copy() if meta["has_prev_forces"] else None
        )
        for st in sim.dc.states:
            a = st.domain.alpha
            st.wf.psi[...] = data[f"psi_{a}"]
            st.occupations = data[f"occ_{a}"].copy()
            st.eigenvalues = data[f"eig_{a}"].copy()
            st.vloc = data[f"vloc_{a}"].copy()
        sim.carriers.clear()
        for alpha_str, actives in meta["carriers"].items():
            alpha = int(alpha_str)
            carriers = []
            for i, active in enumerate(actives):
                amps = data[f"carrier_{alpha}_{i}"].copy()
                carriers.append(
                    SurfaceHoppingState(amplitudes=amps, active=int(active))
                )
            sim.carriers[alpha] = carriers
        sim.rng.bit_generator.state = rng_state
        if profile is not None:
            set_active_profile(profile)
        if array_backend is not None:
            # Resume on the substrate the checkpoint was produced on so
            # the trajectory continues through the same kernel paths.
            sim.config.array_backend = array_backend
