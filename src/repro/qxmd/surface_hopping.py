"""Fewest-switches surface hopping (FSSH) on Kohn-Sham orbitals.

Implements the U_SH factor of Eq. (3): quantum amplitudes over the
adiabatic Kohn-Sham states are propagated under the instantaneous
energies and nonadiabatic couplings, hop probabilities follow Tully's
fewest-switches prescription, and accepted hops update the orbital
occupation numbers that shape the excited-state energy landscape.  Hops
upward in energy are accepted only when the nuclear kinetic energy can
pay for them (velocity-rescaling criterion); the rescale factor is
returned to the MD driver.

All floating-point arithmetic lives in :mod:`repro.qxmd.sh_kernels` and
runs here, on the ``np`` namespace, on single-row ``(1, nstates)``
views.  The ensemble engine calls the same kernels on ``(ntraj,
nstates)`` stacks, which is what makes a batch-extracted trajectory
bit-identical to this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.qxmd.sh_kernels import (
    HopPolicy,
    apply_edc_batch,
    batched_norm,
    hop_probabilities_batch,
    propagate_amplitudes_batch,
    resolve_hops,
    select_hops,
)


@dataclass
class SurfaceHoppingState:
    """Quantum amplitudes and current active state of one FSSH carrier."""

    amplitudes: np.ndarray   # complex coefficients over adiabatic states
    active: int              # index of the occupied (active) state

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim != 1:
            # Normalize-on-construct would silently rescale every row of a
            # stacked array by the *global* norm, hiding zero-amplitude
            # rows; batches belong in repro.ensemble.SwarmState.
            raise ValueError(
                "SurfaceHoppingState holds one carrier (1-D amplitudes); "
                "use repro.ensemble.SwarmState for stacked trajectories"
            )
        n = self.amplitudes.size
        if not (0 <= self.active < n):
            raise ValueError("active state out of range")
        norm = float(batched_norm(np, self.amplitudes[None, :])[0])
        if norm == 0:
            raise ValueError("zero amplitude vector")
        self.amplitudes = self.amplitudes / norm

    @property
    def nstates(self) -> int:
        return self.amplitudes.size

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @classmethod
    def on_state(cls, nstates: int, active: int) -> "SurfaceHoppingState":
        amps = np.zeros(nstates, dtype=np.complex128)
        amps[active] = 1.0
        return cls(amplitudes=amps, active=active)


@dataclass
class HopEvent:
    """One accepted or rejected (frustrated) hop."""

    step: int
    source: int
    target: int
    accepted: bool
    energy_change: float


class FSSH:
    """Fewest-switches surface-hopping propagator.

    Parameters
    ----------
    rng:
        Random generator for hop decisions (explicit for reproducibility).
    substeps:
        Electronic sub-steps per MD step for amplitude integration (RK4).
    decoherence_c:
        Legacy shorthand: energy-based decoherence constant (Ha) of the
        Granucci-Persico correction; ``None`` disables it.  Equivalent
        to ``policy=HopPolicy(dec_correction="edc", edc_parameter=...)``.
    policy:
        Full unixmd-style hopping knob set (velocity rescaling,
        frustrated-hop handling, decoherence).  Mutually exclusive with
        ``decoherence_c``; defaults to the historical behaviour
        (``hop_rescale="energy"``, ``hop_reject="keep"``, no decoherence).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        substeps: int = 20,
        decoherence_c: Optional[float] = None,
        policy: Optional[HopPolicy] = None,
    ) -> None:
        if substeps < 1:
            raise ValueError("substeps must be positive")
        if decoherence_c is not None:
            if policy is not None:
                raise ValueError(
                    "pass either decoherence_c or policy, not both"
                )
            if decoherence_c < 0:
                raise ValueError("decoherence_c must be non-negative")
            policy = HopPolicy(dec_correction="edc",
                               edc_parameter=decoherence_c)
        self.rng = rng
        self.substeps = substeps
        self.policy = policy if policy is not None else HopPolicy()
        self.events: List[HopEvent] = []
        self._step_count = 0

    @property
    def decoherence_c(self) -> Optional[float]:
        """The EDC constant in Hartree, or ``None`` when EDC is off."""
        if self.policy.dec_correction == "edc":
            return self.policy.edc_parameter
        return None

    # ------------------------------------------------------------------ #
    def propagate_amplitudes(
        self,
        state: SurfaceHoppingState,
        energies: np.ndarray,
        nac: np.ndarray,
        dt: float,
    ) -> None:
        """RK4 integration of the amplitude equation over one MD step."""
        energies = np.asarray(energies, dtype=float)
        nac = np.asarray(nac, dtype=np.complex128)
        n = state.nstates
        if energies.shape != (n,) or nac.shape != (n, n):
            raise ValueError("energies/NAC dimensions do not match the state")
        state.amplitudes = propagate_amplitudes_batch(
            np, state.amplitudes[None, :], energies, nac, dt, self.substeps
        )[0]

    def hop_probabilities(
        self, state: SurfaceHoppingState, nac: np.ndarray, dt: float
    ) -> np.ndarray:
        """Tully's fewest-switches probabilities g_{active -> j}."""
        nac = np.asarray(nac, dtype=np.complex128)
        return hop_probabilities_batch(
            np,
            state.amplitudes[None, :],
            np.array([state.active]),
            nac,
            dt,
        )[0]

    def attempt_hop(
        self,
        state: SurfaceHoppingState,
        energies: np.ndarray,
        nac: np.ndarray,
        dt: float,
        kinetic_energy: float,
    ) -> Tuple[bool, float]:
        """One stochastic hop attempt.

        Returns (hopped, velocity_scale): the factor by which nuclear
        velocities must be rescaled (1.0 when nothing changed; ``-1.0``
        reverses them under the ``hop_reject="reverse"`` policy).  Under
        the default ``hop_rescale="energy"`` policy, upward hops
        exceeding the available kinetic energy are frustrated (rejected,
        logged).
        """
        self._step_count += 1
        g = self.hop_probabilities(state, nac, dt)
        xi = self.rng.random()
        target = int(select_hops(g[None, :], np.array([xi]))[0])
        if target < 0:
            return False, 1.0
        de = float(energies[target] - energies[state.active])
        accepted, scale = resolve_hops(
            np.array([de]), np.array([kinetic_energy]), self.policy
        )
        hopped = bool(accepted[0])
        self.events.append(
            HopEvent(self._step_count, state.active, target, hopped, de)
        )
        if hopped:
            state.active = target
        return hopped, float(scale[0])

    def apply_decoherence(
        self,
        state: SurfaceHoppingState,
        energies: np.ndarray,
        dt: float,
        kinetic_energy: float,
    ) -> None:
        """Granucci-Persico energy-based decoherence correction.

        Non-active amplitudes decay with the lifetime
        tau_j = (hbar / |E_j - E_a|) * (1 + C / E_kin); the active
        amplitude is rescaled to restore the norm.  Counteracts the
        well-known FSSH overcoherence that biases hop statistics.
        """
        if self.policy.dec_correction != "edc":
            return
        energies = np.asarray(energies, dtype=float)
        state.amplitudes = apply_edc_batch(
            np,
            state.amplitudes[None, :],
            np.array([state.active]),
            energies,
            dt,
            np.array([kinetic_energy]),
            self.policy.edc_parameter,
        )[0]

    def step(
        self,
        state: SurfaceHoppingState,
        energies: np.ndarray,
        nac: np.ndarray,
        dt: float,
        kinetic_energy: float,
    ) -> Tuple[bool, float]:
        """Full U_SH update: propagate amplitudes, decohere, attempt a hop."""
        self.propagate_amplitudes(state, energies, nac, dt)
        self.apply_decoherence(state, energies, dt, kinetic_energy)
        return self.attempt_hop(state, energies, nac, dt, kinetic_energy)


def occupations_from_states(
    carriers: List[SurfaceHoppingState], norb: int, base_filling: np.ndarray
) -> np.ndarray:
    """Occupations from FSSH carriers layered on a closed-shell filling.

    Each carrier represents one electron promoted out of the highest
    orbital that still holds charge *at promotion time* into its active
    state.  Recomputing the donor per carrier (instead of fixing it to
    the HOMO of the base filling) keeps multi-carrier stacks physical:
    three carriers drain HOMO twice and HOMO-1 once rather than driving
    the HOMO occupation negative.
    """
    f = np.array(base_filling, dtype=float, copy=True)
    if f.shape != (norb,):
        raise ValueError("base filling length mismatch")
    valence = np.asarray(base_filling) > 1e-8
    for carrier in carriers:
        if carrier.active >= norb:
            raise ValueError("carrier active state outside the orbital set")
        # Donors come from the *base* (valence) orbitals only: a freshly
        # promoted electron sitting in the conduction band must never be
        # mistaken for the next carrier's source.
        occupied = np.nonzero(valence & (f > 1e-8))[0]
        if occupied.size == 0:
            raise ValueError("no occupied orbital left to promote from")
        donor = int(occupied[-1])
        if carrier.active == donor:
            continue
        f[donor] -= 1.0
        f[carrier.active] += 1.0
    if np.any(f < -1e-9) or np.any(f > 2.0 + 1e-9):
        raise ValueError("occupations left the physical range [0, 2]")
    return np.clip(f, 0.0, 2.0)
