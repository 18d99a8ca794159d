"""The full Suzuki-Trotter quantum-dynamics step (Eq. 6).

One QD sub-step of length dt_QD applies

    psi <- NL(dt/2) . V(dt/2) . T(dt) . V(dt/2) . NL(dt/2) . psi

where NL is the normalized scissor-projected nonlocal half-factor
(Eq. 7), V the local-potential phase and T the pair-split kinetic sweep.
Under shadow dynamics the local potential and the nonlocal reference are
frozen for the whole MD step, so the V phase field is computed once and
re-used for all N_QD sub-steps while only the Peierls phases (the laser)
change; this is the amortization that lets the propagation live entirely
on the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend, to_numpy
from repro.lfd.kin_prop import kinetic_step
from repro.lfd.nonlocal_corr import NonlocalCorrector
from repro.lfd.pot_prop import potential_phase, potential_phase_step
from repro.lfd.vector_gauge import peierls_phases
from repro.lfd.wavefunction import WaveFunctionSet
from repro.obs import trace_span
from repro.resilience.faults import fault_point

if TYPE_CHECKING:  # guards are read-only observers; avoid a runtime cycle
    from repro.resilience.guards import HealthGuard


@dataclass
class PropagatorConfig:
    """Numerical knobs of the QD propagator.

    Attributes
    ----------
    dt:
        QD time step Delta_QD (a.u.; ~1e-3 fs scale, i.e. attoseconds).
    kin_variant:
        Which ``kin_prop`` kernel to use (Algorithms 1-5); None resolves
        from the active :class:`~repro.tuning.profile.TuningProfile`
        (the ``lfd.kin_prop`` tunable).
    block_size:
        Orbital block size for the ``blocked`` variant; None resolves
        from the active tuning profile.
    nl_normalize:
        Apply the Eq. (6) normalization of the nonlocal factor.
    renormalize_every:
        Re-normalize orbital norms every k steps (0 = never).  The
        propagator is unitary to round-off, so this is a guard, not a
        physics knob.
    backend:
        Array-API substrate of the kinetic, potential-phase and CAP
        kernels (name or :class:`~repro.backend.ArrayBackend` handle);
        None resolves from the ``lfd.kin_prop`` tunable of the active
        tuning profile.  The nonlocal correction is NumPy-only.  The
        resolved handle pickles by name, so configs cross the
        process-spawn executor boundary intact.
    """

    dt: float = 0.05
    kin_variant: Optional[str] = None
    block_size: Optional[int] = None
    nl_normalize: bool = True
    renormalize_every: int = 0
    order: int = 2
    backend: Union[str, ArrayBackend, None] = None

    def __post_init__(self) -> None:
        from repro.tuning.profile import get_active_profile

        params = get_active_profile().params_for("lfd.kin_prop")
        if self.kin_variant is None:
            self.kin_variant = str(params["variant"])
        if self.block_size is None:
            self.block_size = int(params["block_size"])  # type: ignore[arg-type]
        if self.backend is None:
            self.backend = str(params.get("backend", "numpy"))
        self.backend = get_backend(self.backend)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.order not in (2, 4):
            raise ValueError("order must be 2 (Strang) or 4 (Suzuki)")


class QDPropagator:
    """Propagates a domain's orbitals through N_QD quantum sub-steps.

    Parameters
    ----------
    wf:
        The wave-function set to evolve (modified in place).
    vloc:
        Frozen local potential for this MD step.
    config:
        Numerical configuration.
    corrector:
        Optional scissor-projected nonlocal corrector; ``None`` disables
        the nonlocal factors (local-only ablation).
    a_of_t:
        Callable t -> 3-vector A(t) at the domain centre; ``None`` means
        no field.
    guard:
        Optional :class:`~repro.resilience.guards.HealthGuard`; when set,
        the orbitals are health-checked every ``guard.config.check_every``
        sub-steps of :meth:`run` (guards only read state).
    """

    def __init__(
        self,
        wf: WaveFunctionSet,
        vloc: np.ndarray,
        config: PropagatorConfig,
        corrector: Optional[NonlocalCorrector] = None,
        a_of_t: Optional[Callable[[float], Sequence[float]]] = None,
        cap: Optional[np.ndarray] = None,
        guard: Optional["HealthGuard"] = None,
    ) -> None:
        if vloc.shape != wf.grid.shape:
            raise ValueError("potential shape does not match grid")
        self.wf = wf
        self.vloc = np.asarray(vloc, dtype=float)
        self.config = config
        self.corrector = corrector
        self.a_of_t = a_of_t
        self.guard = guard
        self.time = 0.0
        self.steps_taken = 0
        # Shadow-dynamics amortization: the half-step phase is frozen.
        self._half_phase = potential_phase(
            self.vloc, config.dt / 2.0, backend=config.backend
        )
        # Optional complex absorbing potential (see repro.lfd.cap): the
        # damping factor exp(-dt W) is exact for the CAP split term.
        self._cap_factor: Optional[np.ndarray] = None
        if cap is not None:
            cap = np.asarray(cap, dtype=float)
            if cap.shape != wf.grid.shape:
                raise ValueError("CAP shape does not match grid")
            if np.any(cap < 0):
                raise ValueError("CAP must be non-negative (absorbing)")
            self._cap_factor = np.exp(-config.dt * cap)

    @property
    def kinetic_rotation_angle(self) -> float:
        """Largest per-pass pair-rotation angle dt |o| (radians).

        The Suzuki-Trotter splitting is accurate only while this is small;
        as a rule of thumb keep it below ~0.5 (the paper's Delta_QD of a
        few attoseconds on its mesh sits well below that).  Above ~1 the
        propagated state rapidly leaves the adiabatic span and the
        occupation remap loses population.
        """
        angles = []
        for axis in range(3):
            h = self.wf.grid.spacing[axis]
            angles.append(self.config.dt * 0.5 / (h * h))
        return max(angles)

    def set_potential(self, vloc: np.ndarray) -> None:
        """Replace the frozen local potential (start of a new MD step)."""
        if vloc.shape != self.wf.grid.shape:
            raise ValueError("potential shape does not match grid")
        self.vloc = np.asarray(vloc, dtype=float)
        self._half_phase = potential_phase(
            self.vloc, self.config.dt / 2.0, backend=self.config.backend
        )

    def _theta(self, t: float) -> Sequence[float]:
        if self.a_of_t is None:
            return (0.0, 0.0, 0.0)
        return peierls_phases(self.wf.grid, self.a_of_t(t))

    def _strang_substep(self, dt: float, t_start: float) -> None:
        """One second-order (Strang) sub-step of arbitrary signed length."""
        cfg = self.config
        t_mid = t_start + dt / 2.0
        if self.corrector is not None:
            self.corrector.apply(self.wf, dt, normalize=cfg.nl_normalize)
        phase = (
            self._half_phase
            if dt == cfg.dt
            else potential_phase(self.vloc, dt / 2.0, backend=cfg.backend)
        )
        potential_phase_step(
            self.wf, self.vloc, dt / 2.0, phase=phase, backend=cfg.backend
        )
        kinetic_step(
            self.wf,
            dt,
            theta=self._theta(t_mid),
            variant=cfg.kin_variant,
            block_size=cfg.block_size,
            backend=cfg.backend,
        )
        potential_phase_step(
            self.wf, self.vloc, dt / 2.0, phase=phase, backend=cfg.backend
        )
        if self.corrector is not None:
            self.corrector.apply(self.wf, dt, normalize=cfg.nl_normalize)

    #: Suzuki fractal coefficient for the 4th-order composition.
    _SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))

    def step(self) -> None:
        """Advance the orbitals by one QD sub-step (Eq. 6).

        ``order=2`` is the paper's Strang splitting; ``order=4`` composes
        five Strang sub-steps with Suzuki's fractal coefficients
        (p, p, 1-4p, p, p), raising the local error to O(dt^5) at 5x the
        kernel cost -- the classic accuracy/cost ablation for
        split-operator TDDFT.
        """
        cfg = self.config
        dt = cfg.dt
        with trace_span("qd.step", "lfd", order=cfg.order):
            if cfg.order == 2:
                self._strang_substep(dt, self.time)
            else:
                p = self._SUZUKI_P
                t = self.time
                for frac in (p, p, 1.0 - 4.0 * p, p, p):
                    self._strang_substep(frac * dt, t)
                    t += frac * dt
            if self._cap_factor is not None:
                b = get_backend(cfg.backend)
                damp = b.asarray(self._cap_factor.astype(self.wf.dtype))
                psi = b.asarray(self.wf.psi)
                psi *= damp[..., None]
                if psi is not self.wf.psi:
                    self.wf.psi[...] = to_numpy(psi)
        spec = fault_point("lfd.nan")
        if spec is not None:
            orb = int(spec.payload.get("orbital", 0)) % self.wf.norb
            self.wf.psi[..., orb] = np.nan
        self.time += dt
        self.steps_taken += 1
        if cfg.renormalize_every and self.steps_taken % cfg.renormalize_every == 0:
            self.wf.normalize()

    def run(
        self,
        nsteps: int,
        observer: Optional[Callable[["QDPropagator"], None]] = None,
        observe_every: int = 1,
    ) -> None:
        """Run ``nsteps`` QD sub-steps, optionally calling an observer."""
        if nsteps < 0:
            raise ValueError("nsteps must be non-negative")
        with trace_span("qd.run", "lfd", nsteps=nsteps, norb=self.wf.norb):
            for i in range(nsteps):
                self.step()
                if self.guard is not None and (
                    (i + 1) % self.guard.config.check_every == 0 or i + 1 == nsteps
                ):
                    self.guard.check_wavefunction(
                        self.wf, where=f"QD sub-step {self.steps_taken}"
                    )
                if observer is not None and (i + 1) % max(observe_every, 1) == 0:
                    observer(self)
