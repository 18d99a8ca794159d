"""Batched surface-hopping kernels shared by FSSH and the swarm engine.

Every kernel operates on *stacked* trajectory arrays -- amplitudes of
shape ``(ntraj, nstates)``, active states and kinetic energies of shape
``(ntraj,)`` -- and is written so that row ``t`` of a batched call is
**bit-identical** to calling the same kernel on the single-row slice.
That is the contract the trajectory-ensemble engine rests on: a swarm of
``ntraj`` FSSH carriers stepped together must be indistinguishable, bit
for bit, from ``ntraj`` standalone :class:`~repro.qxmd.surface_hopping.FSSH`
loops on the same RNG streams (the exact tier of
``tests/ensemble/test_ensemble_equivalence.py``).

Two implementation rules make the invariance hold:

1. **No cross-trajectory reductions.**  Everything is elementwise over
   the trajectory axis; NumPy ufuncs are value-deterministic, so a row's
   result cannot depend on how many other rows share the array.
2. **State-axis sums are explicit ordered loops.**  ``nstates`` is small
   (a handful of adiabatic states), so summing over it with a ``for k``
   loop costs nothing, while BLAS ``matmul``/``np.sum`` would pick
   shape-dependent blocking and break bitwise row equality between a
   ``(1, n)`` and an ``(ntraj, n)`` call.

The amplitude kernels (norm, RK4 propagation, hop probabilities, EDC)
take the array-API namespace ``xp`` first and are the only source of
that arithmetic: FSSH calls them with ``np``, the swarm step with its
substrate's namespace.  They use no integer fancy indexing (one-hot
boolean masks gather with ``c[onehot]`` and scatter with ``where``),
which picks the same values, so the per-row operation sequence is the
same on every namespace.  Hop *selection* and *pricing*
(:func:`select_hops`, :func:`resolve_hops`) stay host NumPy: they are
branchy control flow a device port keeps on the CPU as well.

The hopping *policies* (velocity rescaling, frustrated-hop handling,
energy-based decoherence) mirror unixmd's MQC knob set
(``hop_rescale`` / ``hop_reject`` / ``dec_correction`` /
``edc_parameter``) adapted to the scalar-kinetic-energy interface the
DC-MESH surface-hopping driver exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from repro.constants import HBAR

#: Velocity-rescale policies after a *successful* hop.
HOP_RESCALE_POLICIES = ("energy", "augment", "none")

#: Frustrated-hop policies (what happens when the hop is rejected).
HOP_REJECT_POLICIES = ("keep", "reverse")

#: Decoherence-correction schemes (``None`` disables the correction).
DEC_CORRECTIONS = ("edc",)


@dataclass(frozen=True)
class HopPolicy:
    """The unixmd-style hopping knob set, in one frozen value object.

    Attributes
    ----------
    hop_rescale:
        Velocity handling after an accepted hop.  ``"energy"`` rescales
        the nuclear velocities isotropically so total energy is
        conserved and *frustrates* upward hops the kinetic energy cannot
        pay for (the classic Tully prescription, and the historical
        behaviour of :class:`~repro.qxmd.surface_hopping.FSSH`).
        ``"augment"`` accepts every hop, draining as much kinetic energy
        as is available (the rescale factor floors at zero) -- a
        scalar-KE adaptation of unixmd's augmented hopping.  ``"none"``
        accepts every hop and never touches the velocities: the
        classical-path approximation (CPA) limit where nuclear motion is
        prescribed and only the electronic subsystem is stochastic.
    hop_reject:
        What a frustrated hop does to the nuclei: ``"keep"`` leaves the
        velocities alone (scale ``+1``); ``"reverse"`` inverts them
        (scale ``-1``; kinetic energy is unchanged), the momentum-
        reversal prescription that improves detailed balance.
        Irrelevant unless ``hop_rescale == "energy"``.
    dec_correction:
        ``None`` (uncorrected FSSH) or ``"edc"``: the energy-based
        decoherence correction of Granucci-Persico, with non-active
        amplitudes decaying on the lifetime
        ``tau_j = hbar / |E_j - E_a| * (1 + edc_parameter / E_kin)``.
    edc_parameter:
        The EDC energy constant ``C`` in Hartree (unixmd default 0.1).
    """

    hop_rescale: str = "energy"
    hop_reject: str = "keep"
    dec_correction: Optional[str] = None
    edc_parameter: float = 0.1

    def __post_init__(self) -> None:
        if self.hop_rescale not in HOP_RESCALE_POLICIES:
            raise ValueError(
                f"unknown hop_rescale {self.hop_rescale!r}; "
                f"options: {', '.join(HOP_RESCALE_POLICIES)}"
            )
        if self.hop_reject not in HOP_REJECT_POLICIES:
            raise ValueError(
                f"unknown hop_reject {self.hop_reject!r}; "
                f"options: {', '.join(HOP_REJECT_POLICIES)}"
            )
        if self.dec_correction is not None and \
                self.dec_correction not in DEC_CORRECTIONS:
            raise ValueError(
                f"unknown dec_correction {self.dec_correction!r}; "
                f"options: None, {', '.join(DEC_CORRECTIONS)}"
            )
        if self.edc_parameter < 0:
            raise ValueError("edc_parameter must be non-negative")

    @classmethod
    def cpa(cls, dec_correction: Optional[str] = None,
            edc_parameter: float = 0.1) -> "HopPolicy":
        """The classical-path-approximation policy (no nuclear feedback)."""
        return cls(hop_rescale="none", hop_reject="keep",
                   dec_correction=dec_correction,
                   edc_parameter=edc_parameter)


# --------------------------------------------------------------------- #
# elementwise building blocks
# --------------------------------------------------------------------- #
def _one_hot_active(xp: Any, active: Any, nstates: int) -> Any:
    """Boolean mask ``(ntraj, nstates)`` selecting each row's active state.

    Indexing with it, ``c[onehot]``, gathers ``c[t, active[t]]`` row by
    row: one ``True`` per row, in row order.
    """
    return active[:, None] == xp.arange(nstates)


def batched_norm(xp: Any, c: Any) -> Any:
    """Per-row 2-norm of stacked amplitudes, batch-size invariant.

    The state-axis sum is an ordered ``for k`` accumulation, so each
    row's partial-sum sequence is identical no matter how many rows the
    array holds (``np.linalg.norm``/``np.sum`` switch to pairwise
    summation at shape-dependent thresholds and would not be).
    """
    ntraj, nstates = c.shape
    acc = xp.zeros(ntraj, dtype=xp.float64)
    for k in range(nstates):
        acc = acc + xp.abs(c[:, k]) ** 2
    return xp.sqrt(acc)


def propagate_amplitudes_batch(
    xp: Any, c: Any, energies: Any, nac: Any, dt: float, substeps: int
) -> Any:
    """RK4 integration of stacked amplitudes over one MD step.

    Each stage evaluates ``dc/dt = -(i/hbar) E c - D c``.  The factor
    ``-(i/hbar) E`` is formed once per call.  A stage forms every
    product ``c[t, k] * nac[i, k]`` in one broadcast multiply and sums
    them over ``k`` in index order, starting from zero: the same
    floating-point operation sequence for a row regardless of the batch
    size (BLAS ``matmul`` would not be), signed zeros included.

    Returns the new, per-row renormalized amplitude array (the NAC is
    anti-Hermitian so the norm is conserved up to the RK4 residual,
    exactly as in the single-carrier loop).
    """
    if substeps < 1:
        raise ValueError("substeps must be positive")
    ntraj, nstates = c.shape
    phase = (-1j / HBAR) * energies[None, :]
    nac_ki = nac.mT[None, :, :]  # [0, k, i] = nac[i, k]
    zero = xp.zeros((ntraj, nstates), dtype=xp.complex128)

    def derivative(c: Any) -> Any:
        products = c[:, :, None] * nac_ki  # [t, k, i] = c[t, k] nac[i, k]
        acc = zero
        for k in range(nstates):
            acc = acc + products[:, k, :]
        return phase * c - acc

    h = dt / substeps
    for _ in range(substeps):
        k1 = derivative(c)
        k2 = derivative(c + 0.5 * h * k1)
        k3 = derivative(c + 0.5 * h * k2)
        k4 = derivative(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c / batched_norm(xp, c)[:, None]


# --------------------------------------------------------------------- #
# hop probabilities and selection
# --------------------------------------------------------------------- #
def hop_probabilities_batch(
    xp: Any, c: Any, active: Any, nac: Any, dt: float
) -> Any:
    """Tully fewest-switches probabilities ``g[t, j]`` for every row.

    Rows whose active population has collapsed below ``1e-12`` get an
    all-zero probability vector, mirroring the single-carrier guard.
    """
    ntraj, nstates = c.shape
    onehot = _one_hot_active(xp, active, nstates)
    ca = c[onehot]
    pop_a = xp.abs(ca) ** 2
    # b_ja = 2 Re( c_a c_j^* d_ja );  g_j = dt * b_ja / |c_a|^2, with
    # nac[:, active].T gathered as the active columns.
    nac_a = xp.take(nac, active, axis=1).mT
    b = 2.0 * xp.real(ca[:, None] * xp.conj(c) * nac_a)
    collapsed = pop_a < 1e-12
    safe_pop = xp.where(collapsed, xp.asarray(1.0), pop_a)
    g = xp.clip(dt * b / safe_pop[:, None], 0.0, 1.0)
    # Collapsed rows and each row's own state get no probability.
    return xp.where(collapsed[:, None] | onehot, xp.asarray(0.0), g)


def stay_probabilities(xp: Any, g: Any) -> Any:
    """Per-row probability of *not* hopping this step.

    Clipped at zero: the per-channel probabilities are individually
    clipped to [0, 1], so their sum can transiently exceed 1 for large
    ``dt * NAC`` (the selection sweep then hops with certainty).
    """
    ntraj, nstates = g.shape
    total = xp.zeros(ntraj, dtype=xp.float64)
    for k in range(nstates):
        total = total + g[:, k]
    return xp.maximum(xp.asarray(0.0), 1.0 - total)


def select_hops(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Fewest-switches target selection for every row; ``-1`` = no hop.

    Replicates the single-carrier sweep exactly: candidates are visited
    in descending probability (``np.argsort`` order on the negated
    probabilities -- identical per row to the 1-D sort), the cumulative
    sum grows in that order, the sweep stops at the first non-positive
    probability, and row ``t`` hops to the first candidate whose
    cumulative probability exceeds ``xi[t]``.
    """
    ntraj, nstates = g.shape
    order = np.argsort(-g, axis=1)
    g_sorted = np.take_along_axis(g, order, axis=1)
    # cumsum is a sequential per-row prefix sum: the partial sums are the
    # same additions, in the same order, as the scalar accumulation loop.
    cum = np.cumsum(g_sorted, axis=1)
    hit = (g_sorted > 0.0) & (xi[:, None] < cum)
    first = np.argmax(hit, axis=1)
    hopped = np.any(hit, axis=1)
    target = order[np.arange(ntraj), first]
    return np.where(hopped, target, -1)


def resolve_hops(
    de: np.ndarray, kinetic: np.ndarray, policy: HopPolicy
) -> Tuple[np.ndarray, np.ndarray]:
    """Accept/frustrate attempted hops and compute velocity-scale factors.

    Parameters
    ----------
    de:
        Energy change ``E_target - E_source`` of each attempted hop.
    kinetic:
        Nuclear kinetic energy available to each trajectory.

    Returns ``(accepted, scale)``: whether each hop goes through, and
    the factor by which the nuclear velocities must be multiplied
    (``1.0`` when nothing changes, negative for a momentum reversal).
    Rows whose attempt was already vacuous (no candidate selected) are
    the caller's concern -- this kernel only prices the energy budget.
    """
    energy_scale = np.sqrt(
        np.maximum(0.0, 1.0 - de / np.maximum(kinetic, 1e-30))
    )
    if policy.hop_rescale == "energy":
        frustrated = de > kinetic
        reject_scale = 1.0 if policy.hop_reject == "keep" else -1.0
        scale = np.where(frustrated, reject_scale, energy_scale)
        return ~frustrated, scale
    if policy.hop_rescale == "augment":
        return np.ones(de.shape, dtype=bool), energy_scale
    # "none": the classical path carries on regardless.
    return np.ones(de.shape, dtype=bool), np.ones_like(de)


# --------------------------------------------------------------------- #
# energy-based decoherence correction (EDC)
# --------------------------------------------------------------------- #
def apply_edc_batch(
    xp: Any,
    c: Any,
    active: Any,
    energies: Any,
    dt: float,
    kinetic: Any,
    edc_parameter: float,
) -> Any:
    """Granucci-Persico EDC on stacked amplitudes; returns the new array.

    Non-active amplitudes decay with lifetime
    ``tau_j = hbar / |E_j - E_a| * (1 + C / E_kin)``; the active
    amplitude is then rescaled to absorb the released population and the
    row renormalized.  States degenerate with the active one
    (``|gap| < 1e-12``) are untouched.  The input array is not modified.
    """
    ntraj, nstates = c.shape
    onehot = _one_hot_active(xp, active, nstates)
    ekin = xp.maximum(kinetic, xp.asarray(1e-12))
    factor = 1.0 + edc_parameter / ekin
    e_active = xp.take(energies, active, axis=0)
    gap = xp.abs(energies[None, :] - e_active[:, None])
    decaying = (gap >= 1e-12) & ~onehot
    safe_gap = xp.where(decaying, gap, xp.asarray(1.0))
    tau = HBAR / safe_gap * factor[:, None]
    decay = xp.where(decaying, xp.exp(-dt / tau), xp.asarray(1.0))
    c = c * decay
    other_pop = xp.zeros(ntraj, dtype=xp.float64)
    pop = xp.abs(c) ** 2
    for k in range(nstates):
        # Adding an exact 0.0 for the active column keeps the ordered
        # partial-sum sequence identical to a sum that skips it.
        other_pop = other_pop + xp.where(
            active == k, xp.asarray(0.0), pop[:, k]
        )
    pop_a = pop[onehot]
    alive = pop_a > 0.0
    boost = xp.where(
        alive,
        xp.sqrt(
            xp.maximum(xp.asarray(0.0), 1.0 - other_pop)
            / xp.where(alive, pop_a, xp.asarray(1.0))
        ),
        xp.asarray(1.0),
    )
    ca = c[onehot] * boost
    c = xp.where(onehot, ca[:, None], c)
    return c / batched_norm(xp, c)[:, None]
