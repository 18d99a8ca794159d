"""Property-based tests of the batched hopping kernels.

Three invariant families from the issue spec:

* EDC preserves the amplitude norm to 1e-12 and decays every non-active,
  non-degenerate coherence monotonically;
* frustrated-hop policies never create kinetic energy out of nothing;
* hop probabilities live in [0, 1] and, with the stay-probability,
  partition unity (until the per-channel clip saturates).

Plus the load-bearing contract of the whole ensemble engine: every
kernel's row ``t`` is bit-identical between a batched call and the
single-row call; the one source of each amplitude kernel gives the
same bits on the strict substrate as on NumPy; and the RK4 kernel gives
the bits of its per-state reference formulation, kept below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend, to_numpy
from repro.constants import HBAR
from repro.ensemble.path import model_path
from repro.qxmd.sh_kernels import (
    HopPolicy,
    apply_edc_batch,
    batched_norm,
    hop_probabilities_batch,
    propagate_amplitudes_batch,
    resolve_hops,
    select_hops,
    stay_probabilities,
)


def random_swarm(seed, ntraj, nstates):
    """Normalized stacked amplitudes + active states + a seeded rng."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((ntraj, nstates)) \
        + 1j * rng.standard_normal((ntraj, nstates))
    c = c / batched_norm(np, c)[:, None]
    active = rng.integers(0, nstates, size=ntraj)
    return c, active, rng


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ntraj=st.integers(1, 8),
    nstates=st.integers(2, 6),
    ekin=st.floats(1e-4, 10.0),
    cparam=st.floats(0.0, 1.0),
    dt=st.floats(0.01, 2.0),
)
def test_edc_norm_and_monotone_decay(seed, ntraj, nstates, ekin, cparam, dt):
    c, active, rng = random_swarm(seed, ntraj, nstates)
    energies = np.sort(rng.standard_normal(nstates))
    kinetic = np.full(ntraj, ekin)
    before = np.abs(c) ** 2
    out = apply_edc_batch(np, c, active, energies, dt, kinetic, cparam)
    # Norm restored to unity within 1e-12 on every row.
    assert np.all(np.abs(batched_norm(np, out) - 1.0) <= 1e-12)
    after = np.abs(out) ** 2
    rows = np.arange(ntraj)
    gap = np.abs(energies[None, :] - energies[active][:, None])
    decaying = gap >= 1e-12
    decaying[rows, active] = False
    # Every non-active, non-degenerate population decays monotonically;
    # the active population absorbs what they release.
    assert np.all(after[decaying] <= before[decaying] + 1e-12)
    assert np.all(after[rows, active] >= before[rows, active] - 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 10),
    rescale=st.sampled_from(["energy", "augment", "none"]),
    reject=st.sampled_from(["keep", "reverse"]),
)
def test_hops_never_create_energy(seed, n, rescale, reject):
    """ke * scale^2 never exceeds the energy budget ke + max(-de, 0)."""
    rng = np.random.default_rng(seed)
    de = rng.uniform(-2.0, 2.0, size=n)
    kinetic = rng.uniform(1e-3, 1.0, size=n)
    policy = HopPolicy(hop_rescale=rescale, hop_reject=reject)
    accepted, scale = resolve_hops(de, kinetic, policy)
    ke_after = kinetic * scale**2
    budget = kinetic + np.maximum(-de, 0.0)
    assert np.all(ke_after <= budget * (1.0 + 1e-12) + 1e-15)
    if rescale == "energy":
        # Accepted hops conserve total energy exactly; frustrated ones
        # leave the kinetic energy untouched (|scale| == 1).
        assert np.all(accepted == (de <= kinetic))
        assert np.allclose((ke_after + de)[accepted], kinetic[accepted],
                           atol=1e-12)
        expected = 1.0 if reject == "keep" else -1.0
        assert np.all(scale[~accepted] == expected)
    elif rescale == "augment":
        assert np.all(accepted)
        assert np.allclose(ke_after, np.maximum(kinetic - de, 0.0),
                           atol=1e-12)
    else:
        assert np.all(accepted)
        assert np.all(scale == 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ntraj=st.integers(1, 8),
    nstates=st.integers(2, 6),
    dt=st.floats(0.01, 1.0),
    nac_scale=st.floats(0.01, 3.0),
)
def test_hop_probabilities_partition_unity(seed, ntraj, nstates, dt,
                                           nac_scale):
    c, active, rng = random_swarm(seed, ntraj, nstates)
    m = nac_scale * (rng.standard_normal((nstates, nstates))
                     + 1j * rng.standard_normal((nstates, nstates)))
    nac = 0.5 * (m - m.conj().T)
    g = hop_probabilities_batch(np, c, active, nac, dt)
    rows = np.arange(ntraj)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)
    assert np.all(g[rows, active] == 0.0)
    stay = stay_probabilities(np, g)
    total = g.sum(axis=1)
    assert np.all(stay >= 0.0) and np.all(stay <= 1.0)
    # Partition of unity until the per-channel clip saturates the sum.
    unsat = total <= 1.0
    assert np.all(np.abs((total + stay)[unsat] - 1.0) <= 1e-12)
    assert np.all(stay[~unsat] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ntraj=st.integers(1, 8),
    nstates=st.integers(2, 6),
)
def test_select_hops_targets_valid(seed, ntraj, nstates):
    c, active, rng = random_swarm(seed, ntraj, nstates)
    m = rng.standard_normal((nstates, nstates))
    nac = 0.5 * (m - m.T).astype(complex)
    g = hop_probabilities_batch(np, c, active, nac, dt=0.5)
    xi = rng.random(ntraj)
    target = select_hops(g, xi)
    rows = np.arange(ntraj)
    hopped = target >= 0
    assert np.all((target >= -1) & (target < nstates))
    # A selected target always carries positive probability (never the
    # active state, whose column is zeroed).
    assert np.all(g[rows[hopped], target[hopped]] > 0.0)
    assert np.all(target[hopped] != active[hopped])
    # xi at/above the total hop probability means no hop.
    total = g.sum(axis=1)
    assert np.all(~hopped[xi >= total])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ntraj=st.integers(1, 6),
    nstates=st.integers(2, 5),
    dt=st.floats(0.05, 1.0),
    cparam=st.floats(0.0, 0.5),
)
def test_strict_kernels_match_numpy_bitwise(seed, ntraj, nstates, dt,
                                            cparam):
    """The strict run of every amplitude kernel equals the NumPy run.

    Each kernel has one body; run on the strict namespace it must give
    the NumPy run's bits exactly, not just to a tolerance.  The strict
    namespace also proves the bodies never round-trip through NumPy.
    """
    c, active, rng = random_swarm(seed, ntraj, nstates)
    energies = np.sort(rng.standard_normal(nstates))
    m = rng.standard_normal((nstates, nstates))
    nac = 0.5 * (m - m.T).astype(complex)
    kinetic = rng.uniform(1e-3, 1.0, size=ntraj)

    b = get_backend("array_api_strict")
    xp = b.xp
    cx, ex = b.asarray(c), b.asarray(energies)
    nacx, actx, kinx = b.asarray(nac), b.asarray(active), b.asarray(kinetic)

    assert np.array_equal(batched_norm(np, c),
                          to_numpy(batched_norm(xp, cx)))
    prop = propagate_amplitudes_batch(np, c, energies, nac, dt, 4)
    prop_x = propagate_amplitudes_batch(xp, cx, ex, nacx, dt, 4)
    assert np.array_equal(prop, to_numpy(prop_x))
    g = hop_probabilities_batch(np, prop, active, nac, dt)
    g_x = hop_probabilities_batch(xp, prop_x, actx, nacx, dt)
    assert np.array_equal(g, to_numpy(g_x))
    assert np.array_equal(
        stay_probabilities(np, g), to_numpy(stay_probabilities(xp, g_x))
    )
    edc = apply_edc_batch(np, prop, active, energies, dt, kinetic, cparam)
    edc_x = apply_edc_batch(xp, prop_x, actx, ex, dt, kinx, cparam)
    assert np.array_equal(edc, to_numpy(edc_x))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ntraj=st.integers(1, 6),
    nstates=st.integers(2, 5),
    dt=st.floats(0.01, 1.0),
)
def test_partition_of_unity_on_every_backend(xp_backend, seed, ntraj,
                                             nstates, dt):
    """Hop + stay probabilities partition unity on any substrate."""
    c, active, rng = random_swarm(seed, ntraj, nstates)
    m = rng.standard_normal((nstates, nstates)) \
        + 1j * rng.standard_normal((nstates, nstates))
    nac = 0.5 * (m - m.conj().T)
    b = xp_backend
    g = to_numpy(hop_probabilities_batch(
        b.xp, b.asarray(c), b.asarray(active), b.asarray(nac), dt
    ))
    stay = to_numpy(stay_probabilities(b.xp, b.asarray(g)))
    rows = np.arange(ntraj)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)
    assert np.all(g[rows, active] == 0.0)
    total = g.sum(axis=1)
    unsat = total <= 1.0
    assert np.all(np.abs((total + stay)[unsat] - 1.0) <= 1e-12)
    assert np.all(stay[~unsat] == 0.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ntraj=st.integers(2, 7),
    nstates=st.integers(2, 5),
    dt=st.floats(0.05, 1.0),
)
def test_batched_rows_bit_identical_to_single(seed, ntraj, nstates, dt):
    """The engine's foundation: kernels are batch-size invariant per row."""
    c, active, rng = random_swarm(seed, ntraj, nstates)
    energies = np.sort(rng.standard_normal(nstates))
    m = rng.standard_normal((nstates, nstates))
    nac = 0.5 * (m - m.T).astype(complex)
    kinetic = rng.uniform(1e-3, 1.0, size=ntraj)
    xi = rng.random(ntraj)

    prop = propagate_amplitudes_batch(np, c, energies, nac, dt, substeps=5)
    g = hop_probabilities_batch(np, prop, active, nac, dt)
    tgt = select_hops(g, xi)
    edc = apply_edc_batch(np, prop, active, energies, dt, kinetic, 0.1)
    for t in range(ntraj):
        row = slice(t, t + 1)
        assert np.array_equal(
            prop[t],
            propagate_amplitudes_batch(np, c[row], energies, nac, dt,
                                       substeps=5)[0],
        )
        assert np.array_equal(
            g[t],
            hop_probabilities_batch(np, prop[row], active[row], nac, dt)[0],
        )
        assert tgt[t] == select_hops(g[row], xi[row])[0]
        assert np.array_equal(
            edc[t],
            apply_edc_batch(np, prop[row], active[row], energies, dt,
                            kinetic[row], 0.1)[0],
        )


# --------------------------------------------------------------------- #
# the RK4 kernel against its per-state reference, byte for byte
# --------------------------------------------------------------------- #
def _reference_apply_nac(xp, c, nac):
    """``nac @ c[t]`` per row: one multiply and one add per state,
    summed from zero in state order."""
    ntraj, nstates = c.shape
    acc = xp.zeros((ntraj, nstates), dtype=xp.complex128)
    for k in range(nstates):
        acc = acc + c[:, k, None] * nac[None, :, k]
    return acc


def _reference_derivative(xp, c, energies, nac):
    return (-1j / HBAR) * energies[None, :] * c - _reference_apply_nac(
        xp, c, nac)


def _reference_propagate(xp, c, energies, nac, dt, substeps):
    """RK4 with the phase factor and the NAC products formed per stage."""
    h = dt / substeps
    for _ in range(substeps):
        k1 = _reference_derivative(xp, c, energies, nac)
        k2 = _reference_derivative(xp, c + 0.5 * h * k1, energies, nac)
        k3 = _reference_derivative(xp, c + 0.5 * h * k2, energies, nac)
        k4 = _reference_derivative(xp, c + h * k3, energies, nac)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c / batched_norm(xp, c)[:, None]


REFERENCE_PATH = model_path(nsteps=3, nstates=4, dt=1.0, seed=7,
                            coupling=0.08)


@pytest.mark.parametrize("start", ["random", "one_hot"])
@pytest.mark.parametrize("ntraj", [1, 16, 48, 256])
def test_rk4_equals_the_per_state_reference_bytewise(ntraj, start):
    """Every row, at every width, on random amplitudes and on one-hot
    starts, whose NAC products hold signed zeros."""
    path = REFERENCE_PATH
    if start == "random":
        c, _, _ = random_swarm(ntraj, ntraj, path.nstates)
    else:
        rng = np.random.default_rng(ntraj)
        c = np.zeros((ntraj, path.nstates), dtype=np.complex128)
        c[np.arange(ntraj), rng.integers(0, path.nstates, ntraj)] = 1.0
        products = c[:, :, None] * path.nac[0].T[None, :, :]
        assert np.any((products.real == 0.0) & np.signbit(products.real))
    for s in range(path.nsteps):
        got = propagate_amplitudes_batch(np, c, path.energies[s],
                                         path.nac[s], path.dt, 20)
        want = _reference_propagate(np, c, path.energies[s], path.nac[s],
                                    path.dt, 20)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), s
        c = got
