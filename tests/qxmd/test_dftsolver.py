"""Global-local DC-DFT solver tests."""

import numpy as np
import pytest

from repro.grids import Grid3D, DomainDecomposition
from repro.pseudo import get_species
from repro.qxmd import GlobalDCSolver


@pytest.fixture(scope="module")
def dc_result():
    g = Grid3D((16, 16, 16), (0.6, 0.6, 0.6))
    dec = DomainDecomposition(g, (2, 1, 1), buffer_width=3)
    pos = np.array([[2.0, 4.8, 4.8], [7.0, 4.8, 4.8]])
    sp = [get_species("H"), get_species("H")]
    solver = GlobalDCSolver(g, dec, pos, sp, norb_extra=2, nscf=3, ncg=4)
    return solver, solver.solve()


class TestSetup:
    def test_atoms_assigned_to_their_domains(self, dc_result):
        solver, _ = dc_result
        assert solver.owners[0] == [0]
        assert solver.owners[1] == [1]

    def test_orbital_counts(self, dc_result):
        _, res = dc_result
        for st in res.states:
            # One H atom: 1 electron -> 1 occupied + 2 extra orbitals.
            assert st.wf.norb == 3
            assert st.occupations.sum() == pytest.approx(1.0)

    def test_species_count_validation(self):
        g = Grid3D((16, 16, 16), (0.6, 0.6, 0.6))
        dec = DomainDecomposition(g, (2, 1, 1), buffer_width=3)
        with pytest.raises(ValueError):
            GlobalDCSolver(g, dec, np.zeros((2, 3)), [get_species("H")])


class TestSolution:
    def test_band_energy_decreases(self, dc_result):
        _, res = dc_result
        h = res.energy_history
        assert h[-1] < h[0]

    def test_global_density_normalized(self, dc_result):
        solver, res = dc_result
        n = res.rho_global.sum() * solver.grid.dvol
        assert n == pytest.approx(2.0, rel=1e-9)

    def test_domain_orbitals_orthonormal(self, dc_result):
        _, res = dc_result
        for st in res.states:
            s = st.wf.overlap_matrix()
            assert np.abs(s - np.eye(st.wf.norb)).max() < 1e-8

    def test_bound_states_in_each_domain(self, dc_result):
        _, res = dc_result
        for st in res.states:
            assert st.eigenvalues[0] < 0.2  # near-bound in the LDC potential

    def test_symmetric_system_symmetric_domains(self, dc_result):
        """Two identical H atoms in mirrored domains: eigenvalues agree."""
        _, res = dc_result
        e0 = res.states[0].eigenvalues
        e1 = res.states[1].eigenvalues
        assert np.abs(e0 - e1).max() < 0.05

    def test_vloc_carries_ldc_boundary(self, dc_result):
        """The gathered domain potential equals the global potential on
        the buffer region (the density-adaptive boundary condition)."""
        solver, res = dc_result
        st = res.states[0]
        gathered = st.domain.gather(res.v_global)
        assert np.allclose(st.vloc, gathered)

    def test_band_sum_matches_states(self, dc_result):
        _, res = dc_result
        manual = sum(
            float(np.dot(st.occupations, st.eigenvalues)) for st in res.states
        )
        assert res.band_sum() == pytest.approx(manual)


class TestWarmStart:
    def test_warm_start_improves_or_matches_band_energy(self, dc_result):
        solver, res = dc_result
        warm = solver.solve(warm_wfs=[st.wf for st in res.states])
        assert warm.energy_history[-1] <= res.energy_history[0] + 1e-6

    def test_warm_start_count_validated(self, dc_result):
        solver, res = dc_result
        with pytest.raises(ValueError):
            solver.solve(warm_wfs=[res.states[0].wf])

    def test_none_entries_fall_back(self, dc_result):
        solver, res = dc_result
        out = solver.solve(warm_wfs=[None, res.states[1].wf])
        assert len(out.states) == 2

    def test_random_start_only_where_no_warm_set_fits(self, dc_result,
                                                      monkeypatch):
        from repro.lfd import WaveFunctionSet
        from repro.qxmd.dftsolver import DomainSolver

        solver, res = dc_result
        fits = res.states[0].wf
        dom1 = res.states[1]
        misfit = WaveFunctionSet(dom1.domain.local_grid, dom1.wf.norb + 1)
        before = [fits.psi.copy(), misfit.psi.copy()]
        calls = []
        original = DomainSolver.initial_wavefunctions

        def spy(self):
            calls.append(self.domain.alpha)
            return original(self)

        monkeypatch.setattr(DomainSolver, "initial_wavefunctions", spy)
        out = solver.solve(warm_wfs=[fits, misfit])
        assert calls == [1]
        # The warm sets are inputs only: untouched, and not aliased by
        # the new states (surface hopping overlaps old and new orbitals).
        for warm, want in zip((fits, misfit), before):
            assert np.array_equal(warm.psi.view(np.uint8), want.view(np.uint8))
        assert not np.shares_memory(out.states[0].wf.psi, fits.psi)
        calls.clear()
        solver.solve(warm_wfs=[None, dom1.wf])
        assert calls == [0]
