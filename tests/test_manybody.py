import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelatt.lattice import (Boundary, LatticeGeometry, LinkField,
                               links_from_phases, magnetic_translation_x,
                               uniform_phase_pattern)
from gaugelatt.manybody import (DIM_CAP, build_fock_basis,
                                build_manybody_hamiltonian, c_mode_number,
                                lowest_eigenstates, motional_density_matrix,
                                purity, second_quantize)
from gaugelatt.singleparticle import ModelParams, build_bilayer_hamiltonian


def torus(Lx, Ly):
    return LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS)


def reference_setup(J2=0.0):
    geom = torus(8, 8)
    alpha = Fraction(1, 16)
    links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                              alpha=alpha)
    params = ModelParams(J=1.0, omega=10.0, U=10.0, J2=J2)
    return geom, links, params


class TestFockBasis:
    def test_two_modes_two_bosons(self):
        basis = build_fock_basis(2, 2)
        assert basis.size == 3
        occs = [tuple(np.bincount(row, minlength=2)) for row in basis.modes]
        assert occs == [(2, 0), (1, 1), (0, 2)]

    def test_reference_torus_dimension(self):
        basis = build_fock_basis(128, 2)
        assert basis.size == 8256  # C(129, 2)

    def test_index_bijection(self):
        basis = build_fock_basis(5, 3)
        assert basis.size == math.comb(7, 3)
        np.testing.assert_array_equal(basis.index(basis.modes),
                                      np.arange(basis.size))

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            build_fock_basis(1000, 4)

    def test_cap_checked_before_allocation(self):
        # 5 bosons on the 8x8 bilayer: C(132, 5) states, 6 GB of modes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    f"^basis size 309319296 exceeds cap {DIM_CAP}$")):
                build_fock_basis(128, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestManyBodyHamiltonian:
    def test_single_particle_sector_equals_one_body(self):
        geom = torus(3, 3)
        alpha = Fraction(1, 3)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        params = ModelParams(J=1.0, omega=2.0, U=5.0)
        basis = build_fock_basis(18, 1)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        H1 = build_bilayer_hamiltonian(geom, links, params)
        # N = 1: same matrix once modes are matched in order
        perm = basis.index(np.arange(18)[:, None])
        np.testing.assert_allclose(H.toarray()[np.ix_(perm, perm)],
                                   H1.toarray(), atol=1e-14)

    def test_single_site_two_bosons(self):
        geom = LatticeGeometry(1, 1)
        links = LinkField(theta_x=np.zeros((0, 1)), boundary_twist_y=np.zeros(1))
        params = ModelParams(J=1.0, omega=0.9, U=1.7)
        basis = build_fock_basis(2, 2)
        H = build_manybody_hamiltonian(geom, links, params, basis).toarray()
        # states (2a), (ab), (2b): diagonal (2U, U, 2U), Raman sqrt(2) omega
        expect = np.array([
            [2 * 1.7, math.sqrt(2) * 0.9, 0.0],
            [math.sqrt(2) * 0.9, 1.7, math.sqrt(2) * 0.9],
            [0.0, math.sqrt(2) * 0.9, 2 * 1.7]])
        np.testing.assert_allclose(H.real, expect, atol=1e-14)
        np.testing.assert_allclose(H.imag, 0.0, atol=1e-14)

    def test_integer_u_builds_without_warning(self):
        geom = torus(2, 2)
        alpha = Fraction(1, 4)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        basis = build_fock_basis(8, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = build_manybody_hamiltonian(geom, links, ModelParams(U=10), basis)
        ref = build_manybody_hamiltonian(geom, links, ModelParams(U=10.0), basis)
        assert abs(H - ref).max() == 0.0

    @pytest.mark.parametrize("Lx,Ly,alpha,N,steps", [
        (4, 4, Fraction(1, 4), 2, 1), (6, 4, Fraction(1, 8), 3, 2),
        (4, 6, Fraction(1, 12), 2, -2)])
    def test_commutes_with_magnetic_translation(self, Lx, Ly, alpha, N, steps):
        # the x shift moves both species: mode s*ns + x -> s*ns + perm[x]
        geom = torus(Lx, Ly)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        basis = build_fock_basis(2 * geom.n_sites, N)
        params = ModelParams(J=1.0, omega=3.0, U=2.0, J2=0.2)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        perm = magnetic_translation_x(geom, alpha, steps)
        pos = basis.permute(np.concatenate([perm, perm + geom.n_sites]))
        P = sp.csr_matrix((np.ones(basis.size), (pos, np.arange(basis.size))),
                          shape=H.shape)
        assert abs(P @ H - H @ P).max() < 1e-13

    def test_hermiticity(self):
        geom, links, params = reference_setup(J2=0.1)
        basis = build_fock_basis(128, 2)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        assert abs(H - H.getH()).max() < 1e-14

    def test_number_conservation(self):
        # H maps the fixed-N basis to itself and matches a dense rebuild of
        # the one-body part, so total boson number is conserved by blocks
        geom = torus(2, 2)
        alpha = Fraction(1, 4)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        params = ModelParams(J=1.0, omega=1.5, U=2.0)
        basis = build_fock_basis(8, 2)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        number_op = second_quantize(sp.identity(8, format="csr"), basis)
        comm = H @ number_op - number_op @ H
        assert abs(comm).max() < 1e-12


class TestLowestEigenstates:
    def test_diagonal_matrix(self):
        basis = build_fock_basis(2, 1)
        H = sp.diags([3.0, -1.0]).tocsr()
        E, V = lowest_eigenstates(H, 1)
        assert E[0] == pytest.approx(-1.0)
        np.testing.assert_allclose(np.abs(V[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_single_particle_matches_dense(self):
        geom, links, params = reference_setup()
        basis = build_fock_basis(128, 1)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        E, _ = lowest_eigenstates(H, 1)
        dense = np.linalg.eigvalsh(
            build_bilayer_hamiltonian(geom, links, params).toarray())
        assert E[0] == pytest.approx(dense[0], abs=1e-9)

    def test_reference_instance_degenerate_pair(self):
        geom, links, params = reference_setup()
        basis = build_fock_basis(128, 2)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        e, _ = lowest_eigenstates(H, 3)
        splitting = e[1] - e[0]
        gap = e[2] - e[1]
        assert splitting < 1e-6
        assert gap > 100 * max(splitting, 1e-12)
        # lowest band manifold near -N omega for the U=0 check
        params0 = ModelParams(J=1.0, omega=10.0, U=0.0)
        H0 = build_manybody_hamiltonian(geom, links, params0, basis)
        E0, _ = lowest_eigenstates(H0, 1)
        assert abs(E0[0] + 2 * 10.0) < 8.0  # -N omega + O(J)

    # dim <= 64 takes the dense eigh branch, larger dims take ARPACK
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(20, 200),
           count=st.integers(1, 4))
    @example(seed=0, dim=20, count=4)
    @example(seed=0, dim=200, count=1)
    def test_random_sparse_hermitian_matches_dense(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        A = (sp.random(dim, dim, density=0.05, random_state=rng)
             + 1j * sp.random(dim, dim, density=0.05, random_state=rng))
        H = (A + A.getH() + sp.diags(rng.normal(size=dim))).tocsr()
        E, V = lowest_eigenstates(H, count)
        assert E.shape == (count,) and V.shape == (dim, count)
        dense = H.toarray()
        scale = max(np.linalg.norm(dense, np.inf), 1.0)
        np.testing.assert_allclose(E, np.linalg.eigvalsh(dense)[:count],
                                   rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(count), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("count", [0, -4, 3])
    def test_count_outside_basis_rejected(self, count):
        H = sp.diags([3.0, -1.0]).tocsr()
        with pytest.raises(ValueError, match="count"):
            lowest_eigenstates(H, count)


class TestMotionalDensityMatrix:
    def test_product_state_purity_one(self):
        # one particle at one site in (|a> - |b>)/sqrt(2)
        basis = build_fock_basis(8, 1)
        amps = np.zeros(basis.size, dtype=complex)
        amps[basis.index([0])] = 1 / math.sqrt(2)
        amps[basis.index([4])] = -1 / math.sqrt(2)
        C = motional_density_matrix(amps, basis)
        assert np.linalg.norm(C) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert purity(C) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_sites_opposite_species_purity_half(self):
        # a at site 0, b at site 1: the 2-term Schmidt decomposition
        basis = build_fock_basis(8, 2)  # 4 sites, 2 species
        amps = np.zeros(basis.size, dtype=complex)
        amps[basis.index([0, 5])] = 1.0  # a@site0, b@site1
        C = motional_density_matrix(amps, basis)
        assert np.linalg.norm(C) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert purity(C) == pytest.approx(0.5, abs=1e-12)

    def test_trace_one_for_random_state(self):
        rng = np.random.default_rng(0)
        basis = build_fock_basis(8, 2)
        amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        amps /= np.linalg.norm(amps)
        C = motional_density_matrix(amps, basis)
        assert np.linalg.norm(C) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_matrix_psd(self):
        rng = np.random.default_rng(1)
        basis = build_fock_basis(6, 2)
        amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        amps /= np.linalg.norm(amps)
        C = motional_density_matrix(amps, basis)
        evals = np.linalg.eigvalsh(C @ C.conj().T)
        assert evals.min() > -1e-12
        assert np.sum(evals) == pytest.approx(1.0, abs=1e-10)


class TestDiagnostics:
    def test_maximally_mixed_purity(self):
        # two particles, one a and one b at distinct sites: purity 1/2 is
        # the maximally mixed 2x2 case of the label trace
        basis = build_fock_basis(4, 2)
        amps = np.zeros(basis.size, dtype=complex)
        amps[basis.index([0, 3])] = 1.0
        rho = motional_density_matrix(amps, basis)
        assert purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_pure_c_mode_state(self):
        # two bosons in the c = (a - b)/sqrt(2) mode of two different sites
        ns = 4
        basis = build_fock_basis(2 * ns, 2)
        amps = np.zeros(basis.size, dtype=complex)
        for (m1, w1) in [(0, 1), (ns + 0, -1)]:
            for (m2, w2) in [(1, 1), (ns + 1, -1)]:
                key = tuple(sorted((m1, m2)))
                amps[basis.index(key)] += 0.5 * w1 * w2
        amps /= np.linalg.norm(amps)
        assert c_mode_number(amps, basis) == pytest.approx(2.0, abs=1e-12)

    def test_reference_instance_values(self):
        geom, links, params = reference_setup()
        basis = build_fock_basis(128, 2)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        _, V = lowest_eigenstates(H, 2)
        for v in V.T:
            rho = motional_density_matrix(v, basis)
            assert purity(rho) > 0.99
            assert c_mode_number(v, basis) == pytest.approx(2.0, abs=0.005)

    def test_purity_monotone_in_omega(self):
        geom = torus(4, 4)
        alpha = Fraction(1, 8)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        basis = build_fock_basis(32, 2)
        purities, c_nums = [], []
        for omega in (5.0, 10.0, 20.0, 40.0):
            params = ModelParams(J=1.0, omega=omega, U=omega)
            H = build_manybody_hamiltonian(geom, links, params, basis)
            v = lowest_eigenstates(H, 1)[1][:, 0]
            purities.append(purity(motional_density_matrix(v, basis)))
            c_nums.append(c_mode_number(v, basis))
        assert all(b > a for a, b in zip(purities, purities[1:]))
        assert all(b > a for a, b in zip(c_nums, c_nums[1:]))
        assert purities[-1] > 0.999
        assert abs(c_nums[-1] - 2.0) < 1e-3
