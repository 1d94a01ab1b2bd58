import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelatt.lattice import (Boundary, LatticeGeometry, links_from_phases,
                               magnetic_translation_x, uniform_phase_pattern)
from gaugelatt.laughlin import (laughlin_lattice_states, laughlin_overlap,
                                theta1, theta_with_characteristics)
from gaugelatt.manybody import (build_fock_basis,
                                build_manybody_hamiltonian, lowest_eigenstates,
                                motional_density_matrix)
from gaugelatt.singleparticle import ModelParams


TAU = 0.5 + 1.3j

complex_z = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                               allow_infinity=False)


def torus(Lx, Ly):
    return LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS)


def in_species_a(motional, geom, N):
    """The bilayer Fock vector, and its basis, whose bosons all carry label
    a with the motional amplitudes `motional` (over build_fock_basis(Lx Ly,
    N))."""
    basis = build_fock_basis(2 * geom.n_sites, N)
    v = np.zeros(basis.size, dtype=complex)
    v[basis.index(build_fock_basis(geom.n_sites, N).modes)] = motional
    return v, basis


class TestTheta:
    def test_odd_at_zero(self):
        assert abs(theta1(0.0, TAU)) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(z=complex_z)
    def test_odd_symmetry(self, z):
        scale = max(abs(theta1(z, TAU)), 1.0)
        assert abs(theta1(-z, TAU) + theta1(z, TAU)) < 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(z=complex_z)
    def test_quasi_periodicity(self, z):
        a = theta1(z + math.pi, TAU)
        b = -theta1(z, TAU)
        assert abs(a - b) < 1e-11 * max(abs(a), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(z=complex_z)
    def test_truncation_converged(self, z):
        # the same series over 40 terms around its dominant one, far past
        # the library's window
        center = math.floor(-z.imag / (math.pi * TAU.imag) - 0.5)
        n = np.arange(center - 20, center + 20) + 0.5
        wide = complex(np.sum(np.exp(1j * math.pi * TAU * n * n
                                     + 2j * n * (z + math.pi / 2))))
        v = theta_with_characteristics(z, TAU, 0.5, 0.5)
        assert abs(v - wide) < 1e-13 * max(abs(v), 1.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="positive imaginary part"):
            theta_with_characteristics(0.3, 1.0 - 0.5j, 0.5, 0.5)


@pytest.fixture(scope="module")
def reference_instance():
    geom = torus(8, 8)
    alpha = Fraction(1, 16)
    links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                              alpha=alpha)
    params = ModelParams(J=1.0, omega=10.0, U=10.0)
    basis = build_fock_basis(128, 2)
    H = build_manybody_hamiltonian(geom, links, params, basis)
    _, V = lowest_eigenstates(H, 2)
    sub = laughlin_lattice_states(2, alpha, geom)
    return geom, alpha, (V, basis), sub


class TestLaughlinStates:
    def test_orthonormal_pair(self, reference_instance):
        _, _, _, sub = reference_instance
        v0, v1 = sub
        assert np.linalg.norm(v0) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(v0, v1)) < 1e-10

    def test_double_occupancy_suppressed(self, reference_instance):
        geom, _, _, sub = reference_instance
        modes = build_fock_basis(geom.n_sites, 2).modes
        for v in sub:
            double = modes[:, 0] == modes[:, 1]
            docc = 2 * np.sum(np.abs(v[double]) ** 2)
            assert docc / geom.n_sites < 0.02

    def test_magnetic_translation_closes_subspace(self, reference_instance):
        geom, alpha, _, sub = reference_instance
        basis = build_fock_basis(geom.n_sites, 2)
        pos = basis.permute(magnetic_translation_x(geom, alpha, 2))
        P = sub.T
        TP = np.empty_like(P)
        TP[pos] = P
        proj = P @ (P.conj().T @ TP)
        assert np.linalg.norm(proj - TP) < 0.05

    def test_translation_needs_integer_sector_shift(self, reference_instance):
        geom, alpha, _, _ = reference_instance
        with pytest.raises(ValueError):
            magnetic_translation_x(geom, alpha, 1)

    def test_wrong_filling_rejected(self):
        with pytest.raises(ValueError, match="filling"):
            laughlin_lattice_states(3, Fraction(1, 16), torus(8, 8))

    def test_open_boundary_rejected(self):
        with pytest.raises(ValueError, match="torus"):
            laughlin_lattice_states(2, Fraction(1, 16), LatticeGeometry(8, 8))


class TestLaughlinOverlap:
    def test_projector_on_own_state(self, reference_instance):
        geom, _, _, sub = reference_instance
        # rho = |L_0><L_0|: the bosons carry L_0 in species a
        v, basis = in_species_a(sub[0], geom, 2)
        assert laughlin_overlap(motional_density_matrix(v, basis),
                                sub) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_state_gives_zero(self, reference_instance):
        geom, _, _, sub = reference_instance
        motional = np.zeros(sub.shape[1], dtype=complex)
        motional[0] = 1.0  # double occupancy; Laughlin amplitude vanishes there
        motional -= sum(np.vdot(s, motional) * s for s in sub)
        motional /= np.linalg.norm(motional)
        v, basis = in_species_a(motional, geom, 2)
        val = laughlin_overlap(motional_density_matrix(v, basis), sub)
        assert val < 1e-10

    def test_factor_of_another_size_rejected(self, reference_instance):
        geom, _, _, sub = reference_instance
        # rows of the first-quantized factor: ordered site pairs
        C = np.zeros((geom.n_sites ** 2, 4))
        with pytest.raises(ValueError, match="dimensions do not match"):
            laughlin_overlap(C, sub)

    def test_reference_instance_overlap(self, reference_instance):
        _, _, (V, basis), sub = reference_instance
        for v in V.T:
            rho = motional_density_matrix(v, basis)
            assert laughlin_overlap(rho, sub) > 0.99

    def test_basis_independence_under_remixing(self, reference_instance):
        _, _, (V, basis), sub = reference_instance
        rng = np.random.default_rng(5)
        # random unitary remix of the degenerate pair
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Q, _ = np.linalg.qr(a)
        total_orig = sum(
            laughlin_overlap(motional_density_matrix(v, basis), sub)
            for v in V.T)
        total_mix = sum(
            laughlin_overlap(motional_density_matrix(v, basis), sub)
            for v in (V @ Q.T).T)
        assert abs(total_orig - total_mix) < 1e-10

    def test_remixing_laughlin_pair_leaves_overlap(self, reference_instance):
        _, _, (V, basis), sub = reference_instance
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Q, _ = np.linalg.qr(a)
        mixed = Q @ sub
        rho = motional_density_matrix(V[:, 0], basis)
        assert laughlin_overlap(rho, mixed) == pytest.approx(
            laughlin_overlap(rho, sub), abs=1e-10)

    def test_hardcore_limit_non_decreasing(self):
        geom = torus(4, 8)
        alpha = Fraction(1, 8)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        basis = build_fock_basis(64, 2)
        sub = laughlin_lattice_states(2, alpha, geom)
        vals = []
        for U in (10.0, 20.0, 40.0):
            params = ModelParams(J=1.0, omega=10.0, U=U)
            H = build_manybody_hamiltonian(geom, links, params, basis)
            v = lowest_eigenstates(H, 1)[1][:, 0]
            vals.append(laughlin_overlap(motional_density_matrix(v, basis),
                                         sub))
        assert all(b >= a - 5e-3 for a, b in zip(vals, vals[1:]))
