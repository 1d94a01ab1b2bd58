import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelatt import singleparticle
from gaugelatt.lattice import (Boundary, LatticeGeometry, LinkField,
                               PhasePattern, links_from_phases,
                               uniform_phase_pattern)
from gaugelatt.singleparticle import (ModelParams, bloch_block,
                                      bloch_block_spectrum,
                                      build_bilayer_hamiltonian,
                                      build_target_hamiltonian, butterfly_scan,
                                      cd_decompose, cd_rotation,
                                      commensurate_bloch_spectrum, farey_alphas,
                                      finite_lattice_spectrum)


def torus(Lx, Ly):
    return LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS)


def uniform_links(alpha, geom):
    return links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                             alpha=alpha if geom.is_torus else None)


def hermiticity_defect(H):
    return abs(H - H.getH()).max() if sp.issparse(H) else np.abs(H - H.conj().T).max()


class TestBilayerHamiltonian:
    def test_single_site_is_pure_raman(self):
        geom = LatticeGeometry(1, 1)
        links = LinkField(theta_x=np.zeros((0, 1)), boundary_twist_y=np.zeros(1))
        H = build_bilayer_hamiltonian(geom, links, ModelParams(J=1.0, omega=0.8))
        evals = np.linalg.eigvalsh(H.toarray())
        np.testing.assert_allclose(evals, [-0.8, 0.8], atol=1e-14)

    def test_zero_field_gamma_point_eigenvalues(self):
        geom = torus(4, 4)
        links = uniform_links(Fraction(0), geom)
        H = build_bilayer_hamiltonian(geom, links, ModelParams(J=1.0, omega=0.6))
        evals = np.linalg.eigvalsh(H.toarray())
        # k = (0,0) sector of [[-2J, w], [w, -2J]]
        for target in (-2.0 - 0.6, -2.0 + 0.6):
            assert np.min(np.abs(evals - target)) < 1e-12

    def test_full_spectrum_matches_bloch_union(self):
        geom = torus(8, 8)
        alpha = Fraction(1, 16)
        params = ModelParams(J=1.0, omega=10.0)
        fin = finite_lattice_spectrum(alpha, params, geom)
        assert fin.eigenvalues.size == 128
        # commensurate grid needs q | Ly; use the 8x16 torus for the oracle
        geom2 = torus(8, 16)
        fin2 = finite_lattice_spectrum(alpha, params, geom2)
        blo = commensurate_bloch_spectrum(alpha, params, geom2)
        assert np.max(np.abs(np.sort(fin2.eigenvalues)
                             - np.sort(blo.eigenvalues))) < 1e-10

    def test_hermitian(self):
        geom = torus(4, 4)
        links = uniform_links(Fraction(1, 4), geom)
        H = build_bilayer_hamiltonian(geom, links,
                                      ModelParams(J=1.0, omega=3.0, J2=0.1))
        assert hermiticity_defect(H) < 1e-14

    def test_second_neighbour_y_hop_crosses_the_wrap_twice(self):
        # on an Ly = 1 torus the J2 y hop goes round the torus twice, so it
        # picks up twice the wrap twist -2 pi alpha j: the b diagonal is
        # -2J cos(theta_j) - 2 J2 cos(2 theta_j) with theta_j = -pi j / 2
        geom = torus(4, 1)
        links = uniform_links(Fraction(1, 4), geom)
        H = build_bilayer_hamiltonian(geom, links,
                                      ModelParams(J=1.0, omega=0.0, J2=0.1))
        np.testing.assert_allclose(H.diagonal()[4:].real,
                                   [-2.2, 0.2, 1.8, 0.2], atol=1e-14)
        assert np.abs(H.diagonal().imag).max() == 0.0

    def test_shape_mismatch_rejected(self):
        geom = torus(4, 4)
        links = uniform_links(Fraction(1, 4), torus(6, 4))
        with pytest.raises(ValueError):
            build_bilayer_hamiltonian(geom, links, ModelParams(J=1.0))


class TestTargetHamiltonian:
    def test_zero_flux_band(self):
        geom = torus(6, 6)
        links = uniform_links(Fraction(0), geom)
        H = build_target_hamiltonian(geom, links, J0=0.5)
        evals = np.sort(np.linalg.eigvalsh(H.toarray()))
        ks = 2 * np.pi * np.arange(6) / 6
        band = sorted(-2 * 0.5 * (np.cos(kx) + np.cos(ky))
                      for kx in ks for ky in ks)
        np.testing.assert_allclose(evals, band, atol=1e-12)

    def test_half_flux_band_edges(self):
        geom = torus(8, 8)
        alpha = Fraction(1, 2)
        H = build_target_hamiltonian(geom, uniform_links(alpha, geom), J0=0.5)
        evals = np.linalg.eigvalsh(H.toarray())
        # magnetic Bloch bands +-2 J0 sqrt(cos^2 kx + cos^2 ky)
        edge = 2 * 0.5 * math.sqrt(2.0)
        assert np.max(np.abs(evals)) <= edge + 1e-12
        np.testing.assert_allclose(np.sort(evals),
                                   -np.sort(-evals)[::-1] * 0 + np.sort(evals))
        assert abs(np.min(evals) + edge) < 1e-12
        assert abs(np.max(evals) - edge) < 1e-12

    def test_gauge_covariance_under_column_offsets(self):
        rng = np.random.default_rng(11)
        geom = torus(4, 4)
        alpha = Fraction(1, 4)
        base = uniform_phase_pattern(alpha, geom)
        delta_j = rng.uniform(0, 2 * np.pi, 4)
        shifted = PhasePattern(phi=base.phi + delta_j[:, None])
        H1 = build_target_hamiltonian(geom, uniform_links(alpha, geom), 0.5)
        H2 = build_target_hamiltonian(
            geom, links_from_phases(shifted, geom, alpha=alpha), 0.5)
        e1 = np.sort(np.linalg.eigvalsh(H1.toarray()))
        e2 = np.sort(np.linalg.eigvalsh(H2.toarray()))
        np.testing.assert_allclose(e1, e2, atol=1e-10)
        # explicit unitary site-phase conjugation maps one matrix to the other
        phases = np.array([np.exp(-1j * delta_j[j]) for j in range(4)
                           for _ in range(4)])
        D = sp.diags(phases)
        np.testing.assert_allclose(
            (D.conj().T @ H1 @ D).toarray(), H2.toarray(), atol=1e-12)


class TestCdDecompose:
    def _hs(self, omega=3.0, alpha=Fraction(1, 16), J2=0.0):
        geom = torus(4, 4)
        links = uniform_links(Fraction(1, 4), geom)
        return geom, links, build_bilayer_hamiltonian(
            geom, links, ModelParams(J=1.0, omega=omega, J2=J2))

    def test_exact_split(self):
        _, _, H = self._hs()
        H0, H1 = cd_decompose(H)
        n = H.shape[0] // 2
        U = cd_rotation(n)
        lhs = (U.conj().T @ H @ U).toarray()
        np.testing.assert_allclose(lhs, (H0 + H1).toarray(), atol=1e-13)

    def test_c_block_matches_shifted_target(self):
        geom = torus(4, 4)
        alpha = Fraction(1, 4)
        links = uniform_links(alpha, geom)
        H = build_bilayer_hamiltonian(geom, links,
                                      ModelParams(J=1.0, omega=10.0))
        H0, _ = cd_decompose(H)
        n = geom.n_sites
        c_block = H0.toarray()[:n, :n]
        target = build_target_hamiltonian(geom, links, J0=0.5).toarray()
        np.testing.assert_allclose(
            np.linalg.eigvalsh(c_block),
            np.linalg.eigvalsh(target) - 10.0, atol=1e-12)

    def test_h1_has_zero_diagonal_blocks(self):
        _, _, H = self._hs()
        _, H1 = cd_decompose(H)
        n = H.shape[0] // 2
        dense = H1.toarray()
        assert np.abs(dense[:n, :n]).max() < 1e-14
        assert np.abs(dense[n:, n:]).max() < 1e-14

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            cd_decompose(sp.identity(5, format="csr"))


class TestBlochBlocks:
    def test_alpha_zero_single_point(self):
        res = bloch_block_spectrum(Fraction(0, 1), ModelParams(J=1.0, omega=0.7),
                                   1, 1)
        np.testing.assert_allclose(res.eigenvalues, [-2.7, -1.3], atol=1e-14)

    def test_half_flux_range_matches_dense_oracle(self):
        # at omega = 0 the species decouple into 1D chains, so the range is
        # [-2J, 2J]; the finite-lattice dense diagonalization is the oracle
        geom = torus(8, 8)
        fin = finite_lattice_spectrum(Fraction(1, 2),
                                      ModelParams(J=1.0, omega=0.0), geom)
        res = bloch_block_spectrum(Fraction(1, 2), ModelParams(J=1.0, omega=0.0),
                                   32, 32)
        assert abs(res.eigenvalues.min() - fin.eigenvalues.min()) < 1e-10
        assert abs(res.eigenvalues.max() - fin.eigenvalues.max()) < 1e-10
        assert abs(res.eigenvalues.min() + 2.0) < 1e-10
        assert abs(res.eigenvalues.max() - 2.0) < 1e-10

    def test_large_omega_band_window(self):
        res = bloch_block_spectrum(Fraction(1, 3), ModelParams(J=1.0, omega=10.0),
                                   16, 16)
        e = res.eigenvalues
        inside = ((e >= -12 - 1e-9) & (e <= -8 + 1e-9)) | \
                 ((e >= 8 - 1e-9) & (e <= 12 + 1e-9))
        assert np.all(inside)

    def test_rejects_zero_denominator(self):
        # rational inputs normalize to lowest terms; q = 0 fails at parse time
        with pytest.raises(ZeroDivisionError):
            bloch_block_spectrum(Fraction(1, 0), ModelParams(), 1, 1)

    @pytest.mark.parametrize("nx, ny", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_an_empty_k_grid(self, nx, ny, monkeypatch):
        def no_block(*args):
            raise AssertionError("a Bloch block was built")

        monkeypatch.setattr(singleparticle, "bloch_block", no_block)
        with pytest.raises(ValueError, match=rf"got {nx} x {ny}$"):
            bloch_block_spectrum(Fraction(1, 3), ModelParams(), nx, ny)

    def test_bipartite_symmetry_at_zero_omega(self):
        res = bloch_block_spectrum(Fraction(1, 3), ModelParams(J=1.0, omega=0.0),
                                   12, 12)
        e = np.sort(res.eigenvalues)
        np.testing.assert_allclose(e, -e[::-1], atol=1e-10)


def sublattice_image(p, q, params, kx, ky):
    """Levels at k and at k + (pi, pi (q mod 2)/q), where the sublattice map
    of the bipartite (J2 = 0) bilayer sends them."""
    return (np.linalg.eigvalsh(bloch_block(p, q, params, kx, ky)),
            np.linalg.eigvalsh(bloch_block(p, q, params, kx + np.pi,
                                           ky + np.pi * (q % 2) / q)))


class TestSublatticeMap:
    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1, 29), p_seed=st.integers(0, 10**6),
           J=st.floats(0.1, 5.0), omega=st.floats(0.0, 12.0),
           kx=st.floats(-10.0, 10.0), ky=st.floats(-10.0, 10.0))
    def test_levels_at_the_image_are_negated(self, q, p_seed, J, omega, kx,
                                             ky):
        coprime = [p for p in range(q + 1) if math.gcd(p, q) == 1]
        p = coprime[p_seed % len(coprime)]
        e, image = sublattice_image(p, q, ModelParams(J=J, omega=omega), kx, ky)
        np.testing.assert_array_less(np.abs(e + image[::-1]),
                                     1e-12 * np.maximum(1.0, np.abs(e)))

    def test_second_neighbour_hops_break_it(self):
        # J2 bonds join a sublattice to itself: why pairing needs J2 = 0
        e, image = sublattice_image(1, 3, ModelParams(J=1.0, omega=1.0, J2=0.3),
                                    0.4, 0.7)
        assert np.max(np.abs(e + image[::-1])) > 1e-3


class TestButterflyScan:
    def test_farey_count(self):
        alphas = farey_alphas(3)
        assert alphas == [Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)]
        # combinatorial count: 2 + sum of totients
        assert len(farey_alphas(6)) == 2 + sum(
            sum(1 for p in range(1, q) if math.gcd(p, q) == 1)
            for q in range(2, 6))

    def test_band_separation_omega_3(self):
        results = butterfly_scan(8, ModelParams(J=1.0, omega=3.0), resolution=8)
        for res in results:
            e = res.eigenvalues
            assert e[e < 0].max() < e[e > 0].min()  # bands split around zero

    def test_deterministic_ordering(self):
        r1 = list(butterfly_scan(5, ModelParams(J=1.0, omega=1.0), resolution=4))
        r2 = list(butterfly_scan(5, ModelParams(J=1.0, omega=1.0), resolution=4))
        assert [(r.p, r.q) for r in r1] == [(r.p, r.q) for r in r2]
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


class TestBlochFiniteEquivalence:
    @pytest.mark.parametrize("alpha,Lx,Ly", [
        (Fraction(1, 4), 4, 4),
        (Fraction(1, 8), 4, 8),
        (Fraction(1, 16), 4, 16),
    ])
    def test_equivalence(self, alpha, Lx, Ly):
        geom = torus(Lx, Ly)
        params = ModelParams(J=1.0, omega=2.5)
        fin = np.sort(finite_lattice_spectrum(alpha, params, geom).eigenvalues)
        blo = np.sort(commensurate_bloch_spectrum(alpha, params, geom).eigenvalues)
        assert fin.size == blo.size == 2 * Lx * Ly
        assert np.max(np.abs(fin - blo)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 7), p_seed=st.integers(0, 100),
           Lx=st.integers(1, 6), cells=st.integers(1, 3),
           square=st.booleans(), omega=st.floats(0.0, 12.0),
           J2=st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    def test_random_tori(self, q, p_seed, Lx, cells, square, omega, J2):
        # square tori (Lx = Ly) also merge the transposed class pairs
        ps = [p for p in range(q + 1) if math.gcd(p, q) == 1]
        p = ps[p_seed % len(ps)]
        Ly = q * cells
        geom = torus(Ly if square else Lx, Ly)
        params = ModelParams(J=1.0, omega=omega, J2=J2)
        alpha = Fraction(p, q)
        fin = np.sort(finite_lattice_spectrum(alpha, params, geom).eigenvalues)
        blo = commensurate_bloch_spectrum(alpha, params, geom).eigenvalues
        assert fin.size == blo.size == 2 * geom.n_sites
        assert np.max(np.abs(fin - blo)) < 1e-10


class TestPerturbativeBand:
    def test_deformation_shrinks_with_omega(self):
        geom = torus(4, 8)
        alpha = Fraction(1, 8)
        links = uniform_links(alpha, geom)
        target = np.sort(np.linalg.eigvalsh(
            build_target_hamiltonian(geom, links, 0.5).toarray()))
        dists = []
        for omega in (10.0, 20.0, 40.0):
            H = build_bilayer_hamiltonian(geom, links,
                                          ModelParams(J=1.0, omega=omega))
            evals = np.sort(np.linalg.eigvalsh(H.toarray()))
            lower = evals[:geom.n_sites] + omega
            dists.append(np.max(np.abs(lower - target)))
        assert dists[0] < 10 * (1.0 / 10.0)  # O(J^2 / omega)
        assert dists[0] > dists[1] > dists[2]
        assert dists[1] < 0.6 * dists[0]
