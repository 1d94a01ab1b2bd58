import gc
import itertools
import math
import re
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelatt import manybody
from gaugelatt.lattice import (Boundary, LatticeGeometry, LinkField,
                               links_from_phases, magnetic_translation_x,
                               magnetic_translation_y, rotation_with_swap,
                               uniform_phase_pattern)
from gaugelatt.laughlin import laughlin_lattice_states, laughlin_overlap
from gaugelatt.manybody import (DIM_CAP, _inf_norm, _real_frame_eigenstates,
                                _turned_eigenvectors, build_fock_basis,
                                build_manybody_hamiltonian, c_mode_number,
                                lowest_eigenstates, motional_density_matrix,
                                purity, second_quantize, sector_eigenstates)
from gaugelatt.singleparticle import ModelParams, build_bilayer_hamiltonian
from product_space import reference_factor, reference_purity


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
        # 6^25 > 2^63: more product states than a 64-bit key can number
        for M, N in [(5, 3), (6, 25)]:
            basis = build_fock_basis(M, N)
            assert basis.size == math.comb(M + N - 1, N)
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

    # dim <= 128 takes the dense eigh branch, larger dims take Lanczos
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

    def test_dense_branch_bounded_before_allocation(self):
        # dim 9000 <= 4 * count takes the dense branch: 1.2 GiB of matrix
        H = sp.diags(np.arange(9000.0)).tocsr()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=r"9000: 1\.2 GiB, above the 1 GiB limit"):
                lowest_eigenstates(H, 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def fock_translation(basis, geom, perm, phase):
    """Sparse Fock-space matrix of the site map s -> perm[s] applied to both
    species, each particle leaving site s picking up exp(i phase[s])."""
    ns = geom.n_sites
    pos = basis.permute(np.concatenate([perm, perm + ns]))
    amp = np.exp(1j * np.concatenate([phase, phase])[basis.modes].sum(axis=1))
    return sp.csr_matrix((amp, (pos, np.arange(basis.size))),
                         shape=(basis.size, basis.size))


def translation_group(geom, alpha, N):
    """(s, b, order, shift, m, order_y) of the torus translations, as the
    docstring of sector_eigenstates defines them."""
    s, b = (alpha * geom.Ly).denominator, (alpha * geom.Lx).denominator
    order = geom.Lx // math.gcd(geom.Lx, s)
    shift = int(-order * N * alpha * s * b % order)
    m = order // math.gcd(shift, order)
    return s, b, order, shift, m, geom.Ly // math.gcd(geom.Ly, b * m)


@st.composite
def small_tori(draw, coupling=st.floats(0.5, 12.0), square=st.just(False),
               U=None, J2=st.floats(0.0, 0.5)):
    """A random torus instance (geom, alpha, N, params), basis at most 816;
    Lx = Ly where `square` draws True, and U from `coupling` unless given."""
    Lx = draw(st.integers(1, 4))
    Ly = Lx if draw(square) else draw(st.integers(1, 4))
    N = draw(st.integers(1, 3 if Lx * Ly <= 8 else 2))
    alpha = Fraction(draw(st.integers(0, Lx * Ly - 1)), Lx * Ly)
    params = ModelParams(J=draw(st.floats(0.5, 2.0)), omega=draw(coupling),
                         U=draw(coupling if U is None else U), J2=draw(J2))
    return torus(Lx, Ly), alpha, N, params


def zero_or(values):
    return st.one_of(st.just(0.0), values)


def fock_turn(basis, geom, alpha):
    """Sparse Fock-space matrix of the quarter turn with the a <-> b swap."""
    perm, phase = rotation_with_swap(geom, alpha)
    amp = np.exp(1j * phase[basis.modes].sum(axis=1))
    return sp.csr_matrix((amp, (basis.permute(perm), np.arange(basis.size))),
                         shape=(basis.size, basis.size))


def every_block(*args):
    """`sector_eigenstates(*args)` with every block solved, none taken from
    its quarter-turn partner."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(manybody, "_turned_eigenvectors", lambda *_: None)
        return sector_eigenstates(*args)


def recorded_solves(monkeypatch):
    """The dimension of every block that `lowest_eigenstates` gets, as a
    list that fills while the test runs."""
    dims = []

    def recording(H_b, count):
        dims.append(H_b.shape[0])
        return lowest_eigenstates(H_b, count)

    monkeypatch.setattr(manybody, "lowest_eigenstates", recording)
    return dims


def fock_mirror(basis, geom):
    """Sparse Fock-space matrix of the mirror (j, k) -> (-j mod Lx, k) of
    both species."""
    j, k = np.divmod(np.arange(geom.n_sites), geom.Ly)
    return fock_translation(basis, geom, (-j % geom.Lx) * geom.Ly + k,
                            np.zeros(geom.n_sites))


def torus_hamiltonian(geom, alpha, N, params):
    links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                              alpha=alpha)
    basis = build_fock_basis(2 * geom.n_sites, N)
    return basis, build_manybody_hamiltonian(geom, links, params, basis)


def columns_of(H):
    """The columns function of `sector_eigenstates` for a built H."""
    return lambda idx: H[:, idx]


def as_block(H_b, step=7):
    """A built block as the `_Block` that the solvers read, `step` rows
    per chunk, so that a small block is read in several chunks."""
    H_b = sp.csr_matrix(H_b)
    return manybody._Block(H_b.__getitem__, H_b.shape[0], step, H_b.nnz)


def real_frame(pi, s):
    """The unitary U with U U^T = S, S[pi[i], i] = s[i], as the product
    form of the real frame: sqrt(s_f) e_f on a fixed f, and sqrt(s_p / 2)
    (e_p + e_q), i sqrt(s_p / 2) (e_p - e_q) on a pair p < q = pi[p]."""
    dim, root = pi.size, np.sqrt(s)
    idx = np.arange(dim)
    f, p = np.flatnonzero(pi == idx), np.flatnonzero(pi > idx)
    q, c = pi[p], root[p] / np.sqrt(2)
    return sp.csr_matrix((np.concatenate([root[f], c, c, 1j * c, -1j * c]),
                          (np.concatenate([f, p, q, p, q]),
                           np.concatenate([f, p, p, q, q]))), shape=(dim, dim))


def projector(sec, n):
    """The product form of `_Sectors._lift`: P, from the orbit basis of the
    sector sec.labels[n] to the full space, as a sparse matrix."""
    ok = sec.ok[n]
    rows = np.flatnonzero(ok[sec.orbit])
    o = sec.orbit[rows]
    return sp.csr_matrix(
        (sec.ph_of[rows] * sec._chi(*sec.labels[n]).conj()[sec.g_of[rows]]
         / np.sqrt(sec.length[o]), (rows, (np.cumsum(ok) - 1)[o])),
        shape=(sec.basis.size, int(ok.sum())))


def real_frame_matrix(block, pi, s):
    """The real matrix H_r that `_real_frame_eigenstates` solves, or None
    where it refuses the frame."""
    seen = []

    def recording(H_r, count):
        seen.append(H_r)
        return lowest_eigenstates(H_r, count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(manybody, "lowest_eigenstates", recording)
        solved = _real_frame_eigenstates(block, pi, s, 1)
    return seen[0] if solved else None


class TestColumnLift:
    @settings(max_examples=40, deadline=None)
    @given(case=small_tori(coupling=st.floats(0.0, 12.0)),
           interacting=st.booleans(), data=st.data())
    def test_columns_match_the_full_build(self, case, interacting, data):
        geom, alpha, N, params = case
        if not interacting:
            params = ModelParams(J=params.J, omega=params.omega, U=0.0,
                                 J2=params.J2)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        basis = build_fock_basis(2 * geom.n_sites, N)
        H = build_manybody_hamiltonian(geom, links, params, basis)
        idx = np.array(sorted(data.draw(st.sets(
            st.integers(0, basis.size - 1), max_size=basis.size))), dtype=int)
        got = build_manybody_hamiltonian(geom, links, params, basis,
                                         columns=idx)
        assert got.shape == (basis.size, idx.size)
        ref = H[:, idx]
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)
        # H is Hermitian: its largest absolute column sum is ||H||_inf
        assert (abs(H).sum(axis=0).max()
                == pytest.approx(spla.norm(H, ord=np.inf), rel=1e-15))


class TestSectorEigenstates:
    @settings(max_examples=30, deadline=None)
    @given(case=small_tori(coupling=st.floats(0.0, 12.0)))
    @example(case=(torus(4, 4), Fraction(1, 4), 2, ModelParams(
        J=1.0, omega=10.0, U=10.0, J2=0.2)))
    @example(case=(torus(3, 3), Fraction(1, 3), 1, ModelParams()))
    def test_translations_commute_up_to_the_flux_phase(self, case):
        geom, alpha, N, params = case
        basis, H = torus_hamiltonian(*case)
        s, b, *_ = translation_group(geom, alpha, N)
        Tx = fock_translation(basis, geom, magnetic_translation_x(geom, alpha, s),
                              np.zeros(geom.n_sites))
        Ty = fock_translation(basis, geom, *magnetic_translation_y(geom, alpha, b))
        assert abs(Ty @ H - H @ Ty).max() < 1e-12
        flux = np.exp(2j * np.pi * float(N * alpha * s * b))
        assert abs(Ty @ Tx - flux * (Tx @ Ty)).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(case=small_tori(coupling=st.floats(0.0, 12.0)))
    @example(case=(torus(4, 4), Fraction(1, 4), 2, ModelParams(
        J=1.0, omega=10.0, U=10.0, J2=0.2)))
    @example(case=(torus(3, 4), Fraction(1, 3), 1, ModelParams(J2=0.3)))
    def test_mirror_is_an_antiunitary_symmetry(self, case):
        # K M, with M the mirror j -> -j, keeps H, inverts T_x and keeps Y
        geom, alpha, N, params = case
        basis, H = torus_hamiltonian(*case)
        s, b, _, _, m, _ = translation_group(geom, alpha, N)
        M = fock_mirror(basis, geom)
        Tx = fock_translation(basis, geom, magnetic_translation_x(geom, alpha, s),
                              np.zeros(geom.n_sites))
        Y = fock_translation(basis, geom,
                             *magnetic_translation_y(geom, alpha, b * m))
        assert abs(M @ H @ M - H.conj()).max() < 1e-12
        assert abs(M @ Tx @ M - Tx.conj().T).max() < 1e-12
        assert abs(M @ Y @ M - Y.conj()).max() < 1e-12

    @pytest.mark.parametrize("case, kinds", [
        # 4x4, alpha = 1/4, N = 2: order_y = 2, so K M_x maps every sector
        # (kx, ky) onto itself; the quarter turn pairs (0, 1) with (1, 0),
        # so three of the four are solved
        ((torus(4, 4), Fraction(1, 4), 2,
          ModelParams(J=1.0, omega=10.0, U=10.0, J2=0.2)), "fff"),
        # 3x4, alpha = 1/3, N = 1: order_y = 4; ky = 1 and 3 swap
        ((torus(3, 4), Fraction(1, 3), 1, ModelParams(J2=0.3)), "fcfc"),
    ])
    def test_self_conjugate_sectors_are_solved_real(self, case, kinds,
                                                     monkeypatch):
        basis, H = torus_hamiltonian(*case)
        seen = []

        def recording(H_b, count):
            seen.append(H_b.dtype.kind)
            return lowest_eigenstates(H_b, count)

        monkeypatch.setattr(manybody, "lowest_eigenstates", recording)
        E, _, _ = sector_eigenstates(columns_of(H), basis, *case[:2], 4)
        assert "".join(seen) == kinds
        scale = max(spla.norm(H, ord=np.inf), 1.0)
        np.testing.assert_allclose(E, np.linalg.eigvalsh(H.toarray())[:4],
                                   rtol=0, atol=1e-9 * scale)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 90))
    def test_real_frame_matches_the_dense_solve(self, seed, dim):
        # B + S conj(B) S^dag commutes with the antiunitary w -> S conj(w),
        # S[pi[i], i] = s[i], for any Hermitian B, involution pi and s = s(pi)
        rng = np.random.default_rng(seed)
        idx = np.arange(dim)
        pairs = rng.permutation(dim)[:2 * rng.integers(0, dim // 2 + 1)]
        pi = idx.copy()
        pi[pairs[0::2]], pi[pairs[1::2]] = pairs[1::2], pairs[0::2]
        s = np.exp(2j * np.pi * rng.random(dim))
        s = np.where(pi < idx, s[pi], s)
        S = sp.csr_matrix((s, (pi, idx)), shape=(dim, dim))
        B = (sp.random(dim, dim, density=0.2, random_state=rng)
             + 1j * sp.random(dim, dim, density=0.2, random_state=rng))
        B = B + B.conj().T
        H_b = (B + S @ B.conj() @ S.conj().T).tocsr()
        count = min(3, dim)
        E, W = _real_frame_eigenstates(as_block(H_b), pi, s, count)
        scale = max(spla.norm(H_b, ord=np.inf), 1.0)
        # the chunked assembly against the product form U^dag H_b U
        U = real_frame(pi, s)
        ref = (U.conj().T @ H_b @ U).toarray()
        np.testing.assert_allclose(ref.imag, 0, rtol=0, atol=1e-12 * scale)
        H_r = real_frame_matrix(as_block(H_b, rng.integers(1, dim + 1)),
                                pi, s)
        np.testing.assert_allclose(H_r.toarray(), ref.real, rtol=0,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(E, np.linalg.eigvalsh(H_b.toarray())[:count],
                                   rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(H_b @ W, W * E, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(W.conj().T @ W, np.eye(count), rtol=0,
                                   atol=1e-12)

    def test_real_frame_refuses_a_broken_symmetry(self):
        # the identity is real in any unitary frame, and U^dag U is real
        # for the U of pi = [1, 1], which is not unitary
        eye = sp.identity(2, dtype=complex, format="csr")
        H_b = sp.csr_matrix(np.array([[1.0, 1j], [-1j, 2.0]]))
        fixed, swap, ones = np.arange(2), np.array([1, 0]), np.ones(2)
        block = as_block(eye)
        assert _real_frame_eigenstates(block, np.array([1, 1]), ones, 1) is None
        assert _real_frame_eigenstates(block, swap, np.array([1, 1j]), 1) is None
        assert _real_frame_eigenstates(as_block(H_b), fixed, ones, 1) is None
        E, _ = _real_frame_eigenstates(as_block(H_b.real), fixed, ones, 1)
        assert E == pytest.approx([1.0])

    def test_real_frame_solves_a_block_that_owns_its_data(self, monkeypatch):
        # a strided view into a complex chunk would make every H @ v copy
        # the data first, and would keep that chunk alive
        dim = 80
        pi = np.arange(dim)[::-1].copy()
        s = np.ones(dim)
        B = sp.random(dim, dim, density=0.1, random_state=0, format="csr")
        H_b = (B + B.T + B[pi][:, pi] + B[pi][:, pi].T).astype(complex).tocsr()
        seen = []

        def recording(H_r, count):
            seen.append(H_r)
            return lowest_eigenstates(H_r, count)

        monkeypatch.setattr(manybody, "lowest_eigenstates", recording)
        assert _real_frame_eigenstates(as_block(H_b), pi, s, 2) is not None
        (H_r,) = seen
        assert H_r.data.dtype == np.float64
        assert H_r.data.flags.c_contiguous and H_r.data.base is None

    @settings(max_examples=30, deadline=None)
    @given(case=small_tori(), count=st.integers(1, 8))
    @example(case=(torus(4, 4), Fraction(1, 4), 2, ModelParams(
        J=1.0, omega=10.0, U=10.0, J2=0.2)), count=2)
    @example(case=(torus(3, 4), Fraction(1, 3), 2, ModelParams(
        J=1.0, omega=1.0, U=1.0)), count=2)
    @example(case=(torus(2, 4), Fraction(3, 8), 3, ModelParams(
        J=0.7, omega=2.0, U=1.0, J2=0.5)), count=5)
    def test_sectors_match_the_full_space_solve(self, case, count):
        geom, alpha, N, params = case
        basis, H = torus_hamiltonian(*case)
        dim = basis.size
        scale = max(spla.norm(H, ord=np.inf), 1.0)
        # the full-space reference in its dense branch, which returns every
        # multiplet whole; compare whole clusters of levels: extend count
        # past near degeneracies, so that both solves span one subspace
        w, U = lowest_eigenstates(H, dim)
        gap = 1e-3 * scale
        count = min(count, dim)
        while count < dim and w[count] - w[count - 1] < gap:
            count += 1
        lifted = []

        def columns(idx):
            lifted.append(idx)
            return H[:, idx]

        E, V, sectors = sector_eigenstates(columns, basis, geom, alpha, count)
        E_ref, V_ref = w[:count], U[:, :count]
        np.testing.assert_allclose(E, E_ref, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(count), rtol=0,
                                   atol=1e-12)
        # the block residual bound holds in the full space
        assert np.linalg.norm(H @ V - V * E, axis=0).max() <= 1e-9 * scale
        # H is lifted once, and the absolute column sums of the lifted
        # states read ||H||_inf
        assert len(lifted) == 1
        assert (abs(H[:, lifted[0]]).sum(axis=0).max()
                == pytest.approx(spla.norm(H, ord=np.inf), rel=1e-15))

        # column i is an eigenvector of T_x and of Y = T_y^m with the
        # eigenvalues its label (kx, ky) names
        s, b, order, _, m, order_y = translation_group(geom, alpha, N)
        Tx = fock_translation(basis, geom, magnetic_translation_x(geom, alpha, s),
                              np.zeros(geom.n_sites))
        Y = fock_translation(basis, geom,
                             *magnetic_translation_y(geom, alpha, b * m))
        # one lifted state per orbit of T_x and Y
        assert lifted[0].size == connected_components(abs(Tx) + abs(Y))[0]
        kx, ky = sectors.T
        np.testing.assert_allclose(Tx @ V, V * np.exp(2j * np.pi * kx / order),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(Y @ V, V * np.exp(2j * np.pi * ky / order_y),
                                   rtol=0, atol=1e-12)

        # diagnostics summed over a cluster do not depend on its basis;
        # purity is quadratic in rho, so it is taken of the summed rho, whose
        # factor is the first-quantized factors side by side
        states = (laughlin_lattice_states(N, alpha, geom)
                  if alpha * geom.n_sites == 2 * N else None)
        edges = np.flatnonzero(np.diff(w[:count]) >= gap) + 1
        for cluster in np.split(np.arange(count), edges):
            sums = []
            for X in (V[:, cluster], V_ref[:, cluster]):
                C = np.hstack([reference_factor(v, basis.M, N) for v in X.T])
                sums.append([reference_purity(C),
                             sum(c_mode_number(v, basis) for v in X.T)])
                if states is not None:
                    sums[-1].append(sum(
                        laughlin_overlap(motional_density_matrix(v, basis),
                                         states) for v in X.T))
            np.testing.assert_allclose(sums[0], sums[1], rtol=0, atol=1e-10)

    def test_degeneracy_beyond_the_translations(self):
        # 2x2, alpha = 1/4, N = 3: one sector of 120 states; the lowest
        # level is at least 4-fold, and the block solve, dense at this
        # size, returns all four copies
        case = (torus(2, 2), Fraction(1, 4), 3, ModelParams(U=0.0))
        basis, H = torus_hamiltonian(*case)
        E, _, _ = sector_eigenstates(columns_of(H), basis, *case[:2], 4)
        np.testing.assert_allclose(E, np.linalg.eigvalsh(H.toarray())[:4],
                                   rtol=0, atol=1e-9)

    def test_degeneracy_of_decoupled_layers(self):
        # 2x2, alpha = 3/4, N = 3, omega = 0: one sector of 120 states;
        # its third level, -2, is 4-fold, and the dense block solve returns
        # all four copies
        case = (torus(2, 2), Fraction(3, 4), 3, ModelParams(U=10.0))
        basis, H = torus_hamiltonian(*case)
        E, _, _ = sector_eigenstates(columns_of(H), basis, *case[:2], 7)
        np.testing.assert_allclose(E, np.linalg.eigvalsh(H.toarray())[:7],
                                   rtol=0, atol=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a degeneracy that no magnetic translation enforces (here: "
        "decoupled layers, omega = 0) is found by the Krylov solve of a "
        "block above the dense limit only by rounding"))
    def test_degeneracy_of_decoupled_layers_above_the_dense_limit(self):
        # 4x2, alpha = 1/8, N = 2, omega = 0: one sector of 136 states; its
        # second level, -2 - sqrt 2, is 4-fold, and the Krylov block solve
        # returns it 3 times
        case = (torus(4, 2), Fraction(1, 8), 2, ModelParams(U=10.0))
        basis, H = torus_hamiltonian(*case)
        E, _, _ = sector_eigenstates(columns_of(H), basis, *case[:2], 5)
        np.testing.assert_allclose(E, np.linalg.eigvalsh(H.toarray())[:5],
                                   rtol=0, atol=1e-9)

    def test_one_sector_per_y_orbit_is_solved(self, monkeypatch):
        # 6x4, alpha = 1/4, N = 3: s = 1, order 6; b = 2, shift -9 = 3; the
        # orbits {0,3}, {1,4}, {2,5} of kx need three block solves
        case = (torus(6, 4), Fraction(1, 4), 3, ModelParams(J=1.0, omega=10.0,
                                                            U=10.0))
        basis, H = torus_hamiltonian(*case)
        assert translation_group(*case[:3])[2:] == (6, 3, 2, 1)
        dims = recorded_solves(monkeypatch)
        E, _, sectors = sector_eigenstates(columns_of(H), basis, *case[:2], 3)
        assert len(dims) == 3
        assert sum(dims) == pytest.approx(basis.size / 2, rel=0.01)
        assert E[1] - E[0] < 1e-9 and E[2] - E[1] > 1e-3
        assert sectors[1, 0] == (sectors[0, 0] + 3) % 6

    def test_no_projector_outlives_its_block(self, monkeypatch):
        # 6x6, alpha = 1/9, N = 2: four sectors, three solved, (1, 0) as
        # the quarter turn of (0, 1); at every solve and at the turned
        # check the only full-height matrix alive is the test's own H
        case = (torus(6, 6), Fraction(1, 9), 2, ModelParams(J=1.0, omega=10.0,
                                                            U=10.0, J2=0.2))
        basis, H = torus_hamiltonian(*case)
        alive, turned = [], []

        def full_height():
            return sum(1 for o in gc.get_objects() if sp.issparse(o)
                       and o.shape[0] == basis.size)

        def recording(H_b, count):
            alive.append(full_height())
            return lowest_eigenstates(H_b, count)

        def turn(*args):
            turned.append(full_height())
            return _turned_eigenvectors(*args)

        monkeypatch.setattr(manybody, "lowest_eigenstates", recording)
        monkeypatch.setattr(manybody, "_turned_eigenvectors", turn)
        sector_eigenstates(columns_of(H), basis, *case[:2], 3)
        assert alive == [1] * 3
        assert turned == [1]

    def test_sector_solve_peak_per_basis_state(self):
        # 12x12, alpha = 1/36, N = 2 (41,616 states): the traced peak of the
        # whole sector solve, the lift of H[:, reps] included, per basis
        # state; the product chain over full-basis projectors read 292 B
        geom, alpha = torus(12, 12), Fraction(1, 36)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        params = ModelParams(J=1.0, omega=10.0, U=10.0)
        basis = build_fock_basis(2 * geom.n_sites, 2)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the cut
                sector_eigenstates(
                    lambda idx: build_manybody_hamiltonian(
                        geom, links, params, basis, columns=idx),
                    basis, geom, alpha, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / basis.size < 200

    @pytest.mark.parametrize("case, count", [
        ((torus(6, 6), Fraction(1, 18), 2), 3),  # m = 1, a turned partner
        ((torus(6, 4), Fraction(1, 4), 3), 4),  # m = 2
    ])
    def test_only_returnable_block_vectors_are_kept(self, monkeypatch, case,
                                                    count):
        # at the lift, every block-vector array still alive holds only levels
        # at or below the count-th lowest copy, the highest returned energy:
        # the rest were cut off as they became unreachable
        basis, H = torus_hamiltonian(*case, ModelParams(J=1.0, omega=10.0,
                                                        U=10.0))
        made, at_lift = [], []
        lift = manybody._Sectors._lift

        def recording(solve):
            def solved(*args):
                out = solve(*args)
                if out is not None:  # (E, W), or the turned W
                    E, W = (args[-2], out) if isinstance(out, np.ndarray) else out
                    made.append((weakref.ref(W), E))
                return out
            return solved

        def lifting(sec, *args):
            if not at_lift:
                at_lift.append([E for ref, E in made if ref() is not None])
            return lift(sec, *args)

        for name in ("lowest_eigenstates", "_real_frame_eigenstates",
                     "_turned_eigenvectors"):
            monkeypatch.setattr(manybody, name,
                                recording(getattr(manybody, name)))
        monkeypatch.setattr(manybody._Sectors, "_lift", lifting)
        E, *_ = sector_eigenstates(columns_of(H), basis, *case[:2], count)
        alive = at_lift[0]
        assert len(alive) < len(made)  # some were cut
        assert all(e.max() <= E.max() for e in alive)

    # counts that end on a whole multiplet
    @pytest.mark.parametrize("case, count, calls", [
        ((torus(6, 6), Fraction(1, 18), 2), 3, 1),  # m = 1: the walk only
        ((torus(6, 4), Fraction(1, 4), 3), 2, 2),  # m = 2: and at the lift
    ])
    def test_y_translation_is_built_only_for_an_image(self, monkeypatch,
                                                      case, count, calls):
        basis, H = torus_hamiltonian(*case, ModelParams(J=1.0, omega=10.0,
                                                        U=10.0))
        assert translation_group(*case)[4] == calls
        built = []

        def recording(*args):
            built.append(args)
            return magnetic_translation_y(*args)

        monkeypatch.setattr(manybody, "magnetic_translation_y", recording)
        sector_eigenstates(columns_of(H), basis, *case[:2], count)
        assert len(built) == calls

    def test_a_cut_multiplet_is_named(self):
        # 6x4, alpha = 1/4, N = 3: m = 2, so every level is a T_y doublet;
        # count 1 returns one member of the ground doublet
        case = (torus(6, 4), Fraction(1, 4), 3, ModelParams(J=1.0, omega=10.0,
                                                            U=10.0))
        basis, H = torus_hamiltonian(*case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E, _, pair = sector_eigenstates(columns_of(H), basis, *case[:2], 2)
        with pytest.warns(RuntimeWarning, match=re.escape(
                "count 1 cuts a symmetry multiplet: its sectors "
                f"{pair[1].tolist()} are not returned")):
            E_1, _, one = sector_eigenstates(columns_of(H), basis, *case[:2], 1)
        np.testing.assert_array_equal(E_1, E[:1])
        np.testing.assert_array_equal(one, pair[:1])

    def test_a_cut_multiplet_names_the_turned_sector(self):
        # 6x6, alpha = 1/18, N = 2: m = 1, and the ground level is in (0, 1)
        # and in its quarter turn (1, 0); count 1 returns one of them
        case = (torus(6, 6), Fraction(1, 18), 2, ModelParams(J=1.0, omega=10.0,
                                                             U=10.0))
        basis, H = torus_hamiltonian(*case)
        columns, (geom, alpha) = columns_of(H), case[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E, _, pair = sector_eigenstates(columns, basis, geom, alpha, 2)
        assert E[0] == E[1] and sorted(pair.tolist()) == [[0, 1], [1, 0]]
        with pytest.warns(RuntimeWarning, match=re.escape(
                "count 1 cuts a symmetry multiplet: its sectors "
                f"{pair[1].tolist()} are not returned")):
            E_1, _, one = sector_eigenstates(columns, basis, geom, alpha, 1)
        # one level per block instead of two: Lanczos rounds differently
        np.testing.assert_allclose(E_1, E[:1], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(one, pair[:1])

    @settings(max_examples=30, deadline=None)
    @given(case=small_tori(coupling=st.floats(0.0, 12.0),
                           square=st.just(True)))
    @example(case=(torus(4, 4), Fraction(1, 4), 2, ModelParams(
        J=1.0, omega=10.0, U=10.0, J2=0.2)))
    def test_quarter_turn_is_a_symmetry_of_square_tori(self, case):
        geom, alpha, N, params = case
        basis, H = torus_hamiltonian(*case)
        R = fock_turn(basis, geom, alpha)
        assert abs(R @ H @ R.conj().T - H).max() < 1e-12

    @pytest.mark.filterwarnings("ignore:count .* cuts a symmetry multiplet")
    @settings(max_examples=40, deadline=None)
    @given(case=small_tori(square=st.booleans(), U=zero_or(st.floats(0.5, 12.0)),
                           J2=zero_or(st.floats(0.05, 0.5))),
           count=st.integers(1, 8))
    @example(case=(torus(4, 4), Fraction(1, 4), 2, ModelParams(
        J=1.0, omega=10.0, U=10.0, J2=0.2)), count=3)
    @example(case=(torus(4, 4), Fraction(1, 8), 2, ModelParams(
        J=1.0, omega=3.0)), count=4)
    @example(case=(torus(3, 3), Fraction(2, 9), 2, ModelParams(
        J=0.8, omega=1.0, U=2.0, J2=0.3)), count=6)
    def test_turned_blocks_match_solving_every_block(self, case, count):
        geom, alpha, N, params = case
        basis, H = torus_hamiltonian(*case)
        scale = max(spla.norm(H, ord=np.inf), 1.0)
        # compare whole clusters of levels, as in the full-space test above
        w = np.linalg.eigvalsh(H.toarray())
        gap = 1e-3 * scale
        count = min(count, basis.size)
        while count < basis.size and w[count] - w[count - 1] < gap:
            count += 1
        args = (columns_of(H), basis, geom, alpha, count)
        (E, V, sectors), (E_ref, V_ref, sectors_ref) = (
            sector_eigenstates(*args), every_block(*args))
        np.testing.assert_allclose(E, E_ref, rtol=0,
                                   atol=1e-10 * max(1.0, abs(E_ref).max()))
        # each exactly degenerate level holds the same sectors
        levels = np.flatnonzero(np.diff(E_ref) > 1e-8 * scale) + 1
        for level in np.split(np.arange(count), levels):
            assert (sorted(sectors[level].tolist())
                    == sorted(sectors_ref[level].tolist()))
        states = (laughlin_lattice_states(N, alpha, geom)
                  if alpha * geom.n_sites == 2 * N else None)
        for cluster in np.split(np.arange(count),
                                np.flatnonzero(np.diff(w[:count]) >= gap) + 1):
            sums = []
            for X in (V[:, cluster], V_ref[:, cluster]):
                C = np.hstack([reference_factor(v, basis.M, N) for v in X.T])
                sums.append([reference_purity(C),
                             sum(c_mode_number(v, basis) for v in X.T)])
                if states is not None:
                    sums[-1].append(sum(
                        laughlin_overlap(motional_density_matrix(v, basis),
                                         states) for v in X.T))
            np.testing.assert_allclose(sums[0], sums[1], rtol=0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(case=small_tori(coupling=st.floats(0.0, 12.0),
                           square=st.booleans()))
    # m = 2 on a square torus, every sector real
    @example(case=(torus(4, 4), Fraction(1, 4), 2, ModelParams(
        J=1.0, omega=10.0, U=10.0, J2=0.2)))
    # m = 1, non-square, complex sectors ky = 1 and 3
    @example(case=(torus(3, 4), Fraction(1, 3), 1, ModelParams(J2=0.3)))
    # m = 1 on a square torus: the turn pairs (0, 1) with (1, 0)
    @example(case=(torus(4, 4), Fraction(1, 8), 2, ModelParams(
        J=1.0, omega=3.0)))
    # m = 1 on a square torus with sixteen sectors
    @example(case=(torus(4, 4), Fraction(1, 2), 2, ModelParams(
        J=0.8, omega=1.0, U=2.0, J2=0.3)))
    def test_blocks_and_turns_match_the_product_forms(self, case):
        # the blocks, their real frames and the quarter-turn maps that are
        # assembled on the orbits, against P^dag H P, U^dag P^dag H P U and
        # P_t^dag S P built from the full-space projectors
        geom, alpha, N, params = case
        basis, H = torus_hamiltonian(*case)
        scale = max(spla.norm(H, ord=np.inf), 1.0)
        sec = manybody._Sectors(basis, geom, alpha)
        H_reps = H[:, sec.reps].T
        blocks = {}
        for n in range(len(sec.labels)):
            if not sec.ok[n].any():
                continue
            P = projector(sec, n)
            w = np.random.default_rng(n).standard_normal(P.shape[1])
            lifted = np.empty(basis.size, dtype=complex)
            sec._lift(n, w, out=lifted)
            np.testing.assert_allclose(lifted, P @ w, rtol=0, atol=1e-12)
            ref = (P.conj().T @ H @ P).toarray()
            block = sec._block(H_reps, n)
            for step in (block.step, 1, 5):
                got = manybody._Block(block.rows, block.size, step,
                                      block.entries)._matrix()
                np.testing.assert_allclose(got.toarray(), ref, rtol=0,
                                           atol=1e-12 * scale)
            np.testing.assert_allclose(block._apply(np.eye(block.size)), ref,
                                       rtol=0, atol=1e-12 * scale)
            frame = sec._frame(n)
            if frame is not None:
                U = real_frame(*frame)
                H_r = real_frame_matrix(block, *frame)
                np.testing.assert_allclose(
                    H_r.toarray(), (U.conj().T @ ref @ U).real, rtol=0,
                    atol=1e-12 * scale)
            blocks[n] = P
        if geom.Lx != geom.Ly or (alpha * geom.n_sites).denominator != 1:
            return
        S = fock_turn(basis, geom, alpha)
        for n, (kx, ky) in enumerate(sec.labels):
            t = sec.labels.index(((-ky) % sec.n_orbits, kx))
            if n in blocks and t in blocks:
                Q = sec._turn(n, t)
                assert np.diff(Q.tocsc().indptr).max() <= sec.m
                ref = blocks[t].conj().T @ S @ blocks[n]
                np.testing.assert_allclose(Q.toarray(), ref.toarray(),
                                           rtol=0, atol=1e-12)

    def test_a_broken_turn_is_refused(self, monkeypatch):
        # 4x4, alpha = 1/4, N = 2: the turn pairs (0, 1) with (1, 0); with
        # one mode's phase flipped it no longer maps one block onto the
        # other, so all four blocks are solved, as without the turn
        case = (torus(4, 4), Fraction(1, 4), 2, ModelParams(J=1.0, omega=10.0,
                                                            U=10.0, J2=0.2))
        basis, H = torus_hamiltonian(*case)
        args = (columns_of(H), basis, *case[:2], 4)
        reference = every_block(*args)
        dims = recorded_solves(monkeypatch)
        sector_eigenstates(*args)
        assert len(dims) == 3

        def flipped(geom, alpha):
            perm, phase = rotation_with_swap(geom, alpha)
            return perm, phase + np.pi * (np.arange(phase.size) == 0)

        monkeypatch.setattr(manybody, "rotation_with_swap", flipped)
        dims.clear()
        refused = sector_eigenstates(*args)
        assert len(dims) == 4
        for got, ref in zip(refused, reference):
            np.testing.assert_array_equal(got, ref)

    def test_turned_eigenvectors_of_a_phase_permutation(self):
        # P = P_t = 1 and H_t = S H_b S^dag for a phase permutation S: the
        # turn gives S W for m = 1, and is refused where Q^dag Q = 1 is not
        # 1/m or where Q H_b = H_t Q fails
        dim, rng = 40, np.random.default_rng(3)
        B = (sp.random(dim, dim, density=0.2, random_state=rng)
             + 1j * sp.random(dim, dim, density=0.2, random_state=rng))
        H_b = (B + B.conj().T).tocsr()
        image = rng.permutation(dim).astype(np.int32)
        factor = np.exp(2j * np.pi * rng.random(dim))
        S = sp.csr_matrix((factor, (image, np.arange(dim))), shape=(dim, dim))
        H_t = (S @ H_b @ S.conj().T).tocsr()
        E, W = np.linalg.eigh(H_b.toarray())
        E, W = E[:3], W[:, :3]

        def turned(H_t, m):
            # the map Q = P_t^dag S P is S itself
            return _turned_eigenvectors(S, as_block(H_b), as_block(H_t), m,
                                        W, E, _inf_norm(H_b))

        W_t = turned(H_t, 1)
        # QR leaves each column's sign free
        np.testing.assert_allclose(np.abs(W_t.conj().T @ (S @ W)), np.eye(3),
                                   rtol=0, atol=1e-12)
        assert turned(H_t, 2) is None
        kick = sp.csr_matrix(([1e-6], ([0], [0])), shape=(dim, dim))
        assert turned(H_t + kick, 1) is None

    def test_benchmark_instance_solves_three_blocks(self, monkeypatch):
        # 12x12, alpha = 1/36, N = 2: sectors (kx, ky) in {0, 1}^2, and the
        # quarter turn gives (1, 0) from (0, 1)
        geom, alpha = torus(12, 12), Fraction(1, 36)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        params = ModelParams(J=1.0, omega=10.0, U=10.0)
        basis = build_fock_basis(2 * geom.n_sites, 2)
        dims = recorded_solves(monkeypatch)
        with pytest.warns(RuntimeWarning, match="sectors .3, 1. are not"):
            E, _, sectors = sector_eigenstates(
                lambda idx: build_manybody_hamiltonian(
                    geom, links, params, basis, columns=idx),
                basis, geom, alpha, 3)
        assert dims == [5256, 5184, 5184]
        assert sectors.tolist() == [[0, 0], [2, 0], [1, 1]]
        assert E[0] == pytest.approx(-23.83064757, abs=1e-8)

    @pytest.mark.parametrize("count", [0, -1, 529])
    def test_count_checked_before_any_sector(self, count, monkeypatch):
        case = (torus(4, 4), Fraction(1, 4), 2, ModelParams())
        basis, H = torus_hamiltonian(*case)

        def no_translation(*args):
            raise AssertionError("a translation was built")

        monkeypatch.setattr(manybody, "magnetic_translation_x", no_translation)
        with pytest.raises(ValueError, match=r"need 1 <= count <= 528 \(the "):
            sector_eigenstates(columns_of(H), basis, *case[:2], count)


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


def permutation_averaged_purity(F):
    """Tr(G^2), G the mean of F^dag F over the N! particle orderings, each
    applied to the label patterns as a transpose of their N bits."""
    N = F.shape[1].bit_length() - 1
    labels = np.arange(2 ** N).reshape((2,) * N)
    G0, G = F.conj().T @ F, 0
    for pi in itertools.permutations(range(N)):
        p = labels.transpose(pi).ravel()
        G = G + G0[np.ix_(p, p)] / math.factorial(N)
    return float(np.sum(np.abs(G) ** 2))


class TestDiagnostics:
    def test_purity_memory_does_not_grow_with_n_factorial(self):
        # N = 6: 720 orderings of a 64 x 64 label Gram matrix
        rng = np.random.default_rng(7)
        F = rng.normal(size=(21, 64)) + 1j * rng.normal(size=(21, 64))
        F /= np.linalg.norm(F)
        tracemalloc.start()
        try:
            got = purity(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert abs(got - permutation_averaged_purity(F)) <= 1e-12

    def test_purity_builds_no_gathered_copy_of_the_gram_matrix(self):
        # N = 8: the 256 x 256 Gram matrix takes 1 MiB.  Pairs whose s
        # differ in b count share no orbit, so it is summed one b-count
        # block of rows at a time and the peak stays below its own bytes
        rng = np.random.default_rng(7)
        F = rng.normal(size=(9, 256)) + 1j * rng.normal(size=(9, 256))
        F /= np.linalg.norm(F)
        tracemalloc.start()
        try:
            got = purity(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 256 * 256
        b = np.array([bin(i).count("1") for i in range(256)])
        s = np.arange(256)
        key = (b[:, None] * 9 + b) * 9 + b[s[:, None] & s]
        G = F.conj().T @ F
        want = sum(np.sum(key == k) * np.abs(G[key == k].mean()) ** 2
                   for k in np.unique(key))
        assert abs(got - want) <= 1e-12 * want

    def test_purity_checks_the_gram_matrix_before_allocating(self):
        # 14 bosons: 4^14 label pairs, a 4 GiB Gram matrix
        F = np.zeros((1, 2 ** 14), dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    r"^label Gram matrix of 16384 patterns: 4\.0 GiB, above "
                    r"the 1 GiB limit \(fewer bosons\)$")):
                purity(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_motional_factor_checked_before_allocating(self):
        # 25 bosons on 2 sites: 26 motional states x 2^25 patterns, 13 GiB
        basis = build_fock_basis(4, 25)
        with pytest.raises(ValueError, match=r"^motional factor F: 13\.0 GiB"):
            motional_density_matrix(np.zeros(basis.size), basis)

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

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(3, 2), (4, 3), (2, 4), (3, 5), (1, 3)]),
           seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.1, 10.0))
    def test_c_mode_number_matches_the_projector_and_the_factor(
            self, shape, seed, scale):
        # references: the four-term per-site projector
        # (n_a + n_b - a^dag b - b^dag a) / 2 on the whole Fock space, and,
        # for a normalized v, N/2 - 1/2 sum_p Re <F, F X_p> from the factor
        # F, X_p flipping the label of particle p
        ns, N = shape
        basis = build_fock_basis(2 * ns, N)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v *= scale / np.linalg.norm(v)
        a, b = np.arange(ns), np.arange(ns) + ns
        projector = sp.coo_matrix(
            (np.repeat([0.5, 0.5, -0.5, -0.5], ns),
             (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
            shape=(basis.M, basis.M))
        want = np.vdot(v, second_quantize(projector, basis) @ v).real
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return second_quantize(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(manybody, "second_quantize", counted)
            got = c_mode_number(v, basis)
        assert len(calls) == 1
        assert abs(got - want) <= 1e-12 * abs(want)
        u = v / scale
        F, s = motional_density_matrix(u, basis), np.arange(2 ** N)
        flips = sum(np.vdot(F, F[:, s ^ (1 << p)]).real for p in range(N))
        assert abs(c_mode_number(u, basis) - (N / 2 - flips / 2)) <= 1e-12 * N

    def test_dark_mode_lift_peak_per_stored_entry(self):
        # one a^dag b hop per site over the 123,410 states of 20 sites and
        # N = 4: the lift writes the CSC it returns in place, 20 bytes per
        # stored entry, beside its per-source counts and one chunk, and
        # peaks at about 24; one copy of the triplets and then scipy's
        # COO -> CSC copy peak at about 71
        basis = build_fock_basis(40, 4)
        a = np.arange(20)
        hop = sp.csr_matrix((np.ones(20), (a, a + 20)), shape=(40, 40))
        tracemalloc.start()
        try:
            A = second_quantize(hop, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * A.nnz

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
