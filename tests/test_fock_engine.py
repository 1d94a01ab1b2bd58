"""The array-backed Fock engine against the per-state loops it replaced.

The reference functions below are the earlier tuple-basis implementations:
a tuple of sorted mode tuples, a dict for ranking, and one Python loop per
basis state; the first-quantized product-space route that one-body
unitaries such as the magnetic translations took before `FockBasis.permute`;
the product-space form of the internal-state diagnostics that
`motional_density_matrix`, `purity` and `subspace_overlap` replaced;
ARPACK's `eigsh`, the sparse eigensolver that `_lanczos` replaced; the
Lanczos step that orthogonalized the raw product H q_j against the whole
basis, which the three-term recurrence replaced; and the lift that gathered
(value, row, column) triplets and handed them to scipy's COO -> CSC
conversion, which writing the CSC in place replaced.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelatt import manybody
from gaugelatt.lattice import (Boundary, LatticeGeometry, links_from_phases,
                               uniform_phase_pattern)
from gaugelatt.laughlin import (laughlin_lattice_states, theta1,
                                theta_with_characteristics)
from gaugelatt.manybody import (build_fock_basis, build_manybody_hamiltonian,
                                c_mode_number, lowest_eigenstates,
                                motional_density_matrix, purity,
                                second_quantize, subspace_overlap)
from gaugelatt.singleparticle import ModelParams, build_bilayer_hamiltonian
from product_space import (reference_factor, reference_first_quantized,
                           reference_purity, reference_subspace_overlap)


# ---------------------------------------------------------------- references

def reference_states(M, N):
    states = tuple(combinations_with_replacement(range(M), N))
    return states, {s: i for i, s in enumerate(states)}


def _remove_add(state, rm, add):
    lst = list(state)
    lst.remove(rm)
    lst.append(add)
    lst.sort()
    return tuple(lst)


def reference_second_quantize(one_body, M, N):
    states, index_of = reference_states(M, N)
    ob = sp.csc_matrix(one_body)
    cols = [ob.getcol(m).tocoo() for m in range(M)]
    rows_out, cols_out, vals_out = [], [], []
    for i, state in enumerate(states):
        for m in set(state):
            n_m = state.count(m)
            col = cols[m]
            for r, t in zip(col.row, col.data):
                if r == m:
                    rows_out.append(i)
                    cols_out.append(i)
                    vals_out.append(t * n_m)
                else:
                    j = index_of[_remove_add(state, m, r)]
                    rows_out.append(j)
                    cols_out.append(i)
                    vals_out.append(t * math.sqrt(n_m * (state.count(r) + 1)))
    H = sp.coo_matrix((vals_out, (rows_out, cols_out)),
                      shape=(len(states), len(states)), dtype=complex)
    return H.tocsr()


def triplet_second_quantize(one_body, basis, sources=None):
    """`second_quantize` as one copy of its triplets, slot after slot,
    summed by scipy's COO -> CSC conversion."""
    ob = sp.csc_matrix(one_body)
    modes = basis.modes if sources is None else basis.modes[sources]
    empty = np.zeros(0, dtype=np.int32)
    parts = [(np.zeros(0, dtype=complex), empty, empty)]
    for p in range(basis.N):
        m = modes[:, p]
        first = (m != modes[:, p - 1]) if p else np.ones(len(m), dtype=bool)
        n_m = np.sum(modes == m[:, None], axis=1)
        src = np.flatnonzero(first).astype(np.int32)
        cnt = np.diff(ob.indptr)[m[src]]
        k = manybody._ragged_arange(ob.indptr[m[src]], cnt)
        src = np.repeat(src, cnt)
        r, new = ob.indices[k], modes[src]
        new[:, p] = r
        n_r = np.sum(new == r[:, None], axis=1)
        parts.append((ob.data[k] * np.sqrt(n_m[src] * n_r),
                      basis.index(new).astype(np.int32), src))
    vals, rows, cols = map(np.concatenate, zip(*parts))
    return sp.csc_matrix((vals, (rows, cols)),
                         shape=(basis.size, len(modes)), dtype=complex)


def reference_interaction(M, N, U):
    ns = M // 2
    states, _ = reference_states(M, N)
    diag = np.empty(len(states))
    for i, state in enumerate(states):
        val = 0.0
        for m in set(state):
            n = state.count(m)
            val += n * (n - 1)
        for m in set(state):
            if m < ns:
                val += state.count(m) * state.count(m + ns)
        diag[i] = U * val
    return diag


def small_n_first_quantized(vec, M, N):
    """The N <= 2 expansion the general one replaced."""
    states, _ = reference_states(M, N)
    if N == 1:
        psi = np.zeros(M, dtype=complex)
        for i, (m,) in enumerate(states):
            psi[m] = vec[i]
        return psi
    psi = np.zeros((M, M), dtype=complex)
    for i, (m1, m2) in enumerate(states):
        a = vec[i]
        if m1 == m2:
            psi[m1, m2] = a
        else:
            psi[m1, m2] = psi[m2, m1] = a / math.sqrt(2.0)
    return psi.ravel()


def product_to_symmetric_fock(psi, basis):
    """Fock amplitudes of the symmetric part of a product-space vector; the
    inverse of `reference_first_quantized` on symmetric vectors.

    Amplitude i is the sum of psi over all N! orderings of state i's mode
    list, divided by sqrt(N! prod n_m!).
    """
    psi = np.asarray(psi).ravel()
    out = np.zeros(basis.size, dtype=complex)
    for perm in permutations(range(basis.N)):
        modes = basis.modes[:, list(perm)]
        out += psi[np.ravel_multi_index(tuple(modes.T), (basis.M,) * basis.N)]
    return out * (np.sqrt(basis.arrangements()) / math.factorial(basis.N))


def apply_one_body_unitary(U, vec, basis):
    """Apply a one-body unitary to an N-boson Fock vector: U on every
    particle axis of the first-quantized wavefunction (16 M^N bytes)."""
    psi = reference_first_quantized(vec, basis.M, basis.N).reshape(
        (basis.M,) * basis.N)
    for axis in range(basis.N):
        psi = np.moveaxis(np.tensordot(U, psi, axes=(1, axis)), 0, axis)
    return product_to_symmetric_fock(psi, basis)


def reference_theta(z, tau, a, b, tol=1e-14):
    center = -z.imag / (math.pi * tau.imag) - a
    width = math.sqrt(max(-math.log(tol * 1e-3), 1.0) / (math.pi * tau.imag)) + 2.0
    n = np.arange(math.floor(center - width), math.ceil(center + width) + 1,
                  dtype=float) + a
    return complex(np.sum(np.exp(1j * math.pi * tau * n * n
                                 + 2j * n * (z + math.pi * b))))


def reference_windowed_theta(z, tau, a, b, tol=1e-14):
    """The window of every z summed as one (len z, window) array; also
    returns the largest term of each window, the scale of its rounding."""
    z = np.asarray(z, dtype=complex)
    center = -z.imag / (math.pi * tau.imag) - a
    width = math.sqrt(max(-math.log(tol * 1e-3), 1.0) / (math.pi * tau.imag)) + 2.0
    n_lo = np.floor(center - width)
    n = n_lo[..., None] + np.arange(math.ceil(2.0 * width) + 2) + a
    terms = np.exp(1j * math.pi * tau * n * n
                   + 2j * n * (z[..., None] + math.pi * b))
    return terms.sum(axis=-1), np.abs(terms).max(axis=-1)


def reference_laughlin_amplitudes(N, alpha, geom, com_a):
    """Unnormalized, unconjugated per-state amplitudes of one Laughlin state."""
    m, a, r0 = 2, float(alpha), 1.0
    L1, L2 = geom.Lx * r0, geom.Ly * r0
    tau = 1j * L2 / L1
    ell2 = r0 * r0 / (2.0 * math.pi * a)
    pos = np.array([(s // geom.Ly + 1j * (s % geom.Ly)) * r0
                    for s in range(geom.n_sites)])
    states, _ = reference_states(geom.n_sites, N)
    amps = np.empty(len(states), dtype=complex)
    for i, modes in enumerate(states):
        zs = pos[list(modes)]
        val = reference_theta(m * math.pi * zs.sum() / L1, m * tau, com_a,
                              0.0)
        for p in range(N):
            for q in range(p + 1, N):
                val *= (-reference_theta(math.pi * (zs[p] - zs[q]) / L1, tau,
                                         0.5, 0.5)) ** m
        gauss = math.exp(-float(np.sum(zs.imag ** 2)) / (2.0 * ell2))
        mult = math.factorial(N)
        for mo in set(modes):
            mult //= math.factorial(modes.count(mo))
        amps[i] = val * gauss * math.sqrt(mult)
    return amps


# ------------------------------------------------------------------ helpers

def torus(Lx, Ly):
    return LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS)


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return v / np.linalg.norm(v)


@st.composite
def sparse_hermitian(draw):
    """A + A^dag as a CSR matrix, for a random sparse A.  Sometimes it is
    stored non-canonically, the entries of A and of A^dag side by side in
    each row, so that an entry, the diagonal included, may be stored as two
    parts.  Two parts add up to the same bits in either order, so the lifted
    off-diagonal entries stay bit-identical to the reference loop."""
    M = draw(st.integers(1, 6))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    A[rng.random((M, M)) > density] = 0.0
    if draw(st.booleans()):
        both = sp.hstack([sp.csr_matrix(A), sp.csr_matrix(A.conj().T)],
                         format="csr")
        return sp.csr_matrix((both.data, both.indices % M, both.indptr),
                             shape=(M, M))
    return sp.csr_matrix(A + A.conj().T)


# -------------------------------------------------------------------- basis

class TestBasis:
    @pytest.mark.parametrize("M,N", [(1, 3), (4, 1), (5, 3), (3, 4), (7, 0)])
    def test_rows_in_combinations_order(self, M, N):
        basis = build_fock_basis(M, N)
        states, _ = reference_states(M, N)
        assert basis.modes.shape == (len(states), N)
        assert [tuple(r) for r in basis.modes.tolist()] == list(states)

    def test_index_ranks_every_row(self):
        basis = build_fock_basis(6, 4)
        rows = basis.modes[::-1]
        np.testing.assert_array_equal(basis.index(rows),
                                      np.arange(basis.size)[::-1])

    @pytest.mark.parametrize("row", [[0, 6], [-1, 2], [7, 1], [0],
                                     [0, 1, 2]])
    def test_index_rejects_non_states(self, row):
        with pytest.raises(ValueError, match="not a state of this basis"):
            build_fock_basis(6, 2).index(row)

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(1, 6), N=st.integers(0, 4), data=st.data())
    def test_index_ranks_rows_in_any_order(self, M, N, data):
        basis = build_fock_basis(M, N)
        order = data.draw(st.permutations(range(N)))
        np.testing.assert_array_equal(basis.index(basis.modes[:, order]),
                                      np.arange(basis.size))

    def test_arrangements(self):
        basis = build_fock_basis(3, 3)
        got = dict(zip(map(tuple, basis.modes.tolist()), basis.arrangements()))
        assert got[(0, 0, 0)] == 1 and got[(0, 0, 1)] == 3
        assert got[(0, 1, 2)] == 6

    def test_modes_read_only(self):
        with pytest.raises(ValueError):
            build_fock_basis(4, 2).modes[0, 0] = 3


# --------------------------------------------------------- second quantization

def assert_same_csr(new, ref, terms):
    """Same pattern and bit-identical values, except that a diagonal entry
    that sums more than two terms (n_m t_mm for each stored part of t_mm of
    each occupied mode) may differ in its last digits: the loop and the
    array code add those terms in different orders."""
    new, ref = new.tocsr(), ref.tocsr()
    np.testing.assert_array_equal(new.indptr, ref.indptr)
    np.testing.assert_array_equal(new.indices, ref.indices)
    rows = np.repeat(np.arange(new.shape[0]), np.diff(new.indptr))
    off = rows != new.indices
    np.testing.assert_array_equal(new.data[off], ref.data[off])
    if terms <= 2:
        np.testing.assert_array_equal(new.data, ref.data)
    else:
        tol = 8 * terms * np.finfo(float).eps
        np.testing.assert_allclose(
            new.data[~off], ref.data[~off], rtol=0,
            atol=tol * max(1.0, np.abs(ref.data).max(initial=0.0)))


@settings(max_examples=60, deadline=None)
@given(one_body=sparse_hermitian(), N=st.integers(0, 4))
def test_second_quantize_matches_loop(one_body, N):
    M = one_body.shape[0]
    new = second_quantize(one_body, build_fock_basis(M, N))
    parts = 1 if one_body.has_canonical_format else 2
    assert_same_csr(new, reference_second_quantize(one_body, M, N),
                    parts * N)


@st.composite
def one_body_entries(draw):
    """A CSC one-body matrix from random entries, diagonal ones included,
    that may repeat a position and are stored in drawn order within each
    column; canonical after sum_duplicates, or left as drawn."""
    M = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nnz = draw(st.integers(0, 2 * M * M))
    cols = np.sort(rng.integers(0, M, nnz))
    vals = rng.normal(size=nnz)
    if draw(st.booleans()):
        vals = vals + 1j * rng.normal(size=nnz)
    ob = sp.csc_matrix((vals, rng.integers(0, M, nnz),
                        np.searchsorted(cols, np.arange(M + 1))), shape=(M, M))
    if draw(st.booleans()):
        ob.sum_duplicates()
    return ob


@settings(max_examples=150, deadline=None)
@given(one_body=st.one_of(sparse_hermitian(), one_body_entries()),
       N=st.integers(0, 4), data=st.data())
def test_second_quantize_matches_the_triplet_lift(one_body, N, data):
    basis = build_fock_basis(one_body.shape[0], N)
    sources = data.draw(st.none() | st.lists(
        st.integers(0, basis.size - 1), max_size=basis.size + 2).map(
            lambda idx: np.array(idx, dtype=int)))
    got = second_quantize(one_body, basis, sources)
    ref = triplet_second_quantize(one_body, basis, sources)
    assert got.shape == ref.shape
    assert got.data.dtype == ref.data.dtype == complex
    for name in ("data", "indices", "indptr"):  # bit for bit
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


@pytest.mark.parametrize("N, diagonal", [(1, [3, 5]), (2, [6, 8, 10])])
def test_second_quantize_adds_duplicate_entries(N, diagonal):
    # (0, 0) is stored twice, as 1 and as 2, beside (1, 1) = 5
    one_body = sp.csr_matrix(([1.0, 2.0, 5.0], [0, 0, 1], [0, 2, 3]),
                             shape=(2, 2))
    assert not one_body.has_canonical_format
    H = second_quantize(one_body, build_fock_basis(2, N))
    np.testing.assert_array_equal(H.toarray(), np.diag(diagonal))


@settings(max_examples=60, deadline=None)
@given(one_body=sparse_hermitian(), N=st.integers(1, 4), data=st.data())
def test_second_quantize_lifts_any_columns(one_body, N, data):
    basis = build_fock_basis(one_body.shape[0], N)
    full = second_quantize(one_body, basis)
    idx = np.array(sorted(data.draw(st.sets(
        st.integers(0, basis.size - 1), max_size=basis.size))), dtype=int)
    got = second_quantize(one_body, basis, idx)
    assert got.shape == (basis.size, idx.size)
    assert_same_csr(got, full[:, idx], terms=1)  # bit-identical
    # H is Hermitian: its largest absolute column sum is ||H||_inf
    assert (abs(full).sum(axis=0).max()
            == pytest.approx(spla.norm(full, ord=np.inf), rel=1e-15))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_hamiltonian_matches_loop(N):
    geom = torus(3, 4)
    alpha = Fraction(1, 4)
    links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                              alpha=alpha)
    params = ModelParams(J=1.0, omega=2.5, U=3.0, J2=0.2)
    M = 2 * geom.n_sites
    basis = build_fock_basis(M, N)
    H = build_manybody_hamiltonian(geom, links, params, basis)
    one_body = build_bilayer_hamiltonian(geom, links, params)
    ref = (reference_second_quantize(one_body, M, N)
           + sp.diags(reference_interaction(M, N, params.U))).tocsr()
    # no one-body diagonal, so every entry is bit-identical for every N
    assert one_body.diagonal().tolist() == [0] * M
    assert_same_csr(H, ref, terms=1)


# ------------------------------------------------------ first-quantized form

@pytest.mark.parametrize("M,N", [(5, 1), (6, 2)])
def test_expansion_matches_small_n_code(M, N):
    basis = build_fock_basis(M, N)
    v = random_state(basis, 3)
    np.testing.assert_allclose(reference_first_quantized(v, M, N),
                               small_n_first_quantized(v, M, N),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("M,N", [(5, 1), (6, 2), (6, 3), (4, 4)])
def test_expansion_round_trip(M, N):
    basis = build_fock_basis(M, N)
    v = random_state(basis, N)
    psi = reference_first_quantized(v, M, N)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    t = psi.reshape((M,) * N)
    for perm in permutations(range(N)):
        np.testing.assert_array_equal(t.transpose(perm), t)
    np.testing.assert_allclose(product_to_symmetric_fock(psi, basis), v,
                               rtol=0, atol=1e-14)


def permuted(v, basis, perm):
    w = np.empty_like(v)
    w[basis.permute(perm)] = v
    return w


def permutation_unitary(perm):
    P = np.zeros((len(perm), len(perm)))
    P[perm, np.arange(len(perm))] = 1.0  # mode m -> perm[m]
    return P


def test_permutation_unitary_reranks_modes():
    M = 7
    basis = build_fock_basis(M, 3)
    perm = np.random.default_rng(4).permutation(M)
    v = random_state(basis, 5)
    expect = np.empty_like(v)
    expect[basis.index(np.sort(perm[basis.modes], axis=1))] = v
    np.testing.assert_allclose(
        apply_one_body_unitary(permutation_unitary(perm), v, basis), expect,
        rtol=0, atol=1e-14)
    np.testing.assert_array_equal(permuted(v, basis, perm), expect)


@settings(max_examples=60, deadline=None)
@given(perm=st.integers(1, 7).flatmap(lambda M: st.permutations(range(M))),
       N=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_permute_matches_product_space_unitary(perm, N, seed):
    perm = np.array(perm)
    basis = build_fock_basis(len(perm), N)
    v = random_state(basis, seed)
    w = permuted(v, basis, perm)
    np.testing.assert_allclose(
        w, apply_one_body_unitary(permutation_unitary(perm), v, basis),
        rtol=0, atol=1e-14)
    assert sorted(basis.permute(perm).tolist()) == list(range(basis.size))


def test_three_boson_product_state_has_unit_purity():
    # one boson per site 0, 1, 2, each in c = (a - b)/sqrt(2)
    ns = 4
    basis = build_fock_basis(2 * ns, 3)
    amps = np.zeros(basis.size, dtype=complex)
    for labels in np.ndindex(2, 2, 2):
        modes = np.sort(np.array(labels) * ns + np.arange(3))
        amps[basis.index(modes)] = np.prod([(1, -1)[s] for s in labels]) / 8 ** 0.5
    F = motional_density_matrix(amps, basis)
    assert F.shape == (math.comb(ns + 2, 3), 8)
    assert np.linalg.norm(F) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert purity(F) == pytest.approx(1.0, abs=1e-12)
    assert c_mode_number(amps, basis) == pytest.approx(3.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(ns=st.integers(1, 6), N=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fock_diagnostics_match_product_space(ns, N, seed):
    # a random state and a random orthonormal motional pair (one state when
    # the motional basis has one)
    basis = build_fock_basis(2 * ns, N)
    v = random_state(basis, seed)
    size = build_fock_basis(ns, N).size
    rng = np.random.default_rng(seed)
    pair = np.linalg.qr(rng.normal(size=(size, min(2, size)))
                        + 1j * rng.normal(size=(size, min(2, size))))[0].T
    F = motional_density_matrix(v, basis)
    C = reference_factor(v, 2 * ns, N)
    assert F.shape == (size, 2 ** N)
    assert abs(np.linalg.norm(F) - 1.0) <= 1e-12
    assert abs(purity(F) - reference_purity(C)) <= 1e-12
    assert abs(subspace_overlap(F, pair)
               - reference_subspace_overlap(C, pair, ns, N)) <= 1e-12


# ------------------------------------------------------------------ Laughlin

def test_theta_arrays_match_scalar_loop():
    tau = 0.5 + 1.3j
    z = np.random.default_rng(6).normal(size=(4, 3)) * (1 + 2j)
    got = theta_with_characteristics(z, tau, 0.5, 0.5)
    assert got.shape == z.shape
    for zi, gi in zip(z.ravel(), got.ravel()):
        ref = reference_theta(complex(zi), tau, 0.5, 0.5)
        assert abs(gi - ref) < 1e-13 * max(abs(ref), 1.0)
    assert isinstance(theta1(0.3 + 0.1j, tau), complex)


@settings(max_examples=100, deadline=None)
@given(re_tau=st.floats(-1.0, 1.0), im_tau=st.floats(0.2, 4.0),
       a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_theta_matches_the_windowed_array_sum(re_tau, im_tau, a, b, seed):
    # the program sums each window one term at a time, in O(len z) memory
    tau = complex(re_tau, im_tau)
    z = np.random.default_rng(seed).uniform(-10.0, 10.0, (2, 50, 2)) @ [1, 1j]
    got = theta_with_characteristics(z, tau, a, b)
    ref, peak = reference_windowed_theta(z, tau, a, b)
    assert got.shape == z.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * peak)


@pytest.mark.parametrize("Lx,Ly,alpha,N", [(4, 4, Fraction(1, 4), 2),
                                            (6, 4, Fraction(1, 4), 3)])
def test_laughlin_matches_loop(Lx, Ly, alpha, N):
    geom = torus(Lx, Ly)
    states = laughlin_lattice_states(N, alpha, geom)
    ref = np.conj(reference_laughlin_amplitudes(N, alpha, geom, 0.0))
    ref /= np.linalg.norm(ref)
    np.testing.assert_allclose(states[0], ref, rtol=0, atol=1e-12)
    ref1 = np.conj(reference_laughlin_amplitudes(N, alpha, geom, 0.5))
    ref1 /= np.linalg.norm(ref1)
    ref1 -= np.vdot(ref, ref1) * ref
    np.testing.assert_allclose(states[1], ref1 / np.linalg.norm(ref1),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------- eigensolver

def test_residual_error_reports_the_applied_tolerance(monkeypatch):
    # scale = 0.1 < 1: the check applies 1e-9 * 1, not 1e-9 * 0.1; dim is
    # above the dense branch, so the patched `_lanczos` runs
    dim = 200
    diag = np.linspace(-0.1, 0.1, dim)
    H = sp.diags(diag).tocsr()

    def bad_lanczos(A, k, v0):
        vecs = np.eye(dim)[:, :k]
        return np.full(k, 0.05), vecs  # wrong eigenvalues for these vectors

    monkeypatch.setattr(manybody, "_lanczos", bad_lanczos)
    with pytest.raises(RuntimeError, match=r"tolerance 1\.00e-09$"):
        lowest_eigenstates(H, 1)

    # exact pairs except the third, whose eigenvalue is off by less than
    # the level spacing: a bad last column alone must raise
    def last_bad_lanczos(A, k, v0):
        vals = diag[:k].copy()
        vals[2] += 1e-6
        return vals, np.eye(dim)[:, :k]

    monkeypatch.setattr(manybody, "_lanczos", last_bad_lanczos)
    E, _ = lowest_eigenstates(H, 2)
    np.testing.assert_array_equal(E, diag[:2])
    with pytest.raises(RuntimeError, match=r"residual 1\.00e-06 "):
        lowest_eigenstates(H, 3)


def krylov_problem(dim, count, real, plant, seed):
    """(H, count): a random sparse Hermitian H of dimension `dim`, real or
    complex; where `plant` is True, H is the direct sum of a random A with
    itself, so every level is an exact doublet."""
    rng = np.random.default_rng(seed)
    n = dim // 2 if plant else dim
    A = sp.random(n, n, density=0.05, random_state=rng)
    if not real:
        A = A + 1j * sp.random(n, n, density=0.05, random_state=rng)
    A = A + A.conj().T + sp.diags(rng.normal(size=n))
    return sp.block_diag([A, A] if plant else [A], format="csr"), count


@st.composite
def krylov_problems(draw):
    """A `krylov_problem` of dimension 130-400, even when planted, so above
    the dense branch (dim <= 128 for count 1-6)."""
    return krylov_problem(draw(st.integers(130, 400)), draw(st.integers(1, 6)),
                          draw(st.booleans()), draw(st.booleans()),
                          draw(st.integers(0, 2 ** 32 - 1)))


def assert_lowest_levels(E, w, atol):
    """E, ascending, are the lowest levels of the dense spectrum w, but for
    copies of a degenerate level that a Krylov solve may miss: a partner
    of an exact doublet enters the Krylov space by rounding alone.  Each
    value of E is a level of w, none comes back more often than w holds
    it, and every level below E's top comes back.  Where the levels of w
    up to E's top are apart by more than atol, E is w[:E.size]."""
    cluster = np.concatenate([[0], np.cumsum(np.diff(w) > atol)])
    at = np.minimum(np.searchsorted(w, E - atol), w.size - 1)
    np.testing.assert_allclose(E, w[at], rtol=0, atol=atol)
    assert np.all(np.diff(E) >= -atol)
    found = np.bincount(cluster[at], minlength=cluster.size)
    assert np.all(found <= np.bincount(cluster, minlength=cluster.size))
    assert found[:cluster[at].max()].all()


class Counting:
    """H seen only through H @ v, which it counts."""

    def __init__(self, H):
        self.H, self.matvecs = H, 0

    def __matmul__(self, v):
        self.matvecs += 1
        return self.H @ v


def lanczos_start(H, count):
    """(k, v0) as `lowest_eigenstates` hands them to `_lanczos`."""
    dim = H.shape[0]
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return min(count + 4, dim - 2), v0 if np.iscomplexobj(H) else v0.real


@settings(max_examples=40, deadline=None)
@given(problem=krylov_problems())
def test_lanczos_matches_arpack_and_the_dense_solve(problem):
    H, count = problem
    dim = H.shape[0]
    E, V = lowest_eigenstates(H, count)
    assert E.shape == (count,) and V.shape == (dim, count)
    scale = max(np.abs(H.toarray()).sum(axis=1).max(), 1.0)
    # ARPACK with the rules `lowest_eigenstates` used before `_lanczos`
    k, v0 = lanczos_start(H, count)
    arpack = spla.eigsh(H, k=k, which="SA", tol=1e-10, v0=v0)[0]
    w = np.linalg.eigvalsh(H.toarray())
    for levels in (E, np.sort(arpack)[:count]):
        assert_lowest_levels(levels, w, 1e-9 * scale)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(count), rtol=0,
                               atol=1e-12)


def reference_lanczos(H, k, v0):
    """`_lanczos` as it was before the three-term recurrence: every step
    orthogonalizes the raw product H q_j against the whole basis, by
    classical Gram-Schmidt and one DGKS refinement if the norm falls below
    0.717 of its value."""
    def orthogonalize(Q, w):
        before = np.linalg.norm(w)
        h = (Q @ w.conj()).conj()
        w = w - h @ Q
        beta = np.linalg.norm(w)
        if beta < 0.717 * before:
            g = (Q @ w.conj()).conj()
            w -= g @ Q
            h += g
            beta = np.linalg.norm(w)
            if beta <= len(Q) * np.finfo(float).eps * before:
                beta = 0.0
        return h, w, beta

    dim = v0.size
    ncv = min(dim - 1, max(2 * k + 1, 20))
    fresh = np.random.default_rng(1)
    Q = np.zeros((ncv + 1, dim), dtype=v0.dtype)
    T = np.zeros((ncv, ncv), dtype=v0.dtype)
    Q[0] = v0 / np.linalg.norm(v0)
    p = 0
    while True:
        for j in range(p, ncv):
            h, w, beta = orthogonalize(Q[:j + 1], H @ Q[j])
            T[j, :j + 1] = h.conj()
            if beta:
                Q[j + 1] = w / beta
            else:
                _, w, norm = orthogonalize(Q[:j + 1],
                                           fresh.standard_normal(dim))
                Q[j + 1] = w / norm
        theta, Y = np.linalg.eigh(T)
        resid = np.abs(beta * Y[-1, :k])
        nconv = np.count_nonzero(resid <= 1e-10 * np.maximum(
            np.abs(theta[:k]), np.finfo(float).eps ** (2 / 3)))
        if nconv == k:
            return theta[:k], Q[:ncv].T @ Y[:, :k]
        p = k + min(nconv, (ncv - k) // 2)
        Q[:p] = Y[:, :p].T @ Q[:ncv]
        Q[p] = Q[ncv]
        T[:] = 0.0
        T[range(p), range(p)] = theta[:p]
        T[p, :p] = beta * Y[-1, :p]


@settings(max_examples=40, deadline=None)
@given(problem=krylov_problems())
# the reference misses the partner of the lowest doublet: it returns
# -3.134855 and -3.076402, the dense solve -3.134855 twice
@example(problem=krylov_problem(130, 2, real=True, plant=True, seed=75))
def test_recurrence_first_step_matches_the_full_reorthogonalization(problem):
    H, count = problem
    k, v0 = lanczos_start(H, count)
    ncv = min(H.shape[0] - 1, max(2 * k + 1, 20))
    fast, slow = Counting(H), Counting(H)
    E = manybody._lanczos(fast, k, v0)[0]
    ref = reference_lanczos(slow, k, v0)[0]
    scale = max(np.abs(H.toarray()).sum(axis=1).max(), 1.0)
    w = np.linalg.eigvalsh(H.toarray())
    for levels in (E, ref):
        assert_lowest_levels(levels[:count], w, 1e-9 * scale)
    # either solver may miss the partner of an exact doublet, so only
    # without one do the two return the same k levels, and the matvec
    # count moves either way
    if np.diff(w[:k + 1]).min() > 1e-9 * scale:
        np.testing.assert_allclose(E, ref, rtol=0, atol=1e-9 * scale)
        assert abs(fast.matvecs - slow.matvecs) <= ncv - k


@pytest.mark.parametrize("real", [True, False])
def test_dgks_refinement_runs_only_on_rounding(monkeypatch, real):
    # the raw product H q_j loses most of its norm to one Gram-Schmidt
    # pass, which made the refinement run in most steps; after the
    # three-term recurrence, one pass leaves nearly all of it
    rng = np.random.default_rng(7)
    A = sp.random(400, 400, density=0.05, random_state=rng)
    if not real:
        A = A + 1j * sp.random(400, 400, density=0.05, random_state=rng)
    H = (A + A.conj().T + sp.diags(rng.normal(size=400))).tocsr()
    steps = refined = 0

    def recording(Q, w, scale):
        nonlocal steps, refined
        one_pass = w - ((Q @ w.conj()).conj()) @ Q
        steps += 1
        refined += np.linalg.norm(one_pass) < 0.717 * np.linalg.norm(w)
        return orthogonalize(Q, w, scale)

    orthogonalize = manybody._orthogonalize
    monkeypatch.setattr(manybody, "_orthogonalize", recording)
    E, _ = lowest_eigenstates(H, 3)
    np.testing.assert_allclose(E, np.linalg.eigvalsh(H.toarray())[:3],
                               rtol=0, atol=1e-9 * max(abs(H).sum(1).max(), 1))
    assert steps > 40 and refined < 0.05 * steps


def test_invariant_krylov_space_continues_from_a_fresh_vector(monkeypatch):
    # three distinct levels, 50 copies each (above the dense branch): the
    # Krylov space of any start vector closes after three steps (beta = 0)
    H = sp.diags(np.repeat([1.0, 2.0, 3.0], 50)).tocsr()
    betas = []

    def recording(Q, w, scale):
        h, beta = orthogonalize(Q, w, scale)
        betas.append(beta)
        return h, beta

    orthogonalize = manybody._orthogonalize
    monkeypatch.setattr(manybody, "_orthogonalize", recording)
    E, V = lowest_eigenstates(H, 3)
    assert betas[2] == 0.0
    np.testing.assert_allclose(E, np.linalg.eigvalsh(H.toarray())[:3],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(V.T @ V, np.eye(3), rtol=0, atol=1e-12)


def test_lanczos_gives_up_after_its_matvec_cap(monkeypatch):
    rng = np.random.default_rng(0)
    A = sp.random(200, 200, density=0.05, random_state=rng)
    monkeypatch.setattr(manybody, "LANCZOS_MATVECS", 25)
    with pytest.raises(RuntimeError,
                       match=r"^Lanczos converged \d+ of the 7 lowest "
                             r"eigenpairs in \d+ products H @ v$"):
        lowest_eigenstates((A + A.T).tocsr(), 3)
