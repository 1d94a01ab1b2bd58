"""Bosonic Fock space, the interacting bilayer Hamiltonian, low-lying
eigenstates (on the torus one magnetic-translation sector at a time), and
the internal-state diagnostics (motional density matrix, purity, dark-mode
number)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import (LatticeGeometry, LinkField, magnetic_translation_x,
                      magnetic_translation_y)
from .singleparticle import ModelParams, build_bilayer_hamiltonian

DIM_CAP = 20_000_000
DENSE_BYTES = 2 ** 30  # largest dense complex matrix an eigensolve builds


def _pack(modes: np.ndarray, M: int) -> np.ndarray:
    """Base-M number sum_i modes[..., i] M^(N-1-i) of each mode list: the
    flat index into the M^N product space, increasing with the
    lexicographic order of the lists."""
    modes = np.asarray(modes)
    key = np.zeros(modes.shape[:-1], dtype=np.int64)
    for p in range(modes.shape[-1]):
        key = key * M + modes[..., p]
    return key


def _ragged_arange(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start[i], start[i] + count[i]) over i."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - start,
                                              count)


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Ordered N-boson occupation basis over M modes.

    Row i of `modes` lists the modes occupied by state i, in nondecreasing
    order and repeated by occupation.  Rows are in lexicographic order,
    i.e. (0, ..., 0), all bosons in mode 0, comes first.
    """

    M: int
    N: int
    modes: np.ndarray  # (size, N) integers

    def __post_init__(self):
        object.__setattr__(self, "_keys", _pack(self.modes, self.M))

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    def index(self, modes) -> np.ndarray:
        """Positions of the states listed by the rows of `modes` (each row
        nondecreasing, as in `self.modes`)."""
        modes = np.asarray(modes)
        key = _pack(modes, self.M)
        pos = np.searchsorted(self._keys, key)
        found = self._keys[np.minimum(pos, self.size - 1)] == key
        if not (np.all(found) and np.all((modes >= 0) & (modes < self.M))):
            raise ValueError("mode list is not a sorted state of this basis")
        return pos

    def permute(self, perm) -> np.ndarray:
        """Position of each state after the mode relabelling m -> perm[m]:
        state i goes to position permute(perm)[i], so a vector v becomes
        w with w[permute(perm)] = v."""
        return self.index(np.sort(np.asarray(perm)[self.modes], axis=1))

    def arrangements(self) -> np.ndarray:
        """N! / prod_m n_m! per state: the number of distinct orderings of
        its mode list."""
        # the k-th repeat of a mode contributes the factor k to prod n_m!
        fact = np.ones(self.size)
        for p in range(1, self.N):
            fact *= 1 + np.sum(self.modes[:, :p] == self.modes[:, p:p + 1], axis=1)
        return math.factorial(self.N) / fact


def build_fock_basis(M: int, N: int) -> FockBasis:
    if M < 1 or N < 0:
        raise ValueError("need M >= 1 and N >= 0")
    size = math.comb(M + N - 1, N)
    if size > DIM_CAP:
        raise ValueError(f"basis size {size} exceeds cap {DIM_CAP}")
    if M ** N > np.iinfo(np.int64).max:
        raise ValueError(f"{M}^{N} product states overflow the 64-bit state keys")
    # prepend a leading mode m to every (shorter) row whose first mode is >= m
    modes = np.zeros((1, 0), dtype=np.int32)
    for _ in range(N):
        start = (np.searchsorted(modes[:, 0], np.arange(M)) if modes.shape[1]
                 else np.zeros(M, dtype=np.int64))
        count = len(modes) - start
        modes = np.column_stack([np.repeat(np.arange(M, dtype=np.int32), count),
                                 modes[_ragged_arange(start, count)]])
    modes.flags.writeable = False
    return FockBasis(M=M, N=N, modes=modes)


def second_quantize(one_body: sp.spmatrix, basis: FockBasis) -> sp.csr_matrix:
    """Lift a one-body mode matrix to the N-boson Fock space.

    Matrix elements pick up the bosonic factors sqrt(n_src (n_dst + 1)).
    """
    ob = sp.csc_matrix(one_body)
    if ob.shape != (basis.M, basis.M):
        raise ValueError("one-body matrix dimension does not match mode count")
    modes, N = basis.modes, basis.N
    col_of = np.repeat(np.arange(basis.M), np.diff(ob.indptr))
    on_diag = ob.indices == col_of
    t_diag = np.zeros(basis.M, dtype=ob.dtype)
    t_diag[col_of[on_diag]] = ob.data[on_diag]
    has_diag = np.zeros(basis.M, dtype=bool)
    has_diag[col_of[on_diag]] = True
    # off-diagonal entries of the one-body matrix, grouped by column
    off_ptr = np.concatenate([[0], np.cumsum(np.bincount(col_of[~on_diag],
                                                         minlength=basis.M))])
    off_row = ob.indices[~on_diag].astype(np.int32)
    off_val = ob.data[~on_diag]

    diag = np.zeros(basis.size, dtype=complex)
    rows_out, cols_out, vals_out = [], [], []
    for p in range(N):
        m = modes[:, p]
        diag += t_diag[m]
        # hop each occupied mode once: from the first slot of its run
        first = (m != modes[:, p - 1]) if p else np.ones(basis.size, dtype=bool)
        n_m = np.sum(modes == m[:, None], axis=1)
        src = np.flatnonzero(first).astype(np.int32)
        cnt = np.diff(off_ptr)[m[src]]
        k = _ragged_arange(off_ptr[m[src]], cnt)
        src = np.repeat(src, cnt)
        r = off_row[k]
        new = modes[src]
        n_r = np.sum(new == r[:, None], axis=1)
        amp = off_val[k] * np.sqrt(n_m[src] * (n_r + 1.0))
        new[:, p] = r
        new.sort(axis=1)
        rows_out.append(basis.index(new))
        cols_out.append(src)
        vals_out.append(amp)
    occupied_diag = np.flatnonzero(has_diag[modes].any(axis=1))
    rows_out.append(occupied_diag)
    cols_out.append(occupied_diag)
    vals_out.append(diag[occupied_diag])
    H = sp.coo_matrix((np.concatenate(vals_out),
                       (np.concatenate(rows_out), np.concatenate(cols_out))),
                      shape=(basis.size, basis.size), dtype=complex)
    return H.tocsr()


def build_manybody_hamiltonian(
    geom: LatticeGeometry, links: LinkField, params: ModelParams,
    basis: FockBasis,
) -> sp.csr_matrix:
    """Interacting bilayer Hamiltonian: hopping + Raman coupling plus the
    on-site interaction U [n_a(n_a-1) + n_b(n_b-1) + n_a n_b]."""
    ns = geom.n_sites
    if basis.M != 2 * ns:
        raise ValueError("basis mode count must equal 2*Lx*Ly")
    H_sp = build_bilayer_hamiltonian(geom, links, params)
    H = second_quantize(H_sp, basis)
    if params.U != 0.0:
        # sum_m n_m(n_m-1) = 2 #{p<q: m_p = m_q}; sum_x n_a n_b = #{m_q = m_p + ns}
        modes = basis.modes
        val = np.zeros(basis.size)  # float, so an integer U gives a float diagonal
        for p in range(basis.N):
            for q in range(p + 1, basis.N):
                val += 2 * (modes[:, q] == modes[:, p])
                val += modes[:, q] == modes[:, p] + ns
        H = H + sp.diags(params.U * val)
    return H.tocsr()


def _check_dense(rows: int, cols: int, what: str):
    """Fail before allocating a rows x cols complex array above DENSE_BYTES."""
    size = 16 * rows * cols
    if size > DENSE_BYTES:
        raise ValueError(f"{what}: {size / 2 ** 30:.1f} GiB, above the "
                         f"{DENSE_BYTES / 2 ** 30:g} GiB limit (lower the count)")


def _check_residual(H: sp.csr_matrix, E: np.ndarray, V: np.ndarray):
    tol = 1e-9 * max(spla.norm(H, ord=np.inf), 1.0)
    resid = np.max(np.linalg.norm(H @ V - V * E, axis=0))
    if resid > tol:
        raise RuntimeError(
            f"eigensolver residual {resid:.2e} exceeds tolerance {tol:.2e}")


def lowest_eigenstates(H: sp.csr_matrix,
                       count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest eigenpairs (E, V) of a sparse Hermitian matrix:
    E ascending, V of shape (dim, count) with orthonormal columns, each pair
    with residual at most 1e-9 * max(||H||_inf, 1).

    Small problems (dim <= max(4 * count, 64)) are diagonalized densely,
    up to DENSE_BYTES of matrix; the rest go to ARPACK through `eigsh`,
    which runs Lanczos on a real H and Arnoldi (`znaupd`) on a complex one.
    A Krylov solve finds the members of an exactly degenerate multiplet only
    by rounding and may miss some; `sector_eigenstates` puts the partners
    that the magnetic translations enforce into different blocks.
    Degenerate subspaces come back as some orthonormal basis; downstream
    diagnostics must not depend on the choice.
    """
    dim = H.shape[0]
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= {dim} (the basis size)")
    if dim <= max(4 * count, 64):
        _check_dense(dim, dim, f"dense eigensolve of dimension {dim}")
        evals, evecs = np.linalg.eigh(H.toarray())
    else:
        k = min(count + 4, dim - 2)
        # a fixed start vector makes identical runs give identical results
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        evals, evecs = spla.eigsh(H, k=k, which="SA", tol=1e-10,
                                  v0=v0 if np.iscomplexobj(H) else v0.real)
    order = np.argsort(evals)[:count]
    E, V = evals[order], evecs[:, order]
    _check_residual(H, E, V)
    # Arnoldi returns the members of a degenerate multiplet normalized but
    # not orthogonal (overlap 4e-3 on the 8x8 ground doublet)
    return E, np.linalg.qr(V)[0]


def _fock_map(basis: FockBasis, perm: np.ndarray, phase: np.ndarray):
    """A site map with a phase per site, applied to both species, as
    (image, factor): basis state i goes to factor[i] times state image[i]."""
    ns = len(perm)
    return (basis.permute(np.concatenate([perm, perm + ns])),
            np.exp(1j * np.concatenate([phase, phase])[basis.modes].sum(axis=1)))


def sector_eigenstates(
    H: sp.csr_matrix, basis: FockBasis, geom: LatticeGeometry,
    alpha: Fraction, count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `count` lowest eigenpairs of a torus Hamiltonian H on `basis`,
    solved one magnetic-translation sector at a time, as (E, V, sectors).

    T_x, the many-body x translation by the smallest step s with
    s*alpha*Ly integer, has order = Lx / gcd(Lx, s).  T_y, the y
    translation by the smallest step b with b*alpha*Lx integer, obeys
    T_y T_x = exp(2 pi i N alpha s b) T_x T_y: it maps the T_x eigenvalue
    exp(2 pi i kx / order) onto kx + shift, shift = -order*N*alpha*s*b mod
    order, with the same spectrum.  Its power Y = T_y^m, m = order /
    gcd(shift, order), commutes with T_x and has order order_y, so a sector
    (kx, ky) holds the vectors with T_x v = exp(2 pi i kx / order) v and
    Y v = exp(2 pi i ky / order_y) v.  One sector per orbit of kx -> kx +
    shift is diagonalized for every ky; the others are its T_y images.

    E is ascending, ties in (kx, ky) order; V is (dim, count) with
    orthonormal columns, at most DENSE_BYTES; sectors[i] = (kx, ky) of
    column i.  Each pair has residual at most 1e-9 * max(||H||_inf, 1) in
    the full space.
    """
    dim = basis.size
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= {dim} (the basis size)")
    _check_dense(dim, count, f"{count} eigenvectors of dimension {dim}")
    alpha = Fraction(alpha)
    s, b = (alpha * geom.Ly).denominator, (alpha * geom.Lx).denominator
    order = geom.Lx // math.gcd(geom.Lx, s)
    shift = int(-order * basis.N * alpha * s * b % order)
    n_orbits = math.gcd(shift, order)  # T_y orbits of kx
    m = order // n_orbits
    order_y = geom.Ly // math.gcd(geom.Ly, b * m)

    tx, _ = _fock_map(basis, magnetic_translation_x(geom, alpha, s),
                      np.zeros(geom.n_sites))
    ty, ty_phase = _fock_map(basis, *magnetic_translation_y(geom, alpha, b))
    y, y_phase = _fock_map(basis, *magnetic_translation_y(geom, alpha, b * m))

    def walk(start):
        # T_x^a Y^c on the states `start`, for every (a, c): (a, c, image, phase)
        img_c, ph_c = start, np.ones(start.size, dtype=complex)
        for c in range(order_y):
            img = img_c
            for a in range(order):
                yield a, c, img, ph_c
                img = tx[img]
            ph_c, img_c = ph_c * y_phase[img_c], y[img_c]

    # orbits: rep[i] is the smallest index of state i's orbit; from each
    # representative, state i is reached first by T_x^a Y^c with phase ph
    idx = np.arange(dim)
    rep = idx
    for *_, img, _ in walk(idx):
        rep = np.minimum(rep, img)
    reps = np.flatnonzero(rep == idx)
    labels = [(kx, ky) for kx in range(n_orbits) for ky in range(order_y)]
    a_of, c_of = np.zeros(dim, dtype=np.int64), np.zeros(dim, dtype=np.int64)
    ph_of, seen = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=bool)
    n_fixed = np.zeros(reps.size)
    # a sector exists on an orbit iff its character matches the phase of
    # every group element that fixes the representative
    ok = np.ones((len(labels), reps.size), dtype=bool)
    for a, c, img, ph in walk(reps):
        new = ~seen[img]
        seen[img[new]] = True
        a_of[img[new]], c_of[img[new]], ph_of[img[new]] = a, c, ph[new]
        fixed = img == reps
        n_fixed += fixed
        for n, (kx, ky) in enumerate(labels):
            chi = np.exp(2j * np.pi * (kx * a / order + ky * c / order_y))
            ok[n] &= ~fixed | (np.abs(ph - chi) < 1e-8)
    length = order * order_y / n_fixed  # orbit sizes
    orbit = np.searchsorted(reps, rep)

    # P maps orbit r to the sector vector conj(chi(g)) g|r> / sqrt(L), and
    # since H commutes with the group, P^dag H P = diag(sqrt L) H[reps] P
    blocks, E_all, label_all, src = [], [], [], []
    for n, (kx, ky) in enumerate(labels):
        column = np.cumsum(ok[n]) - 1
        rows = np.flatnonzero(ok[n][orbit])
        chi = np.exp(2j * np.pi * (kx * a_of[rows] / order
                                   + ky * c_of[rows] / order_y))
        P = sp.csr_matrix(
            (ph_of[rows] / chi / np.sqrt(length[orbit[rows]]),
             (rows, column[orbit[rows]])), shape=(dim, int(ok[n].sum())))
        E, W = np.zeros(0), np.zeros((P.shape[1], 0))
        if P.shape[1]:
            kept = np.flatnonzero(ok[n])
            H_b = (sp.diags(np.sqrt(length[kept])) @ H[reps[kept]] @ P).tocsr()
            E, W = lowest_eigenstates(H_b, min(count, P.shape[1]))
        blocks.append((P, W))
        for j in range(m):
            E_all.append(E)
            label_all.append(np.tile([(kx + j * shift) % order, ky], (E.size, 1)))
            src.append(np.stack([np.full(E.size, n), np.full(E.size, j),
                                 np.arange(E.size)], axis=1))
    E_all, label_all = np.concatenate(E_all), np.concatenate(label_all)
    pick = np.lexsort((label_all[:, 1], label_all[:, 0], E_all))[:count]
    src = np.concatenate(src)[pick]

    # lift only the chosen vectors: P W, then T_y^j
    V = np.empty((dim, count), dtype=complex)
    for n, (P, W) in enumerate(blocks):
        mine = np.flatnonzero(src[:, 0] == n)
        need, col = np.unique(src[mine, 2], return_inverse=True)
        X = P @ W[:, need]
        for j in range(m):
            here = src[mine, 1] == j
            V[:, mine[here]] = X[:, col[here]]
            X[ty] = ty_phase[:, None] * X
    E = E_all[pick]
    _check_residual(H, E, V)
    return E, V, label_all[pick]


def _first_quantized(amplitudes: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Expand a Fock vector into the symmetric first-quantized wavefunction,
    a tensor with one axis of length M per particle.

    Every ordering of a state's mode list carries its amplitude times
    sqrt(prod n_m! / N!); an ordering reached by several permutations (a
    repeated mode) is written several times with the same value.
    """
    psi = np.zeros((basis.M,) * basis.N, dtype=complex)
    vals = np.asarray(amplitudes) / np.sqrt(basis.arrangements())
    for perm in permutations(range(basis.N)):
        psi.flat[_pack(basis.modes[:, list(perm)], basis.M)] = vals
    return psi


def motional_density_matrix(v: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Partial trace over the internal (a/b) labels of the Fock vector v, as
    its factor.

    The state is expanded in the first-quantized symmetric basis
    |motional positions> (x) |internal labels> and the labels are traced,
    leaving a trace-one matrix over the N-fold motional product space.  It
    is returned as the (n_sites^N, 2^N) array C with rho = C C^dag.
    """
    if basis.M % 2 != 0:
        raise ValueError("mode count must be even (two internal states)")
    ns = basis.M // 2
    N = basis.N
    # mode mu = s*ns + x: split each particle axis into (s, x), then move
    # the positions to the rows and the internal labels to the columns
    psi = _first_quantized(v, basis).reshape((2, ns) * N)
    axes = [2 * k + 1 for k in range(N)] + [2 * k for k in range(N)]
    return psi.transpose(axes).reshape(ns ** N, 2 ** N)


def purity(C: np.ndarray) -> float:
    """Tr(rho^2) of rho = C C^dag."""
    G = C.conj().T @ C  # small (2^N x 2^N) Gram matrix
    return float(np.real(np.sum(np.abs(G) ** 2)))  # Tr(G^2) for Hermitian G


def c_mode_number(v: np.ndarray, basis: FockBasis) -> float:
    """Expectation in the Fock vector v of the total dark-mode number
    sum_site c^dag c with c = (a - b)/sqrt(2), in the gauge-transformed
    frame."""
    ns = basis.M // 2
    # one-body operator: 1/2 (n_a + n_b - a^dag b - b^dag a) per site
    a = np.arange(ns)
    b = a + ns
    op = sp.coo_matrix((np.repeat([0.5, 0.5, -0.5, -0.5], ns),
                        (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                       shape=(basis.M, basis.M)).tocsr()
    big = second_quantize(op, basis)
    return float(np.real(np.vdot(v, big @ v)))


def subspace_overlap(C: np.ndarray, states: list[np.ndarray]) -> float:
    """Tr(P rho P) of rho = C C^dag, for the projector onto orthonormal
    symmetric motional states given as first-quantized product-space
    vectors."""
    total = 0.0
    for s in states:
        w = C.conj().T @ s  # length 2^N
        total += float(np.real(np.vdot(w, w)))
    return total


def symmetric_fock_to_product(vec: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Embed an N-boson Fock vector into the first-quantized product space
    (dimension M^N)."""
    return _first_quantized(vec, basis).ravel()
