"""Bosonic Fock space, the interacting bilayer Hamiltonian, low-lying
eigenstates (on the torus one magnetic-translation sector at a time), and
the internal-state diagnostics (motional density matrix, purity, dark-mode
number)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .lattice import (LatticeGeometry, LinkField, magnetic_translation_x,
                      magnetic_translation_y, rotation_with_swap)
from .singleparticle import ModelParams, build_bilayer_hamiltonian

DIM_CAP = 20_000_000
DENSE_BYTES = 2 ** 30  # largest dense complex array any step builds


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
        M, N = self.M, self.N
        object.__setattr__(self, "_above", np.array(  # index's terms
            [[math.comb(M - x + N - 2 - p, N - p) for x in range(M)]
             for p in range(N)], dtype=np.int64))

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    def index(self, modes) -> np.ndarray:
        """Positions of the states whose mode lists are the rows of `modes`,
        each row a multiset of modes in any order: with m the sorted row,
        size - 1 - sum_p C(M - m_p + N - 2 - p, N - p), the p-th term
        counting the states that first exceed m at slot p."""
        modes, T = np.sort(modes, axis=-1), self._above
        if (modes.shape[-1:] != (self.N,) or modes.max(initial=0) >= self.M
                or modes.min(initial=0) < 0):
            raise ValueError("mode list is not a state of this basis")
        pos = np.full(modes.shape[:-1], self.size - 1, dtype=np.int64)
        for p in range(self.N):
            pos -= T[p].take(modes[..., p])
        return pos

    def permute(self, perm) -> np.ndarray:
        """Position of each state after the mode relabelling m -> perm[m]:
        state i goes to position permute(perm)[i], so a vector v becomes
        w with w[permute(perm)] = v."""
        return self.index(np.asarray(perm)[self.modes])

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


# what one chunk of a pass reads: CHUNK stored entries, of the Fock lift
# for `second_quantize` and of H[:, reps] for a block, or 1/64 of the whole
# where that is more, so that small problems keep their temporaries small
# and large ones pay the cost of a chunk 64 times a pass; CHUNK basis
# states for a lift of a block vector
CHUNK = 1 << 13


def second_quantize(one_body: sp.spmatrix, basis: FockBasis,
                    sources=None) -> sp.csc_matrix:
    """Lift a one-body mode matrix to the N-boson Fock space, on the
    columns of the basis states `sources` (an index array; all states by
    default): the (basis.size, len(sources)) matrix H[:, sources].

    Every stored entry t_rm, the diagonal included, is a hop m -> r with
    amplitude t_rm sqrt(n_m n'_r), n'_r the occupation of r after the move
    (t_mm n_m for r = m); duplicate entries add up.

    The CSC is written in place.  One pass over the slots counts the
    stored entries of each source column, and their running sum is indptr;
    data and indices are allocated once and filled a chunk of sources at a
    time (CHUNK stored entries, or 1/64 of them), each entry at its final
    position.  A column holds its entries in slot order, each slot's in the
    stored order of the one-body column, and sum_duplicates adds up the
    duplicates (diagonal hops from several slots, duplicate one-body
    entries) in that order.  So the lift holds the arrays it returns, 20
    bytes per stored entry with int32 indices, and one chunk besides.
    """
    ob = sp.csc_matrix(one_body)
    if ob.shape != (basis.M, basis.M):
        raise ValueError("one-body matrix dimension does not match mode count")
    modes = basis.modes if sources is None else basis.modes[sources]
    n, per_mode = len(modes), np.diff(ob.indptr)

    def first(modes, p):
        # hop each occupied mode once: from the first slot of its run
        return (modes[:, p] != modes[:, p - 1] if p
                else np.ones(len(modes), dtype=bool))

    count = np.zeros(n, dtype=np.int64)
    for p in range(basis.N):
        count += first(modes, p) * per_mode[modes[:, p]]
    nnz = int(count.sum())
    # one index dtype for both, so the CSC takes the arrays uncopied
    idx = np.int32 if max(nnz, basis.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(count, out=indptr[1:])
    del count
    data, indices = np.empty(nnz, dtype=complex), np.empty(nnz, dtype=idx)
    step = max(1, CHUNK * n // max(nnz, 1), n // 64)
    for lo in range(0, n, step):
        chunk = modes[lo:lo + step]
        end = indptr[lo:lo + step].copy()  # where each source writes next
        for p in range(basis.N):
            m = chunk[:, p]
            n_m = np.sum(chunk == m[:, None], axis=1)
            src = np.flatnonzero(first(chunk, p))
            # every stored entry t_rm of column m, the diagonal included
            cnt = per_mode[m[src]]
            k = _ragged_arange(ob.indptr[m[src]], cnt)
            at = _ragged_arange(end[src], cnt)
            end[src] += cnt
            src = np.repeat(src, cnt)
            r, new = ob.indices[k], chunk[src]
            new[:, p] = r
            n_r = np.sum(new == r[:, None], axis=1)  # after the move
            data[at] = ob.data[k] * np.sqrt(n_m[src] * n_r)
            indices[at] = basis.index(new)
    H = sp.csc_matrix((data, indices, indptr), shape=(basis.size, n))
    H.sum_duplicates()
    return H


def build_manybody_hamiltonian(
    geom: LatticeGeometry, links: LinkField, params: ModelParams,
    basis: FockBasis, columns=None,
) -> sp.csc_matrix:
    """Interacting bilayer Hamiltonian: hopping + Raman coupling plus the
    on-site interaction U [n_a(n_a-1) + n_b(n_b-1) + n_a n_b], on the
    columns of the basis states `columns` (an index array; all states by
    default): the (basis.size, len(columns)) matrix H[:, columns], with
    the interaction of state columns[i] at (columns[i], i)."""
    ns = geom.n_sites
    if basis.M != 2 * ns:
        raise ValueError("basis mode count must equal 2*Lx*Ly")
    H_sp = build_bilayer_hamiltonian(geom, links, params)
    columns = np.arange(basis.size) if columns is None else np.asarray(columns)
    H = second_quantize(H_sp, basis, columns)
    if params.U != 0.0:
        # sum_m n_m(n_m-1) = 2 #{p<q: m_p = m_q}; sum_x n_a n_b = #{m_q = m_p + ns}
        modes = basis.modes[columns]
        val = np.zeros(columns.size)  # float, so an integer U gives a float diagonal
        for p in range(basis.N):
            for q in range(p + 1, basis.N):
                val += 2 * (modes[:, q] == modes[:, p])
                val += modes[:, q] == modes[:, p] + ns
        H = H + sp.csc_matrix((params.U * val,
                               (columns, np.arange(columns.size))),
                              shape=H.shape)
    return H


def _check_dense(rows: int, cols: int, what: str, fix="lower the count"):
    """Fail before allocating a rows x cols complex array above DENSE_BYTES."""
    size = 16 * rows * cols
    if size > DENSE_BYTES:
        raise ValueError(f"{what}: {size / 2 ** 30:.1f} GiB, above the "
                         f"{DENSE_BYTES / 2 ** 30:g} GiB limit ({fix})")


def _check_residual(R: np.ndarray, norm: float):
    """Fail unless every column of the residual R = H V - V E has norm at
    most 1e-9 * max(norm, 1), with norm = ||H||_inf."""
    tol = 1e-9 * max(norm, 1.0)
    resid = np.max(np.linalg.norm(R, axis=0))
    if resid > tol:
        raise RuntimeError(
            f"eigensolver residual {resid:.2e} exceeds tolerance {tol:.2e}")


def _inf_norm(H) -> float:
    """||H||_inf of a sparse matrix: its largest absolute row sum."""
    return float(abs(H).sum(axis=1).max())


EPS = np.finfo(float).eps
LANCZOS_MATVECS = 200_000  # products H @ v before `_lanczos` gives up


def _norm(w: np.ndarray) -> float:
    """||w||, without np.linalg.norm's per-call checks (~4 calls a step)."""
    return math.sqrt(np.vdot(w, w).real)


def _orthogonalize(Q: np.ndarray, w: np.ndarray, scale: float):
    """Take from w, in place, its projection on the orthonormal rows of Q,
    by classical Gram-Schmidt with one DGKS refinement if the norm falls
    below 0.717 of its value, and return (h, beta): the coefficients
    conj(Q) w and the norm of the remainder.  beta is 0 when the remainder
    is rounding noise, at most len(Q) eps scale, scale the norm of the
    vector before the caller took any part of it away: then that vector lay
    in the span of Q."""
    before = _norm(w)
    h = (Q @ w.conj()).conj()
    w -= h @ Q
    beta = _norm(w)
    if beta < 0.717 * before:
        g = (Q @ w.conj()).conj()
        w -= g @ Q
        h += g
        beta = _norm(w)
    if beta <= len(Q) * EPS * scale:
        beta = 0.0
    return h, beta


def _lanczos(H, k: int, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs (E, X) of the Hermitian H, E ascending and X
    of shape (dim, k), by Krylov-Schur restarted Lanczos (Stewart, SIAM J.
    Matrix Anal. Appl. 23, 601 (2001)) from v0, with ARPACK's rules: a
    basis of ncv = min(dim - 1, max(2k + 1, 20)) vectors; a Ritz pair
    converged when its residual |beta y_last| <= 1e-10 max(|theta|,
    eps^(2/3)); a restart that keeps the k + min(nconv, (ncv - k) // 2)
    lowest Ritz vectors, nconv the converged pairs of the k.  It reads H
    only through H @ v.
    Each step j past the restart point p takes the three-term recurrence
    alpha_j q_j + beta_(j-1) q_(j-1) from H q_j first, so one Gram-Schmidt
    pass over the basis removes only rounding and the DGKS refinement
    rarely runs; step p, which the restart couples to every kept Ritz
    vector, is orthogonalized in full.  An invariant Krylov space (beta at
    most len(Q) eps ||H q_j||) continues from a fixed-seed random vector
    orthogonal to the basis, as ARPACK's dgetv0 does.  RuntimeError after
    LANCZOS_MATVECS products."""
    dim = v0.size
    ncv = min(dim - 1, max(2 * k + 1, 20))
    fresh = np.random.default_rng(1)  # new directions after a breakdown
    Q = np.zeros((ncv + 1, dim), dtype=v0.dtype)  # the basis, one per row
    T = np.zeros((ncv, ncv), dtype=v0.dtype)  # Q H Q^dag, lower triangle
    Q[0] = v0 / _norm(v0)
    p = matvecs = 0
    while True:
        for j in range(p, ncv):
            w = H @ Q[j]
            scale = _norm(w)
            known = np.zeros(j + 1)  # (beta_(j-1), alpha_j) past p
            if j > p:
                known[j - 1:] = beta, np.vdot(Q[j], w).real
                w -= known[j - 1:] @ Q[j - 1:j + 1]
            h, beta = _orthogonalize(Q[:j + 1], w, scale)
            T[j, :j + 1] = (h + known).conj()
            if beta:
                np.divide(w, beta, out=Q[j + 1])
            else:
                w = fresh.standard_normal(dim).astype(Q.dtype)
                _, norm = _orthogonalize(Q[:j + 1], w, _norm(w))
                np.divide(w, norm, out=Q[j + 1])
        matvecs += ncv - p
        theta, Y = np.linalg.eigh(T)
        resid = np.abs(beta * Y[-1, :k])
        nconv = np.count_nonzero(
            resid <= 1e-10 * np.maximum(np.abs(theta[:k]), EPS ** (2 / 3)))
        if nconv == k:
            return theta[:k], Q[:ncv].T @ Y[:, :k]
        if matvecs >= LANCZOS_MATVECS:
            raise RuntimeError(
                f"Lanczos converged {nconv} of the {k} lowest eigenpairs "
                f"in {matvecs} products H @ v")
        # thick restart: H X = X diag(theta) + q b^T, q the last basis vector
        p = k + min(nconv, (ncv - k) // 2)
        Q[:p] = Y[:, :p].T @ Q[:ncv]
        Q[p] = Q[ncv]
        T[:] = 0.0
        T[range(p), range(p)] = theta[:p]
        T[p, :p] = beta * Y[-1, :p]


def lowest_eigenstates(H: sp.csr_matrix,
                       count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` lowest eigenpairs (E, V) of a sparse Hermitian matrix:
    E ascending, V of shape (dim, count) with orthonormal columns, each pair
    with residual at most 1e-9 * max(||H||_inf, 1).

    Small problems (dim <= max(4 * count, 128)) are diagonalized densely,
    up to DENSE_BYTES of matrix, and return every member of a degenerate
    level; the rest go to `_lanczos` for count + 4 pairs, which runs real
    Lanczos on a real H and complex Lanczos on a complex one.
    `sector_eigenstates` hands over its blocks real wherever the
    antiunitary K M_x maps a sector onto itself.
    A Krylov solve finds the members of an exactly degenerate multiplet only
    by rounding and may miss some; `sector_eigenstates` puts the partners
    that the magnetic translations enforce into different blocks.
    Degenerate subspaces come back as some orthonormal basis; downstream
    diagnostics must not depend on the choice.
    """
    dim = H.shape[0]
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= {dim} (the basis size)")
    if dim <= max(4 * count, 128):
        _check_dense(dim, dim, f"dense eigensolve of dimension {dim}")
        evals, evecs = np.linalg.eigh(H.toarray())
    else:
        k = min(count + 4, dim - 2)
        # a fixed start vector makes identical runs give identical results
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        evals, evecs = _lanczos(H, k, v0 if np.iscomplexobj(H) else v0.real)
    order = np.argsort(evals)[:count]
    E, V = evals[order], evecs[:, order]
    _check_residual(H @ V - V * E, _inf_norm(H))
    # Ritz vectors are orthonormal only to rounding
    return E, np.linalg.qr(V)[0]


def _both_species(perm: np.ndarray, phase: np.ndarray):
    """A site map with a phase per site as the same mode map on both
    species, (perm, phase) over the 2 ns modes."""
    ns = len(perm)
    return np.concatenate([perm, perm + ns]), np.concatenate([phase, phase])


def _fock_map(basis: FockBasis, perm: np.ndarray, phase: np.ndarray):
    """A mode map m -> perm[m] with a phase per mode, as (image, factor):
    basis state i goes to factor[i] times state image[i]."""
    return (basis.permute(perm).astype(np.int32),
            np.exp(1j * np.asarray(phase)[basis.modes].sum(axis=1)))


def _stack(pieces, cols: int, bound: int, dtype) -> sp.csr_matrix:
    """The CSR matrices that the iterable `pieces` yields, of `cols`
    columns each, one below the other, as one CSR that owns its arrays.
    Each piece is copied, as it comes, into arrays of `bound` entries, at
    least the total, which are then shrunk in place: the pieces and the
    whole are never alive at once, and the unwritten pages of the arrays
    are never touched."""
    data = np.empty(bound, dtype=dtype)
    indices = np.empty(bound, dtype=np.int32)
    indptr, nnz = [np.zeros(1, dtype=np.int64)], 0
    for B in pieces:
        data[nnz:nnz + B.nnz], indices[nnz:nnz + B.nnz] = B.data, B.indices
        indptr.append(B.indptr[1:] + nnz)
        nnz += B.nnz
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    indptr = np.concatenate(indptr)
    out = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, cols))
    out.data = data  # the array itself, not the constructor's view of it
    return out


# _Block and _Sectors serve sector_eigenstates alone, and their methods are
# private too: perfbench traces every public function that `cli` reaches
class _Block:
    """A Hermitian sector block B of `size` rows, given by its rows:
    rows(sel) = B[sel] as CSR, for an index array sel; it stores at most
    `entries` entries.  Every pass over B builds it `step` rows at a time,
    so that no pass holds more of B than one chunk of rows."""

    def __init__(self, rows, size: int, step: int, entries: int):
        self.rows, self.size, self.step, self.entries = rows, size, step, entries

    def _chunks(self):
        for lo in range(0, self.size, self.step):
            yield np.arange(lo, min(lo + self.step, self.size))

    def _matrix(self) -> sp.csr_matrix:
        return _stack((self.rows(sel) for sel in self._chunks()), self.size,
                      self.entries, complex)

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """B @ X, one chunk of rows at a time."""
        out = np.empty((self.size, X.shape[1]), dtype=complex)
        for sel in self._chunks():
            out[sel] = self.rows(sel) @ X
        return out


class _Sectors:
    """The orbits of the basis states under T_x and Y = T_y^m, and the
    magnetic-translation sectors (kx, ky) that each orbit carries, as
    `sector_eigenstates` defines them.

    From each representative reps[orbit[i]] the state i is reached first
    by the group element g = T_x^a Y^c, g_of[i] = a * order_y + c, as
    g |rep> = ph_of[i] |i>; length[r] states make up orbit r, and ok[n, r]
    tells whether the sector labels[n] exists on it."""

    def __init__(self, basis: FockBasis, geom: LatticeGeometry,
                 alpha: Fraction):
        dim = basis.size
        s, b = (alpha * geom.Ly).denominator, (alpha * geom.Lx).denominator
        order = geom.Lx // math.gcd(geom.Lx, s)
        shift = int(-order * basis.N * alpha * s * b % order)
        n_orbits = math.gcd(shift, order)  # T_y orbits of kx
        m = order // n_orbits
        order_y = geom.Ly // math.gcd(geom.Ly, b * m)
        self.basis, self.geom, self.alpha = basis, geom, alpha
        self.b, self.order, self.order_y = b, order, order_y
        self.shift, self.n_orbits, self.m = shift, n_orbits, m
        self.labels = [(kx, ky) for kx in range(n_orbits)
                       for ky in range(order_y)]

        x_perm = magnetic_translation_x(geom, alpha, s)
        self.x_modes = np.concatenate([x_perm, x_perm + geom.n_sites])
        tx = basis.permute(self.x_modes).astype(np.int32)
        y, y_phase = _fock_map(basis, *_both_species(
            *magnetic_translation_y(geom, alpha, b * m)))

        def walk(start, ph_c=None):
            # T_x^a Y^c on the states `start`, for every (a, c): (a, c,
            # image, phase), the phase carried only from a given start
            # phase ph_c
            img_c = start
            for c in range(order_y):
                img = img_c
                for a in range(order):
                    yield a, c, img, ph_c
                    img = tx[img]
                if ph_c is not None:
                    ph_c = ph_c * y_phase[img_c]
                img_c = y[img_c]

        # orbits: rep[i] is the smallest index of state i's orbit
        idx = np.arange(dim, dtype=np.int32)
        rep = idx
        for *_, img, _ in walk(idx):
            rep = np.minimum(rep, img)
        reps = np.flatnonzero(rep == idx)
        self.reps = reps
        self.orbit = np.searchsorted(reps, rep).astype(np.int32)
        del idx, rep, img
        self.g_of = np.zeros(dim, dtype=np.int32)
        self.ph_of = np.zeros(dim, dtype=complex)
        seen = np.zeros(dim, dtype=bool)
        # a sector exists on an orbit iff its character matches the phase
        # of every group element that fixes the representative
        self.ok = np.ones((len(self.labels), reps.size), dtype=bool)
        chis = [self._chi(*label) for label in self.labels]
        for a, c, img, ph in walk(reps, np.ones(reps.size, dtype=complex)):
            g, new = a * order_y + c, ~seen[img]
            seen[img[new]] = True
            self.g_of[img[new]], self.ph_of[img[new]] = g, ph[new]
            fixed = img == reps
            for ok, chi in zip(self.ok, chis):
                ok &= ~fixed | (np.abs(ph - chi[g]) < 1e-8)
        del tx, y, y_phase, seen
        self.length = np.bincount(self.orbit)  # orbit sizes
        # the image of each representative under the mirror M of both species
        site = np.arange(geom.n_sites)
        mx = (-(site // geom.Ly) % geom.Lx) * geom.Ly + site % geom.Ly
        mx = np.concatenate([mx, mx + geom.n_sites])
        self.mirror = basis.index(mx[basis.modes[reps]])

    def _chi(self, kx: int, ky: int) -> np.ndarray:
        """The eigenvalue of each group element g = a * order_y + c on the
        sector (kx, ky)."""
        a, c = np.divmod(np.arange(self.order * self.order_y), self.order_y)
        return np.exp(2j * np.pi * (kx * a / self.order + ky * c / self.order_y))

    def _lift(self, n: int, w: np.ndarray, out: np.ndarray, j: int = 0,
              y_map=None):
        """out = T_y^j P w for an orbit-basis vector w of the sector
        labels[n] = (kx, ky), P the isometry from its orbit basis to the
        full space that maps orbit r to sum_g conj(chi(g)) g|rep> / sqrt(L)
        over the L states of the orbit; y_map = (perm, phase) is T_y on the
        modes, needed for j > 0.
        T_y^j maps the orbit of rep, T_y^j |rep> = phi |y>, onto the orbit
        of y and the sector onto (kx + j shift, ky), whose vector there it
        gives times phi conj(ph_of[y]) chi'(g_of[y]), chi' that sector's
        characters.  So state i takes conj(chi'(g_of[i])) ph_of[i] /
        sqrt(L) times that weight at its orbit, or 0 where the sector does
        not exist on it; CHUNK states at a time, so that neither P nor a
        full-basis map of T_y is formed."""
        kx, ky = self.labels[n]
        kept = np.flatnonzero(self.ok[n])
        modes, phi = self.basis.modes[self.reps[kept]], 0.0
        for _ in range(j):
            phi = phi + y_map[1][modes].sum(axis=1)
            modes = y_map[0][modes]
        y = self.basis.index(modes)
        chi = self._chi((kx + j * self.shift) % self.order, ky)
        weight = np.zeros(self.reps.size, dtype=complex)
        weight[self.orbit[y]] = (w * np.exp(1j * phi) * self.ph_of[y].conj()
                                 * chi[self.g_of[y]])
        chi, dim = chi.conj(), self.basis.size
        for lo in range(0, dim, CHUNK):
            i = slice(lo, min(lo + CHUNK, dim))
            o = self.orbit[i]
            amp = self.ph_of[i] * chi[self.g_of[i]]
            amp /= np.sqrt(self.length[o])
            np.multiply(weight[o], amp, out=out[i])

    def _block(self, H_reps: sp.csr_matrix, n: int) -> _Block:
        """The block B = P^dag H P of the sector labels[n], from H_reps =
        H[:, reps]^T, whose row j holds the column of representative j.
        Since H commutes with the group, B = diag(sqrt L) H[reps] P on the
        orbits where the sector exists: row x of B takes each stored entry
        H[i, rep_x] once, as conj(H[i, rep_x]) P[i, orbit i] sqrt(L_x), the
        entries of one orbit summed."""
        ok = self.ok[n]
        kept = np.flatnonzero(ok)
        column = (np.cumsum(ok) - 1).astype(np.int32)
        chi = self._chi(*self.labels[n]).conj()
        root = np.sqrt(self.length)
        start, count = H_reps.indptr[kept], np.diff(H_reps.indptr)[kept]

        def rows(sel):
            cnt = count[sel]
            k = _ragged_arange(start[sel], cnt)
            i = H_reps.indices[k]
            o = self.orbit[i]
            val = H_reps.data[k].conj()
            val *= self.ph_of[i]
            val *= chi[self.g_of[i]]
            val *= np.repeat(root[kept[sel]], cnt) / root[o]
            indptr = np.concatenate([[0], np.cumsum(cnt)])
            keep = ok[o]
            if not keep.all():
                indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
                val, o = val[keep], o[keep]
            B = sp.csr_matrix((val, column[o], indptr),
                              shape=(len(sel), kept.size))
            B.sum_duplicates()
            return B

        per_row = max(1, H_reps.nnz // max(1, H_reps.shape[0]))
        return _Block(rows, kept.size, max(1, CHUNK // per_row,
                                           kept.size // 64), int(count.sum()))

    def _frame(self, n: int):
        """(pi, s) of the antiunitary Theta = K M on the orbit basis of the
        sector labels[n], when it maps that sector onto itself: the orbit of
        representative r goes to the orbit pi(r) of x = M r, with the phase
        s_r = chi(x) / (phase of x from its representative).  None
        otherwise."""
        kept = np.flatnonzero(self.ok[n])
        x = self.mirror[kept]
        if (2 * self.labels[n][1] % self.order_y
                or not self.ok[n][self.orbit[x]].all()):
            return None
        return (np.searchsorted(kept, self.orbit[x]),
                self._chi(*self.labels[n])[self.g_of[x]] / self.ph_of[x])

    def _turn(self, n: int, t: int) -> sp.csr_matrix:
        """Q = P_t^dag S P from the sector labels[n] to labels[t], S the
        quarter turn with the swap on the basis, assembled on the orbits.

        S conjugates the group onto <T_y, T_x^m>, so f(i) = conj((P_t e_c')
        [S i]) (S P e_c)[S i] is constant on the cosets of <T_x^m, Y> in the
        orbit of representative r, and Q[c', c] = (L_r / m) sum_j f(T_x^j
        r) over j < m and the orbit of S T_x^j r: m entries per column,
        read from R applied to T_x^j r."""
        perm, phase = rotation_with_swap(self.geom, self.alpha)
        kept = np.flatnonzero(self.ok[n])
        ok_t = self.ok[t]
        column_t = np.cumsum(ok_t) - 1
        chi_n, chi_t = self._chi(*self.labels[n]), self._chi(*self.labels[t])
        modes = self.basis.modes[self.reps[kept]]
        rows, cols, vals = [], [], []
        for j in range(self.m):
            y = self.basis.index(perm[modes])
            o = self.orbit[y]
            keep = ok_t[o]
            val = (np.sqrt(self.length[kept] / self.length[o]) / self.m
                   * np.exp(1j * phase[modes].sum(axis=1))
                   * self.ph_of[y].conj() * chi_t[self.g_of[y]]
                   * chi_n[j * self.order_y].conj())
            rows.append(column_t[o[keep]])
            cols.append(np.flatnonzero(keep))
            vals.append(val[keep])
            modes = self.x_modes[modes]  # T_x^(j + 1) r
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(int(ok_t.sum()), kept.size))


def _real_frame_eigenstates(block: _Block, pi: np.ndarray, s: np.ndarray,
                            count: int):
    """The `count` lowest eigenpairs (E, W) of a sector block H_b that
    commutes with the antiunitary w -> S conj(w), S[pi[i], i] = s[i],
    solved as the real symmetric matrix H_r = U^dag H_b U with U U^T = S.
    H_r is assembled one chunk of rows at a time, U^dag[chunk] H_b[src] U
    with src the rows that U^dag[chunk] reads: U has at most two entries
    per row and column, so every entry of H_b meets at most two of U on
    each side, and only the real part of each chunk is kept.  No
    block-sized complex matrix exists.
    None if pi is not an involution, S is not symmetric or H_r is not real
    to 1e-12 ||H_r||_inf, the norm of the complex chunks."""
    dim = block.size
    idx = np.arange(dim)
    if not (np.array_equal(pi[pi], idx)
            and np.allclose(s[pi], s, rtol=0, atol=1e-12)):
        return None
    # U[:, f] for a fixed f is sqrt(s_f) e_f; for a pair p < q = pi[p] the
    # columns p and q are sqrt(s_p / 2) (e_p + e_q) and i sqrt(s_p / 2) (e_p - e_q)
    root = np.sqrt(s)
    f, p = np.flatnonzero(pi == idx), np.flatnonzero(pi > idx)
    q, c = pi[p], root[p] / np.sqrt(2)
    val = np.concatenate([root[f], c, c, 1j * c, -1j * c])
    row, col = np.concatenate([f, p, q, p, q]), np.concatenate([f, p, p, q, q])
    U = sp.csr_matrix((val, (row, col)), shape=(dim, dim))
    Uh = U.conj().T.tocsr()
    imag = norm = 0.0

    def real_parts():
        nonlocal imag, norm
        for sel in block._chunks():
            src = np.union1d(sel, pi[sel])
            piece = Uh[sel][:, src] @ (block.rows(src) @ U)
            imag = max(imag, np.abs(piece.data.imag).max(initial=0.0))
            norm = max(norm, _inf_norm(piece))
            yield piece.real

    # a real block that owns its data: csr_matvec reads a contiguous
    # array, and each complex chunk is freed once its real part is copied;
    # an entry of H_b gives at most four of H_r
    H_r = _stack(real_parts(), dim, 4 * block.entries, float)
    del Uh
    # ||U||_inf = ||U^dag||_inf = sqrt(2), so ||H_b||_inf >= ||H_r||_inf / 2
    if imag > 0.5e-12 * norm:
        return None
    E, W_r = lowest_eigenstates(H_r, count)
    return E, U @ W_r


def _turned_eigenvectors(Q: sp.csr_matrix, block: _Block, block_t: _Block,
                         m: int, W: np.ndarray, E: np.ndarray, norm: float):
    """The eigenvectors of the block H_t that the map Q, H_b's orbit basis
    to H_t's, gives from the eigenpairs (E, W) of the block H_b of the same
    size: sqrt(m) Q W, orthonormalized.
    None unless Q^dag Q = 1/m to 1e-12 and Q H_b = H_t Q to 1e-12
    max(||H||_inf, 1): then Q sqrt(m) is unitary and takes the whole
    spectrum of one block onto the other's.  The second check reads one
    chunk of Q's columns at a time, (Q H_b)[:, C] = Q H_b[C]^dag and (H_t
    Q)[:, C] = H_t[R]^dag Q[R, C], R the rows where Q[:, C] is stored:
    both blocks are Hermitian, and only those rows of them are built."""
    D = Q.conj().T @ Q
    D -= sp.identity(Q.shape[1]) / m
    if np.abs(D.data).max(initial=0.0) > 1e-12:
        return None
    Qc = Q.tocsc()
    for sel in block._chunks():
        Q_C = Qc[:, sel]
        R = np.unique(Q_C.indices)
        D = Q @ block.rows(sel).conj().T
        D -= block_t.rows(R).conj().T @ Q_C[R]
        if np.abs(D.data).max(initial=0.0) > 1e-12 * max(norm, 1.0):
            return None
    del D, Qc, Q_C
    W_t = np.linalg.qr(np.sqrt(m) * (Q @ W))[0]
    _check_residual(block_t._apply(W_t) - W_t * E, norm)
    return W_t


def sector_eigenstates(
    columns, basis: FockBasis, geom: LatticeGeometry,
    alpha: Fraction, count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `count` lowest eigenpairs of a torus Hamiltonian H on `basis`,
    solved one magnetic-translation sector at a time, as (E, V, sectors).
    H is given by its columns: columns(idx) = H[:, idx], a sparse matrix
    of shape (basis.size, len(idx)).  It is called once, on the smallest
    state of each translation orbit; the full H is never formed.

    T_x, the many-body x translation by the smallest step s with
    s*alpha*Ly integer, has order = Lx / gcd(Lx, s).  T_y, the y
    translation by the smallest step b with b*alpha*Lx integer, obeys
    T_y T_x = exp(2 pi i N alpha s b) T_x T_y: it maps the T_x eigenvalue
    exp(2 pi i kx / order) onto kx + shift, shift = -order*N*alpha*s*b mod
    order, with the same spectrum.  Its power Y = T_y^m, m = order /
    gcd(shift, order), commutes with T_x and has order order_y, so a sector
    (kx, ky) holds the vectors with T_x v = exp(2 pi i kx / order) v and
    Y v = exp(2 pi i ky / order_y) v.  One sector per orbit of kx -> kx +
    shift is diagonalized for every ky; the others are its T_y images, so
    each block solves only ceil(count / m) levels.

    The mirror M: (j, k) -> (-j mod Lx, k) of both species conjugates the
    Landau-gauge H, so Theta = K M (K complex conjugation) commutes with
    H, inverts T_x and keeps Y: it maps the sector (kx, ky) onto (kx, -ky).
    Where 2 ky = 0 mod order_y, Theta acts on the orbit basis of the block
    as S K: the orbit of representative r goes to the orbit pi(r) of x =
    M r, with the phase s_r = chi(x) / (phase of x from its representative).
    S is a phase permutation with S conj(S) = 1, and U, sqrt(s) on a fixed
    orbit and sqrt(s / 2) [[1, i], [1, -i]] on a pair, has U U^T = S, so
    U^dag H_b U is real symmetric and is solved by real Lanczos.  A block
    that fails those checks, and every other block, is solved complex.

    On a square torus R, the quarter turn (j, k) -> (-k, j) with the
    species swap a <-> b (`rotation_with_swap`), takes T_x to T_y and T_y
    to T_x^-1, so it maps the sector (kx, ky) into the T_y multiplet of
    (-ky, kx), 1/m of its weight on each member.  When that is another
    label, only the first of the two is solved.  R acts on the basis as a
    phase permutation S, and Q = P_t^dag S P takes the solved block to
    its partner's orbit basis; it is assembled from R applied to T_x^j
    rep, j < m, for each representative (`_Sectors._turn`), m entries per
    column.  R is used only if Q H_b = H_t Q to
    1e-12 max(||H||_inf, 1) and Q^dag Q = 1/m to 1e-12; then sqrt(m) Q is
    unitary, the partner has the same levels, and its vectors are
    sqrt(m) Q W, orthonormalized and held to the residual bound below.  A
    failed check, or a non-square torus, solves the partner as well.

    E is ascending, ties in (kx, ky) order (R's copies carry the solved
    block's floats, so they tie with it); V is (dim, count) with
    orthonormal columns, at most DENSE_BYTES; sectors[i] = (kx, ky) of
    column i.  Every level comes back m times, as T_y images in m sectors,
    and 2m times when R pairs its block; if count ends inside such a
    multiplet, a RuntimeWarning names the sectors left out.  Each pair has
    residual at most 1e-9 * max(||H||_inf, 1) in the full space.  That is
    checked on the block: P, from a sector's orbit basis to the full
    space, is an isometry onto an H-invariant subspace and the real frame
    U is unitary, so the block residual is the full-space one.
    ||H||_inf is read exactly from the representative columns: every
    translation permutes basis states with unit phases, so a column's
    absolute sum is constant on its orbit.

    Memory: no projector P and no full-height matrix other than H[:, reps]
    exists, and no sparse product the size of a block is formed.  A block
    B = P^dag H P is built from the stored entries of H[:, reps] and the
    orbit tables (orbit, g_of, ph_of, length: `_Sectors`), a chunk of
    rows at a time (`_Sectors._block`): whole for a complex solve, chunk by
    chunk into the real H_r of `_real_frame_eigenstates`, and again chunk
    by chunk for each residual and for the turned check, so that at a
    solve only H[:, reps], the block being solved and its Krylov basis are
    block-sized.  The returned vectors are lifted one at a time from the
    tables, their T_y images through T_y applied to the representatives
    (`_Sectors._lift`).  Across blocks only the block eigenvectors W are
    kept, and after each solve only their columns at or below the count-th
    lowest copy found so far, the only ones that can still be returned.
    The full-basis images of T_x and Y live only through the orbit walk.
    """
    dim = basis.size
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= {dim} (the basis size)")
    _check_dense(dim, count, f"{count} eigenvectors of dimension {dim}")
    alpha = Fraction(alpha)
    sec = _Sectors(basis, geom, alpha)
    labels, m, order, shift = sec.labels, sec.m, sec.order, sec.shift

    # H_reps = H[:, reps]^T, row j the column of representative j; H is
    # Hermitian, so its largest absolute row sum is ||H||_inf
    H_reps = columns(sec.reps).T
    norm = _inf_norm(H_reps)
    levels = -(-count // m)  # each block's levels come back m times

    # on a square torus n_orbits = order_y, and R, the quarter turn with
    # the a <-> b swap, takes T_x to T_y and T_y to T_x^-1: it maps the
    # sector (kx, ky) into the T_y multiplet of (-ky, kx), with weight 1/m
    # on each member
    partner = list(range(len(labels)))
    if geom.Lx == geom.Ly and (alpha * geom.n_sites).denominator == 1:
        partner = [labels.index(((-ky) % sec.n_orbits, kx))
                   for kx, ky in labels]
    Ws, Es = [None] * len(labels), [None] * len(labels)
    origin = list(range(len(labels)))  # the solved block of each sector
    E_all, label_all, src = [], [], []
    for n, (kx, ky) in enumerate(labels):
        size = int(sec.ok[n].sum())
        if Ws[n] is None:  # else R gave it from the block origin[n]
            # no local names W or E: the cut below frees what it drops
            Es[n], Ws[n] = np.zeros(0), np.zeros((size, 0))
            if size:
                block = sec._block(H_reps, n)
                k = min(levels, size)
                frame = sec._frame(n)
                Es[n], Ws[n] = (frame and _real_frame_eigenstates(block, *frame, k)
                                or lowest_eigenstates(block._matrix(), k))
                _check_residual(block._apply(Ws[n]) - Ws[n] * Es[n], norm)
                p = partner[n]
                if p > n and sec.ok[p].sum() == size:
                    Ws[p] = _turned_eigenvectors(sec._turn(n, p), block,
                                                 sec._block(H_reps, p), m,
                                                 Ws[n], Es[n], norm)
                    if Ws[p] is not None:
                        Es[p], origin[p] = Es[n], n
        # a level above the count-th lowest copy found so far (each level
        # counted m times) is never returned: keep each W up to there, E
        # ascending, as a copy that frees the rest; Es stay whole
        found = np.sort(np.concatenate([e for e in Es if e is not None]))
        if (count - 1) // m < found.size:
            top = found[(count - 1) // m]
            for q in range(len(Ws)):
                if Ws[q] is not None:
                    keep = np.searchsorted(Es[q], top, side="right")
                    if keep < Ws[q].shape[1]:
                        Ws[q] = Ws[q][:, :keep].copy()
        E = Es[n]
        for j in range(m):
            E_all.append(E)
            label_all.append(np.tile([(kx + j * shift) % order, ky], (E.size, 1)))
            src.append(np.stack([np.full(E.size, n), np.full(E.size, j),
                                 np.arange(E.size)], axis=1))
    del H_reps
    E_all, label_all = np.concatenate(E_all), np.concatenate(label_all)
    src = np.concatenate(src)
    pick = np.lexsort((label_all[:, 1], label_all[:, 0], E_all))[:count]
    # each level comes back m times, and 2m times when R pairs its block:
    # name the T_y and R images of a returned level that the cut at count
    # leaves out
    returned = {(origin[n], i) for n, _, i in src[pick].tolist()}
    left = sorted(label_all[r].tolist()
                  for r in np.setdiff1d(np.arange(len(src)), pick)
                  if (origin[src[r, 0]], src[r, 2]) in returned)
    if left:
        warnings.warn(
            f"count {count} cuts a symmetry multiplet: its sectors "
            f"{', '.join(map(str, left))} are not returned", RuntimeWarning,
            stacklevel=2)
    src = src[pick]

    # lift only the chosen vectors, T_y^j P W; m = 1 has no image
    y_map = (_both_species(*magnetic_translation_y(geom, alpha, sec.b))
             if m > 1 else None)
    # one returned vector per row, so that each is lifted in place
    V = np.empty((count, dim), dtype=complex)
    for v, (n, j, i) in zip(V, src.tolist()):
        sec._lift(n, Ws[n][:, i], v, j, y_map)
    return E_all[pick], V.T, label_all[pick]


def _orbit_mean_norm2(x: np.ndarray, key: np.ndarray) -> float:
    """The squared norm of x with each entry replaced by the mean of the
    entries of x that share its key (nonnegative integers, x's shape):
    sum_key |total|^2 / count, without the gathered copy of x."""
    k = key.ravel()
    total2 = (np.bincount(k, x.real.ravel()) ** 2
              + np.bincount(k, x.imag.ravel()) ** 2)
    return float(np.sum(total2 / np.maximum(np.bincount(k), 1)))


def motional_density_matrix(v: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Partial trace over the internal (a/b) labels of the Fock vector v, as
    a trace-one factor F of shape (C(ns+N-1, N), 2^N), ns = basis.M / 2.

    Row X is a state of the motional Fock basis build_fock_basis(ns, N),
    the basis of the Laughlin states, and column s a label pattern (binary,
    particle 0 the top bit) along X's sorted site list: F[X, s] =
    v[i] sqrt(arr_ns(X) / arr_M(i)), i the bilayer state sort(X + ns s) and
    arr the `arrangements`.  The first-quantized factor C over the ns^N
    ordered site lists, rho = C C^dag, is never formed (16 (2 ns)^N bytes
    to expand): its label Gram matrix C^dag C is F^dag F averaged over the
    particle orderings, which `purity` and `subspace_overlap` take as an
    orbit mean.  F is at most DENSE_BYTES.
    """
    if basis.M % 2 != 0:
        raise ValueError("mode count must be even (two internal states)")
    ns, N = basis.M // 2, basis.N
    motion = build_fock_basis(ns, N)
    _check_dense(motion.size, 2 ** N, "motional factor F", "fewer bosons")
    amp = v / np.sqrt(basis.arrangements())  # first-quantized amplitudes
    F = np.empty((motion.size, 2 ** N), dtype=complex)
    for s, label in enumerate(np.ndindex((2,) * N)):
        F[:, s] = amp[basis.index(motion.modes + ns * np.array(label))]
    F *= np.sqrt(motion.arrangements())[:, None]
    return F


def check_purity_size(n: int):
    """Fail if the n x n label Gram matrix that `purity` sums for n = 2^N
    label patterns is above DENSE_BYTES; callable before F is built."""
    _check_dense(n, n, f"label Gram matrix of {n} patterns", "fewer bosons")


def purity(F: np.ndarray) -> float:
    """Tr(rho^2) of the motional density matrix whose factor F
    `motional_density_matrix` returns: ||G||_F^2, G = F^dag F averaged over
    the particle orderings, i.e. over the orbit of each pattern pair (s, t),
    keyed by the b-label counts of s, t and s & t (G at most DENSE_BYTES).
    Pairs whose s differ in b count share no orbit, so G is summed one
    b-count block of rows at a time and never formed whole."""
    n = F.shape[1]
    check_purity_size(n)
    s, base = np.arange(n), n.bit_length()  # base N + 1 > any b count
    b = np.array([bin(i).count("1") for i in range(n)])
    return sum(_orbit_mean_norm2(F[:, r].conj().T @ F,
                                 b * base + b[r[:, None] & s])
               for r in (np.flatnonzero(b == c) for c in range(base)))


def c_mode_number(v: np.ndarray, basis: FockBasis) -> float:
    """Expectation in the Fock vector v of the total dark-mode number
    sum_site c^dag c with c = (a - b)/sqrt(2), in the gauge-transformed
    frame.  Per site c^dag c = (n_a + n_b - a^dag b - b^dag a) / 2, and
    b^dag a is the adjoint of a^dag b, so the total is
    (N/2) <v|v> - Re <v|A|v> with the one hop A = sum_site a^dag b."""
    ns = basis.M // 2
    a = np.arange(ns)
    hop = sp.csr_matrix((np.ones(ns), (a, a + ns)), shape=(basis.M, basis.M))
    A = second_quantize(hop, basis)
    return float(basis.N / 2 * np.vdot(v, v).real - np.vdot(v, A @ v).real)


def subspace_overlap(F: np.ndarray, states) -> float:
    """Tr(P rho P) of the motional density matrix whose factor F
    `motional_density_matrix` returns, for the projector P onto orthonormal
    motional Fock vectors l (the rows of `states`): sum_l ||w_l||^2, w_l =
    F^T conj(l) averaged over the patterns with the same b-label count."""
    w = F.T @ np.conj(states).T  # (2^N, number of states)
    b = np.array([bin(i).count("1") for i in range(F.shape[1])])
    key = b[:, None] * w.shape[1] + np.arange(w.shape[1])
    return _orbit_mean_norm2(w, key)
