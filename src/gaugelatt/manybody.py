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


def second_quantize(one_body: sp.spmatrix, basis: FockBasis,
                    sources=None) -> sp.csr_matrix:
    """Lift a one-body mode matrix to the N-boson Fock space, on the
    columns of the basis states `sources` (an index array; all states by
    default): the (basis.size, len(sources)) matrix H[:, sources].

    Every stored entry t_rm, the diagonal included, is a hop m -> r with
    amplitude t_rm sqrt(n_m n'_r), n'_r the occupation of r after the move
    (t_mm n_m for r = m); duplicate entries add up.
    """
    ob = sp.csc_matrix(one_body)
    if ob.shape != (basis.M, basis.M):
        raise ValueError("one-body matrix dimension does not match mode count")
    sources = np.arange(basis.size) if sources is None else np.asarray(sources)
    modes, N, n = basis.modes[sources], basis.N, sources.size
    empty = np.zeros(0, dtype=np.int64)  # N = 0 lifts to H = 0
    rows_out, cols_out, vals_out = [empty], [empty], [empty]
    for p in range(N):
        m = modes[:, p]
        # hop each occupied mode once: from the first slot of its run
        first = (m != modes[:, p - 1]) if p else np.ones(n, dtype=bool)
        n_m = np.sum(modes == m[:, None], axis=1)
        src = np.flatnonzero(first).astype(np.int32)
        # every stored entry t_rm of column m, the diagonal included
        cnt = np.diff(ob.indptr)[m[src]]
        k = _ragged_arange(ob.indptr[m[src]], cnt)
        src = np.repeat(src, cnt)
        r, new = ob.indices[k], modes[src]
        new[:, p] = r
        n_r = np.sum(new == r[:, None], axis=1)  # after the move
        rows_out.append(basis.index(new))
        cols_out.append(src)
        vals_out.append(ob.data[k] * np.sqrt(n_m[src] * n_r))
    # summed column by column, so that each column adds its terms in the
    # same order whatever the other sources
    H = sp.coo_matrix((np.concatenate(vals_out),
                       (np.concatenate(rows_out), np.concatenate(cols_out))),
                      shape=(basis.size, n), dtype=complex).tocsc()
    return H.tocsr()


def build_manybody_hamiltonian(
    geom: LatticeGeometry, links: LinkField, params: ModelParams,
    basis: FockBasis, columns=None,
) -> sp.csr_matrix:
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
        H = H + sp.csr_matrix((params.U * val,
                               (columns, np.arange(columns.size))),
                              shape=H.shape)
    return H.tocsr()


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


def _orthogonalize(Q: np.ndarray, w: np.ndarray):
    """w minus its projection on the orthonormal rows of Q, by classical
    Gram-Schmidt with one DGKS refinement if the norm falls below 0.717 of
    its value, as (h, w, beta): the coefficients conj(Q) w, the remainder
    and its norm.  beta is 0 when the remainder is rounding noise, at most
    len(Q) eps ||w||: then w lay in the span of Q."""
    before = _norm(w)
    h = (Q @ w.conj()).conj()
    w = w - h @ Q
    beta = _norm(w)
    if beta < 0.717 * before:
        g = (Q @ w.conj()).conj()
        w -= g @ Q
        h += g
        beta = _norm(w)
        if beta <= len(Q) * EPS * before:
            beta = 0.0
    return h, w, beta


def _lanczos(H, k: int, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs (E, X) of the Hermitian H, E ascending and X
    of shape (dim, k), by Krylov-Schur restarted Lanczos (Stewart, SIAM J.
    Matrix Anal. Appl. 23, 601 (2001)) from v0, with ARPACK's rules: a
    basis of ncv = min(dim - 1, max(2k + 1, 20)) vectors; a Ritz pair
    converged when its residual |beta y_last| <= 1e-10 max(|theta|,
    eps^(2/3)); a restart that keeps the k + min(nconv, (ncv - k) // 2)
    lowest Ritz vectors, nconv the converged pairs of the k.  It reads H
    only through H @ v.  An invariant Krylov space (beta = 0) continues
    from a fixed-seed random vector orthogonal to the basis, as ARPACK's
    dgetv0 does.  RuntimeError after LANCZOS_MATVECS products."""
    dim = v0.size
    ncv = min(dim - 1, max(2 * k + 1, 20))
    fresh = np.random.default_rng(1)  # new directions after a breakdown
    Q = np.zeros((ncv + 1, dim), dtype=v0.dtype)  # the basis, one per row
    T = np.zeros((ncv, ncv), dtype=v0.dtype)  # Q H Q^dag, lower triangle
    Q[0] = v0 / _norm(v0)
    p = matvecs = 0
    while True:
        for j in range(p, ncv):
            h, w, beta = _orthogonalize(Q[:j + 1], H @ Q[j])
            T[j, :j + 1] = h.conj()
            if beta:
                Q[j + 1] = w / beta
            else:
                _, w, norm = _orthogonalize(Q[:j + 1],
                                            fresh.standard_normal(dim))
                Q[j + 1] = w / norm
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

    Small problems (dim <= max(4 * count, 64)) are diagonalized densely,
    up to DENSE_BYTES of matrix; the rest go to `_lanczos` for count + 4
    pairs, which runs real Lanczos on a real H and complex Lanczos on a
    complex one.  `sector_eigenstates` hands over its blocks real wherever
    the antiunitary K M_x maps a sector onto itself.
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


def _real_frame_eigenstates(block, pi: np.ndarray, s: np.ndarray,
                            count: int):
    """The `count` lowest eigenpairs (E, W) of a sector block H_b, given as
    block(R) = H_b R for sparse R, that commutes with the antiunitary
    w -> S conj(w), S[pi[i], i] = s[i], solved as the real symmetric matrix
    H_r = U^dag H_b U with U U^T = S.  H_r is built as U^dag block(U), so
    the caller need not hold H_b: at most two block-sized matrices are alive
    at once.
    None if pi is not an involution, S is not symmetric or H_r is not real
    to 1e-12 ||H_b||_inf."""
    dim = pi.size
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
    H_r = sp.csr_matrix((val.conj(), (col, row)), shape=(dim, dim)) @ block(U)
    # ||U||_inf = ||U^dag||_inf = sqrt(2), so ||H_b||_inf >= ||H_r||_inf / 2
    if (np.abs(H_r.data.imag).max(initial=0.0)
            > 0.5e-12 * _inf_norm(H_r)):
        return None
    H_r = H_r.real  # drop the complex copy before the solve
    E, W_r = lowest_eigenstates(H_r, count)
    return E, U @ W_r


def _turned_eigenvectors(P, block, P_t, block_t, rot, m: int,
                         W: np.ndarray, E: np.ndarray, norm: float):
    """The eigenvectors, in the orbit basis of the projector P_t, that the
    Fock map rot = (image, factor) gives from the eigenpairs (E, W) of the
    block of P, a block of the same size; block(R) = H_b R and block_t
    likewise.  With S the map and Q = P_t^dag S P, they are sqrt(m) Q W,
    orthonormalized.
    None unless Q H_b = H_t Q to 1e-12 max(||H||_inf, 1) and
    Q^dag Q = 1/m to 1e-12: then Q sqrt(m) is unitary and takes the whole
    spectrum of one block onto the other's."""
    image, factor = rot
    P = P.tocoo()
    Q = P_t.conj().T @ sp.csr_matrix(
        (factor[P.row] * P.data, (image[P.row], P.col)), shape=P.shape)
    del P
    Qh = Q.conj().T.tocsr()
    # each check reads its difference through .data, not an abs() copy,
    # and frees it before the next product
    D = Qh @ Q
    D -= sp.identity(Q.shape[1]) / m
    if np.abs(D.data).max(initial=0.0) > 1e-12:
        return None
    D = block(Qh)  # H_b Q^dag, the adjoint of Q H_b
    np.conj(D.data, out=D.data)
    D = D.T.tocsr()
    D -= block_t(Q)
    if np.abs(D.data).max(initial=0.0) > 1e-12 * max(norm, 1.0):
        return None
    del D, Qh
    W_t = np.linalg.qr(np.sqrt(m) * (Q @ W))[0]
    _check_residual(block_t(W_t) - W_t * E, norm)
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
    its partner's orbit basis.  R is used only if Q H_b = H_t Q to
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
    checked on the block: P (below) is an isometry onto an H-invariant
    subspace and the real frame U is unitary, so the block residual is the
    full-space one.
    ||H||_inf is read exactly from the representative columns: every
    translation permutes basis states with unit phases, so a column's
    absolute sum is constant on its orbit.

    A sector's projector P, from its orbit basis to the full space, is
    built from the orbit tables (orbit, a_of, c_of, ph_of, length) while
    its block is solved, and again at the lift for the sectors that hold a
    returned vector; across blocks only the block eigenvectors W are kept.
    The full-basis images of T_x and Y live only through the orbit walk,
    R's from the first pair it is tried on to the end of the solves, and
    T_y is built at the lift.
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

    def character(kx, ky, a, c):
        # the eigenvalue of T_x^a Y^c on the sector (kx, ky)
        return np.exp(2j * np.pi * (kx * a / order + ky * c / order_y))

    x_perm = magnetic_translation_x(geom, alpha, s)
    tx = basis.permute(np.concatenate([x_perm, x_perm + geom.n_sites]))
    tx = tx.astype(np.int32)
    y, y_phase = _fock_map(basis, *_both_species(
        *magnetic_translation_y(geom, alpha, b * m)))

    def walk(start, ph_c=None):
        # T_x^a Y^c on the states `start`, for every (a, c): (a, c, image,
        # phase), the phase carried only from a given start phase ph_c
        img_c = start
        for c in range(order_y):
            img = img_c
            for a in range(order):
                yield a, c, img, ph_c
                img = tx[img]
            if ph_c is not None:
                ph_c = ph_c * y_phase[img_c]
            img_c = y[img_c]

    # orbits: rep[i] is the smallest index of state i's orbit; from each
    # representative, state i is reached first by T_x^a Y^c with phase ph
    idx = np.arange(dim, dtype=np.int32)
    rep = idx
    for *_, img, _ in walk(idx):
        rep = np.minimum(rep, img)
    reps = np.flatnonzero(rep == idx)
    orbit = np.searchsorted(reps, rep).astype(np.int32)
    del idx, rep, img
    labels = [(kx, ky) for kx in range(n_orbits) for ky in range(order_y)]
    a_of, c_of = np.zeros(dim, dtype=np.int32), np.zeros(dim, dtype=np.int32)
    ph_of, seen = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=bool)
    # a sector exists on an orbit iff its character matches the phase of
    # every group element that fixes the representative
    ok = np.ones((len(labels), reps.size), dtype=bool)
    for a, c, img, ph in walk(reps, np.ones(reps.size, dtype=complex)):
        new = ~seen[img]
        seen[img[new]] = True
        a_of[img[new]], c_of[img[new]], ph_of[img[new]] = a, c, ph[new]
        fixed = img == reps
        for n, (kx, ky) in enumerate(labels):
            ok[n] &= ~fixed | (np.abs(ph - character(kx, ky, a, c)) < 1e-8)
    del tx, y, y_phase, seen
    length = np.bincount(orbit)  # orbit sizes
    # the image of each representative under the mirror M of both species
    site = np.arange(geom.n_sites)
    mx = (-(site // geom.Ly) % geom.Lx) * geom.Ly + site % geom.Ly
    mx = np.concatenate([mx, mx + geom.n_sites])
    mirror = basis.index(mx[basis.modes[reps]])

    # H[reps] = H[:, reps]^dag, as H is Hermitian; its largest absolute
    # row sum is ||H||_inf
    H_reps = columns(reps).conj().T.tocsr()
    norm = _inf_norm(H_reps)
    levels = -(-count // m)  # each block's levels come back m times

    def projector(n):
        # P maps orbit r to the sector vector conj(chi(g)) g|r> / sqrt(L) of
        # the sector labels[n], over the orbits where that sector exists
        rows = np.flatnonzero(ok[n][orbit])
        column = np.cumsum(ok[n]) - 1
        return sp.csr_matrix(
            (ph_of[rows] / character(*labels[n], a_of[rows], c_of[rows])
             / np.sqrt(length[orbit[rows]]),
             (rows, column[orbit[rows]])), shape=(dim, int(ok[n].sum())))

    def sector(n):
        # the projector P of the sector labels[n] and its block map: since
        # H commutes with the group, H_b right = P^dag H P right =
        # diag(sqrt L) H[reps[kept]] P right, the rows picked last; no H_b
        # is kept
        kept = np.flatnonzero(ok[n])
        P = projector(n)
        scale = sp.csr_matrix((np.sqrt(length[kept]),
                               (np.arange(kept.size), kept)),
                              shape=(kept.size, reps.size))
        return P, lambda right: scale @ (H_reps @ (P @ right))

    # on a square torus n_orbits = order_y, and R, the quarter turn with
    # the a <-> b swap, takes T_x to T_y and T_y to T_x^-1: it maps the
    # sector (kx, ky) into the T_y multiplet of (-ky, kx), with weight 1/m
    # on each member
    partner = list(range(len(labels)))
    if geom.Lx == geom.Ly and (alpha * geom.n_sites).denominator == 1:
        partner = [labels.index(((-ky) % n_orbits, kx)) for kx, ky in labels]
    rot = None  # R on the basis states, built for the first pair
    Ws, Es = [None] * len(labels), [None] * len(labels)
    origin = list(range(len(labels)))  # the solved block of each sector
    E_all, label_all, src = [], [], []
    for n, (kx, ky) in enumerate(labels):
        kept = np.flatnonzero(ok[n])
        if Ws[n] is None:  # else R gave it from the block origin[n]
            E, W = np.zeros(0), np.zeros((kept.size, 0))
            if kept.size:
                P, block = sector(n)
                k = min(levels, kept.size)
                solved = None
                x = mirror[kept]
                if 2 * ky % order_y == 0 and ok[n][orbit[x]].all():
                    s_x = character(kx, ky, a_of[x], c_of[x]) / ph_of[x]
                    solved = _real_frame_eigenstates(
                        block, np.searchsorted(kept, orbit[x]), s_x, k)
                E, W = solved or lowest_eigenstates(
                    block(sp.identity(kept.size, format="csr")), k)
                _check_residual(block(W) - W * E, norm)
                p = partner[n]
                if p > n and ok[p].sum() == kept.size:
                    if rot is None:
                        rot = _fock_map(basis, *rotation_with_swap(geom, alpha))
                    W_p = _turned_eigenvectors(P, block, *sector(p), rot, m,
                                               W, E, norm)
                    if W_p is not None:
                        Ws[p], Es[p], origin[p] = W_p, E, n
                del P, block  # the lift builds P again, for its vectors
            Ws[n], Es[n] = W, E
        E = Es[n]
        for j in range(m):
            E_all.append(E)
            label_all.append(np.tile([(kx + j * shift) % order, ky], (E.size, 1)))
            src.append(np.stack([np.full(E.size, n), np.full(E.size, j),
                                 np.arange(E.size)], axis=1))
    del rot
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

    # lift only the chosen vectors: P W, then T_y^j
    ty, ty_phase = _fock_map(basis, *_both_species(
        *magnetic_translation_y(geom, alpha, b)))
    V = np.empty((dim, count), dtype=complex)
    for n in np.unique(src[:, 0]):
        mine = np.flatnonzero(src[:, 0] == n)
        need, col = np.unique(src[mine, 2], return_inverse=True)
        X = projector(n) @ Ws[n][:, need]
        for j in range(m):
            here = src[mine, 1] == j
            V[:, mine[here]] = X[:, col[here]]
            X[ty] = ty_phase[:, None] * X
    return E_all[pick], V, label_all[pick]


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
