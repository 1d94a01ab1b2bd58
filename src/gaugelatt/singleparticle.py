"""Bilayer single-particle Hamiltonian, its dark/bright-mode split, and
Hofstadter spectra (magnetic Bloch blocks and finite lattices)."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .lattice import (LatticeGeometry, LinkField, links_from_phases,
                      uniform_phase_pattern, y_link_phases)

# complex Bloch-block bytes handed to one eigvalsh call
BLOCK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class ModelParams:
    J: float = 1.0
    omega: float = 0.0
    J2: float = 0.0
    U: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every test
        if not 0 < self.J < math.inf:
            raise ValueError(
                f"hopping J must be positive and finite, got {self.J}")
        for name in ("omega", "J2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, "
                                 f"got {getattr(self, name)}")
        if not math.isfinite(self.U):
            raise ValueError(f"interaction U must be finite, got {self.U}")


@dataclass(frozen=True)
class SpectrumResult:
    """The spectrum of the flux p/q in units of J, as levels with
    multiplicities: `levels` ascending, `counts[i]` >= 1 copies of
    `levels[i]`.  `bloch_block_spectrum` merges equal levels; a
    finite-lattice spectrum keeps every eigenvalue with a count of 1."""
    p: int
    q: int
    levels: np.ndarray
    counts: np.ndarray

    @property
    def alpha(self) -> float:
        return self.p / self.q

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue, ascending: each level repeated by its count."""
        return np.repeat(self.levels, self.counts)


def _hops(geom: LatticeGeometry, phases: np.ndarray, axis: int, step: int):
    """Hops from site (j,k) to the site `step` bonds further along `axis`
    (0 = x, 1 = y), as flat (dst, src, phase) arrays ordered by source
    site.  phases[j, k] is the phase of the bond leaving (j,k) along
    `axis`; a hop carries the sum of the phases of the bonds it crosses.
    """
    shape = (geom.Lx, geom.Ly)
    L = shape[axis]
    n = L if geom.is_torus else max(L - step, 0)
    src = np.indices(shape[:axis] + (n,) + shape[axis + 1:])
    shift = np.zeros((2, step + 1, 1, 1), dtype=int)
    shift[axis, :, 0, 0] = np.arange(step + 1)
    path = src[:, None] + shift  # (j, k) of the step + 1 sites on each hop
    path[axis] %= L
    phase = phases[tuple(path[:, :-1])].sum(axis=0)
    site = (path[0] * geom.Ly + path[1]).reshape(step + 1, -1)
    return site[-1], site[0], phase.ravel()


def _hermitian_csr(entries, dim) -> sp.csr_matrix:
    """The matrix with amp at (dst, src) and conj(amp) at (src, dst) for
    every (dst, src, amp) array triple in `entries`; repeats add up."""
    dst = np.concatenate([e[0] for e in entries])
    src = np.concatenate([e[1] for e in entries])
    # conjugate each triple on its own: a real amp keeps a +0 imaginary part
    vals = np.concatenate([np.stack([amp, np.conj(amp)], axis=1).ravel()
                           for *_, amp in entries])
    mat = sp.coo_matrix((vals, (np.stack([dst, src], axis=1).ravel(),
                                np.stack([src, dst], axis=1).ravel())),
                        shape=(dim, dim), dtype=complex)
    return mat.tocsr()


def build_bilayer_hamiltonian(
    geom: LatticeGeometry, links: LinkField, params: ModelParams
) -> sp.csr_matrix:
    """Two-species matrix: a hops in x with Peierls phases, b hops in y,
    and the on-site coupling omega mixes them.  Dimension 2*Lx*Ly."""
    _check_links(geom, links)
    ns = geom.n_sites
    theta_y = y_link_phases(links, geom)
    terms = [(params.J, 1)] + ([(params.J2, 2)] if params.J2 > 0 else [])
    entries = []
    for t, step in terms:
        for offset, phases, axis in ((0, links.theta_x, 0), (ns, theta_y, 1)):
            dst, src, phase = _hops(geom, phases, axis, step)
            entries.append((offset + dst, offset + src, -t * np.exp(1j * phase)))
    sites = np.arange(ns)
    entries.append((ns + sites, sites, np.full(ns, params.omega)))
    return _hermitian_csr(entries, 2 * ns)


def build_target_hamiltonian(
    geom: LatticeGeometry, links: LinkField, J0: float
) -> sp.csr_matrix:
    """Single-species Peierls matrix (the effective model), dimension Lx*Ly."""
    _check_links(geom, links)
    hops = [_hops(geom, links.theta_x, 0, 1),
            _hops(geom, y_link_phases(links, geom), 1, 1)]
    return _hermitian_csr([(dst, src, -J0 * np.exp(1j * phase))
                           for dst, src, phase in hops], geom.n_sites)


def _check_links(geom: LatticeGeometry, links: LinkField):
    need = geom.Lx if geom.is_torus else geom.Lx - 1
    if links.theta_x.shape != (need, geom.Ly) or len(links.boundary_twist_y) != geom.Lx:
        raise ValueError("link field shape inconsistent with geometry")


def cd_rotation(n_sites: int) -> sp.csr_matrix:
    """Unitary taking (a, b) site modes to (c, d) = ((a-b)/sqrt2, (a+b)/sqrt2).

    Columns are the new modes: U[:, c_i] etc., so H_cd = U^dag H U.
    Mode layout: c modes occupy [0, n), d modes [n, 2n)."""
    s = 1.0 / math.sqrt(2.0)
    return sp.kron([[s, s], [-s, s]], sp.identity(n_sites), format="csr")


def cd_decompose(H_s: sp.spmatrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Rotate the bilayer matrix into the c/d basis and split it into the
    block-diagonal part H0 (row and column in the same half) and the
    band-mixing off-diagonal part H1 = U^dag H U - H0."""
    dim = H_s.shape[0]
    if dim % 2 != 0 or H_s.shape[0] != H_s.shape[1]:
        raise ValueError("expected a square matrix over an even mode count")
    U = cd_rotation(dim // 2)
    H_cd = (U.conj().T @ H_s @ U).tocoo()
    same = (H_cd.row < dim // 2) == (H_cd.col < dim // 2)
    H0 = sp.csr_matrix((H_cd.data[same], (H_cd.row[same], H_cd.col[same])),
                       shape=H_cd.shape)
    return H0, (H_cd - H0).tocsr()


def bloch_block(alpha_p: int, alpha_q: int, params: ModelParams,
                kx, ky) -> np.ndarray:
    """Dense 2q x 2q magnetic Bloch blocks at (kx, ky), shape (..., 2q, 2q)
    for k arrays that broadcast to shape (...); scalar k give one block.

    Layout: a-modes m=0..q-1 then b-modes m=0..q-1, m the row index inside
    the magnetic cell.  a is diagonal with -2J cos(kx + 2 pi alpha m) (plus
    the second-neighbor term), b is the cyclic Harper shift with phase
    e^{i ky} per bond, and omega couples a_m to b_m.  An omega below
    1e-20 J is taken as 0, which moves no level by more than 1e-20 J
    (Weyl): OpenBLAS 0.3.31's Hermitian eigvalsh misplaces levels of
    blocks with entries near 1e-79 (by 1e-11 at omega = 1e-78, p/q = 1/4).
    """
    q = alpha_q
    alpha = alpha_p / alpha_q
    J, w, J2 = params.J, params.omega, params.J2
    if w < 1e-20 * J:
        w = 0.0
    kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=float),
                                 np.asarray(ky, dtype=float))
    m = np.arange(q)
    H = np.zeros(kx.shape + (2 * q, 2 * q), dtype=complex)
    ka = kx[..., None] + 2.0 * np.pi * alpha * m
    diag_a = -2.0 * J * np.cos(ka)
    if J2 > 0:
        diag_a += -2.0 * J2 * np.cos(2.0 * ka)
    H[..., m, m] = diag_a
    # passes in the order fwd-J, bwd-J, fwd-J2, bwd-J2: terms share entries
    # only for q <= 4, and at q = 1, where all four land on one entry, they
    # add up in this order
    terms = [(J, 1)] + ([(J2, 2)] if J2 > 0 else [])
    for t, step in terms:
        n = q + (m + step) % q
        H[..., n, q + m] += (-t * np.exp(1j * step * ky))[..., None]
        H[..., q + m, n] += (-t * np.exp(-1j * step * ky))[..., None]
    H[..., m, q + m] = w
    H[..., q + m, m] = w
    return H


def _k_classes(n: int,
               q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classes of the grid k = 2 pi j/n, j < n, under k -> k + 2 pi/q and
    k -> -k, and their pairing by k -> k + pi on the x axis and k -> k + pi
    (q mod 2)/q on the y axis.

    A class is keyed by 2 min(qj mod n, n - qj mod n), and the pairing maps
    the key s to |n (q mod 2) - s|.  Returns (reps, sizes, partner), classes
    in ascending key order: the smallest j of each class, the number of
    points of each class, and the class whose key is the mapped key (-1 if
    none on the grid; a class may be its own partner).
    """
    u = q * np.arange(n) % n
    keys, reps, sizes = np.unique(2 * np.minimum(u, n - u), return_index=True,
                                  return_counts=True)
    shifted = np.abs(n * (q % 2) - keys)
    near = np.searchsorted(keys, shifted).clip(max=keys.size - 1)
    return reps, sizes, np.where(keys[near] == shifted, near, -1)


def bloch_block_spectrum(alpha: Fraction, params: ModelParams,
                         nx: int, ny: int) -> SpectrumResult:
    """Pooled eigenvalues of the magnetic Bloch blocks over the nx x ny k
    grid 2 pi (jx/nx, jy/ny), as the distinct levels of the pool and the
    number of copies of each: the counts add up to 2q nx ny.

    The block spectrum depends on kx and ky only through q kx and q ky mod
    2 pi, up to sign: kx -> kx + 2 pi/q relabels the cell rows m cyclically,
    (kx, ky) -> (-kx, -ky) reflects m -> -m and ky -> -ky conjugates the
    block.  So the levels of one block per class of kx and of ky
    (`_k_classes`) count once per k-point of the class.

    Harper's equation is self-dual (Aubry and Andre): the discrete Fourier
    transform F_nm = e^{2 pi i p n m/q}/sqrt(q) turns the a-diagonal
    -2J cos(kx + 2 pi alpha m) into the conjugate of the Harper ring with
    phase e^{i kx} per bond, and the b-ring with phase e^{i ky} into the
    diagonal -2J cos(ky + 2 pi alpha m) (the J2 terms likewise); the
    coupling omega times the identity stays as it is.  With W
    = F on both species followed by the a <-> b swap, W H(kx, ky) W^dag =
    conj H(ky, kx), so the class pairs (cx, cy) and (cy, cx) have the same
    levels when nx == ny.

    With J2 = 0 the bilayer is bipartite: a_m and b_m sit on opposite
    sublattices of the graph, and S = diag((-1)^m on the a rows, -(-1)^m on
    the b rows) gives S H(kx, ky) S = -D^dag H(kx + pi, ky + pi (q mod 2)/q) D,
    with the row gauge D = diag(e^{i pi m (q mod 2)/q}) on both species.  So
    the levels at k + (pi, pi (q mod 2)/q) are minus those at k: a class pair
    and its image (`_k_classes` partners on both axes) have opposite
    levels.  J2 bonds join a sublattice to itself, so with J2 > 0 no pair
    has an image.

    Each orbit of class pairs under the transpose and the image takes its
    levels E from the block of its first pair: E for that pair and its
    transpose, -E for their images.  The blocks are diagonalized in chunks
    of at most BLOCK_BYTES.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"need a k grid of at least 1 x 1 points, "
                         f"got {nx} x {ny}")
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    same = nx == ny
    rx, sx, px = _k_classes(nx, q)
    ry, sy, py = (rx, sx, px) if same else _k_classes(ny, q)
    cx, cy = (c.ravel() for c in np.meshgrid(np.arange(rx.size),
                                             np.arange(ry.size),
                                             indexing="ij"))
    # the orbit of each pair as keys 2 * pair + flip, flip = 1 for -E: the
    # pair and its transpose, and their images (past the last pair if none)
    keys = []
    for a, b in [(cx, cy)] + ([(cy, cx)] if same else []):
        keys.append(2 * (a * ry.size + b))
        if params.J2 == 0:
            paired = (px[a] >= 0) & (py[b] >= 0)
            keys.append(2 * np.where(paired, px[a] * ry.size + py[b],
                                     cx.size) + 1)
    source, flip = np.divmod(np.min(keys, axis=0), 2)
    solve = source == np.arange(cx.size)
    kx = 2.0 * np.pi * rx[cx[solve]] / nx
    ky = 2.0 * np.pi * ry[cy[solve]] / ny
    step = max(1, BLOCK_BYTES // (16 * (2 * q) ** 2))
    evals = np.concatenate([
        np.linalg.eigvalsh(bloch_block(p, q, params, kx[i:i + step],
                                       ky[i:i + step]))
        for i in range(0, max(kx.size, 1), step)]).reshape(-1, 2 * q)
    # the k-points that take E (column 0) and -E (column 1) of each block
    weight = np.zeros((evals.shape[0], 2), dtype=np.int64)
    np.add.at(weight, ((np.cumsum(solve) - 1)[source], flip), sx[cx] * sy[cy])
    mirror = weight[:, 1] > 0
    levels = np.concatenate([evals, -evals[mirror]]).ravel()
    weights = np.repeat(np.concatenate([weight[:, 0], weight[mirror, 1]]),
                        2 * q)
    order = np.argsort(levels)
    levels, weights = levels[order], weights[order]
    first = np.flatnonzero(np.append(True, levels[1:] != levels[:-1]))
    return SpectrumResult(p=p, q=q, levels=levels[first],
                          counts=np.add.reduceat(weights, first))


def commensurate_bloch_spectrum(alpha: Fraction, params: ModelParams,
                                geom: LatticeGeometry) -> SpectrumResult:
    """Bloch spectrum of an Lx x Ly torus (requires q | Ly); matches the
    finite-lattice spectrum.  Its k-points are those of the Lx x Ly grid up
    to ky -> ky + 2 pi/q, which acts freely on the grid and keeps each
    block's levels: the full grid with every count divided by q."""
    alpha = Fraction(alpha)
    q = alpha.denominator
    if geom.Ly % q != 0:
        raise ValueError(f"q={q} must divide Ly={geom.Ly}")
    res = bloch_block_spectrum(alpha, params, geom.Lx, geom.Ly)
    return SpectrumResult(p=res.p, q=q, levels=res.levels,
                          counts=res.counts // q)


def finite_lattice_spectrum(alpha: Fraction, params: ModelParams,
                            geom: LatticeGeometry) -> SpectrumResult:
    """Dense diagonalization of the bilayer matrix on a magnetic torus."""
    alpha = Fraction(alpha)
    pat = uniform_phase_pattern(alpha, geom)
    links = links_from_phases(pat, geom, alpha=alpha)
    H = build_bilayer_hamiltonian(geom, links, params)
    evals = np.linalg.eigvalsh(H.toarray())
    return SpectrumResult(p=alpha.numerator, q=alpha.denominator,
                          levels=evals, counts=np.ones(evals.size, dtype=int))


def farey_alphas(q_max: int) -> list[Fraction]:
    """All p/q in [0, 1] with gcd(p, q) = 1 and q < q_max, ascending."""
    if q_max < 2:
        raise ValueError("need q_max >= 2")
    out = {Fraction(0, 1), Fraction(1, 1)}
    for q in range(2, q_max):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def butterfly_scan(q_max: int, params: ModelParams,
                   resolution: int) -> Iterator[SpectrumResult]:
    """Bloch spectra for every coprime p/q with q < q_max on a
    resolution x resolution k grid, ordered by alpha.  Each flux is yielded
    as the iterator reaches it; q_max and resolution are checked at the
    call.

    Complex conjugation maps the flux alpha onto -alpha = 1 - alpha: the
    Bloch blocks obey H(1 - alpha, kx, ky) = conj H(alpha, -kx, -ky), and the
    grid 2 pi j/resolution is closed under k -> -k.  So only the fluxes
    alpha <= 1/2 are diagonalized, and each alpha > 1/2 repeats the levels
    and counts of 1 - alpha (the butterfly is mirror-symmetric about 1/2).
    The levels and counts of each alpha < 1/2 are kept until 1 - alpha is
    yielded.
    """
    if resolution < 1:
        raise ValueError(f"need resolution >= 1, got {resolution}")
    return _mirrored_scan(farey_alphas(q_max), params, resolution)


def _mirrored_scan(alphas: list[Fraction], params: ModelParams,
                   resolution: int) -> Iterator[SpectrumResult]:
    pending = {}  # 1 - alpha -> (levels, counts) of a solved alpha < 1/2
    for a in alphas:
        if a in pending:
            levels, counts = pending.pop(a)
            yield SpectrumResult(p=a.numerator, q=a.denominator,
                                 levels=levels, counts=counts)
            continue
        r = bloch_block_spectrum(a, params, resolution, resolution)
        if 2 * a < 1:
            pending[1 - a] = r.levels, r.counts
        yield r
