"""Bilayer single-particle Hamiltonian, its dark/bright-mode split, and
Hofstadter spectra (magnetic Bloch blocks and finite lattices)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .lattice import Boundary, LatticeGeometry, LinkField

@dataclass(frozen=True)
class ModelParams:
    J: float = 1.0
    omega: float = 0.0
    J2: float = 0.0
    U: float = 0.0

    def __post_init__(self):
        if self.J <= 0:
            raise ValueError("hopping J must be positive")
        if self.omega < 0 or self.J2 < 0:
            raise ValueError("omega and J2 must be nonnegative")


class Provenance(enum.Enum):
    BLOCH_BLOCKS = "bloch_blocks"
    FINITE_LATTICE = "finite_lattice"


@dataclass(frozen=True)
class SpectrumResult:
    p: int
    q: int
    eigenvalues: np.ndarray  # sorted ascending, units of J
    provenance: Provenance

    @property
    def alpha(self) -> float:
        return self.p / self.q


def _hop_entries(geom: LatticeGeometry, links: LinkField, J: float, J2: float,
                 species_offset_a: int, species_offset_b: int | None):
    """Yield (row, col, amp) for the hopping terms of one bilayer copy.

    species_offset_a indexes the x-hopping modes, species_offset_b the
    y-hopping ones; pass the same offset twice for a single-species model
    that hops in both directions (the target Peierls Hamiltonian).
    """
    Lx, Ly = geom.Lx, geom.Ly
    torus = geom.is_torus
    if species_offset_b is None:
        species_offset_b = species_offset_a
    ns = geom.n_sites

    def site(j, k):
        return (j % Lx) * Ly + (k % Ly)

    # x bonds, phase e^{i theta}
    n_x = Lx if torus else Lx - 1
    for j in range(n_x):
        for k in range(Ly):
            amp = -J * np.exp(1j * links.theta_x[j, k])
            yield species_offset_a + site(j + 1, k), species_offset_a + site(j, k), amp
    # y bonds, twist only at the wrap
    n_y = Ly if torus else Ly - 1
    for j in range(Lx):
        for k in range(n_y):
            phase = links.boundary_twist_y[j] if (torus and k == Ly - 1) else 0.0
            amp = -J * np.exp(1j * phase)
            yield species_offset_b + site(j, k + 1), species_offset_b + site(j, k), amp
    if J2 > 0:
        # second neighbors along the hopping axis; Peierls phase is the sum
        # of the two traversed bond phases
        n_x2 = Lx if torus else Lx - 2
        for j in range(n_x2):
            for k in range(Ly):
                th = links.theta_x[j, k] + links.theta_x[(j + 1) % Lx, k]
                yield (species_offset_a + site(j + 2, k),
                       species_offset_a + site(j, k), -J2 * np.exp(1j * th))
        n_y2 = Ly if torus else Ly - 2
        for j in range(Lx):
            for k in range(n_y2):
                phase = 0.0
                if torus:
                    if k == Ly - 1 or k == Ly - 2:
                        phase = links.boundary_twist_y[j]
                yield (species_offset_b + site(j, k + 2),
                       species_offset_b + site(j, k), -J2 * np.exp(1j * phase))


def _assemble(entries, dim) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for r, c, a in entries:
        rows += [r, c]
        cols += [c, r]
        vals += [a, np.conj(a)]
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    return mat.tocsr()


def build_bilayer_hamiltonian(
    geom: LatticeGeometry, links: LinkField, params: ModelParams
) -> sp.csr_matrix:
    """Two-species matrix: a hops in x with Peierls phases, b hops in y,
    and the on-site coupling omega mixes them.  Dimension 2*Lx*Ly."""
    _check_links(geom, links)
    ns = geom.n_sites
    dim = 2 * ns

    def entries():
        yield from _hop_entries(geom, links, params.J, params.J2, 0, ns)
        for s in range(ns):
            yield ns + s, s, params.omega  # a^dag b + h.c. via symmetrization
    return _assemble(entries(), dim)


def build_target_hamiltonian(
    geom: LatticeGeometry, links: LinkField, J0: float
) -> sp.csr_matrix:
    """Single-species Peierls matrix (the effective model), dimension Lx*Ly."""
    _check_links(geom, links)
    return _assemble(_hop_entries(geom, links, J0, 0.0, 0, None), geom.n_sites)


def _check_links(geom: LatticeGeometry, links: LinkField):
    need = geom.Lx if geom.is_torus else geom.Lx - 1
    if links.theta_x.shape != (need, geom.Ly) or len(links.boundary_twist_y) != geom.Lx:
        raise ValueError("link field shape inconsistent with geometry")


def cd_rotation(n_sites: int) -> sp.csr_matrix:
    """Unitary taking (a, b) site modes to (c, d) = ((a-b)/sqrt2, (a+b)/sqrt2).

    Columns are the new modes: U[:, c_i] etc., so H_cd = U^dag H U.
    Mode layout: c modes occupy [0, n), d modes [n, 2n)."""
    n = n_sites
    s = 1.0 / math.sqrt(2.0)
    eye = sp.identity(n, format="csr")
    top = sp.hstack([s * eye, s * eye])      # a rows
    bot = sp.hstack([-s * eye, s * eye])     # b rows
    return sp.vstack([top, bot]).tocsr()


def cd_decompose(H_s: sp.spmatrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Rotate the bilayer matrix into the c/d basis and split it into the
    block-diagonal part H0 and the band-mixing off-diagonal part H1."""
    dim = H_s.shape[0]
    if dim % 2 != 0 or H_s.shape[0] != H_s.shape[1]:
        raise ValueError("expected a square matrix over an even mode count")
    n = dim // 2
    U = cd_rotation(n)
    H_cd = (U.conj().T @ H_s @ U).tocsr()
    cc = H_cd[:n, :n]
    dd = H_cd[n:, n:]
    cd = H_cd[:n, n:]
    dc = H_cd[n:, :n]
    H0 = sp.bmat([[cc, None], [None, dd]], format="csr")
    H1 = sp.bmat([[None, cd], [dc, None]], format="csr")
    return H0, H1


def bloch_block(alpha_p: int, alpha_q: int, params: ModelParams,
                kx: float, ky: float) -> np.ndarray:
    """Dense 2q x 2q magnetic Bloch block at (kx, ky).

    Layout: a-modes m=0..q-1 then b-modes m=0..q-1, m the row index inside
    the magnetic cell.  a is diagonal with -2J cos(kx + 2 pi alpha m) (plus
    the second-neighbor term), b is the cyclic Harper shift with phase
    e^{i ky} per bond, and omega couples a_m to b_m.
    """
    q = alpha_q
    alpha = alpha_p / alpha_q
    J, w, J2 = params.J, params.omega, params.J2
    m = np.arange(q)
    H = np.zeros((2 * q, 2 * q), dtype=complex)
    diag_a = -2.0 * J * np.cos(kx + 2.0 * np.pi * alpha * m)
    if J2 > 0:
        diag_a += -2.0 * J2 * np.cos(2.0 * (kx + 2.0 * np.pi * alpha * m))
    H[np.arange(q), np.arange(q)] = diag_a
    for i in range(q):
        jn = (i + 1) % q
        H[q + jn, q + i] += -J * np.exp(1j * ky)
        H[q + i, q + jn] += -J * np.exp(-1j * ky)
        if J2 > 0:
            j2 = (i + 2) % q
            H[q + j2, q + i] += -J2 * np.exp(2j * ky)
            H[q + i, q + j2] += -J2 * np.exp(-2j * ky)
    H[np.arange(q), q + np.arange(q)] = w
    H[q + np.arange(q), np.arange(q)] = w
    return H


def bloch_block_spectrum(alpha: Fraction, params: ModelParams,
                         kx_grid, ky_grid) -> SpectrumResult:
    """Pooled eigenvalues of the magnetic Bloch blocks over a k grid."""
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if q < 1:
        raise ValueError("need q >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p}/{q} is not in lowest terms")
    kx_grid = np.atleast_1d(np.asarray(kx_grid, dtype=float))
    ky_grid = np.atleast_1d(np.asarray(ky_grid, dtype=float))
    blocks = np.empty((len(kx_grid) * len(ky_grid), 2 * q, 2 * q), dtype=complex)
    i = 0
    for kx in kx_grid:
        for ky in ky_grid:
            blocks[i] = bloch_block(p, q, params, kx, ky)
            i += 1
    evals = np.linalg.eigvalsh(blocks).ravel()
    evals.sort()
    return SpectrumResult(p=p, q=q, eigenvalues=evals,
                          provenance=Provenance.BLOCH_BLOCKS)


def commensurate_bloch_spectrum(alpha: Fraction, params: ModelParams,
                                geom: LatticeGeometry) -> SpectrumResult:
    """Bloch spectrum pooled over the k grid commensurate with an Lx x Ly
    torus (requires q | Ly); matches the finite-lattice spectrum."""
    alpha = Fraction(alpha)
    q = alpha.denominator
    if geom.Ly % q != 0:
        raise ValueError(f"q={q} must divide Ly={geom.Ly}")
    kx_grid = 2.0 * np.pi * np.arange(geom.Lx) / geom.Lx
    ky_grid = 2.0 * np.pi * np.arange(geom.Ly // q) / geom.Ly
    return bloch_block_spectrum(alpha, params, kx_grid, ky_grid)


def finite_lattice_spectrum(alpha: Fraction, params: ModelParams,
                            geom: LatticeGeometry) -> SpectrumResult:
    """Dense diagonalization of the bilayer matrix on a magnetic torus."""
    from .lattice import links_from_phases, uniform_phase_pattern

    alpha = Fraction(alpha)
    pat = uniform_phase_pattern(alpha, geom)
    links = links_from_phases(pat, geom, alpha=alpha)
    H = build_bilayer_hamiltonian(geom, links, params)
    evals = np.linalg.eigvalsh(H.toarray())
    return SpectrumResult(p=alpha.numerator, q=alpha.denominator,
                          eigenvalues=evals, provenance=Provenance.FINITE_LATTICE)


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
                   resolution: int = 64) -> list[SpectrumResult]:
    """Bloch spectra for every coprime p/q with q < q_max on a
    resolution x resolution k grid, ordered by alpha."""
    kx = 2.0 * np.pi * np.arange(resolution) / resolution
    ky = 2.0 * np.pi * np.arange(resolution) / resolution
    return [bloch_block_spectrum(a, params, kx, ky) for a in farey_alphas(q_max)]


def spectra_to_csv_rows(results: list[SpectrumResult]):
    """Deterministic (p, q, alpha, eigenvalue) rows sorted by (alpha, E)."""
    for res in sorted(results, key=lambda r: (r.alpha,)):
        for e in res.eigenvalues:
            yield res.p, res.q, res.alpha, float(e)
