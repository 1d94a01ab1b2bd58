"""Torus Laughlin states at half filling, discretized onto the lattice,
and the ground-state overlap diagnostic."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .lattice import LatticeGeometry
from .manybody import build_fock_basis, subspace_overlap


# truncation error of the theta sums, relative to the peak term
_THETA_TOL = 1e-14


def theta_with_characteristics(z, tau: complex, a: float, b: float):
    """theta[a,b](z | tau) = sum_n exp(i pi tau (n+a)^2 + 2i (n+a)(z + pi b)).

    Elementwise over an array z; a scalar z gives a complex.  Each sum
    window is centered on its dominant term and sized so the truncation
    error is below _THETA_TOL relative to the peak term.  The window is summed
    one term at a time, so memory stays O(len z).
    """
    im_tau = tau.imag
    if im_tau <= 0:
        raise ValueError("modular parameter must have positive imaginary part")
    z = np.asarray(z, dtype=complex)
    # |term(n)| ~ exp(-pi im_tau (n+a)^2 - 2 (n+a) Im z); peak at
    # n+a = -Im z / (pi im_tau)
    center = -z.imag / (math.pi * im_tau) - a
    width = math.sqrt(max(-math.log(_THETA_TOL * 1e-3), 1.0)
                      / (math.pi * im_tau)) + 2.0
    n_lo = np.floor(center - width)
    zb = z + math.pi * b
    out = np.zeros_like(z)
    for i in range(math.ceil(2.0 * width) + 2):
        n = n_lo + i + a
        out += np.exp(1j * math.pi * tau * n * n + 2j * n * zb)
    return complex(out) if out.ndim == 0 else out


def theta1(z, tau: complex):
    """Odd Jacobi theta function; vanishes linearly at the lattice of periods."""
    return -theta_with_characteristics(z, tau, 0.5, 0.5)


# Center-of-mass characteristics for the two degenerate states, matched to
# the lattice Landau gauge used throughout (x-bond phases 2 pi alpha k with
# the per-column wrap twist).  Fixed by the magnetic-translation closure and
# ground-space overlap checks in the test suite.  The amplitudes are
# complex-conjugated for the same gauge.
_COM_A = (0.0, 0.5)
_COM_B = 0.0


def laughlin_lattice_states(N: int, alpha: Fraction,
                            geom: LatticeGeometry) -> np.ndarray:
    """Evaluate the two m=2 torus Laughlin wavefunctions at the site centers
    and symmetrize into bosonic Fock amplitudes: a (2, size) array whose
    rows are orthonormal vectors over build_fock_basis(Lx Ly, N).

    The construction is the center-of-mass theta factor (two characteristics)
    times the squared odd-theta relative factor times the Landau-gauge
    Gaussian, with magnetic length l = 1 / sqrt(2 pi alpha) lattice spacings.
    A negative alpha gives the complex conjugates of the states at -alpha:
    K maps the Landau-gauge links of alpha onto those of -alpha.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        return np.conj(laughlin_lattice_states(N, -alpha, geom))
    if not geom.is_torus:
        raise ValueError("Laughlin construction requires a magnetic torus")
    n_phi = alpha * geom.Lx * geom.Ly
    if n_phi.denominator != 1:
        raise ValueError("total flux must be an integer")
    if Fraction(N, int(n_phi)) != Fraction(1, 2):
        raise ValueError(
            f"filling N/(alpha Lx Ly) = {N}/{int(n_phi)} must be 1/2")
    m = 2
    a = float(alpha)
    L1, L2 = float(geom.Lx), float(geom.Ly)
    tau = 1j * L2 / L1
    ell2 = 1.0 / (2.0 * math.pi * a)

    basis = build_fock_basis(geom.n_sites, N)
    # site index s = j*Ly + k -> position (j, k)
    j, k = np.divmod(np.arange(geom.n_sites), geom.Ly)
    zs = (j + 1j * k)[basis.modes]
    ys = k[basis.modes]
    # the theta factors depend on a row only through a pair separation or
    # the sum of its positions, which take few distinct values: evaluate
    # them once per value.  One particle pair at a time: no
    # (size, N(N-1)/2) temporaries
    relative = 1.0
    for p, q in zip(*np.triu_indices(N, 1)):
        sep, at = np.unique(zs[:, p] - zs[:, q], return_inverse=True)
        relative = relative * (theta1(math.pi * sep / L1, tau) ** m)[at]
    gauss = np.exp(-np.sum(ys ** 2, axis=1) / (2.0 * ell2))
    # bosonic normalization sqrt(N! / prod n_x!)
    weight = relative * gauss * np.sqrt(basis.arrangements())
    com, at = np.unique(zs.sum(axis=1), return_inverse=True)

    vectors = []
    for s in range(2):
        amps = np.conj(theta_with_characteristics(
            m * math.pi * com / L1, m * tau, _COM_A[s], _COM_B)[at]
            * weight)
        amps /= np.linalg.norm(amps)
        vectors.append(amps)

    # orthonormalize the pair (Gram-Schmidt; near-orthogonal already)
    v0, v1 = vectors
    v1 = v1 - np.vdot(v0, v1) * v0
    nrm = np.linalg.norm(v1)
    if nrm < 1e-8:
        raise RuntimeError("Laughlin pair degenerate after projection")
    return np.stack([v0, v1 / nrm])


def laughlin_overlap(F: np.ndarray, states: np.ndarray) -> float:
    """Tr(P_L rho P_L) of the motional density matrix whose factor F
    `motional_density_matrix` returns, P_L the projector onto the rows of
    `states` (from `laughlin_lattice_states`); depends only on the
    two-dimensional subspace."""
    if F.shape[0] != states.shape[1]:
        raise ValueError("density matrix and subspace dimensions do not match")
    return subspace_overlap(F, states)
