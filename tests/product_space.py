"""The first-quantized product-space form of N-boson Fock vectors: the
reference for the Fock-basis diagnostics of `gaugelatt.manybody`.

A Fock vector over M modes becomes a symmetric wavefunction with one axis
of length M per particle, 16 M^N bytes, built here one basis state at a
time; the library never forms it.
"""

import math
from itertools import combinations_with_replacement, permutations

import numpy as np


def reference_first_quantized(vec, M, N):
    """The symmetric wavefunction of the Fock vector `vec` (states in the
    order of combinations_with_replacement(range(M), N), which is the order
    of build_fock_basis(M, N)), flattened to M^N entries: each distinct
    ordering of a state's mode list carries the state's amplitude over the
    square root of the number of such orderings."""
    psi = np.zeros((M,) * N, dtype=complex)
    for amp, modes in zip(vec, combinations_with_replacement(range(M), N)):
        orderings = set(permutations(modes))
        for o in orderings:
            psi[o] = amp / math.sqrt(len(orderings))
    return psi.ravel()


def reference_factor(v, M, N):
    """The (ns^N, 2^N) factor C, rho = C C^dag, of the motional density
    matrix of the bilayer Fock vector v over M = 2 ns modes (mode s ns + x
    is site x with label s): rows are ordered site lists, columns label
    patterns with particle 0 the top bit."""
    ns = M // 2
    psi = reference_first_quantized(v, M, N).reshape((2, ns) * N)
    axes = [2 * k + 1 for k in range(N)] + [2 * k for k in range(N)]
    return psi.transpose(axes).reshape(ns ** N, 2 ** N)


def reference_purity(C):
    """Tr(rho^2) of rho = C C^dag."""
    return float(np.sum(np.abs(C.conj().T @ C) ** 2))


def reference_subspace_overlap(C, states, ns, N):
    """Tr(P rho P) of rho = C C^dag, P the projector onto orthonormal
    motional Fock vectors over ns sites."""
    total = 0.0
    for s in states:
        w = C.conj().T @ reference_first_quantized(s, ns, N)
        total += float(np.vdot(w, w).real)
    return total
