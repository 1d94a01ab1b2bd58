"""Lattice geometry, site phase patterns, link phases, plaquette fluxes,
the x and y magnetic translations of the torus and, on a square torus, its
quarter turn with the species swap.

Conventions: lengths are in units of the lattice spacing, and phases are
stored in radians, canonicalized to [0, 2pi).
The x-link phase theta[j, k] lives on the bond (j,k) -> (j+1,k); y-links
carry no phase except the wrap links of a magnetic torus, which carry a
per-column twist so that every plaquette (wrap plaquettes included) sees
the same flux.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


class Boundary(enum.Enum):
    OPEN = "open"
    MAGNETIC_TORUS = "magnetic_torus"


def _canonical(phases):
    """Map phase array into [0, 2pi)."""
    out = np.asarray(phases, dtype=float) % TWO_PI
    # -1e-300 % 2pi == 2pi in floating point; fold that back
    out[out >= TWO_PI] = 0.0
    return out


@dataclass(frozen=True)
class LatticeGeometry:
    Lx: int
    Ly: int
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        if self.Lx < 1 or self.Ly < 1:
            raise ValueError(f"need Lx, Ly >= 1, got {self.Lx}x{self.Ly}")

    @property
    def n_sites(self) -> int:
        return self.Lx * self.Ly

    @property
    def is_torus(self) -> bool:
        return self.boundary is Boundary.MAGNETIC_TORUS


@dataclass(frozen=True)
class PhasePattern:
    """Per-site Raman laser phases phi[j, k]."""

    phi: np.ndarray  # shape (Lx, Ly)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2:
            raise ValueError("phase pattern must be a 2D grid")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phase pattern contains non-finite entries")
        object.__setattr__(self, "phi", _canonical(phi))

    def to_json(self, geom: LatticeGeometry) -> str:
        doc = {
            "Lx": geom.Lx,
            "Ly": geom.Ly,
            "boundary": geom.boundary.value,
            "phi": [[float(v) for v in row] for row in self.phi],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> tuple["PhasePattern", LatticeGeometry]:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("pattern file must hold a JSON object")
        missing = [key for key in ("Lx", "Ly", "boundary", "phi")
                   if key not in doc]
        if missing:
            raise ValueError(f"pattern file lacks {', '.join(missing)}")
        if not all(type(doc[key]) is int for key in ("Lx", "Ly")):
            raise ValueError("pattern sizes Lx and Ly must be integers")
        geom = LatticeGeometry(Lx=doc["Lx"], Ly=doc["Ly"],
                               boundary=Boundary(doc["boundary"]))
        try:
            phi = np.asarray(doc["phi"], dtype=float)
        except TypeError as exc:
            raise ValueError(f"phi is not a grid of numbers: {exc}") from None
        if phi.shape != (geom.Lx, geom.Ly):
            raise ValueError("phi grid shape does not match Lx, Ly")
        return cls(phi=phi), geom


@dataclass(frozen=True)
class LinkField:
    """Peierls phases on the lattice bonds.

    theta_x[j, k] is the phase on the x-bond (j,k)->(j+1,k).  On a torus
    theta_x has Lx rows (row Lx-1 is the wrap bond); on an open lattice it
    has Lx-1 rows.  boundary_twist_y[j] is the phase on the y-wrap bond
    (j,Ly-1)->(j,0); it is all-zero for open boundaries.
    """

    theta_x: np.ndarray
    boundary_twist_y: np.ndarray

    def __post_init__(self):
        tx = np.asarray(self.theta_x, dtype=float)
        tw = np.asarray(self.boundary_twist_y, dtype=float)
        if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(tw))):
            raise ValueError("link field contains non-finite entries")
        object.__setattr__(self, "theta_x", _canonical(tx))
        object.__setattr__(self, "boundary_twist_y", _canonical(tw))


def uniform_phase_pattern(alpha: Fraction | float, geom: LatticeGeometry) -> PhasePattern:
    """Site phases phi[j,k] = 2*pi*alpha*j*k producing a uniform field.

    Differencing along j turns this pattern into x-link phases
    theta[j,k] = 2*pi*alpha*k, the Landau-gauge uniform field.
    """
    alpha = float(alpha)
    j = np.arange(geom.Lx)[:, None]
    k = np.arange(geom.Ly)[None, :]
    return PhasePattern(phi=TWO_PI * alpha * j * k)


def links_from_phases(
    p: PhasePattern,
    geom: LatticeGeometry,
    alpha: Fraction | float | None = None,
) -> LinkField:
    """Difference the site phases into x-link phases theta = phi[j+1]-phi[j].

    Open boundary: only the Lx-1 interior bonds are emitted and no y twist.
    Magnetic torus: the x-wrap bond phase is phi[0,k]-phi[Lx-1,k] plus the
    closure of the uniform pattern, and the y-wrap bonds carry the
    Landau-gauge twist -2*pi*alpha*Ly*j.  `alpha` (flux per plaquette) is
    required for the torus and must satisfy alpha*Lx*Ly integer.
    """
    if p.phi.shape != (geom.Lx, geom.Ly):
        raise ValueError("phase pattern shape does not match geometry")
    if not geom.is_torus:
        theta = p.phi[1:, :] - p.phi[:-1, :]
        twist = np.zeros(geom.Lx)
        return LinkField(theta_x=theta, boundary_twist_y=twist)

    if alpha is None:
        raise ValueError("magnetic torus requires the flux per plaquette alpha")
    alpha = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
    n_phi = alpha * geom.Lx * geom.Ly
    if n_phi.denominator != 1:
        raise ValueError(
            f"total flux alpha*Lx*Ly = {n_phi} must be an integer on a torus"
        )
    a = float(alpha)
    theta = np.empty((geom.Lx, geom.Ly))
    theta[:-1, :] = p.phi[1:, :] - p.phi[:-1, :]
    # wrap bond (Lx-1,k)->(0,k): the uniform pattern continued to j=Lx gives
    # phi[Lx,k] = 2*pi*alpha*Lx*k, so the wrap phase is phi[Lx,k]-phi[Lx-1,k]
    k = np.arange(geom.Ly)
    theta[-1, :] = TWO_PI * a * geom.Lx * k - p.phi[-1, :] + p.phi[0, :]
    j = np.arange(geom.Lx)
    twist = -TWO_PI * a * geom.Ly * j
    return LinkField(theta_x=theta, boundary_twist_y=twist)


def links_from_vector_potential(
    A: Callable[[float, float], float], geom: LatticeGeometry
) -> LinkField:
    """Line-integrate the x-component A(x, y) of a vector potential, gauge-
    fixed to the x direction and in flux quanta, along each x-bond:
    theta = 2*pi * int A(x, y_k) dx."""
    from scipy.integrate import quad  # slow to import; only needed here

    n_rows = geom.Lx if geom.is_torus else geom.Lx - 1
    theta = np.empty((n_rows, geom.Ly))
    for j in range(n_rows):
        x0, x1 = float(j), float(j + 1)
        for k in range(geom.Ly):
            y = float(k)
            f = lambda x: A(x, y)
            val, _ = quad(f, x0, x1, epsabs=1e-13, epsrel=1e-13)
            if not math.isfinite(val):
                raise ValueError(f"vector potential not integrable on bond ({j},{k})")
            theta[j, k] = TWO_PI * val
    twist = np.zeros(geom.Lx)
    return LinkField(theta_x=theta, boundary_twist_y=twist)


def y_link_phases(l: LinkField, geom: LatticeGeometry) -> np.ndarray:
    """Phase theta_y[j, k] of every y-bond (j,k)->(j,k+1).

    Zero except on a magnetic torus's wrap bonds (j,Ly-1)->(j,0), which
    carry boundary_twist_y[j].  Shape (Lx, Ly) on a torus, (Lx, Ly-1) on an
    open lattice.
    """
    if not geom.is_torus:
        return np.zeros((geom.Lx, geom.Ly - 1))
    theta_y = np.zeros((geom.Lx, geom.Ly))
    theta_y[:, -1] = l.boundary_twist_y
    return theta_y


def plaquette_flux(l: LinkField, geom: LatticeGeometry) -> np.ndarray:
    """Flux per plaquette in flux quanta, mod 1.

    The loop around plaquette (j,k) picks up
    theta_x[j,k] - theta_x[j,k+1] + theta_y[j+1,k] - theta_y[j,k], indices
    taken mod (Lx, Ly) on a torus.
    """
    n_jp = geom.Lx if geom.is_torus else geom.Lx - 1
    n_kp = geom.Ly if geom.is_torus else geom.Ly - 1
    if l.theta_x.shape[0] < n_jp or l.theta_x.shape[1] != geom.Ly:
        raise ValueError("link field inconsistent with geometry")
    tx = l.theta_x[:n_jp]
    ty = y_link_phases(l, geom)
    loop = (tx[:, :n_kp] - np.roll(tx, -1, axis=1)[:, :n_kp]
            + np.roll(ty, -1, axis=0)[:n_jp] - ty[:n_jp])
    return (loop / TWO_PI) % 1.0


def magnetic_translation_x(geom: LatticeGeometry, alpha: Fraction,
                           steps: int) -> np.ndarray:
    """Single-species magnetic translation by `steps` sites in x, as the
    site permutation s -> perm[s].

    In the Landau gauge used here the x-shift is a plain mode permutation,
    but it is a symmetry of the torus only when steps * alpha * Ly is an
    integer (otherwise it moves the y Wilson loops between sectors).
    """
    alpha = Fraction(alpha)
    if (alpha * steps * geom.Ly).denominator != 1:
        raise ValueError(
            f"steps*alpha*Ly = {alpha * steps * geom.Ly} must be an integer")
    # site (j, k) is j * Ly + k
    return (np.arange(geom.n_sites) + steps * geom.Ly) % geom.n_sites


def magnetic_translation_y(geom: LatticeGeometry, alpha: Fraction,
                           steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-species magnetic translation by `steps` sites in y, as the
    site permutation s -> perm[s] and the gauge phase phase[s] that a
    particle leaving site s picks up.

    The Landau-gauge x links 2*pi*alpha*k change along y, so the shift
    (j,k) -> (j,k') with k' = (k+steps) mod Ly carries the phase
    2*pi*alpha*j*(k'-k).  It is a symmetry of the torus only when
    steps * alpha * Lx is an integer (then the phase is continuous across
    the x wrap).
    """
    alpha = Fraction(alpha)
    if (alpha * steps * geom.Lx).denominator != 1:
        raise ValueError(
            f"steps*alpha*Lx = {alpha * steps * geom.Lx} must be an integer")
    j, k = np.divmod(np.arange(geom.n_sites), geom.Ly)
    k_new = (k + steps) % geom.Ly
    return j * geom.Ly + k_new, TWO_PI * float(alpha) * j * (k_new - k)


def rotation_with_swap(geom: LatticeGeometry,
                       alpha: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """The quarter turn (j,k) -> (-k mod L, j) of a square L x L torus
    with the species swap a <-> b, as the mode permutation m -> perm[m]
    over both species (a on modes [0, ns), b on [ns, 2 ns)) and the gauge
    phase phase[m] that a particle leaving mode m picks up.

    The turn takes x bonds onto y bonds, so with the swap the x hops of a
    become the y hops of b and back.  The Landau-gauge phases then match
    up to the gauge transformation -2*pi*alpha*j*k of site (j,k), the same
    for both species, so the on-site a-b coupling keeps its phase.  It
    conjugates the x magnetic translation by s sites onto the y one by s
    sites, and that one onto the x one by -s, phases included.
    """
    if geom.Lx != geom.Ly:
        raise ValueError(
            f"a quarter turn needs a square torus, got {geom.Lx}x{geom.Ly}")
    alpha = Fraction(alpha)
    if (alpha * geom.n_sites).denominator != 1:
        raise ValueError(
            f"alpha*Lx*Ly = {alpha * geom.n_sites} must be an integer")
    ns = geom.n_sites
    j, k = np.divmod(np.arange(ns), geom.Ly)
    site = (-k % geom.Lx) * geom.Ly + j
    phase = -TWO_PI * float(alpha) * j * k
    return np.concatenate([site + ns, site]), np.concatenate([phase, phase])
