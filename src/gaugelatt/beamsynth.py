"""Beam-array synthesis: invert the beam/Wannier overlap matrix to find the
per-site beam weights that imprint a target Raman phase pattern."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeGeometry, PhasePattern


@dataclass(frozen=True)
class WannierModel:
    """Gaussian site orbitals for the two species, widths from the
    harmonic expansion of the sinusoidal wells."""

    sigma_a: float
    sigma_b: float

    def __post_init__(self):
        # written so that NaN fails every test
        if not (self.sigma_a > 0 and self.sigma_b > 0):
            raise ValueError("Wannier widths must be positive")
        if not (self.sigma_a < 1.0 and self.sigma_b < 1.0):
            raise ValueError("Wannier widths must be below the lattice spacing")


@dataclass(frozen=True)
class ModeFunction:
    """Normalized 2D Gaussian beam profile with 1/e^2-style waist w."""

    w: float

    def __post_init__(self):
        if not 0 < self.w < math.inf:
            raise ValueError(f"beam waist must be positive and finite, "
                             f"got {self.w}")


@dataclass(frozen=True)
class BeamArray:
    amplitudes: np.ndarray  # omega'_xi >= 0, one per site
    phases: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.amplitudes * np.exp(1j * self.phases)

    def write_csv(self, path, geom: LatticeGeometry) -> None:
        j, k = np.divmod(np.arange(geom.n_sites), geom.Ly)
        fmt = "{:.12g}".format
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "k", "amplitude", "phase"])
            writer.writerows(zip(j.tolist(), k.tolist(),
                                 map(fmt, self.amplitudes.tolist()),
                                 map(fmt, self.phases.tolist())))


@dataclass(frozen=True)
class OverlapMatrix:
    """The Gaussian overlap separates per axis: for sites ordered
    i = j * Ly + k, T[(j, k), (j', k')] = scale * kx[j, j'] * ky[k, k']."""

    kx: np.ndarray  # (Lx, Lx)
    ky: np.ndarray  # (Ly, Ly)
    scale: float

    @property
    def T(self) -> np.ndarray:
        """The dense (Lx*Ly)^2 matrix, built on demand (tests, small grids)."""
        return self.scale * np.kron(self.kx, self.ky)


def wannier_width(V0: float) -> float:
    """Harmonic ground-state width of a sinusoidal well of depth V0 (recoil
    units): sigma = (1/pi) (Er/V0)^(1/4)."""
    if not 0 < V0 < math.inf:
        raise ValueError(f"well depth must be positive and finite, got {V0}")
    return (1.0 / math.pi) * V0 ** -0.25


def overlap_matrix(geom: LatticeGeometry, wm: WannierModel,
                   mf: ModeFunction, drop_tol: float = 1e-14) -> OverlapMatrix:
    """T[target site, beam center] from the closed-form Gaussian integral
    T(d) = pref exp(-decay |d|^2), one factor per axis.  Factor entries with
    pref * k < drop_tol are zeroed, so every dropped product is below it."""
    sa2, sb2 = wm.sigma_a ** 2, wm.sigma_b ** 2
    w2 = mf.w ** 2
    # W_a W_b decays as exp(-inv_s2 r^2); the beam as exp(-|r-d|^2/w^2)
    inv_s2 = 0.5 / sa2 + 0.5 / sb2
    inv_w2 = 1.0 / w2
    inv_tot = inv_s2 + inv_w2
    n_ab = 1.0 / (math.pi * wm.sigma_a * wm.sigma_b)
    n_beam = math.sqrt(2.0 / (math.pi * w2))
    pref = n_ab * n_beam * math.pi / inv_tot
    decay = inv_s2 * inv_w2 / inv_tot
    lx, ly = geom.Lx, geom.Ly
    x = np.arange(max(lx, ly), dtype=float)
    k = np.exp(-decay * (x[:, None] - x[None, :]) ** 2)
    k[pref * k < drop_tol] = 0.0
    k.flags.writeable = False  # kx and ky are views of it
    return OverlapMatrix(kx=k[:lx, :lx], ky=k[:ly, :ly], scale=pref)


def _apply(T: OverlapMatrix, x: np.ndarray) -> np.ndarray:
    """T @ x through the factors: scale * kx X ky^T with X = x as (Lx, Ly)."""
    X = x.reshape(T.kx.shape[0], T.ky.shape[0])
    return (T.scale * (T.kx @ X @ T.ky.T)).ravel()


def condition_number(T: OverlapMatrix) -> float:
    """2-norm cond(kx) * cond(ky): Kronecker singular values multiply."""
    return float(np.linalg.cond(T.kx) * np.linalg.cond(T.ky))


def solve_beams(T: OverlapMatrix, target: np.ndarray) -> tuple[BeamArray, dict]:
    """Solve T x = target for the beam weights one axis at a time,
    X = kx^-1 t ky^-T / scale.  Returns the beam array plus diagnostics
    (condition number, relative residual, achieved amplitude spread)."""
    target = np.asarray(target, dtype=complex).ravel()
    lx, ly = T.kx.shape[0], T.ky.shape[0]
    if target.size != lx * ly:
        raise ValueError("overlap matrix and target sizes do not match")
    cond = condition_number(T)
    if not np.isfinite(cond) or cond > 1e12:
        raise RuntimeError(
            f"overlap matrix condition number {cond:.3e} exceeds 1e+12; "
            "beam waist too large for a stable inversion")
    Y = np.linalg.solve(T.kx, target.reshape(lx, ly))
    x = np.linalg.solve(T.ky, Y.T).T.ravel() / T.scale
    achieved = _apply(T, x)
    resid = np.linalg.norm(achieved - target) / np.linalg.norm(target)
    if resid > 1e-10:
        raise RuntimeError(f"linear solve residual {resid:.2e} above 1e-10")
    amps = np.abs(x)
    phases = np.where(amps > 0, np.angle(x), 0.0)
    mag = np.abs(achieved)
    diag = {
        "condition_number": cond,
        "relative_residual": float(resid),
        "amplitude_spread": float(mag.max() - mag.min()),
    }
    return BeamArray(amplitudes=amps, phases=phases), diag


def forward_check(T: OverlapMatrix, beams: BeamArray) -> np.ndarray:
    """Per-site complex Raman amplitude produced by a beam array."""
    return _apply(T, beams.weights)


def target_from_pattern(p: PhasePattern) -> np.ndarray:
    """Unit-amplitude complex target from a site phase pattern."""
    return np.exp(1j * p.phi).ravel()
