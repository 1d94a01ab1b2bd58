"""Output checks for each workload.  A run whose output fails its check
counts as failed.

The references here are written from the physics, not imported from
gaugelatt, so a defect in the package cannot hide itself: the Harper-type
magnetic Bloch block of the bilayer and the closed-form Gaussian overlap of
beam and Wannier orbitals.  Comparisons use tolerances, never bytes: the
ground-state solver starts from a random vector, so its last digits vary.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def _require(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


def farey(q_max: int) -> list[Fraction]:
    """0/1, 1/1 and every reduced p/q with 1 <= p < q < q_max, ascending."""
    out = {Fraction(0), Fraction(1)}
    out.update(Fraction(p, q) for q in range(2, q_max) for p in range(1, q)
               if math.gcd(p, q) == 1)
    return sorted(out)


def bloch_eigenvalues(alpha: Fraction, omega: float, resolution: int,
                      J: float = 1.0) -> np.ndarray:
    """Sorted eigenvalues of the bilayer magnetic Bloch blocks, pooled over
    a resolution x resolution grid.  Species a hops along x (Harper phase
    kx + 2 pi alpha m on cell row m), species b hops along y around the
    q-row magnetic cell, and omega couples a_m to b_m."""
    q = alpha.denominator
    k = 2.0 * np.pi * np.arange(resolution) / resolution
    kx, ky = (g.ravel() for g in np.meshgrid(k, k, indexing="ij"))
    m = np.arange(q)
    H = np.zeros((kx.size, 2 * q, 2 * q), dtype=complex)
    H[:, m, m] = -2.0 * J * np.cos(kx[:, None] + 2.0 * np.pi * float(alpha) * m)
    hop = -J * np.exp(1j * ky)[:, None]
    H[:, q + (m + 1) % q, q + m] += hop
    H[:, q + m, q + (m + 1) % q] += np.conj(hop)
    H[:, m, q + m] = omega
    H[:, q + m, m] = omega
    return np.sort(np.linalg.eigvalsh(H).ravel())


def check_butterfly(outdir: Path, params: dict) -> None:
    path = outdir / params["output"]
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    _require(header == "p,q,alpha,eigenvalue", f"header is {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    res2 = params["resolution"] ** 2
    fluxes = farey(params["q_max"])
    expected = sum(2 * a.denominator * res2 for a in fluxes)
    _require(rows.shape == (expected, 4),
             f"{rows.shape[0]} rows, expected {expected}")
    p, q, alpha, e = rows.T
    _require(np.allclose(alpha, p / q, rtol=0, atol=1e-11),
             "alpha column disagrees with p/q")
    d_alpha, d_e = np.diff(alpha), np.diff(e)
    _require(np.all(d_alpha >= 0) and np.all(d_e[d_alpha == 0] >= 0),
             "rows are not sorted by (alpha, eigenvalue)")
    sizes = [2 * a.denominator * res2 for a in fluxes]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    for i in params["spot_checks"]:
        a = fluxes[i]
        block = rows[starts[i]:starts[i + 1]]
        _require(np.all(block[:, 0] == a.numerator)
                 and np.all(block[:, 1] == a.denominator),
                 f"rows of flux {a} are not where expected")
        ref = bloch_eigenvalues(a, params["omega"], params["resolution"])
        err = np.max(np.abs(block[:, 3] - ref))
        _require(err < 1e-9, f"flux {a}: eigenvalues off by {err:.2e}")


def check_ground(outdir: Path, params: dict) -> None:
    doc = json.loads((outdir / params["output"]).read_text())
    _require(doc["filling_factor"] == "1/2",
             f"filling factor {doc['filling_factor']}")
    e = doc["energies"]
    _require(len(e) == 3 and all(map(math.isfinite, e)) and e == sorted(e),
             f"energies {e}")
    _require(abs(e[1] - e[0]) <= 1e-8 * max(1.0, abs(e[0])),
             f"ground doublet split by {e[1] - e[0]:.3e}")
    _require(e[2] - e[1] >= 1e-3, f"no gap above the doublet: {e}")
    for key in ("purities", "laughlin_overlap"):
        vals = doc[key]
        _require(len(vals) == 2 and all(0.99 < v <= 1 + 1e-9 for v in vals),
                 f"{key} {vals}")
    c = doc["c_number"]
    _require(abs(c - params["n"]) < 0.01, f"dark-mode number {c}")


def overlap_reference(lx: int, ly: int, depth_a: float, depth_b: float,
                      waist: float) -> np.ndarray:
    """T[i, j] = integral of beam j's normalized Gaussian profile against
    the product of the two species' Gaussian Wannier orbitals at site i,
    unit lattice spacing, sites ordered i = x * ly + y."""
    sa = depth_a ** -0.25 / math.pi  # harmonic width of a sin^2 well
    sb = depth_b ** -0.25 / math.pi
    x, y = (g.ravel() for g in np.meshgrid(np.arange(lx), np.arange(ly),
                                            indexing="ij"))
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    orb = 0.5 / sa ** 2 + 0.5 / sb ** 2  # W_a W_b ~ exp(-orb r^2)
    beam = 1.0 / waist ** 2
    norm = (1.0 / (math.pi * sa * sb)) * math.sqrt(2.0 / (math.pi * waist ** 2))
    return norm * math.pi / (orb + beam) * np.exp(-d2 * orb * beam / (orb + beam))


def check_synth(outdir: Path, params: dict) -> None:
    path = outdir / params["output"]
    diag = json.loads(path.with_suffix(".diag.json").read_text())
    resid = diag["relative_residual"]
    _require(resid <= 1e-10, f"reported residual {resid:.3e}")
    _require(math.isfinite(diag["condition_number"]), "condition number")
    lx, ly = params["lx"], params["ly"]
    with open(path) as fh:
        header = fh.readline().strip()
    _require(header == "j,k,amplitude,phase", f"header is {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(rows.shape == (lx * ly, 4), f"{rows.shape[0]} beams")
    grid = np.stack(np.meshgrid(np.arange(lx), np.arange(ly), indexing="ij"))
    _require(np.array_equal(rows[:, :2].T, grid.reshape(2, -1)),
             "beam rows are not in (j, k) order")
    _require(np.all(rows[:, 2] >= 0), "negative beam amplitude")
    weights = rows[:, 2] * np.exp(1j * rows[:, 3])
    T = overlap_reference(lx, ly, params["depth_a"], params["depth_b"],
                          params["waist"])
    target = np.exp(1j * np.asarray(params["phi"]).ravel())
    err = np.linalg.norm(T @ weights - target) / np.linalg.norm(target)
    # the CSV keeps 12 significant digits; T is well conditioned here
    _require(err < 1e-9, f"written beams miss the target by {err:.2e}")


CHECKS = {"butterfly": check_butterfly, "ground": check_ground,
          "synth": check_synth}
