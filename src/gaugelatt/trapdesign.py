"""Closed-form optics calculators for the state-dependent lattice:
potential ratios, hopping rates, tilted-standing-wave profiles, the Raman
parity integral, and the effective lattice spacing.  Lengths are in units
of the wavelength."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# hyperfine weights of (V_plus, V_minus) in the potentials of |a> and |b>,
# the F=1/F=2, m_F=+1 pair of 87Rb
_WEIGHTS_A = (0.25, 0.75)
_WEIGHTS_B = (0.75, 0.25)
_K = 2.0 * math.pi  # wavenumber, in units of 1 / wavelength


@dataclass(frozen=True)
class TiltGeometry:
    eta: float  # tilt angle of the standing waves

    def __post_init__(self):
        if not 0.0 < self.eta < math.pi / 2:
            raise ValueError("tilt angle must lie in (0, pi/2)")


def potential_ratio(V_plus: float, V_minus: float) -> float:
    """V_b / V_a from the ac Stark shifts of the two polarization states and
    the hyperfine combination weights: (3 V_+ + V_-) / (V_+ + 3 V_-)."""
    if not (math.isfinite(V_plus) and math.isfinite(V_minus)):
        raise ValueError(
            f"V_plus and V_minus must be finite, got {V_plus}, {V_minus}")
    num = _WEIGHTS_B[0] * V_plus + _WEIGHTS_B[1] * V_minus
    den = _WEIGHTS_A[0] * V_plus + _WEIGHTS_A[1] * V_minus
    if den == 0.0:
        raise ZeroDivisionError("|a> potential vanishes; ratio diverges")
    return num / den


def hopping_rate(V0: float) -> float:
    """Deep-lattice 1D hopping rate (V0/Er)^(3/4) exp(-2 sqrt(V0/Er)) in
    recoil units; only ratios are meaningful."""
    if not 0 < V0 < math.inf:
        raise ValueError(f"lattice depth must be positive and finite, got {V0}")
    return V0 ** 0.75 * math.exp(-2.0 * math.sqrt(V0))


def field_profiles(g: TiltGeometry):
    """The sigma+ and pi field components of the tilted standing-wave pair.

    E_plus(x, z) = sqrt(2) sin(eta) cos(k x cos eta) cos(k z sin eta)
    E_pi(x, z)   = cos(eta) sin(k x cos eta) sin(k z sin eta)
    They are quarter-period offset in both directions, so potential minima
    of one polarization sit at maxima of the other.
    """
    k, eta = _K, g.eta
    se, ce = math.sin(eta), math.cos(eta)

    def e_plus(x, z):
        return math.sqrt(2.0) * se * np.cos(k * x * ce) * np.cos(k * z * se)

    def e_pi(x, z):
        return ce * np.sin(k * x * ce) * np.sin(k * z * se)

    return e_plus, e_pi


def lattice_spacing(g: TiltGeometry) -> float:
    """Effective spacing lambda / (2 cos eta), in wavelengths; the tilt
    stretches the period."""
    return 1.0 / (2.0 * math.cos(g.eta))


def raman_parity_integral(g: TiltGeometry, sigma_x: float, sigma_z: float,
                          site: tuple = (0, 0),
                          center_offset: tuple = (0.0, 0.0)) -> float:
    """|int E_+ E_pi W_+ W_- dx dz| around one site with Gaussian Wannier
    orbitals of widths (sigma_x, sigma_z).

    In closed form: E_+ E_pi = (sqrt2 / 8) sin(2 eta) sin(bx x) sin(bz z)
    with (bx, bz) = 2k (cos eta, sin eta), and a Gaussian of width sigma
    centred on x0 maps sin(b x) to sqrt(2 pi) sigma sin(b x0)
    exp(-b^2 sigma^2 / 2).  For orbitals centered exactly on the site the
    phases b x0 and b z0 are multiples of 2 pi and the integral vanishes;
    `center_offset` displaces the orbital center to probe that cancellation.
    """
    k, eta = _K, g.eta
    x0 = site[0] * lattice_spacing(g) + center_offset[0]
    z0 = site[1] * (math.pi / (k * math.sin(eta))) + center_offset[1]
    val = math.sqrt(2.0) / 8.0 * math.sin(2.0 * eta)
    for b, sigma, c in ((2 * k * math.cos(eta), sigma_x, x0),
                        (2 * k * math.sin(eta), sigma_z, z0)):
        val *= (math.sqrt(2.0 * math.pi) * sigma * math.sin(b * c)
                * math.exp(-(b * sigma) ** 2 / 2.0))
    return abs(val)
