"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines as they complete."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from gaugelatt.lattice import (Boundary, LatticeGeometry, links_from_phases,
                               plaquette_flux, uniform_phase_pattern)
from gaugelatt.laughlin import (laughlin_lattice_states, laughlin_overlap,
                                theta1, theta_with_characteristics)
from gaugelatt.manybody import (build_fock_basis,
                                build_manybody_hamiltonian, c_mode_number,
                                lowest_eigenstates, motional_density_matrix,
                                purity, second_quantize, subspace_overlap)
from gaugelatt.singleparticle import (ModelParams, build_target_hamiltonian,
                                      butterfly_scan,
                                      commensurate_bloch_spectrum,
                                      finite_lattice_spectrum)
from gaugelatt.trapdesign import (TiltGeometry, hopping_rate,
                                  lattice_spacing, potential_ratio,
                                  raman_parity_integral)
from gaugelatt.beamsynth import (ModeFunction, WannierModel, forward_check,
                                 overlap_matrix, solve_beams,
                                 target_from_pattern, wannier_width)


@contextmanager
def criterion(n, label):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {n} ({label}): FAIL "
              f"[{time.monotonic() - t0:.1f} s]", flush=True)
        raise
    print(f"criterion {n} ({label}): PASS "
          f"[{time.monotonic() - t0:.1f} s]", flush=True)


def torus(Lx, Ly):
    return LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS)


def reference_links(geom, alpha):
    return links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                             alpha=alpha)


@pytest.fixture(scope="module")
def reference_ed():
    """8x8 magnetic torus, N=2, alpha=1/16, U=omega=10J: three lowest
    bilayer eigenpairs (E, V) plus the Laughlin reference subspace."""
    geom = torus(8, 8)
    alpha = Fraction(1, 16)
    links = reference_links(geom, alpha)
    basis = build_fock_basis(128, 2)
    params = ModelParams(J=1.0, omega=10.0, U=10.0)
    H = build_manybody_hamiltonian(geom, links, params, basis)
    E, V = lowest_eigenstates(H, 3)
    sub = laughlin_lattice_states(2, alpha, geom)
    return geom, alpha, links, basis, E, V, sub


@pytest.fixture(scope="module")
def reference_ed_j2(reference_ed):
    geom, alpha, links, basis, _, _, _ = reference_ed
    params = ModelParams(J=1.0, omega=10.0, U=10.0, J2=0.1)
    H = build_manybody_hamiltonian(geom, links, params, basis)
    return lowest_eigenstates(H, 2)[1]


def target_model_ground_pair(geom, links, U=10.0):
    """Two-state ground space of the single-species effective model with an
    on-site interaction, as the rows of a (2, size) array over the motional
    Fock basis build_fock_basis(Lx Ly, 2)."""
    ns = geom.n_sites
    H1 = build_target_hamiltonian(geom, links, 1.0)
    basis = build_fock_basis(ns, 2)
    H = second_quantize(H1, basis).tolil()
    for i in np.flatnonzero(basis.modes[:, 0] == basis.modes[:, 1]):
        H[i, i] += 2.0 * U
    _, V = lowest_eigenstates(H.tocsr(), 2)
    return V.T


def test_criterion_1_trap_design():
    with criterion(1, "trap design numbers"):
        assert potential_ratio(-7, 1) == 5.0
        ratio = hopping_rate(25.0) / hopping_rate(5.0)
        assert abs(ratio - 0.0133) <= 0.0005


def test_criterion_2_band_structure():
    with criterion(2, "butterfly band structure"):
        res = butterfly_scan(50, ModelParams(J=1.0, omega=10.0), resolution=8)
        for r in res:
            e = r.eigenvalues
            inside = ((e >= -12.0 - 1e-9) & (e <= -8.0 + 1e-9)) | \
                     ((e >= 8.0 - 1e-9) & (e <= 12.0 + 1e-9))
            assert inside.all(), f"alpha={r.p}/{r.q} leaves the band windows"
        res3 = butterfly_scan(50, ModelParams(J=1.0, omega=3.0), resolution=8)
        for r in res3:
            e = np.sort(r.eigenvalues)
            half = e.size // 2
            assert e[half] - e[half - 1] > 0.0, \
                f"alpha={r.p}/{r.q} bands touch at omega=3J"


def test_criterion_3_bloch_vs_finite():
    with criterion(3, "Bloch vs finite-lattice oracle"):
        cases = [(Fraction(1, 4), torus(4, 4)),
                 (Fraction(1, 8), torus(8, 8)),
                 (Fraction(1, 16), torus(8, 16))]
        params = ModelParams(J=1.0, omega=10.0)
        for alpha, geom in cases:
            bloch = commensurate_bloch_spectrum(alpha, params, geom)
            finite = finite_lattice_spectrum(alpha, params, geom)
            a = np.sort(bloch.eigenvalues)
            b = np.sort(finite.eigenvalues)
            assert a.size == b.size
            assert np.max(np.abs(a - b)) < 1e-10


def test_criterion_4_reference_manybody(reference_ed):
    with criterion(4, "reference many-body experiment"):
        geom, alpha, links, basis, e, V, _ = reference_ed
        assert basis.size == 8256
        assert e[1] - e[0] < 1e-6
        assert e[2] - e[1] > 100 * max(e[1] - e[0], 1e-12)
        target_pair = target_model_ground_pair(geom, links)
        for v in V.T[:2]:
            rho = motional_density_matrix(v, basis)
            assert purity(rho) >= 0.99
            assert abs(c_mode_number(v, basis) - 2.0) <= 0.005
            assert subspace_overlap(rho, target_pair) >= 0.99


def test_criterion_5_laughlin_overlap(reference_ed):
    with criterion(5, "Laughlin overlap"):
        _, _, _, basis, _, V, sub = reference_ed
        for v in V.T[:2]:
            assert laughlin_overlap(motional_density_matrix(v, basis),
                                    sub) >= 0.98
        # basis independence: total overlap invariant under remixing the pair
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Q, _ = np.linalg.qr(a)
        mixed = V[:, :2] @ Q.T
        t_orig = sum(laughlin_overlap(motional_density_matrix(v, basis), sub)
                     for v in V.T[:2])
        t_mix = sum(laughlin_overlap(motional_density_matrix(v, basis), sub)
                    for v in mixed.T)
        assert abs(t_orig - t_mix) < 1e-10


def test_criterion_6_second_neighbor(reference_ed, reference_ed_j2):
    with criterion(6, "second-neighbor robustness"):
        _, _, _, basis, _, V, sub = reference_ed
        base = min(laughlin_overlap(motional_density_matrix(v, basis), sub)
                   for v in V.T[:2])
        vals = [laughlin_overlap(motional_density_matrix(v, basis), sub)
                for v in reference_ed_j2.T]
        assert min(vals) >= 0.98
        assert base - min(vals) <= 0.01


def test_criterion_7_beam_round_trip():
    with criterion(7, "beam synthesis round trip"):
        geom = LatticeGeometry(16, 16)
        wm = WannierModel(sigma_a=wannier_width(5.0),
                          sigma_b=wannier_width(25.0))
        T = overlap_matrix(geom, wm, ModeFunction(w=0.5))
        j = np.arange(16)[:, None]
        k = np.arange(16)[None, :]
        checker = (math.pi * ((j + k) % 2)).astype(float)
        uniform = uniform_phase_pattern(Fraction(1, 16), geom).phi
        for phi in (checker, uniform):
            target = np.exp(1j * phi).ravel()
            beams, diag = solve_beams(T, target)
            achieved = forward_check(T, beams)
            assert diag["relative_residual"] <= 1e-10
            phase_err = np.abs(np.angle(achieved * np.conj(target)))
            assert phase_err.max() < 1e-8
            assert diag["condition_number"] > 0


def test_criterion_8_parity_cancellation():
    with criterion(8, "Raman parity cancellation"):
        sx = sz = 0.08
        sites = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                 (1, -1), (1, 0), (1, 1)]
        for eta in (math.pi / 6, math.pi / 4, math.pi / 3):
            g = TiltGeometry(eta=eta)
            norm = (2 * math.pi * sx * sz * math.sqrt(2)
                    * math.sin(eta) * math.cos(eta))
            for site in sites:
                val = raman_parity_integral(g, sx, sz, site=site)
                assert val / norm < 1e-12


def test_criterion_9_property_suites():
    with criterion(9, "property suites"):
        # gauge invariance of fluxes and spectra under per-column offsets
        geom = torus(4, 4)
        alpha = Fraction(1, 4)
        pat = uniform_phase_pattern(alpha, geom)
        rng = np.random.default_rng(3)
        offs = rng.uniform(0, 2 * math.pi, geom.Lx)
        shifted = pat.__class__(phi=(pat.phi + offs[:, None]) % (2 * math.pi))
        links0 = links_from_phases(pat, geom, alpha=alpha)
        links1 = links_from_phases(shifted, geom, alpha=alpha)
        f0 = plaquette_flux(links0, geom)
        f1 = plaquette_flux(links1, geom)
        d = (f0 - f1 + 0.5) % 1.0 - 0.5
        assert np.max(np.abs(d)) < 1e-10
        params = ModelParams(J=1.0, omega=4.0)
        from gaugelatt.singleparticle import build_bilayer_hamiltonian
        e0 = np.linalg.eigvalsh(
            build_bilayer_hamiltonian(geom, links0, params).toarray())
        e1 = np.linalg.eigvalsh(
            build_bilayer_hamiltonian(geom, links1, params).toarray())
        assert np.max(np.abs(e0 - e1)) < 1e-10

        # Hermiticity
        H = build_bilayer_hamiltonian(geom, links0,
                                      ModelParams(J=1.0, omega=4.0, J2=0.1))
        assert abs(H - H.getH()).max() < 1e-14

        # theta-function symmetry identities
        tau = 0.3 + 1.1j
        for z in (0.4 + 0.2j, -1.1 + 0.7j, 2.3 - 0.4j):
            assert abs(theta1(-z, tau) + theta1(z, tau)) < 1e-13 * max(
                abs(theta1(z, tau)), 1.0)
            a = theta1(z + math.pi, tau)
            assert abs(a + theta1(z, tau)) < 1e-12 * max(abs(a), 1.0)
            v = theta_with_characteristics(z, tau, 0.5, 0.5)
            assert abs(v + theta1(z, tau)) < 1e-13 * max(abs(v), 1.0)

        # purity approaches 1 monotonically as omega grows
        geom2 = torus(4, 4)
        alpha2 = Fraction(1, 8)
        links2 = reference_links(geom2, alpha2)
        basis = build_fock_basis(32, 2)
        purities = []
        for omega in (5.0, 10.0, 20.0, 40.0):
            p = ModelParams(J=1.0, omega=omega, U=omega)
            Hmb = build_manybody_hamiltonian(geom2, links2, p, basis)
            v = lowest_eigenstates(Hmb, 1)[1][:, 0]
            purities.append(purity(motional_density_matrix(v, basis)))
        assert all(b > a for a, b in zip(purities, purities[1:]))
        assert purities[-1] > 0.999
