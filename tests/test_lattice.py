import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelatt.lattice import (Boundary, LatticeGeometry, LinkField,
                               PhasePattern, links_from_phases,
                               links_from_vector_potential, plaquette_flux,
                               uniform_phase_pattern)

TWO_PI = 2 * math.pi


def torus(Lx, Ly):
    return LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS)


def brute_force_flux(links, geom):
    """Independent plaquette loop sum, written against the raw bond data."""
    n_jp = geom.Lx if geom.is_torus else geom.Lx - 1
    n_kp = geom.Ly if geom.is_torus else geom.Ly - 1
    out = np.empty((n_jp, n_kp))
    for j in range(n_jp):
        for k in range(n_kp):
            acc = links.theta_x[j, k]
            acc -= links.theta_x[j, (k + 1) % geom.Ly]
            if geom.is_torus and k == geom.Ly - 1:
                acc += links.boundary_twist_y[(j + 1) % geom.Lx]
                acc -= links.boundary_twist_y[j]
            out[j, k] = (acc / TWO_PI) % 1.0
    return out


class TestUniformPhasePattern:
    def test_zero_field(self):
        p = uniform_phase_pattern(0, LatticeGeometry(4, 5))
        assert np.all(p.phi == 0.0)

    def test_direct_evaluation(self):
        p = uniform_phase_pattern(Fraction(1, 16), LatticeGeometry(8, 8))
        assert p.phi[2, 3] == pytest.approx(2 * math.pi * 6 / 16)
        assert p.phi[2, 3] == pytest.approx(3 * math.pi / 4)

    def test_half_flux_row_alternates(self):
        # at j = 1/(2 alpha) the phase alternates by pi between neighbors
        p = uniform_phase_pattern(Fraction(1, 2), LatticeGeometry(4, 6))
        row = p.phi[1, :]
        expect = np.array([(math.pi * k) % TWO_PI for k in range(6)])
        np.testing.assert_allclose(row, expect, atol=1e-12)
        # odd columns sit at pi, even at 0: the (-1)^k pi pattern mod 2 pi
        assert np.allclose(row[1::2], math.pi)
        assert np.allclose(row[0::2], 0.0)


class TestLinksFromPhases:
    def test_constant_phase_gives_zero_links(self):
        geom = LatticeGeometry(5, 4)
        p = PhasePattern(phi=np.full((5, 4), 1.234))
        links = links_from_phases(p, geom)
        assert links.theta_x.shape == (4, 4)
        np.testing.assert_allclose(links.theta_x, 0.0, atol=1e-12)

    def test_uniform_pattern_gives_landau_links(self):
        geom = torus(6, 4)
        alpha = Fraction(1, 8)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        k = np.arange(4)
        expect = (TWO_PI * float(alpha) * k) % TWO_PI
        for j in range(6):
            np.testing.assert_allclose(links.theta_x[j], expect, atol=1e-12)

    def test_random_pattern_flux_matches_brute_force(self):
        rng = np.random.default_rng(7)
        geom = LatticeGeometry(6, 5)
        p = PhasePattern(phi=rng.uniform(0, TWO_PI, (6, 5)))
        links = links_from_phases(p, geom)
        np.testing.assert_allclose(plaquette_flux(links, geom),
                                   brute_force_flux(links, geom), atol=1e-12)

    def test_open_boundary_has_no_wrap(self):
        geom = LatticeGeometry(4, 4)
        links = links_from_phases(uniform_phase_pattern(Fraction(1, 4), geom), geom)
        assert links.theta_x.shape == (3, 4)
        assert np.all(links.boundary_twist_y == 0.0)

    def test_torus_requires_integer_total_flux(self):
        geom = torus(3, 3)
        with pytest.raises(ValueError, match="integer"):
            links_from_phases(uniform_phase_pattern(Fraction(1, 16), geom),
                              geom, alpha=Fraction(1, 16))


class TestPlaquetteFlux:
    def test_zero_links_zero_flux(self):
        geom = LatticeGeometry(4, 4)
        links = LinkField(theta_x=np.zeros((3, 4)),
                          boundary_twist_y=np.zeros(4))
        assert np.all(plaquette_flux(links, geom) == 0.0)

    def test_uniform_landau_flux_sign(self):
        geom = torus(4, 4)
        alpha = Fraction(1, 16)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        flux = plaquette_flux(links, geom)
        np.testing.assert_allclose(flux, 15 / 16, atol=1e-12)
        # with the opposite sign convention: +alpha in every plaquette
        np.testing.assert_allclose(-flux % 1.0, 1 / 16, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4, 5)])
    def test_link_shape_mismatch_rejected(self, shape):
        links = LinkField(theta_x=np.zeros(shape), boundary_twist_y=np.zeros(4))
        with pytest.raises(ValueError, match="inconsistent"):
            plaquette_flux(links, torus(4, 4))

    def test_total_flux_integer_on_torus(self):
        geom = torus(8, 8)
        alpha = Fraction(1, 16)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        total = float(plaquette_flux(links, geom).sum())
        assert total == pytest.approx(round(total), abs=1e-12)


class TestVectorPotential:
    def test_zero_potential(self):
        geom = LatticeGeometry(4, 3)
        links = links_from_vector_potential(lambda x, y: 0.0, geom)
        np.testing.assert_allclose(links.theta_x, 0.0, atol=1e-12)

    def test_landau_gauge_matches_uniform_pattern(self):
        geom = LatticeGeometry(5, 4)
        alpha = 1 / 8
        links = links_from_vector_potential(lambda x, y: alpha * y, geom)
        pat_links = links_from_phases(uniform_phase_pattern(Fraction(1, 8), geom),
                                      geom)
        np.testing.assert_allclose(links.theta_x, pat_links.theta_x, atol=1e-11)

    def test_constant_offset_is_pure_gauge(self):
        geom = LatticeGeometry(5, 4)
        alpha, c = 1 / 8, 0.7319
        l1 = links_from_vector_potential(lambda x, y: alpha * y, geom)
        l2 = links_from_vector_potential(lambda x, y: alpha * y + c, geom)
        np.testing.assert_allclose(plaquette_flux(l1, geom),
                                   plaquette_flux(l2, geom), atol=1e-11)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nonfinite_potential_rejected(self):
        geom = LatticeGeometry(2, 2)
        with pytest.raises(ValueError):
            links_from_vector_potential(lambda x, y: float("nan"), geom)


class TestGaugeInvariance:
    # Offsets constant along y are the gauge freedom representable with
    # phase-free y bonds; y-dependent offsets change the physical flux.
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_column_offsets_leave_flux_invariant(self, seed):
        rng = np.random.default_rng(seed)
        geom = LatticeGeometry(5, 5)
        base = rng.uniform(0, TWO_PI, (5, 5))
        delta = np.repeat(rng.uniform(0, TWO_PI, (5, 1)), 5, axis=1)
        f1 = plaquette_flux(links_from_phases(PhasePattern(phi=base), geom), geom)
        f2 = plaquette_flux(
            links_from_phases(PhasePattern(phi=base + delta), geom), geom)
        # fluxes are defined mod 1
        diff = (f1 - f2 + 0.5) % 1.0 - 0.5
        np.testing.assert_allclose(diff, 0.0, atol=1e-12)

    def test_torus_gauge_offsets(self):
        rng = np.random.default_rng(3)
        geom = torus(4, 4)
        alpha = Fraction(1, 4)
        base = uniform_phase_pattern(alpha, geom)
        delta = np.repeat(rng.uniform(0, TWO_PI, (4, 1)), 4, axis=1)
        f1 = plaquette_flux(links_from_phases(base, geom, alpha=alpha), geom)
        f2 = plaquette_flux(
            links_from_phases(PhasePattern(phi=base.phi + delta), geom,
                              alpha=alpha), geom)
        diff = (f1 - f2 + 0.5) % 1.0 - 0.5
        np.testing.assert_allclose(diff, 0.0, atol=1e-12)


class TestSerialization:
    def test_json_round_trip(self):
        geom = torus(3, 4)
        p = uniform_phase_pattern(Fraction(1, 12), geom)
        text = p.to_json(geom)
        p2, geom2 = PhasePattern.from_json(text)
        assert geom2 == geom
        np.testing.assert_allclose(p2.phi, p.phi)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LatticeGeometry(0, 4)
        with pytest.raises(ValueError):
            PhasePattern(phi=np.array([[np.inf]]))
