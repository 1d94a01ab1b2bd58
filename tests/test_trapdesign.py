import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from gaugelatt.trapdesign import (TiltGeometry, field_profiles,
                                  hopping_rate, lattice_spacing,
                                  potential_ratio, raman_parity_integral)


class TestPotentialRatio:
    def test_rubidium_example(self):
        assert potential_ratio(-7, 1) == pytest.approx(5.0)

    def test_symmetric_case(self):
        assert potential_ratio(2.5, 2.5) == pytest.approx(1.0)

    def test_vminus_zero(self):
        assert potential_ratio(1.0, 0.0) == pytest.approx(3.0)

    def test_divergence(self):
        with pytest.raises(ZeroDivisionError):
            potential_ratio(-3.0, 1.0)

    def test_scaling_invariance(self):
        r1 = potential_ratio(-7, 1)
        r2 = potential_ratio(-7e3, 1e3)
        assert r1 == pytest.approx(r2, abs=1e-14)


class TestHoppingRate:
    def test_reference_hopping_ratio(self):
        ratio = hopping_rate(25.0) / hopping_rate(5.0)
        expect = 5 ** 0.75 * math.exp(-2 * (5 - math.sqrt(5)))
        assert ratio == pytest.approx(expect, rel=1e-12)
        assert ratio == pytest.approx(0.0133, abs=5e-4)

    def test_monotone_decreasing(self):
        vals = [hopping_rate(v) for v in np.linspace(1, 50, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_identity_ratio(self):
        assert hopping_rate(4.0) / hopping_rate(4.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hopping_rate(0.0)


class TestFieldProfiles:
    def test_pi_component_vanishes_in_plane(self):
        e_plus, e_pi = field_profiles(TiltGeometry(eta=0.6))
        for x in np.linspace(-2, 2, 17):
            assert e_pi(x, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_offset(self):
        g = TiltGeometry(eta=0.7)
        e_plus, e_pi = field_profiles(g)
        a = lattice_spacing(g)
        xs = np.linspace(-2, 2, 801)
        z = 0.3
        ep = np.array([e_plus(x, z) for x in xs])
        pi_ = np.array([e_pi(x, z) for x in xs])
        # zeros of E+ along x sit at extrema of E_pi: |E_pi| maximal there
        zero_xs = a / 2 + a * np.arange(-2, 2)
        for x0 in zero_xs:
            assert abs(e_plus(x0, z)) < 1e-12
            assert abs(e_pi(x0, z)) == pytest.approx(
                np.max(np.abs(pi_)), rel=1e-4)

    def test_peak_amplitude_normalization(self):
        g = TiltGeometry(eta=0.5)
        e_plus, _ = field_profiles(g)
        assert e_plus(0.0, 0.0) == pytest.approx(math.sqrt(2) * math.sin(0.5))

    def test_pi_dies_at_steep_tilt(self):
        _, e_pi = field_profiles(TiltGeometry(eta=math.pi / 2 - 1e-9))
        assert abs(e_pi(0.3, 0.4)) < 1e-8


class TestLatticeSpacing:
    def test_small_tilt_limit(self):
        assert lattice_spacing(TiltGeometry(eta=1e-9)) == \
            pytest.approx(0.5)

    def test_sixty_degrees(self):
        assert lattice_spacing(TiltGeometry(eta=math.pi / 3)) == \
            pytest.approx(1.0)

    def test_monotone_in_eta(self):
        vals = [lattice_spacing(TiltGeometry(eta=e))
                for e in np.linspace(0.05, 1.5, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            TiltGeometry(eta=2.0)


class TestRamanParityIntegral:
    def normalization(self, g, sx, sz):
        return 2 * math.pi * sx * sz * math.sqrt(2) * math.sin(g.eta) * math.cos(g.eta)

    @pytest.mark.parametrize("eta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_vanishes_on_sites(self, eta):
        g = TiltGeometry(eta=eta)
        sx = sz = 0.08
        for site in [(-1, 0), (0, 0), (1, 0), (0, 1), (1, 1), (-1, -1),
                     (2, 0), (0, -1), (1, -1)]:
            val = raman_parity_integral(g, sx, sz, site=site)
            assert val / self.normalization(g, sx, sz) < 1e-12

    def test_displaced_center_nonzero(self):
        # the integrand is odd in x and in z separately, so the probe
        # displacement needs components in both directions
        g = TiltGeometry(eta=math.pi / 4)
        sx = sz = 0.08
        a = lattice_spacing(g)
        d = (0.1 * a, 0.1 * a)
        val = raman_parity_integral(g, sx, sz, center_offset=d)
        assert val / self.normalization(g, sx, sz) > 1e-4
        # quadrature oracle: trapezoid rule on a fine grid
        from gaugelatt.trapdesign import field_profiles
        e_plus, e_pi = field_profiles(g)
        xs = np.linspace(d[0] - 6 * sx, d[0] + 6 * sx, 601)
        zs = np.linspace(d[1] - 6 * sz, d[1] + 6 * sz, 601)
        X, Z = np.meshgrid(xs, zs, indexing="ij")
        W = np.exp(-(X - d[0]) ** 2 / (2 * sx ** 2)
                   - (Z - d[1]) ** 2 / (2 * sz ** 2))
        grid = e_plus(X, Z) * e_pi(X, Z) * W
        oracle = abs(np.trapezoid(np.trapezoid(grid, zs, axis=1), xs))
        assert val == pytest.approx(oracle, rel=1e-4)

    def test_magnitude_even_in_displacement(self):
        # the underlying integral is odd in the displacement, so opposite
        # displacements give equal magnitudes
        g = TiltGeometry(eta=math.pi / 3)
        v1 = raman_parity_integral(g, 0.08, 0.08, center_offset=(0.05, 0.05))
        v2 = raman_parity_integral(g, 0.08, 0.08,
                                   center_offset=(-0.05, -0.05))
        assert v1 == pytest.approx(v2, rel=1e-6)
        assert v1 > 0

    def test_zero_field_zero_integral(self):
        g = TiltGeometry(eta=math.pi / 2 - 1e-7)  # E_pi ~ 0
        val = raman_parity_integral(g, 0.08, 0.08, center_offset=(0.05, 0.05))
        assert val < 1e-8


class TestTradeOff:
    def test_depth_vs_spacing(self):
        etas = np.linspace(0.1, 1.4, 15)
        depth = [math.sin(e) ** 2 for e in etas]  # sigma+ amplitude squared
        spacing = [lattice_spacing(TiltGeometry(eta=e)) for e in etas]
        assert all(b > a for a, b in zip(depth, depth[1:]))
        assert all(b > a for a, b in zip(spacing, spacing[1:]))
