import csv
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from gaugelatt.beamsynth import (BeamArray, ModeFunction, WannierModel,
                                 condition_number, forward_check,
                                 overlap_matrix, solve_beams,
                                 target_from_pattern, wannier_width)
from gaugelatt.lattice import (LatticeGeometry, PhasePattern,
                               links_from_phases, plaquette_flux,
                               uniform_phase_pattern)


def wannier(depth_a=5.0, depth_b=25.0):
    return WannierModel(sigma_a=wannier_width(depth_a), sigma_b=wannier_width(depth_b))


def quadrature_entry(d, wm, mf):
    """Brute-force 2D quadrature of the beam/Wannier-product overlap, with
    the beam the normalized Gaussian of waist w (int |A|^2 = 1)."""
    na = 1 / math.sqrt(math.pi * wm.sigma_a ** 2)
    nb = 1 / math.sqrt(math.pi * wm.sigma_b ** 2)
    nw = math.sqrt(2 / (math.pi * mf.w ** 2))

    def f(y, x):
        wa = na * math.exp(-(x * x + y * y) / (2 * wm.sigma_a ** 2))
        wb = nb * math.exp(-(x * x + y * y) / (2 * wm.sigma_b ** 2))
        beam = nw * math.exp(-((x - d[0]) ** 2 + (y - d[1]) ** 2) / mf.w ** 2)
        return wa * wb * beam

    lim = 8 * max(wm.sigma_a, wm.sigma_b, mf.w)
    val, _ = dblquad(f, -lim, lim, lambda x: -lim, lambda x: lim,
                     epsabs=1e-13, epsrel=1e-12)
    return val


def dense_reference(geom, wm, mf, drop_tol=1e-14):
    """The unfactored overlap assembly: T[target site, beam center] over the
    full (Lx*Ly)^2 distance matrix, entries below drop_tol zeroed."""
    n = geom.n_sites
    xs = np.empty((n, 2))
    for j in range(geom.Lx):
        for k in range(geom.Ly):
            xs[j * geom.Ly + k] = (j, k)
    d2 = ((xs[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)
    sa2, sb2 = wm.sigma_a ** 2, wm.sigma_b ** 2
    inv_s2 = 0.5 / sa2 + 0.5 / sb2
    w2 = mf.w ** 2
    inv_w2 = 1.0 / w2
    inv_tot = inv_s2 + inv_w2
    n_ab = 1.0 / (math.pi * wm.sigma_a * wm.sigma_b)
    n_beam = math.sqrt(2.0 / (math.pi * w2))
    pref = n_ab * n_beam * math.pi / inv_tot
    decay = inv_s2 * inv_w2 / inv_tot
    T = pref * np.exp(-decay * d2)
    T[T < drop_tol] = 0.0
    return T


def write_csv_loop(beams, path, geom):
    """The per-site CSV writer that BeamArray.write_csv replaces."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "k", "amplitude", "phase"])
        for j in range(geom.Lx):
            for k in range(geom.Ly):
                i = j * geom.Ly + k
                writer.writerow([j, k, f"{beams.amplitudes[i]:.12g}",
                                 f"{beams.phases[i]:.12g}"])


class TestWannierWidth:
    def test_deep_lattice_limit(self):
        assert wannier_width(1e8) < 1e-2

    def test_unit_depth(self):
        assert wannier_width(1.0) == pytest.approx(1 / math.pi)

    def test_quarter_power_scaling(self):
        assert wannier_width(16.0) / wannier_width(1.0) == pytest.approx(0.5)

    def test_unit_depth_against_band_wannier_moment(self):
        # crude band-structure cross-check: ground state of the 1D cosine
        # well on a dense grid, second moment within 20% of the Gaussian width
        n = 512
        L = 1.0
        x = np.arange(n) / n - 0.5
        dx = 1.0 / n
        V0 = 6.0
        # recoil units: Er = hbar^2 k^2 / 2m with k = pi / r0 -> kinetic
        # prefactor 1/pi^2 on the second derivative
        kin = np.zeros((n, n))
        for i in range(n):
            kin[i, i] = 2.0
            kin[i, (i + 1) % n] = -1.0
            kin[i, (i - 1) % n] = -1.0
        kin /= (math.pi ** 2 * dx ** 2)
        pot = np.diag(V0 * np.sin(math.pi * x) ** 2)
        evals, evecs = np.linalg.eigh(kin + pot)
        g = np.abs(evecs[:, 0]) ** 2
        g /= g.sum()
        second = float(np.sum(g * x ** 2))
        sigma_num = math.sqrt(second)
        assert wannier_width(V0) == pytest.approx(sigma_num, rel=0.2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            wannier_width(-1.0)


class TestOverlapMatrix:
    def test_single_site_matches_quadrature(self):
        geom = LatticeGeometry(1, 1)
        wm, mf = wannier(), ModeFunction(w=0.5)
        T = overlap_matrix(geom, wm, mf)
        assert T.T.shape == (1, 1)
        assert T.T[0, 0] == pytest.approx(quadrature_entry((0, 0), wm, mf),
                                          rel=1e-12)

    def test_neighbor_entry_matches_quadrature(self):
        geom = LatticeGeometry(2, 1)
        wm, mf = wannier(), ModeFunction(w=0.5)
        T = overlap_matrix(geom, wm, mf)
        assert T.T[0, 1] == pytest.approx(quadrature_entry((1, 0), wm, mf),
                                          rel=1e-12)

    def test_narrow_beam_asymptotics(self):
        # w << sigma: T(d) approaches A-norm * W_a(d) W_b(d)
        wm = wannier()
        w = wm.sigma_a / 20
        mf = ModeFunction(w=w)
        geom = LatticeGeometry(2, 1)
        T = overlap_matrix(geom, wm, mf, drop_tol=0.0)
        d = 1.0
        na = 1 / math.sqrt(math.pi * wm.sigma_a ** 2)
        nb = 1 / math.sqrt(math.pi * wm.sigma_b ** 2)
        wawb = (na * nb * math.exp(-d * d / (2 * wm.sigma_a ** 2))
                * math.exp(-d * d / (2 * wm.sigma_b ** 2)))
        beam_mass = math.sqrt(2 / (math.pi * w ** 2)) * math.pi * w ** 2
        assert T.T[0, 1] == pytest.approx(wawb * beam_mass, rel=0.02)

    def test_translation_invariance_interior(self):
        geom = LatticeGeometry(5, 5)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.5)).T
        # entry depends only on the site separation
        def idx(j, k):
            return j * 5 + k
        assert T[idx(1, 1), idx(2, 2)] == pytest.approx(
            T[idx(2, 2), idx(3, 3)], rel=1e-12)
        assert T[idx(1, 2), idx(1, 3)] == pytest.approx(
            T[idx(3, 1), idx(3, 2)], rel=1e-12)

    def test_entries_nonnegative_and_banded(self):
        geom = LatticeGeometry(6, 6)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.3)).T
        assert np.all(T >= 0.0)
        j, k = np.divmod(np.arange(geom.n_sites), geom.Ly)
        d2 = (j[:, None] - j) ** 2 + (k[:, None] - k) ** 2
        assert np.all(T[d2 >= 36] == 0.0)


class TestSolveBeams:
    def test_narrow_beam_diagonal_limit(self):
        geom = LatticeGeometry(3, 3)
        wm = wannier()
        mf = ModeFunction(w=0.05)
        T = overlap_matrix(geom, wm, mf)
        target = np.full(9, 0.7 + 0.2j)
        beams, diag = solve_beams(T, target)
        x = beams.weights
        np.testing.assert_allclose(x, target / np.diag(T.T), rtol=1e-8)

    def test_uniform_target_uniform_interior(self):
        geom = LatticeGeometry(9, 9)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.5))
        target = np.exp(1j * 0.3) * np.ones(81)
        beams, _ = solve_beams(T, target)
        w = beams.weights.reshape(9, 9)
        interior = w[3:6, 3:6]
        assert np.max(np.abs(interior - interior[1, 1])) < 1e-5

    def test_checkerboard_round_trip(self):
        geom = LatticeGeometry(16, 16)
        j = np.arange(16)[:, None]
        k = np.arange(16)[None, :]
        pat = PhasePattern(phi=math.pi * ((j + k) % 2).astype(float))
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.5))
        target = target_from_pattern(pat)
        beams, diag = solve_beams(T, target)
        achieved = forward_check(T, beams)
        phase_err = np.abs(np.angle(achieved * np.conj(target)))
        assert phase_err.max() < 1e-8
        assert diag["relative_residual"] <= 1e-10

    def test_condition_number_guard(self):
        geom = LatticeGeometry(8, 8)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.9))
        # a rank-one x factor (every beam column identical) makes T singular
        bad = dataclasses.replace(T, kx=np.ones_like(T.kx))
        assert condition_number(bad) > 1e12
        with pytest.raises(RuntimeError, match="condition number"):
            solve_beams(bad, np.ones(64, dtype=complex))

    def test_size_mismatch_rejected(self):
        T = overlap_matrix(LatticeGeometry(3, 4), wannier(), ModeFunction(w=0.5))
        with pytest.raises(ValueError, match="sizes do not match"):
            solve_beams(T, np.ones(13, dtype=complex))


class TestForwardCheck:
    def test_solve_round_trip(self):
        geom = LatticeGeometry(6, 6)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.5))
        rng = np.random.default_rng(2)
        target = np.exp(1j * rng.uniform(0, 2 * math.pi, 36))
        beams, _ = solve_beams(T, target)
        achieved = forward_check(T, beams)
        assert np.linalg.norm(achieved - target) / np.linalg.norm(target) < 1e-10

    def test_zero_beams(self):
        geom = LatticeGeometry(4, 4)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.5))
        beams = BeamArray(amplitudes=np.zeros(16), phases=np.zeros(16))
        np.testing.assert_array_equal(forward_check(T, beams), np.zeros(16))

    def test_random_beams_match_quadrature(self):
        geom = LatticeGeometry(4, 4)
        wm, mf = wannier(), ModeFunction(w=0.4)
        T = overlap_matrix(geom, wm, mf, drop_tol=0.0)
        rng = np.random.default_rng(3)
        amps = rng.uniform(0.2, 1.0, 16)
        phases = rng.uniform(0, 2 * math.pi, 16)
        beams = BeamArray(amplitudes=amps, phases=phases)
        achieved = forward_check(T, beams)
        # brute-force site-by-site overlap summation at one target site
        lam = (1, 2)
        acc = 0.0 + 0.0j
        for j in range(4):
            for k in range(4):
                d = (j - lam[0], k - lam[1])
                acc += beams.weights[j * 4 + k] * quadrature_entry(d, wm, mf)
        assert achieved[lam[0] * 4 + lam[1]] == pytest.approx(acc, rel=1e-9)


class TestFactoredAgainstDense:
    @settings(max_examples=80, deadline=None)
    @given(lx=st.integers(1, 7), ly=st.integers(1, 7),
           w=st.floats(0.1, 1.5), depth_a=st.floats(3.0, 30.0),
           depth_b=st.floats(3.0, 30.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_reference(self, lx, ly, w, depth_a, depth_b, seed):
        # non-square grids catch a swapped kron order or site ordering
        geom = LatticeGeometry(lx, ly)
        wm, mf = wannier(depth_a, depth_b), ModeFunction(w=w)
        T = overlap_matrix(geom, wm, mf)
        ref = dense_reference(geom, wm, mf)
        dense = T.T
        kept = ref >= 1e-14
        np.testing.assert_allclose(dense[kept], ref[kept], rtol=1e-14, atol=0)
        # the per-axis cut keeps some entries the joint cut drops; all are tiny
        assert np.all(dense[~kept] < 1e-14)
        cond = np.linalg.cond(ref)
        if cond < 1e8:
            assert condition_number(T) == pytest.approx(cond, rel=1e-10)
        rng = np.random.default_rng(seed)
        target = np.exp(1j * rng.uniform(0, 2 * math.pi, geom.n_sites))
        beams, diag = solve_beams(T, target)
        x_ref = np.linalg.solve(ref, target)
        err = np.linalg.norm(beams.weights - x_ref) / np.linalg.norm(x_ref)
        assert err <= 1e-12
        assert diag["relative_residual"] <= 1e-10
        achieved = ref @ beams.weights
        err = np.linalg.norm(forward_check(T, beams) - achieved)
        assert err <= 1e-12 * np.linalg.norm(achieved)


class TestWriteCsv:
    def test_matches_per_site_loop(self, tmp_path):
        geom = LatticeGeometry(5, 3)
        rng = np.random.default_rng(4)
        amps = rng.uniform(0, 2, 15) * 10.0 ** rng.integers(-20, 20, 15)
        phases = rng.uniform(-math.pi, math.pi, 15)
        amps[0], phases[0] = 0.0, -0.0
        beams = BeamArray(amplitudes=amps, phases=phases)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        beams.write_csv(new, geom)
        write_csv_loop(beams, old, geom)
        assert new.read_bytes() == old.read_bytes()


class TestInvariants:
    @pytest.mark.parametrize("w", [0.3, 0.5, 0.8])
    def test_round_trip_waists(self, w):
        geom = LatticeGeometry(16, 16)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=w))
        rng = np.random.default_rng(hash(w) % 2**31)
        target = np.exp(1j * rng.uniform(0, 2 * math.pi, 256))
        beams, diag = solve_beams(T, target)
        assert diag["relative_residual"] <= 1e-10

    def test_condition_monotone_in_waist(self):
        geom = LatticeGeometry(8, 8)
        conds = []
        for w in (0.2, 0.35, 0.5, 0.65, 0.8):
            T = overlap_matrix(geom, wannier(), ModeFunction(w=w))
            conds.append(np.linalg.cond(T.T))
        assert all(b >= a for a, b in zip(conds, conds[1:]))

    def test_locality_cutoff(self):
        geom = LatticeGeometry(8, 8)
        wm, mf = wannier(), ModeFunction(w=0.5)
        T_full = overlap_matrix(geom, wm, mf, drop_tol=0.0)
        T_cut = overlap_matrix(geom, wm, mf, drop_tol=0.0)
        # drop entries beyond 3 r0 by hand
        xs = np.array([(j, k) for j in range(8) for k in range(8)], dtype=float)
        d2 = ((xs[:, None] - xs[None, :]) ** 2).sum(axis=2)
        Tc = np.where(d2 <= 9.0, T_full.T, 0.0)
        target = np.exp(1j * np.linspace(0, 5, 64))
        x_full = np.linalg.solve(T_full.T, target)
        x_cut = np.linalg.solve(Tc, target)
        assert np.linalg.norm(x_full - x_cut) / np.linalg.norm(x_full) < 1e-6

    def test_uniform_field_pipeline_flux(self):
        # synthesized uniform-field pattern feeds back through the gauge
        # pipeline with plaquette flux -alpha mod 1
        geom = LatticeGeometry(8, 8)
        alpha = Fraction(1, 16)
        pat = uniform_phase_pattern(alpha, geom)
        T = overlap_matrix(geom, wannier(), ModeFunction(w=0.5))
        beams, _ = solve_beams(T, target_from_pattern(pat))
        achieved = forward_check(T, beams)
        phi = np.angle(achieved).reshape(8, 8) % (2 * math.pi)
        links = links_from_phases(PhasePattern(phi=phi), geom)
        flux = plaquette_flux(links, geom)
        expect = (-float(alpha)) % 1.0
        diff = (flux - expect + 0.5) % 1.0 - 0.5
        np.testing.assert_allclose(diff, 0.0, atol=1e-7)
