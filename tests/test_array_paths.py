"""The array code of the single-particle layer against the loops it replaced.

The reference functions below are the earlier implementations: one Python
loop per bond for the hopping matrices, per k-point for the Bloch blocks,
per plaquette for the fluxes and per row for the CSV and flux writers.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaugelatt import singleparticle
from gaugelatt.cli import main
from gaugelatt.lattice import (Boundary, LatticeGeometry, LinkField,
                               PhasePattern, links_from_phases,
                               magnetic_translation_x, plaquette_flux,
                               uniform_phase_pattern)
from gaugelatt.singleparticle import (ModelParams, bloch_block,
                                      bloch_block_spectrum,
                                      build_bilayer_hamiltonian,
                                      build_target_hamiltonian,
                                      butterfly_scan,
                                      commensurate_bloch_spectrum, farey_alphas)


# ---------------------------------------------------------------- references

def reference_hop_entries(geom, links, J, J2, species_offset_a,
                          species_offset_b):
    Lx, Ly = geom.Lx, geom.Ly
    torus = geom.is_torus
    if species_offset_b is None:
        species_offset_b = species_offset_a

    def site(j, k):
        return (j % Lx) * Ly + (k % Ly)

    n_x = Lx if torus else Lx - 1
    for j in range(n_x):
        for k in range(Ly):
            amp = -J * np.exp(1j * links.theta_x[j, k])
            yield species_offset_a + site(j + 1, k), species_offset_a + site(j, k), amp
    n_y = Ly if torus else Ly - 1
    for j in range(Lx):
        for k in range(n_y):
            phase = links.boundary_twist_y[j] if (torus and k == Ly - 1) else 0.0
            amp = -J * np.exp(1j * phase)
            yield species_offset_b + site(j, k + 1), species_offset_b + site(j, k), amp
    if J2 > 0:
        n_x2 = Lx if torus else Lx - 2
        for j in range(n_x2):
            for k in range(Ly):
                th = links.theta_x[j, k] + links.theta_x[(j + 1) % Lx, k]
                yield (species_offset_a + site(j + 2, k),
                       species_offset_a + site(j, k), -J2 * np.exp(1j * th))
        n_y2 = Ly if torus else Ly - 2
        for j in range(Lx):
            for k in range(n_y2):
                phase = 0.0
                if torus:
                    if k == Ly - 1 or k == Ly - 2:
                        phase = links.boundary_twist_y[j]
                yield (species_offset_b + site(j, k + 2),
                       species_offset_b + site(j, k), -J2 * np.exp(1j * phase))


def reference_assemble(entries, dim):
    rows, cols, vals = [], [], []
    for r, c, a in entries:
        rows += [r, c]
        cols += [c, r]
        vals += [a, np.conj(a)]
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    return mat.tocsr()


def reference_bilayer(geom, links, params):
    ns = geom.n_sites

    def entries():
        yield from reference_hop_entries(geom, links, params.J, params.J2, 0, ns)
        for s in range(ns):
            yield ns + s, s, params.omega
    return reference_assemble(entries(), 2 * ns)


def reference_target(geom, links, J0):
    return reference_assemble(
        reference_hop_entries(geom, links, J0, 0.0, 0, None), geom.n_sites)


def reference_bloch_block(alpha_p, alpha_q, params, kx, ky):
    q = alpha_q
    alpha = alpha_p / alpha_q
    J, w, J2 = params.J, params.omega, params.J2
    if w < 1e-20 * J:  # the program's cut-off, below any level's precision
        w = 0.0
    m = np.arange(q)
    H = np.zeros((2 * q, 2 * q), dtype=complex)
    diag_a = -2.0 * J * np.cos(kx + 2.0 * np.pi * alpha * m)
    if J2 > 0:
        diag_a += -2.0 * J2 * np.cos(2.0 * (kx + 2.0 * np.pi * alpha * m))
    H[np.arange(q), np.arange(q)] = diag_a
    for i in range(q):
        jn = (i + 1) % q
        H[q + jn, q + i] += -J * np.exp(1j * ky)
        H[q + i, q + jn] += -J * np.exp(-1j * ky)
        if J2 > 0:
            j2 = (i + 2) % q
            H[q + j2, q + i] += -J2 * np.exp(2j * ky)
            H[q + i, q + j2] += -J2 * np.exp(-2j * ky)
    H[np.arange(q), q + np.arange(q)] = w
    H[q + np.arange(q), np.arange(q)] = w
    return H


def reference_bloch_block_spectrum(alpha_p, alpha_q, params, kx, ky):
    """Every k-point its own block, all stacked into one eigvalsh call.

    Entries below 1e-20 are dropped, which moves no level by more than
    2q * 1e-20 (Weyl): OpenBLAS 0.3.31's Hermitian eigvalsh misplaces
    levels by up to 7e-8 when a block holds entries near 1e-79 (omega =
    1e-79, p/q = 3/4, k = (5 pi/4, pi/2)), and by under 3e-15 at 1e-50 or
    1e-100.
    """
    kx, ky = np.asarray(kx, dtype=float), np.asarray(ky, dtype=float)
    blocks = bloch_block(alpha_p, alpha_q, params, kx[:, None], ky[None, :])
    blocks = np.where(np.abs(blocks) < 1e-20, 0, blocks)
    q2 = 2 * alpha_q
    return np.sort(np.linalg.eigvalsh(blocks.reshape(-1, q2, q2)).ravel())


def reference_plaquette_flux(l, geom):
    tx = l.theta_x
    n_jp = geom.Lx if geom.is_torus else geom.Lx - 1
    n_kp = geom.Ly if geom.is_torus else geom.Ly - 1
    flux = np.empty((n_jp, n_kp))
    for j in range(n_jp):
        for k in range(n_kp):
            loop = tx[j, k] - tx[j, (k + 1) % geom.Ly]
            if geom.is_torus and k == geom.Ly - 1:
                loop += l.boundary_twist_y[(j + 1) % geom.Lx]
                loop -= l.boundary_twist_y[j]
            flux[j, k] = (loop / (2.0 * math.pi)) % 1.0
    return flux


def reference_butterfly_csv(path, q_max, params, resolution):
    """Blocks one k-point at a time, rows through a per-row generator."""
    ks = 2.0 * np.pi * np.arange(resolution) / resolution
    results = []
    for a in farey_alphas(q_max):
        p, q = a.numerator, a.denominator
        blocks = np.array([reference_bloch_block(p, q, params, kx, ky)
                           for kx in ks for ky in ks])
        evals = np.linalg.eigvalsh(blocks).ravel()
        evals.sort()
        results.append((p, q, evals))

    def rows():
        for p, q, evals in sorted(results, key=lambda r: (r[0] / r[1],)):
            for e in evals:
                yield p, q, p / q, float(e)

    with open(path, "w") as fh:
        fh.write("p,q,alpha,eigenvalue\n")
        for p, q, alpha, e in rows():
            fh.write(f"{p},{q},{alpha:.12g},{e:.12g}\n")


def reference_magnetic_translation_x(geom, steps):
    n = geom.n_sites
    T = np.zeros((n, n))
    for j in range(geom.Lx):
        for k in range(geom.Ly):
            T[((j + steps) % geom.Lx) * geom.Ly + k, j * geom.Ly + k] = 1.0
    return T


# ------------------------------------------------------------------ helpers

def random_links(geom, seed):
    rng = np.random.default_rng(seed)
    n_x = geom.Lx if geom.is_torus else geom.Lx - 1
    return LinkField(theta_x=rng.uniform(0, 2 * np.pi, (n_x, geom.Ly)),
                     boundary_twist_y=rng.uniform(0, 2 * np.pi, geom.Lx))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_csr(A, B):
    for attr in ("indptr", "indices", "data"):
        assert_same_bits(getattr(A, attr), getattr(B, attr))


def uniform_k(n):
    """The k grid of butterfly_scan and of the x axis of a torus."""
    return 2.0 * np.pi * np.arange(n) / n


def integer_keys(q, n):
    """The class keys min(qj mod n, n - qj mod n) of the grid 2 pi j/n, j < n,
    under k -> k + 2 pi/q and k -> -k."""
    return {min(q * j % n, n - q * j % n) for j in range(n)}


def integer_k_classes(q, n):
    """The number of classes of the grid 2 pi j/n on one axis."""
    return len(integer_keys(q, n))


def integer_orbit_blocks(q, n, sublattice):
    """The number of blocks diagonalized on the n x n grid 2 pi j/n: the
    orbits of the class pairs (a, b) of integer keys under the transpose
    (a, b) -> (b, a) and, if `sublattice` (J2 = 0), the image (|s - a|,
    |s - b|), s = n (q mod 2)/2 the key shift of k -> k + (pi, pi (q mod
    2)/q), where the image is on the grid."""
    keys = integer_keys(q, n)
    shift = n * (q % 2) / 2
    orbits = set()
    for a in keys:
        for b in keys:
            orbit = {(a, b), (b, a)}
            image = (abs(shift - a), abs(shift - b))
            if sublattice and set(image) <= keys:
                orbit |= {image, image[::-1]}
            orbits.add(frozenset(orbit))
    return len(orbits)


def assert_pooled_matches_per_k(res, p, q, params, kx, ky):
    ref = reference_bloch_block_spectrum(p, q, params, kx, ky)
    assert (res.p, res.q) == (p, q)
    # distinct ascending levels, each counted at least once
    assert res.levels.shape == res.counts.shape
    assert np.all(np.diff(res.levels) > 0) and np.all(res.counts >= 1)
    assert res.counts.sum() == 2 * q * len(kx) * len(ky)
    assert np.all(np.abs(res.eigenvalues - ref)
                  <= 1e-12 * np.maximum(1.0, np.abs(ref)))


fluxes = st.integers(1, 12).flatmap(lambda q: st.tuples(
    st.sampled_from([p for p in range(q + 1) if math.gcd(p, q) == 1]),
    st.just(q)))

bilayer_params = st.builds(
    lambda omega, J2: ModelParams(J=1.0, omega=omega, J2=J2),
    st.floats(0.0, 12.0), st.one_of(st.just(0.0), st.floats(0.01, 1.0)))

bipartite_params = st.builds(lambda omega: ModelParams(J=1.0, omega=omega),
                             st.floats(0.0, 12.0))

odd_q_fluxes = fluxes.filter(lambda flux: flux[1] % 2 == 1)

geometries = st.builds(
    lambda Lx, Ly, torus: LatticeGeometry(
        Lx, Ly, boundary=Boundary.MAGNETIC_TORUS if torus else Boundary.OPEN),
    st.integers(1, 7), st.integers(1, 7), st.booleans())


def assert_butterfly_csv_matches(tmp_path, q_max, omega, J2, resolution):
    """The CLI's butterfly CSV against the per-k reference writer."""
    out, ref = tmp_path / "b.csv", tmp_path / "ref.csv"
    assert main(["butterfly", "--q-max", str(q_max), "--resolution",
                 str(resolution), "--omega", str(omega), "--j2", str(J2),
                 "--output", str(out)]) == 0
    reference_butterfly_csv(ref, q_max, ModelParams(J=1.0, omega=omega, J2=J2),
                            resolution)
    # header, p/q/alpha columns, row order and count byte for byte.  A
    # merged k-class takes its levels from one block, within 1e-12 of the
    # per-k ones (TestKClasses); after rounding to 12 digits the printed
    # values may also differ by one unit in the last digit
    lines, ref_lines = (path.read_text().splitlines() for path in (out, ref))
    assert lines[0] == ref_lines[0] and len(lines) == len(ref_lines)
    cols, ref_cols = ([line.rsplit(",", 1) for line in rows[1:]]
                      for rows in (lines, ref_lines))
    assert [c[0] for c in cols] == [c[0] for c in ref_cols]
    e, e_ref = (np.array([float(c[1]) for c in rows])
                for rows in (cols, ref_cols))
    digit = 10.0 ** (np.floor(np.log10(np.abs(e_ref) + 1e-300)) - 11)
    assert np.all(np.abs(e - e_ref)
                  <= 1e-12 * np.maximum(1.0, np.abs(e_ref)) + digit)


# --------------------------------------------------------------- properties

class TestHopRule:
    @settings(max_examples=150, deadline=None)
    @given(geom=geometries, seed=st.integers(0, 2**32 - 1),
           J=st.floats(0.1, 3.0), omega=st.floats(0.0, 12.0),
           J2=st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    def test_bilayer_csr_is_bit_identical(self, geom, seed, J, omega, J2):
        # the reference gives the torus Ly = 1 J2 hop one wrap twist
        assume(not (geom.is_torus and geom.Ly == 1 and J2 > 0))
        links = random_links(geom, seed)
        params = ModelParams(J=J, omega=omega, J2=J2)
        assert_same_csr(build_bilayer_hamiltonian(geom, links, params),
                        reference_bilayer(geom, links, params))

    @settings(max_examples=80, deadline=None)
    @given(geom=geometries, seed=st.integers(0, 2**32 - 1),
           J0=st.floats(0.1, 3.0))
    def test_target_csr_is_bit_identical(self, geom, seed, J0):
        links = random_links(geom, seed)
        assert_same_csr(build_target_hamiltonian(geom, links, J0),
                        reference_target(geom, links, J0))

    def test_ground_size_is_bit_identical(self):
        geom = LatticeGeometry(12, 12, boundary=Boundary.MAGNETIC_TORUS)
        alpha = Fraction(1, 36)
        links = links_from_phases(uniform_phase_pattern(alpha, geom), geom,
                                  alpha=alpha)
        for J2 in (0.0, 0.1):
            params = ModelParams(J=1.0, omega=10.0, J2=J2)
            assert_same_csr(build_bilayer_hamiltonian(geom, links, params),
                            reference_bilayer(geom, links, params))


class TestBlochBlocks:
    @settings(max_examples=120, deadline=None)
    @given(q=st.integers(1, 12), p_seed=st.integers(0, 10**6),
           nx=st.integers(1, 4), ny=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), omega=st.floats(0.0, 12.0),
           J2=st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    def test_blocks_are_bit_identical(self, q, p_seed, nx, ny, seed, omega, J2):
        coprime = [p for p in range(q + 1) if math.gcd(p, q) == 1]
        p = coprime[p_seed % len(coprime)]
        rng = np.random.default_rng(seed)
        kx = rng.uniform(-2 * np.pi, 2 * np.pi, (nx, 1))
        ky = rng.uniform(-2 * np.pi, 2 * np.pi, (1, ny))
        params = ModelParams(J=1.0, omega=omega, J2=J2)
        blocks = bloch_block(p, q, params, kx, ky)
        assert blocks.shape == (nx, ny, 2 * q, 2 * q)
        ref = np.array([[reference_bloch_block(p, q, params, x, y)
                         for y in ky[0]] for x in kx[:, 0]])
        assert_same_bits(blocks, ref)

    def test_scalar_k_gives_one_block(self):
        params = ModelParams(J=1.0, omega=0.5, J2=0.1)
        block = bloch_block(2, 5, params, 0.3, -1.1)
        assert block.shape == (10, 10)
        assert_same_bits(block, reference_bloch_block(2, 5, params, 0.3, -1.1))


class TestDuality:
    """Harper's self-duality: with F_nm = e^{2 pi i p n m/q}/sqrt(q) on both
    species and W = F followed by the a <-> b swap, W H(kx, ky) W^dag =
    conj H(ky, kx)."""

    @settings(max_examples=200, deadline=None)
    @given(flux=fluxes, params=bilayer_params,
           kx=st.floats(0.0, 2 * np.pi, exclude_max=True),
           ky=st.floats(0.0, 2 * np.pi, exclude_max=True))
    def test_fourier_swap_transposes_k(self, flux, params, kx, ky):
        p, q = flux
        m = np.arange(q)
        F = np.exp(2j * np.pi * p * np.outer(m, m) / q) / np.sqrt(q)
        zero = np.zeros((q, q))
        W = np.block([[zero, F], [F, zero]])
        dual = W @ bloch_block(p, q, params, kx, ky) @ W.conj().T
        assert np.abs(dual - bloch_block(p, q, params, ky, kx).conj()).max() \
            <= 1e-12


class TestKClasses:
    """bloch_block_spectrum diagonalizes one block per class of k-points
    related by k -> k + 2 pi/q and k -> -k on each axis; the pooled levels
    must match the per-k stack."""

    @settings(max_examples=200, deadline=None)
    @given(flux=fluxes, params=bilayer_params, nx=st.integers(1, 12),
           ny=st.integers(1, 12))
    @example(flux=(3, 4), params=ModelParams(J=1.0, omega=2.0952203465918852e-79),
             nx=8, ny=4)
    def test_uniform_grid_matches_per_k(self, flux, params, nx, ny):
        p, q = flux
        res = bloch_block_spectrum(Fraction(p, q), params, nx, ny)
        assert_pooled_matches_per_k(res, p, q, params, uniform_k(nx),
                                    uniform_k(ny))

    def test_classes_are_the_integer_keys(self):
        for q in range(1, 13):
            for n in range(1, 25):
                keys = sorted(integer_keys(q, n))
                members = [[j for j in range(n)
                            if min(q * j % n, n - q * j % n) == key]
                           for key in keys]
                shifted = [abs(n * (q % 2) / 2 - key) for key in keys]
                reps, sizes, partner = singleparticle._k_classes(n, q)
                assert reps.tolist() == [m[0] for m in members]
                assert sizes.tolist() == [len(m) for m in members]
                assert partner.tolist() == [
                    keys.index(s) if s in keys else -1 for s in shifted]

    def test_tiny_omega_gives_the_levels_of_omega_zero(self):
        # eigvalsh puts these levels 1e-11 off if omega = 1e-78 is kept
        tiny, zero = (bloch_block_spectrum(Fraction(1, 4),
                                           ModelParams(J=1.0, omega=omega), 8, 8)
                      for omega in (1e-78, 0.0))
        ref = zero.eigenvalues
        assert np.all(np.abs(tiny.eigenvalues - ref)
                      <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @settings(max_examples=100, deadline=None)
    @given(flux=fluxes, params=bilayer_params, Lx=st.integers(1, 12),
           cells=st.integers(1, 3))
    def test_commensurate_grid_matches_per_k(self, flux, params, Lx, cells):
        p, q = flux
        geom = LatticeGeometry(Lx, q * cells, boundary=Boundary.MAGNETIC_TORUS)
        res = commensurate_bloch_spectrum(Fraction(p, q), params, geom)
        ky = 2.0 * np.pi * np.arange(cells) / (q * cells)
        assert_pooled_matches_per_k(res, p, q, params, uniform_k(Lx), ky)

    @settings(max_examples=50, deadline=None)
    @given(flux=fluxes, params=bilayer_params)
    def test_single_point_matches_per_k(self, flux, params):
        p, q = flux
        res = bloch_block_spectrum(Fraction(p, q), params, 1, 1)
        assert_pooled_matches_per_k(res, p, q, params, [0.0], [0.0])

    @settings(max_examples=100, deadline=None)
    @given(flux=odd_q_fluxes, params=bipartite_params,
           nx=st.integers(1, 6), ny=st.integers(1, 6))
    def test_paired_classes_match_per_k(self, flux, params, nx, ny):
        # with J2 = 0 and odd q, the classes of an even grid pair up by
        # k -> k + (pi, pi/q); an odd grid holds no partner
        p, q = flux
        for mx, my in ((2 * nx, 2 * ny), (2 * nx - 1, 2 * ny - 1)):
            res = bloch_block_spectrum(Fraction(p, q), params, mx, my)
            assert_pooled_matches_per_k(res, p, q, params, uniform_k(mx),
                                        uniform_k(my))

    @pytest.fixture
    def built(self, monkeypatch):
        """The number of blocks of each bloch_block call, in order."""
        sizes = []
        build = singleparticle.bloch_block

        def counted(p, q, params, kx, ky):
            sizes.append(np.broadcast(kx, ky).size)
            return build(p, q, params, kx, ky)

        monkeypatch.setattr(singleparticle, "bloch_block", counted)
        return sizes

    def test_one_block_per_integer_class(self, built):
        params = ModelParams(J=1.0, omega=2.0, J2=0.3)
        for q in range(1, 13):
            for n in range(1, 13):
                built.clear()
                bloch_block_spectrum(Fraction(1, q), params, n, n)
                assert sum(built) == integer_orbit_blocks(q, n, False)

    def test_unequal_grids_are_not_transposed(self, built):
        # a torus solves one block per pair of an x class and a y class,
        # but a square one only one per transposed pair of them
        params = ModelParams(J=1.0, omega=2.0, J2=0.3)
        for q in range(1, 13):
            Ly = 2 * q
            for Lx in sorted({6, Ly}):
                for p in range(q + 1):
                    if math.gcd(p, q) != 1:
                        continue
                    built.clear()
                    geom = LatticeGeometry(Lx, Ly,
                                           boundary=Boundary.MAGNETIC_TORUS)
                    commensurate_bloch_spectrum(Fraction(p, q), params, geom)
                    assert sum(built) == (
                        integer_orbit_blocks(q, Ly, False) if Lx == Ly
                        else integer_k_classes(q, Lx) * integer_k_classes(q, Ly))

    def test_one_block_per_pair_of_integer_classes(self, built):
        params = ModelParams(J=1.0, omega=2.0)
        for q in range(1, 13):
            for n in range(1, 13):
                built.clear()
                bloch_block_spectrum(Fraction(1, q), params, n, n)
                assert sum(built) == integer_orbit_blocks(q, n, True)

    # the fluxes alpha <= 1/2 only: each alpha > 1/2 reuses 1 - alpha
    @pytest.mark.parametrize("J2,blocks", [(0.0, 1003), (0.1, 1555)])
    def test_butterfly_scan_block_count(self, built, J2, blocks):
        for _ in butterfly_scan(30, ModelParams(J=1.0, J2=J2), resolution=8):
            pass
        assert sum(built) == blocks

    def test_chunks_give_the_same_bits(self, built, monkeypatch):
        # J2 > 0 diagonalizes the 28 transpose pairs of the 7 x 7 classes;
        # J2 = 0 also pairs them by the sublattice image into 16 blocks
        full = singleparticle.BLOCK_BYTES
        for J2, total in ((0.2, 28), (0.0, 16)):
            params = ModelParams(J=1.0, omega=1.5, J2=J2)
            monkeypatch.setattr(singleparticle, "BLOCK_BYTES", full)
            built.clear()
            whole = bloch_block_spectrum(Fraction(2, 7), params, 12, 12)
            assert built == [total]
            for blocks in (1, 5):
                built.clear()
                monkeypatch.setattr(singleparticle, "BLOCK_BYTES",
                                    blocks * 16 * 14 ** 2)
                chunked = bloch_block_spectrum(Fraction(2, 7), params, 12, 12)
                assert max(built) == blocks and sum(built) == total
                assert_same_bits(chunked.eigenvalues, whole.eigenvalues)


class TestFluxMirror:
    """H(1 - p/q, kx, ky) = conj H(p/q, -kx, -ky), and the grid 2 pi j/n is
    closed under k -> -k: the pooled spectra of p/q and 1 - p/q agree."""

    @settings(max_examples=150, deadline=None)
    @given(flux=fluxes, params=bilayer_params, nx=st.integers(1, 9),
           ny=st.integers(1, 9))
    def test_mirror_flux_has_the_same_spectrum(self, flux, params, nx, ny):
        p, q = flux
        e, mirror = (bloch_block_spectrum(a, params, nx, ny).eigenvalues
                     for a in (Fraction(p, q), 1 - Fraction(p, q)))
        assert np.all(np.abs(mirror - e) <= 1e-12 * np.maximum(1.0, np.abs(e)))

    @settings(max_examples=20, deadline=None)
    @given(q_max=st.integers(2, 9), params=bilayer_params,
           n=st.integers(1, 9))
    def test_scan_matches_a_direct_call_at_every_flux(self, q_max, params, n):
        solved = []
        compute = singleparticle.bloch_block_spectrum

        def recorded(alpha, *args):
            solved.append(alpha)
            return compute(alpha, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(singleparticle, "bloch_block_spectrum", recorded)
            scan = list(butterfly_scan(q_max, params, resolution=n))
        alphas = farey_alphas(q_max)
        assert solved == [a for a in alphas if 2 * a <= 1]
        assert [(r.p, r.q) for r in scan] == [
            (a.numerator, a.denominator) for a in alphas]
        for r in scan:
            e = bloch_block_spectrum(Fraction(r.p, r.q), params, n,
                                     n).eigenvalues
            assert np.all(np.abs(r.eigenvalues - e)
                          <= 1e-12 * np.maximum(1.0, np.abs(e)))


class TestPlaquetteFlux:
    @settings(max_examples=150, deadline=None)
    @given(geom=geometries, seed=st.integers(0, 2**32 - 1))
    def test_flux_is_bit_identical(self, geom, seed):
        links = random_links(geom, seed)
        assert_same_bits(plaquette_flux(links, geom),
                         reference_plaquette_flux(links, geom))


class TestWriters:
    def test_butterfly_csv_is_byte_identical(self, tmp_path, capsys):
        assert_butterfly_csv_matches(tmp_path, 7, 2.5, 0.1, 3)

    def test_paired_butterfly_csv_matches(self, tmp_path, capsys):
        # J2 = 0 on an even grid: odd-q classes pair by the sublattice map.
        # Levels near zero (about 1e-16) may change sign and swap places
        # within a flux, inside the same tolerance
        assert_butterfly_csv_matches(tmp_path, 8, 0.0, 0.0, 4)

    @pytest.mark.parametrize("Lx,Ly,torus", [(4, 6, True), (5, 3, False),
                                             (1, 4, False)])
    def test_flux_stdout_is_byte_identical(self, tmp_path, capsys, Lx, Ly,
                                           torus):
        geom = LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS
                               if torus else Boundary.OPEN)
        alpha = Fraction(1, Lx * Ly) if torus else None
        pattern = PhasePattern(
            phi=np.random.default_rng(Lx).uniform(0, 7, (Lx, Ly)))
        path = tmp_path / "pattern.json"
        path.write_text(pattern.to_json(geom))
        argv = ["flux", str(path)] + (["--alpha", str(alpha)] if torus else [])
        assert main(argv) == 0
        flux = plaquette_flux(links_from_phases(pattern, geom, alpha=alpha), geom)
        expected = "".join(f"{j},{k},{flux[j, k]:.12g}\n"
                           for j in range(flux.shape[0])
                           for k in range(flux.shape[1]))
        assert capsys.readouterr().out == expected


class TestMagneticTranslation:
    @pytest.mark.parametrize("Lx,Ly,steps", [(4, 3, 1), (4, 3, 2), (5, 2, -3),
                                             (3, 4, 7), (1, 5, 1), (6, 1, -1)])
    def test_matches_per_site_loop(self, Lx, Ly, steps):
        geom = LatticeGeometry(Lx, Ly, boundary=Boundary.MAGNETIC_TORUS)
        perm = magnetic_translation_x(geom, Fraction(0), steps)
        T = np.zeros((geom.n_sites, geom.n_sites))
        T[perm, np.arange(geom.n_sites)] = 1.0  # site s -> perm[s]
        assert_same_bits(T, reference_magnetic_translation_x(geom, steps))
