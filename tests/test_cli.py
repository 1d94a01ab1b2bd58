import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import gaugelatt
from gaugelatt import beamsynth, lattice, manybody, singleparticle
from gaugelatt.cli import main
from gaugelatt.lattice import (Boundary, LatticeGeometry,
                               uniform_phase_pattern)


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestButterfly:
    def test_small_scan_writes_csv_and_plot(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc, stdout, _ = run(["butterfly", "--q-max", "5", "--resolution", "4",
                             "--output", str(out)], capsys)
        assert rc == 0
        assert "wrote" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "p,q,alpha,eigenvalue"
        assert len(lines) > 10
        assert (tmp_path / "b.plot.txt").exists()
        # all eigenvalues within the tight-binding band bound
        for line in lines[1:]:
            e = float(line.split(",")[3])
            assert abs(e) <= 4.0 + 1e-9

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["butterfly", "--q-max", "4", "--resolution", "4",
             "--output", str(a)], capsys)
        run(["butterfly", "--q-max", "4", "--resolution", "4",
             "--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_writes_one_flux_at_a_time(self, tmp_path, capsys, monkeypatch):
        # before each flux is computed, count the earlier results still alive
        alive, seen, solved = 0, [], []
        compute = singleparticle.bloch_block_spectrum

        def release():
            nonlocal alive
            alive -= 1

        def tracked(alpha, *args, **kwargs):
            nonlocal alive
            seen.append(alive)
            solved.append(alpha)
            result = compute(alpha, *args, **kwargs)
            alive += 1
            weakref.finalize(result, release)
            return result

        monkeypatch.setattr(singleparticle, "bloch_block_spectrum", tracked)
        rc, stdout, _ = run(["butterfly", "--q-max", "6", "--resolution", "2",
                             "--output", str(tmp_path / "b.csv")], capsys)
        assert rc == 0
        alphas = singleparticle.farey_alphas(6)
        # each alpha > 1/2 reuses the levels of 1 - alpha
        assert solved == [a for a in alphas if 2 * a <= 1]
        assert max(seen) <= 1  # only the flux being written
        rows = sum(2 * a.denominator * 2 ** 2 for a in alphas)
        assert f"({rows} eigenvalues" in stdout
        assert len((tmp_path / "b.csv").read_text().splitlines()) == rows + 1

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_nonpositive_resolution_fails_before_writing(self, tmp_path,
                                                         capsys, resolution):
        out = tmp_path / "b.csv"
        rc, _, stderr = run(["butterfly", "--q-max", "4", "--resolution",
                             resolution, "--output", str(out)], capsys)
        assert rc == 1
        assert stderr.count("\n") == 1
        assert json.loads(stderr) == {
            "error": f"need resolution >= 1, got {resolution}",
            "command": "butterfly"}
        assert not out.exists()
        assert not (tmp_path / "b.plot.txt").exists()


class TestGround:
    def test_small_torus_report(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc, stdout, _ = run(["ground", "--lx", "4", "--ly", "4", "--n", "2",
                             "--alpha", "1/8", "--omega", "10", "--u", "10",
                             "--output", str(out)], capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["filling_factor"] == "1"
        assert len(report["energies"]) >= 2
        assert len(report["sectors"]) == len(report["energies"])
        assert all(p > 0.9 for p in report["purities"])
        assert abs(report["c_number"] - 2.0) < 0.05
        assert "energy" in stdout and "sector" in stdout

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        # basis dimension 2628: the Lanczos path, not the dense one
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            rc, _, _ = run(["ground", "--lx", "6", "--ly", "6", "--n", "2",
                            "--alpha", "1/9", "--output", str(out)], capsys)
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_three_bosons_report_laughlin_overlap(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc, stdout, _ = run(["ground", "--lx", "6", "--ly", "4", "--n", "3",
                             "--alpha", "1/4", "--output", str(out)], capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["filling_factor"] == "1/2"
        assert len(report["purities"]) == 2
        assert all(0.95 < p <= 1.0 for p in report["purities"])
        assert abs(report["c_number"] - 3.0) < 0.05
        assert len(report["laughlin_overlap"]) == 2
        assert all(o > 0.9 for o in report["laughlin_overlap"])
        assert "laughlin overlaps" in stdout

    def test_half_filling_reports_overlap(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc, stdout, _ = run(["ground", "--lx", "4", "--ly", "8", "--n", "2",
                             "--alpha", "1/8", "--omega", "10", "--u", "10",
                             "--output", str(out)], capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["filling_factor"] == "1/2"
        assert report["laughlin_overlap"] is not None
        assert all(o > 0.9 for o in report["laughlin_overlap"])
        assert "laughlin overlaps" in stdout

    def test_hamiltonian_is_lifted_on_the_orbit_representatives(
            self, tmp_path, capsys, monkeypatch):
        # 4x4, alpha = 1/4, N = 2: the sectors are those of T_x and of
        # Y = T_y^2, which split the 528 states into orbits
        geom = LatticeGeometry(4, 4, boundary=Boundary.MAGNETIC_TORUS)
        alpha = Fraction(1, 4)
        basis = manybody.build_fock_basis(2 * geom.n_sites, 2)
        tx = lattice.magnetic_translation_x(geom, alpha, 1)
        y, _ = lattice.magnetic_translation_y(geom, alpha, 2)
        images = [basis.permute(np.concatenate([perm, perm + geom.n_sites]))
                  for perm in (tx, y)]
        graph = sp.csr_matrix((np.ones(2 * basis.size),
                               (np.tile(np.arange(basis.size), 2),
                                np.concatenate(images))),
                              shape=(basis.size, basis.size))
        n_orbits = connected_components(graph)[0]
        build, lifted = manybody.build_manybody_hamiltonian, []

        def guarded(geom, links, params, basis, columns=None):
            if columns is None or len(columns) > n_orbits:
                raise AssertionError("H lifted beyond the representatives")
            lifted.append(len(columns))
            return build(geom, links, params, basis, columns=columns)

        monkeypatch.setattr(manybody, "build_manybody_hamiltonian", guarded)
        out = tmp_path / "g.json"
        rc, _, _ = run(["ground", "--lx", "4", "--ly", "4", "--n", "2",
                        "--alpha", "1/4", "--output", str(out)], capsys)
        assert rc == 0
        assert lifted == [n_orbits] and n_orbits < basis.size / 4

    def test_gram_size_fails_before_any_state_is_solved(self, tmp_path, capsys,
                                                        monkeypatch):
        # 14 bosons: a 4 GiB label Gram matrix; neither the sectors nor F's
        # loop over the 16,384 label patterns may run first
        ran = []
        for name in ("sector_eigenstates", "motional_density_matrix"):
            monkeypatch.setattr(manybody, name,
                                lambda *args, name=name: ran.append(name))
        out = tmp_path / "g.json"
        rc, stdout, stderr = run(["ground", "--lx", "1", "--ly", "3", "--n",
                                  "14", "--alpha", "1/3", "--count", "1",
                                  "--output", str(out)], capsys)
        assert rc == 1 and stdout == "" and ran == []
        assert json.loads(stderr) == {
            "command": "ground",
            "error": "label Gram matrix of 16384 patterns: 4.0 GiB, above "
                     "the 1 GiB limit (fewer bosons)"}
        assert not out.exists()

    def test_degenerate_partner_reported(self, tmp_path, capsys):
        # nu = 1/2 on 4x8: the ground doublet is exact, and --count 2 must
        # return both members (from different translation sectors), not
        # whatever a Krylov solve happens to find
        out = tmp_path / "g.json"
        rc, _, _ = run(["ground", "--lx", "4", "--ly", "8", "--n", "2",
                        "--alpha", "1/8", "--count", "2", "--output", str(out)],
                       capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["sectors"][0] != report["sectors"][1]
        geom = LatticeGeometry(4, 8, boundary=Boundary.MAGNETIC_TORUS)
        alpha = Fraction(1, 8)
        basis = manybody.build_fock_basis(2 * geom.n_sites, 2)
        H = manybody.build_manybody_hamiltonian(
            geom, lattice.links_from_phases(uniform_phase_pattern(alpha, geom),
                                            geom, alpha=alpha),
            singleparticle.ModelParams(J=1.0, omega=10.0, U=10.0), basis)
        dense = np.linalg.eigvalsh(H.toarray())
        assert dense[1] - dense[0] < 1e-9 < dense[2] - dense[1]
        np.testing.assert_allclose(report["energies"], dense[:2], rtol=0,
                                   atol=1e-9)

    def test_count_one_reports_one_state(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc, stdout, _ = run(["ground", "--lx", "4", "--ly", "4", "--n", "2",
                             "--alpha", "1/4", "--count", "1",
                             "--output", str(out)], capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["filling_factor"] == "1/2"
        assert len(report["energies"]) == 1
        assert len(report["purities"]) == 1
        assert len(report["laughlin_overlap"]) == 1
        assert report["c_number"] == pytest.approx(2.0, abs=0.05)
        assert len(stdout.splitlines()) == 4  # header, one state, overlap, path

    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_no_flux_has_no_filling_factor(self, tmp_path, capsys, alpha):
        out = tmp_path / "g.json"
        rc, _, _ = run(["ground", "--lx", "4", "--ly", "4", "--n", "2",
                        "--alpha", alpha, "--output", str(out)], capsys)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["filling_factor"] is None
        assert report["laughlin_overlap"] is None

    def test_flux_above_one_reports_the_reduced_flux(self, tmp_path, capsys):
        # alpha and alpha + 1 build the same links, so the same report
        reports = []
        for alpha in ("1/4", "5/4"):
            out = tmp_path / "g.json"
            rc, _, _ = run(["ground", "--lx", "4", "--ly", "4", "--n", "2",
                            "--alpha", alpha, "--output", str(out)], capsys)
            assert rc == 0
            reports.append(json.loads(out.read_text()))
        base, shifted = reports
        assert shifted["filling_factor"] == base["filling_factor"] == "1/2"
        np.testing.assert_allclose(shifted["energies"], base["energies"],
                                   rtol=0, atol=1e-12)
        assert len(shifted["laughlin_overlap"]) == 2
        np.testing.assert_allclose(shifted["laughlin_overlap"],
                                   base["laughlin_overlap"], rtol=0, atol=1e-12)

    def test_time_reversed_flux_reports_the_reduced_flux(self, tmp_path, capsys):
        # 3/4 builds the links of -1/4, the complex conjugates of those of 1/4:
        # the same spectrum and the conjugate Laughlin states at filling 1/2
        reports = []
        for alpha in ("1/4", "3/4", "-1/4"):
            out = tmp_path / "g.json"
            rc, _, _ = run(["ground", "--lx", "4", "--ly", "4", "--n", "2",
                            f"--alpha={alpha}", "--output", str(out)], capsys)
            assert rc == 0
            reports.append(json.loads(out.read_text()))
        base = reports[0]
        for reversed_ in reports[1:]:
            assert reversed_["filling_factor"] == base["filling_factor"] == "1/2"
            np.testing.assert_allclose(reversed_["energies"], base["energies"],
                                       rtol=0, atol=1e-10)
            assert len(reversed_["laughlin_overlap"]) == 2
            np.testing.assert_allclose(reversed_["laughlin_overlap"],
                                       base["laughlin_overlap"], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("argv, problem", [
        # 5 bosons on 8x8 would hit the basis cap: the count is checked first
        (["--lx", "8", "--ly", "8", "--n", "5", "--count", "0"], "--count"),
        (["--lx", "4", "--ly", "4", "--n", "2", "--count", "-4"], "--count"),
        (["--lx", "4", "--ly", "4", "--n", "0", "--count", "3"],
         "count <= 1 (the basis size)"),
        (["--lx", "8", "--ly", "8", "--n", "5", "--alpha", "1/16"],
         "basis size 309319296 exceeds cap 20000000"),
        # 20000 eigenvectors of the 41,616-state basis would take 12.4 GiB
        (["--lx", "12", "--ly", "12", "--n", "2", "--alpha", "1/36",
          "--count", "20000"], "41616: 12.4 GiB, above the 1 GiB limit"),
    ], ids=["zero", "negative", "above-basis-size", "basis-cap", "count-memory"])
    def test_bad_size_fails_cleanly(self, tmp_path, capsys, argv, problem):
        out = tmp_path / "g.json"
        rc, stdout, stderr = run(["ground", *argv, "--output", str(out)],
                                 capsys)
        assert rc == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        err = json.loads(stderr)
        assert err["command"] == "ground"
        assert problem in err["error"]
        assert not out.exists()


class TestSynth:
    def test_uniform_pattern(self, tmp_path, capsys):
        out = tmp_path / "beams.csv"
        rc, stdout, _ = run(["synth", "--pattern", "uniform", "--alpha",
                             "1/16", "--lx", "8", "--ly", "8",
                             "--output", str(out)], capsys)
        assert rc == 0
        assert "condition number" in stdout
        diag = json.loads((tmp_path / "beams.diag.json").read_text())
        assert diag["relative_residual"] <= 1e-10
        lines = out.read_text().splitlines()
        assert lines[0] == "j,k,amplitude,phase"
        assert len(lines) == 65

    def test_pattern_file_round_trip(self, tmp_path, capsys):
        geom = LatticeGeometry(6, 6)
        pat = uniform_phase_pattern(Fraction(1, 6), geom)
        pfile = tmp_path / "pattern.json"
        pfile.write_text(pat.to_json(geom))
        out = tmp_path / "beams.csv"
        rc, _, _ = run(["synth", "--pattern-file", str(pfile),
                        "--output", str(out)], capsys)
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, problem", [
        (["--pattern-file", "PATTERN", "--lx", "40", "--ly", "40", "--alpha",
          "1/7", "--pattern", "checkerboard"],
         "drop --pattern, --alpha, --lx, --ly"),
        (["--pattern-file", "PATTERN", "--pattern", "uniform"],
         "drop --pattern"),
        (["--pattern", "checkerboard", "--alpha", "1/7"],
         "flux of the uniform pattern only"),
    ], ids=["pattern-file-and-lattice", "pattern-file-and-default",
            "checkerboard-and-alpha"])
    def test_flags_that_would_do_nothing_fail_cleanly(self, tmp_path, capsys,
                                                      argv, problem):
        geom = LatticeGeometry(6, 6)
        pfile = tmp_path / "pattern.json"
        pfile.write_text(uniform_phase_pattern(Fraction(1, 6), geom)
                         .to_json(geom))
        out = tmp_path / "beams.csv"
        argv = [str(pfile) if a == "PATTERN" else a for a in argv]
        rc, stdout, stderr = run(["synth", *argv, "--output", str(out)],
                                 capsys)
        assert rc == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        err = json.loads(stderr)
        assert err["command"] == "synth"
        assert problem in err["error"]
        assert not out.exists()

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--pattern", "checkerboard", "--lx", "6", "--ly", "6"]
        run(args + ["--output", str(a)], capsys)
        run(args + ["--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_waist_fails_cleanly(self, tmp_path, capsys):
        rc, _, stderr = run(["synth", "--waist", "5.0", "--lx", "8",
                             "--ly", "8",
                             "--output", str(tmp_path / "x.csv")], capsys)
        assert rc == 1
        err = json.loads(stderr)
        assert "condition number" in err["error"]
        assert err["command"] == "synth"

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        for run_dir in ("a", "b"):
            (tmp_path / run_dir).mkdir()
            rc, _, _ = run(["synth", "--pattern", "uniform", "--alpha", "1/5",
                            "--lx", "9", "--ly", "5", "--output",
                            str(tmp_path / run_dir / "beams.csv")], capsys)
            assert rc == 0
        for name in ("beams.csv", "beams.diag.json"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), name

    def test_large_grid_runs_in_small_memory(self, tmp_path, capsys):
        # 40,000 sites: a dense overlap matrix alone would take 12.8 GB
        out = tmp_path / "beams.csv"
        tracemalloc.start()
        try:
            rc, _, stderr = run(["synth", "--lx", "200", "--ly", "200",
                                 "--output", str(out)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0, stderr
        assert peak < 64 * 2 ** 20
        diag = json.loads((tmp_path / "beams.diag.json").read_text())
        assert diag["relative_residual"] <= 1e-10

    @pytest.mark.parametrize("message, reported", [
        ("Unable to allocate 12.8 GiB for an array", None),
        ("", "MemoryError"),
    ])
    def test_memory_error_fails_cleanly(self, tmp_path, capsys, monkeypatch,
                                        message, reported):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(beamsynth, "overlap_matrix", exhausted)
        rc, _, stderr = run(["synth", "--output", str(tmp_path / "x.csv")],
                            capsys)
        assert rc == 1
        assert stderr.count("\n") == 1
        assert json.loads(stderr) == {"error": reported or message,
                                      "command": "synth"}


class TestDesign:
    def test_reference_numbers(self, capsys):
        rc, stdout, _ = run(["design", "--vplus", "-7", "--vminus", "1",
                             "--eta", str(math.pi / 3)], capsys)
        assert rc == 0
        row = stdout.splitlines()[-1].split("|")[1].split()
        ratio, j_ratio, spacing = (float(v) for v in row)
        assert ratio == pytest.approx(5.0)
        assert j_ratio == pytest.approx(0.013289, abs=5e-5)
        assert spacing == pytest.approx(1.0)

    def test_divergent_ratio_fails_cleanly(self, capsys):
        rc, _, stderr = run(["design", "--vplus", "-3", "--vminus", "1"],
                            capsys)
        assert rc == 1
        assert "error" in json.loads(stderr)

    @pytest.mark.parametrize("vplus, shown", [("1", "inf"), ("-2", "-inf")])
    def test_zero_vminus_shows_infinite_input_ratio(self, capsys, vplus,
                                                    shown):
        rc, stdout, stderr = run(["design", "--vplus", vplus, "--vminus", "0"],
                                 capsys)
        assert rc == 0 and stderr == ""
        header, row = stdout.splitlines()
        inputs, outputs = row.split("|")
        assert inputs.split()[0] == shown
        # Vb/Va = 3, Jb/Ja and the spacing stay finite
        ratio, j_ratio, spacing = (float(v) for v in outputs.split())
        assert ratio == pytest.approx(3.0)
        assert math.isfinite(j_ratio) and math.isfinite(spacing)

    def test_vanishing_potentials_print_nothing(self, capsys):
        rc, stdout, stderr = run(["design", "--vplus", "0", "--vminus", "0"],
                                 capsys)
        assert rc == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert json.loads(stderr)["command"] == "design"


class TestFlux:
    def test_uniform_pattern_fluxes(self, tmp_path, capsys):
        geom = LatticeGeometry(4, 4, boundary=Boundary.MAGNETIC_TORUS)
        alpha = Fraction(1, 4)
        pat = uniform_phase_pattern(alpha, geom)
        pfile = tmp_path / "pattern.json"
        pfile.write_text(pat.to_json(geom))
        rc, stdout, _ = run(["flux", str(pfile), "--alpha", "1/4"], capsys)
        assert rc == 0
        vals = [float(line.split(",")[2]) for line in stdout.splitlines()]
        assert len(vals) == 16
        expect = (-0.25) % 1.0
        np.testing.assert_allclose(vals, expect, atol=1e-12)

    def test_alpha_on_open_pattern_fails_cleanly(self, tmp_path, capsys):
        geom = LatticeGeometry(3, 3)
        pfile = tmp_path / "pattern.json"
        pfile.write_text(uniform_phase_pattern(Fraction(1, 3), geom)
                         .to_json(geom))
        rc, stdout, _ = run(["flux", str(pfile)], capsys)
        assert rc == 0 and len(stdout.splitlines()) == 4
        rc, stdout, stderr = run(["flux", str(pfile), "--alpha", "1/3"],
                                 capsys)
        assert rc == 1
        assert stdout == ""
        assert stderr.count("\n") == 1
        err = json.loads(stderr)
        assert err["command"] == "flux"
        assert "open pattern" in err["error"]

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc, _, stderr = run(["flux", str(tmp_path / "nope.json")], capsys)
        assert rc == 1
        assert "error" in json.loads(stderr)

    def test_bad_alpha_argument_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["flux", "whatever.json", "--alpha", "x/y"])
        capsys.readouterr()


GRID = [[0.0, 0.5], [1.0, 1.5]]


@pytest.mark.parametrize("command", ["flux", "synth"])
@pytest.mark.parametrize("doc, problem", [
    ({"Ly": 2, "boundary": "open", "phi": GRID}, "lacks Lx"),
    ([GRID], "JSON object"),
    ({"Lx": None, "Ly": 2, "boundary": "open", "phi": GRID}, "integers"),
    ({"Lx": 2.5, "Ly": 2, "boundary": "open", "phi": GRID}, "integers"),
    ({"Lx": 2, "Ly": 2, "boundary": "open", "phi": {"row": 1}},
     "grid of numbers"),
], ids=["missing-key", "not-an-object", "null-size", "fractional-size",
        "phi-not-a-grid"])
def test_malformed_pattern_file_fails_cleanly(tmp_path, capsys, command, doc,
                                              problem):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(doc))
    argv = (["flux", str(path)] if command == "flux" else
            ["synth", "--pattern-file", str(path),
             "--output", str(tmp_path / "beams.csv")])
    rc, stdout, stderr = run(argv, capsys)
    assert rc == 1
    assert stdout == ""
    assert stderr.count("\n") == 1
    err = json.loads(stderr)
    assert err["command"] == command
    assert problem in err["error"]


def test_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ,
               PYTHONPATH=str(Path(gaugelatt.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gaugelatt.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_ground_leaves_scipy_linalg_unloaded(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(gaugelatt.__file__).resolve().parents[1]))
    script = (
        "import sys, gaugelatt.cli\n"
        "gaugelatt.cli.main(['ground', '--lx', '4', '--ly', '4', '--n', '2',"
        " '--alpha', '1/4', '--output', sys.argv[1]])\n"
        "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.linalg')"
        " if m in sys.modules))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "ground.json")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
