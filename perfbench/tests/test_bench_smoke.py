"""Tiny-size runs of each workload, the output checks, and the result
contract of run.py."""

import json
import math
from fractions import Fraction
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from layers import PER_LAYER

import gaugelatt.cli as cli


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload(workload, trace):
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace,
                               size="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    names = PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == names
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    json.dumps(result)


def test_job_depends_only_on_the_seed(tmp_path):
    a = run.make_job("ground", 5, "full", tmp_path)
    b = run.make_job("ground", 5, "full", tmp_path)
    c = run.make_job("ground", 6, "full", tmp_path)
    assert a.argv == b.argv != c.argv
    assert a.argv[:9] == c.argv[:9]  # the size is fixed


def _output(workload, tmp_path):
    job = run.make_job(workload, 7, "tiny", tmp_path)
    argv = job.argv + ["--output", str(tmp_path / job.params["output"])]
    assert cli.main(argv) == 0
    checks.CHECKS[workload](tmp_path, job.params)  # passes unmodified
    return tmp_path / job.params["output"], job.params


def test_butterfly_check_catches_a_wrong_eigenvalue(tmp_path, capsys):
    path, params = _output("butterfly", tmp_path)
    fluxes = checks.farey(params["q_max"])
    i = params["spot_checks"][0]
    row = 1 + sum(2 * a.denominator * params["resolution"] ** 2
                  for a in fluxes[:i])
    lines = path.read_text().splitlines()
    p, q, alpha, e = lines[row].split(",")
    lines[row] = f"{p},{q},{alpha},{float(e) - 1e-6:.12g}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="eigenvalues off"):
        checks.check_butterfly(tmp_path, params)


def test_ground_check_catches_a_low_overlap(tmp_path, capsys):
    path, params = _output("ground", tmp_path)
    doc = json.loads(path.read_text())
    doc["laughlin_overlap"][1] = 0.95
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="laughlin_overlap"):
        checks.check_ground(tmp_path, params)


def test_synth_check_catches_a_wrong_beam(tmp_path, capsys):
    path, params = _output("synth", tmp_path)
    lines = path.read_text().splitlines()
    j, k, amp, phase = lines[5].split(",")
    lines[5] = f"{j},{k},{amp},{float(phase) + 1e-6:.12g}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="miss the target"):
        checks.check_synth(tmp_path, params)


def test_reference_bloch_block_matches_the_flux_zero_band():
    # alpha = 0: the a band -2cos kx and the b band -2cos ky, coupled by omega
    ev = checks.bloch_eigenvalues(Fraction(0), 3.0, 4)
    k = 2 * np.pi * np.arange(4) / 4
    ea, eb = np.meshgrid(-2 * np.cos(k), -2 * np.cos(k), indexing="ij")
    mean, half = (ea + eb) / 2, np.sqrt(((ea - eb) / 2) ** 2 + 9.0)
    assert np.allclose(ev, np.sort(np.r_[(mean - half).ravel(),
                                         (mean + half).ravel()]))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
