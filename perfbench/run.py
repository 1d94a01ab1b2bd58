"""gaugelatt benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload {butterfly,ground,synth} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it benchmarks the sources under src/.
Each measured run is one call of ``gaugelatt.cli.main(argv)`` in a fresh
interpreter (perfbench/child.py), one at a time (a closed loop with one
client), at the default BLAS threading.  Runs repeat until S seconds have
passed and every output is checked (checks.py).  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics, which are the
medians over the runs.  --trace 0 gives the end-to-end metrics; --trace 1
alternates untraced and traced runs and gives the per-layer metrics
(layers.py).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("compute_s", "s"),
              ("peak_rss_mb", "MiB")]

# Each workload fixes the problem size; the seed draws only inputs that
# leave the amount of work unchanged.  "tiny" serves the smoke tests.
SIZES = {
    "full": {"butterfly": {"q_max": 30, "resolution": 8},
             "ground": {"lx": 12, "ly": 12, "n": 2, "alpha": "1/36"},
             "synth": {"lx": 48, "ly": 48}},
    "tiny": {"butterfly": {"q_max": 6, "resolution": 2},
             "ground": {"lx": 8, "ly": 8, "n": 2, "alpha": "1/16"},
             "synth": {"lx": 8, "ly": 8}},
}
WORKLOADS = tuple(SIZES["full"])


@dataclass
class Job:
    argv: list[str]   # CLI arguments except --output
    params: dict      # what the output check needs; params["output"] is the file name


@dataclass
class Sample:
    mode: str
    ok: bool = False
    values: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return f"{x:.6f}"


def make_job(workload: str, seed: int, size: str, inputs: Path) -> Job:
    rng = np.random.default_rng(seed)
    s = SIZES[size][workload]
    if workload == "butterfly":
        omega = float(_num(rng.uniform(8.0, 12.0)))
        n_flux = len(checks.farey(s["q_max"]))
        spots = sorted(rng.choice(n_flux, size=3, replace=False).tolist())
        argv = ["butterfly", "--q-max", str(s["q_max"]),
                "--resolution", str(s["resolution"]), "--omega", _num(omega)]
        return Job(argv, dict(s, omega=omega, spot_checks=spots,
                              output="butterfly.csv"))
    if workload == "ground":
        # omega and U in [8, 12] J, but always omega = U = 10 J: scaling the
        # Hamiltonian leaves its eigenvectors, and so the Lanczos work, as is;
        # other ratios move the iteration count by up to 20%.
        j = float(_num(rng.uniform(0.8, 1.2)))
        argv = ["ground", "--lx", str(s["lx"]), "--ly", str(s["ly"]),
                "--n", str(s["n"]), "--alpha", s["alpha"], "--j", _num(j),
                "--omega", _num(10 * j), "--u", _num(10 * j)]
        return Job(argv, dict(s, output="ground.json"))
    # synth: random site phases on an open lattice, passed as a pattern file
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(s["lx"], s["ly"]))
    pattern = inputs / "pattern.json"
    pattern.write_text(json.dumps({"Lx": s["lx"], "Ly": s["ly"],
                                   "boundary": "open", "phi": phi.tolist()}))
    params = dict(s, phi=phi, depth_a=5.0, depth_b=25.0, waist=0.5,
                  output="beams.csv")
    argv = ["synth", "--pattern-file", str(pattern),
            "--depth-a", str(params["depth_a"]),
            "--depth-b", str(params["depth_b"]), "--waist", str(params["waist"])]
    return Job(argv, params)


def spawn(mode: str, argv: list[str], outdir: Path, timeout: float):
    """Run child.py once; return (exit code, wall seconds, rusage, record,
    spawn time).  The child is killed if it outlives ``timeout``."""
    outdir.mkdir()
    result = outdir / "result.json"
    args = [sys.executable, str(HERE / "child.py"), mode, str(result),
            str(SRC), "--", *argv]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(outdir / "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(outdir / "stderr.txt"), flags, 0o644)]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, args, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(max(timeout, 1.0) * 1000):
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.monotonic()
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    record = json.loads(result.read_text()) if result.exists() else None
    return os.waitstatus_to_exitcode(status), t1 - t0, usage, record, t0


def measure(workload: str, job: Job, mode: str, outdir: Path,
            timeout: float) -> Sample:
    argv = job.argv + ["--output", str(outdir / job.params["output"])]
    code, wall, usage, rec, t0 = spawn(mode, argv, outdir, timeout)
    sample = Sample(mode)
    try:
        if code != 0 or rec is None:
            err = (outdir / "stderr.txt").read_text()[-2000:]
            raise checks.CheckFailed(f"exit code {code}: {err}")
        checks.CHECKS[workload](outdir, job.params)
        sample.ok = True
    except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError,
            IndexError) as exc:
        print(f"{workload} {mode} run failed: {exc!r}", file=sys.stderr)
    if sample.ok:
        written = sum(f.stat().st_size for f in outdir.iterdir()
                      if f.name not in ("stdout.txt", "stderr.txt", "result.json"))
        sample.values = {
            "wall_s": wall,
            "setup_s": rec["t_imported"] - t0,
            "compute_s": rec["compute_s"],
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        sample.layers = dict(rec.get("layers", {}),
                             **{"cli.import_s": rec["import_s"],
                                "cli.output_bytes": written})
    shutil.rmtree(outdir)
    return sample


def median(samples: list[Sample], key: str) -> float:
    vals = [s.values[key] for s in samples]
    return statistics.median(vals) if vals else 0.0


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full") -> dict:
    started = time.monotonic()
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job = make_job(workload, seed, size, work)
        # warm-up run: fills the bytecode and file caches, not measured
        spawn("import", [], work / "warmup", DEADLINE_S)
        modes = ("plain", "trace") if trace else ("plain",)
        samples: list[Sample] = []
        t_begin = time.monotonic()
        while True:
            n, elapsed = len(samples), time.monotonic() - t_begin
            # start another run only if it should end within the time given
            if n >= len(modes) and elapsed * (n + 1) / n > seconds:
                break
            left = DEADLINE_S - (time.monotonic() - started)
            if left <= 0:
                break
            samples.append(measure(workload, job, modes[n % len(modes)],
                                   work / f"run{n}", left))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    good = {m: [s for s in samples if s.ok and s.mode == m] for m in modes}
    failed = sum(not s.ok for s in samples)
    if trace:
        traced = good["trace"]
        # the lower median keeps counts whole: each value is one run's
        values = {name: statistics.median_low(s.layers[name] for s in traced)
                  if traced else 0.0 for name, _ in PER_LAYER}
        # runs alternate, so each traced run is compared with the untraced
        # runs just before and after it, which cancels most of the drift of
        # the machine's speed
        diffs = []
        for i in range(1, len(samples), 2):
            near = [s.values["compute_s"] for s in samples[i - 1:i + 2:2] if s.ok]
            if samples[i].ok and near:
                diffs.append(samples[i].values["compute_s"] - statistics.fmean(near))
        values["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
        units = PER_LAYER
    else:
        values = {name: median(good["plain"], name) for name, _ in END_TO_END}
        units = END_TO_END
    summarize(workload, samples, failed, values, units)
    return {
        "correct": bool(samples) and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def summarize(workload, samples, failed, values, units):
    """Human-readable report on stderr: each metric with its spread."""
    good = [s for s in samples if s.ok]
    print(f"{workload}: {len(samples)} runs, failed_ops {failed}/"
          f"{len(samples)}", file=sys.stderr)
    for name, unit in units:
        vals = [s.values[name] for s in good if name in s.values]
        spread = f"  [{min(vals):.4f} .. {max(vals):.4f}, n={len(vals)}]" if vals else ""
        print(f"  {name:34s} {values[name]:>14.6g} {unit:6s}{spread}",
              file=sys.stderr)


def environment() -> dict:
    """Interpreter, library versions and the BLAS thread count in effect."""
    import ctypes
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("version"),
            "nproc": os.cpu_count(), "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaugelatt" / "cli.py").is_file():
        print(f"error: no gaugelatt sources under {SRC}; run the benchmark "
              "from the root of a checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through spawn(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print("environment: " + json.dumps(environment()), file=sys.stderr)
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
