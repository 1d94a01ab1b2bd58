"""Command-line front end: butterfly / ground / synth / design / flux."""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import beamsynth, laughlin, lattice, manybody, singleparticle, trapdesign
from .lattice import Boundary, LatticeGeometry


def _parse_alpha(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse flux '{text}' as p/q") from exc


def _fail(msg: str, command: str) -> int:
    print(json.dumps({"command": command, "error": msg}, sort_keys=True),
          file=sys.stderr)
    return 1


def cmd_butterfly(args) -> int:
    params = singleparticle.ModelParams(J=args.j, omega=args.omega, J2=args.j2)
    results = singleparticle.butterfly_scan(args.q_max, params,
                                            resolution=args.resolution)
    out = Path(args.output)
    plot = out.with_suffix(".plot.txt")
    count, lo, hi = 0, math.inf, -math.inf
    made = [out]
    try:
        with open(out, "w") as fh:
            fh.write("p,q,alpha,eigenvalue\n")
            # one flux at a time, ordered by alpha, each sorted by energy
            for r in results:
                row = f"{r.p},{r.q},{r.alpha:.12g},%.12g\n".__mod__
                # a level repeats once per k-point of its class: format once
                fh.write("".join(map(operator.mul,
                                     map(row, r.levels.tolist()),
                                     r.counts.tolist())))
                count += int(r.counts.sum())
                lo, hi = min(lo, r.levels[0]), max(hi, r.levels[-1])
        made.append(plot)
        with open(plot, "w") as fh:
            fh.write("x: energy/J\ny: alpha\nsource: " + out.name + "\n"
                     "columns: eigenvalue vs alpha\n")
    except BaseException:
        # the CSV is streamed as the scan runs: leave no partial output
        for path in made:
            path.unlink(missing_ok=True)
        raise
    print(f"wrote {out} ({count} eigenvalues, range [{lo:.6f}, {hi:.6f}] J)")
    return 0


def cmd_ground(args) -> int:
    if args.count < 1:
        raise ValueError("need --count >= 1")
    geom = LatticeGeometry(args.lx, args.ly, boundary=Boundary.MAGNETIC_TORUS)
    alpha = args.alpha
    pat = lattice.uniform_phase_pattern(alpha, geom)
    links = lattice.links_from_phases(pat, geom, alpha=alpha)
    params = singleparticle.ModelParams(J=args.j, omega=args.omega,
                                        U=args.u, J2=args.j2)
    basis = manybody.build_fock_basis(2 * geom.n_sites, args.n)
    manybody.check_purity_size(2 ** args.n)  # before any state is solved
    # H is built on the orbit representatives only, never on the full space
    E, V, sectors = manybody.sector_eigenstates(
        lambda idx: manybody.build_manybody_hamiltonian(geom, links, params,
                                                        basis, columns=idx),
        basis, geom, alpha, args.count)

    # alpha and alpha + 1 give the same links: the filling and the Laughlin
    # states belong to the flux reduced to (-1/2, 1/2]
    reduced = alpha % 1
    if reduced > Fraction(1, 2):
        reduced -= 1
    n_phi = abs(reduced) * geom.Lx * geom.Ly
    nu = Fraction(args.n, int(n_phi)) if n_phi else None
    report = {
        "energies": E.tolist(),
        "filling_factor": None if nu is None else str(nu),
        "sectors": sectors.tolist(),
        "purities": [],
        "c_number": None,
        "laughlin_overlap": None,
    }
    c_nums, purs, overlaps = [], [], []
    states = None
    if nu == Fraction(1, 2):
        states = laughlin.laughlin_lattice_states(args.n, reduced, geom)
    # the diagnostics describe the ground doublet
    for v in V.T[:2]:
        F = manybody.motional_density_matrix(v, basis)  # factor of rho
        purs.append(manybody.purity(F))
        c_nums.append(manybody.c_mode_number(v, basis))
        if states is not None:
            overlaps.append(laughlin.laughlin_overlap(F, states))
    report["purities"] = purs
    report["c_number"] = float(np.mean(c_nums))
    if overlaps:
        report["laughlin_overlap"] = overlaps
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'state':>6} {'sector':>7} {'energy':>14} {'purity':>10} "
          f"{'c_number':>10}")
    for i, e in enumerate(E[:2]):
        print(f"{i:>6} {'{},{}'.format(*sectors[i]):>7} {e:>14.6f} "
              f"{purs[i]:>10.6f} {c_nums[i]:>10.6f}")
    if overlaps:
        print("laughlin overlaps: " + " ".join(f"{o:.6f}" for o in overlaps))
    print(f"wrote {args.output}")
    return 0


def cmd_synth(args) -> int:
    # these flags default to None, so that one that would do nothing shows
    given = [f"--{name}" for name in ("pattern", "alpha", "lx", "ly")
             if getattr(args, name) is not None]
    if args.pattern_file and given:
        raise ValueError("--pattern-file sets the lattice and the pattern: "
                         f"drop {', '.join(given)}")
    if args.pattern == "checkerboard" and args.alpha is not None:
        raise ValueError("--alpha sets the flux of the uniform pattern only")
    if args.pattern_file:
        pat, geom = lattice.PhasePattern.from_json(Path(args.pattern_file).read_text())
    else:
        geom = LatticeGeometry(16 if args.lx is None else args.lx,
                               16 if args.ly is None else args.ly,
                               boundary=Boundary.OPEN)
        if args.pattern == "checkerboard":
            j = np.arange(geom.Lx)[:, None]
            k = np.arange(geom.Ly)[None, :]
            pat = lattice.PhasePattern(phi=np.pi * ((j + k) % 2))
        else:  # "uniform", the default
            pat = lattice.uniform_phase_pattern(
                Fraction(1, 16) if args.alpha is None else args.alpha, geom)
    wm = beamsynth.WannierModel(sigma_a=beamsynth.wannier_width(args.depth_a),
                                sigma_b=beamsynth.wannier_width(args.depth_b))
    mf = beamsynth.ModeFunction(w=args.waist)
    T = beamsynth.overlap_matrix(geom, wm, mf)
    target = beamsynth.target_from_pattern(pat)
    beams, diag = beamsynth.solve_beams(T, target)
    out = Path(args.output)
    beams.write_csv(out, geom)
    with open(out.with_suffix(".diag.json"), "w") as fh:
        json.dump(diag, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"condition number {diag['condition_number']:.6e}, "
          f"residual {diag['relative_residual']:.3e}, "
          f"amplitude spread {diag['amplitude_spread']:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_design(args) -> int:
    ratio = trapdesign.potential_ratio(args.vplus, args.vminus)
    geom = trapdesign.TiltGeometry(eta=args.eta)
    va = abs(args.va)
    vb = abs(ratio) * va
    j_ratio = trapdesign.hopping_rate(vb) / trapdesign.hopping_rate(va)
    spacing = trapdesign.lattice_spacing(geom)
    # potential_ratio rejected a vanishing |a> potential, so V- = 0 leaves
    # V+ nonzero: show the infinity that IEEE division would give
    shown = (args.vplus / args.vminus if args.vminus
             else math.copysign(math.inf, args.vplus * args.vminus))
    sys.stdout.write(
        f"{'V+/V-':>12} {'eta':>8} {'Va[Er]':>8} | "
        f"{'Vb/Va':>10} {'Jb/Ja':>10} {'spacing/lambda':>15}\n"
        f"{shown:>12.4f} {args.eta:>8.4f} {va:>8.3f} | "
        f"{ratio:>10.6f} {j_ratio:>10.6f} {spacing:>15.6f}\n")
    return 0


def cmd_flux(args) -> int:
    pat, geom = lattice.PhasePattern.from_json(Path(args.pattern_file).read_text())
    if args.alpha is not None and not geom.is_torus:
        raise ValueError("--alpha sets the wrap links of a torus pattern; "
                         "an open pattern has none")
    links = lattice.links_from_phases(pat, geom, alpha=args.alpha)
    flux = lattice.plaquette_flux(links, geom)
    j, k = np.indices(flux.shape)
    sys.stdout.write("".join(map("{},{},{:.12g}\n".format, j.ravel().tolist(),
                                 k.ravel().tolist(), flux.ravel().tolist())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugelatt",
        description="Synthetic gauge fields in a state-dependent optical "
                    "lattice: spectra, few-boson ground states, trap design "
                    "and beam-array synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("butterfly", help="Hofstadter scan over rational fluxes")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--j2", type=float, default=0.0)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--output", default="butterfly.csv")
    p.set_defaults(func=cmd_butterfly)

    p = sub.add_parser("ground", help="interacting ground states on a torus")
    p.add_argument("--lx", type=int, default=8)
    p.add_argument("--ly", type=int, default=8)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--alpha", type=_parse_alpha, default=Fraction(1, 16))
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=10.0)
    p.add_argument("--u", type=float, default=10.0)
    p.add_argument("--j2", type=float, default=0.0)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--output", default="ground.json")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("synth", help="solve the beam-array inverse problem")
    p.add_argument("--pattern", choices=["uniform", "checkerboard"],
                   help="default uniform")
    p.add_argument("--pattern-file", default=None,
                   help="phase-pattern JSON; sets the lattice and the pattern")
    p.add_argument("--alpha", type=_parse_alpha, help="default 1/16")
    p.add_argument("--lx", type=int, help="default 16")
    p.add_argument("--ly", type=int, help="default 16")
    p.add_argument("--waist", type=float, default=0.5,
                   help="beam waist in units of the lattice spacing")
    p.add_argument("--depth-a", type=float, default=5.0)
    p.add_argument("--depth-b", type=float, default=25.0)
    p.add_argument("--output", default="beams.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("design", help="state-dependent trap design table")
    p.add_argument("--vplus", type=float, required=True)
    p.add_argument("--vminus", type=float, required=True)
    p.add_argument("--va", type=float, default=5.0)
    p.add_argument("--eta", type=float, default=math.pi / 4)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("flux", help="plaquette fluxes of a phase pattern")
    p.add_argument("pattern_file")
    p.add_argument("--alpha", type=_parse_alpha, default=None)
    p.set_defaults(func=cmd_flux)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, ZeroDivisionError,
            MemoryError) as exc:
        return _fail(str(exc) or type(exc).__name__, args.command)


if __name__ == "__main__":
    sys.exit(main())
