"""Command-line front end: butterfly / ground / synth / design / flux."""

from __future__ import annotations

import argparse
import json
import math
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


def _fail(msg: str, **extra) -> int:
    doc = {"error": msg}
    doc.update(extra)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return 1


def cmd_butterfly(args) -> int:
    params = singleparticle.ModelParams(J=args.j, omega=args.omega, J2=args.j2)
    results = singleparticle.butterfly_scan(args.q_max, params,
                                            resolution=args.resolution)
    out = Path(args.output)
    count, lo, hi = 0, math.inf, -math.inf
    with open(out, "w") as fh:
        fh.write("p,q,alpha,eigenvalue\n")
        # one flux at a time, ordered by alpha, each sorted by energy
        for r in results:
            row = f"{r.p},{r.q},{r.alpha:.12g},{{:.12g}}\n".format
            fh.writelines(map(row, r.eigenvalues.tolist()))
            count += len(r.eigenvalues)
            lo, hi = min(lo, r.eigenvalues.min()), max(hi, r.eigenvalues.max())
    plot = out.with_suffix(".plot.txt")
    with open(plot, "w") as fh:
        fh.write("x: energy/J\ny: alpha\nsource: " + out.name + "\n"
                 "columns: eigenvalue vs alpha\n")
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
    H = manybody.build_manybody_hamiltonian(geom, links, params, basis)
    E, V, sectors = manybody.sector_eigenstates(H, basis, geom, alpha,
                                                args.count)

    n_phi = alpha * geom.Lx * geom.Ly
    nu = Fraction(args.n, int(n_phi)) if n_phi else None
    report = {
        "energies": E.tolist(),
        "filling_factor": str(nu),
        "sectors": sectors.tolist(),
        "purities": [],
        "c_number": None,
        "laughlin_overlap": None,
    }
    c_nums, purs, overlaps = [], [], []
    sub = None
    if nu == Fraction(1, 2):
        sub = laughlin.laughlin_lattice_states(args.n, alpha, geom)
    # the diagnostics describe the ground doublet
    for v in V.T[:2]:
        C = manybody.motional_density_matrix(v, basis)  # rho = C C^dag
        purs.append(manybody.purity(C))
        c_nums.append(manybody.c_mode_number(v, basis))
        if sub is not None:
            overlaps.append(laughlin.laughlin_overlap(C, sub))
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
    if args.pattern_file:
        pat, geom = lattice.PhasePattern.from_json(Path(args.pattern_file).read_text())
    else:
        geom = LatticeGeometry(args.lx, args.ly, boundary=Boundary.OPEN)
        if args.pattern == "uniform":
            pat = lattice.uniform_phase_pattern(args.alpha, geom)
        elif args.pattern == "checkerboard":
            j = np.arange(geom.Lx)[:, None]
            k = np.arange(geom.Ly)[None, :]
            pat = lattice.PhasePattern(phi=np.pi * ((j + k) % 2))
        else:
            return _fail(f"unknown pattern '{args.pattern}'")
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
    stark = trapdesign.StarkInputs(V_plus=args.vplus, V_minus=args.vminus)
    ratio = trapdesign.potential_ratio(stark)
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
    alpha = args.alpha if geom.is_torus else None
    links = lattice.links_from_phases(pat, geom, alpha=alpha)
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
    p.add_argument("--pattern", default="uniform",
                   choices=["uniform", "checkerboard"])
    p.add_argument("--pattern-file", default=None,
                   help="phase-pattern JSON (overrides --pattern)")
    p.add_argument("--alpha", type=_parse_alpha, default=Fraction(1, 16))
    p.add_argument("--lx", type=int, default=16)
    p.add_argument("--ly", type=int, default=16)
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
        return _fail(str(exc) or type(exc).__name__, command=args.command)


if __name__ == "__main__":
    sys.exit(main())
