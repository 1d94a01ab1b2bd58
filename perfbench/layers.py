"""Which gaugelatt spans and counters make up each per-layer metric.

A span's self time (duration minus its child spans) goes to one bucket:
the bucket named for its function in BUCKETS, else its module's bucket in
MODULE_BUCKETS, else "<module>.other_s" (kept in the traced record, not
reported).  The buckets therefore add up to the traced ``cli.main`` time.
"""

from __future__ import annotations

import sys
import types

from tracing import Tracer, self_times

PACKAGE = "gaugelatt"
MODULES = ("cli", "lattice", "singleparticle", "manybody", "laughlin",
           "beamsynth", "trapdesign")

# Called tens of thousands of times per run (bloch_block ~17k and the
# SpectrumResult.alpha property once per CSV row, ~686k, on butterfly; the
# theta functions ~62k on ground): count, do not span.
COUNTED = frozenset({
    "singleparticle.bloch_block",
    "singleparticle.SpectrumResult.alpha",
    "laughlin.theta_with_characteristics",
    "laughlin.theta1",
})

EIG = "singleparticle.np.linalg"  # dense eigensolver calls made by singleparticle

BUCKETS = {
    f"{EIG}.eigvalsh": "singleparticle.eig_s",
    f"{EIG}.eigh": "singleparticle.eig_s",
    "singleparticle.bloch_block_spectrum": "singleparticle.blocks_s",
    "singleparticle.commensurate_bloch_spectrum": "singleparticle.blocks_s",
    "singleparticle.butterfly_scan": "singleparticle.blocks_s",
    "singleparticle.farey_alphas": "singleparticle.blocks_s",
    "singleparticle.build_bilayer_hamiltonian": "singleparticle.onebody_s",
    "singleparticle.build_target_hamiltonian": "singleparticle.onebody_s",
    "manybody.build_fock_basis": "manybody.basis_s",
    "manybody.build_manybody_hamiltonian": "manybody.hamiltonian_s",
    "manybody.second_quantize": "manybody.second_quantize_s",
    "manybody.lowest_eigenstates": "manybody.eigensolver_s",
    "manybody.motional_density_matrix": "manybody.diagnostics_s",
    "manybody.purity": "manybody.diagnostics_s",
    "manybody.c_mode_number": "manybody.diagnostics_s",
    "laughlin.laughlin_lattice_states": "laughlin.states_s",
    "laughlin.laughlin_overlap": "laughlin.overlap_s",
    "laughlin.LaughlinSubspace.product_space_states": "laughlin.overlap_s",
    # manybody helpers that only the Laughlin overlap uses
    "manybody.subspace_overlap": "laughlin.overlap_s",
    "manybody.symmetric_fock_to_product": "laughlin.overlap_s",
    "beamsynth.overlap_matrix": "beamsynth.overlap_matrix_s",
    "beamsynth.condition_number": "beamsynth.condition_s",
    "beamsynth.solve_beams": "beamsynth.solve_s",
}
MODULE_BUCKETS = {"cli": "cli.self_s", "lattice": "lattice.self_s"}

ERROR_MODULES = ("cli", "lattice", "singleparticle", "manybody", "laughlin",
                 "beamsynth")

# (name, unit) of every per-layer metric, in the order they are reported.
# run.py measures cli.import_s, cli.output_bytes and trace.overhead_s around
# the child process; the rest come from the tracer.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("lattice.self_s", "s"),
    ("singleparticle.eig_s", "s"),
    ("singleparticle.blocks_s", "s"),
    ("singleparticle.eig_matrices", "count"),
    ("singleparticle.eigenvalues", "count"),
    ("singleparticle.bloch_block_calls", "count"),
    ("singleparticle.onebody_s", "s"),
    ("manybody.basis_s", "s"),
    ("manybody.basis_dim", "count"),
    ("manybody.hamiltonian_s", "s"),
    ("manybody.second_quantize_s", "s"),
    ("manybody.second_quantize_calls", "count"),
    ("manybody.nnz", "count"),
    ("manybody.eigensolver_s", "s"),
    ("manybody.diagnostics_s", "s"),
    ("laughlin.states_s", "s"),
    ("laughlin.theta_calls", "count"),
    ("laughlin.overlap_s", "s"),
    ("beamsynth.overlap_matrix_s", "s"),
    ("beamsynth.condition_s", "s"),
    ("beamsynth.solve_s", "s"),
    ("beamsynth.overlap_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
] + [(f"{m}.errors", "count") for m in ERROR_MODULES]


def bucket(span) -> str:
    return (BUCKETS.get(span.name) or MODULE_BUCKETS.get(span.module)
            or f"{span.module}.other_s")


def _count_eigenvalues(t, result, args):
    t.counters["singleparticle.eigenvalues"] += result.eigenvalues.size


def _count_matrices(t, result, args):
    shape = args[0].shape
    t.counters["singleparticle.eig_matrices"] += (
        shape[0] if len(shape) == 3 else 1)


def _basis_dim(t, result, args):
    c = t.counters
    c["manybody.basis_dim"] = max(c["manybody.basis_dim"], result.size)


def _nnz(t, result, args):
    t.counters["manybody.nnz"] += result.nnz


def _overlap_bytes(t, result, args):
    t.counters["beamsynth.overlap_bytes"] += result.T.nbytes


AFTER = {
    "singleparticle.bloch_block_spectrum": _count_eigenvalues,
    "singleparticle.finite_lattice_spectrum": _count_eigenvalues,
    f"{EIG}.eigvalsh": _count_matrices,
    f"{EIG}.eigh": _count_matrices,
    "manybody.build_fock_basis": _basis_dim,
    "manybody.build_manybody_hamiltonian": _nnz,
    "beamsynth.overlap_matrix": _overlap_bytes,
}


def _module_copy(mod, **overrides) -> types.ModuleType:
    """A module object with ``mod``'s namespace plus ``overrides``; attribute
    lookups stay plain dict reads, so untouched functions cost nothing."""
    copy = types.ModuleType(mod.__name__)
    copy.__dict__.update(vars(mod))
    copy.__dict__.update(overrides)
    return copy


def install(tracer: Tracer) -> None:
    """Instrument the loaded gaugelatt package (``tracer.restore()`` undoes
    it).  Besides the package's own callables, the dense eigensolvers that
    singleparticle reaches through ``np.linalg`` get spans of their own."""
    modules = [sys.modules[PACKAGE]]  # re-exports: rebound, not wrapped
    modules += [sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
    tracer.instrument(PACKAGE, modules, counted=COUNTED, after=AFTER)
    sp = sys.modules[f"{PACKAGE}.singleparticle"]
    np = sp.np
    linalg = _module_copy(np.linalg, **{
        f: tracer.spanned(getattr(np.linalg, f), f"{EIG}.{f}",
                          "singleparticle", AFTER[f"{EIG}.{f}"])
        for f in ("eigvalsh", "eigh")})
    tracer.rebind(sp, "np", _module_copy(np, linalg=linalg))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values recorded by the tracer, keyed by metric name.  The
    time buckets that are not reported stay in the dict too."""
    out = {name: 0 for name, _ in PER_LAYER}
    for span, dt in zip(tracer.spans, self_times(tracer.spans)):
        key = bucket(span)
        out[key] = out.get(key, 0.0) + dt
    out.update(tracer.counters)
    out["singleparticle.bloch_block_calls"] = tracer.calls[
        "singleparticle.bloch_block"]
    out["laughlin.theta_calls"] = tracer.calls[
        "laughlin.theta_with_characteristics"]
    out["manybody.second_quantize_calls"] = sum(
        s.name == "manybody.second_quantize" for s in tracer.spans)
    out["trace.spans"] = len(tracer.spans)
    for m in ERROR_MODULES:
        out[f"{m}.errors"] = tracer.errors[m]
    return out
