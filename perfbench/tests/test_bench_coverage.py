"""Guard: every public gaugelatt function that cli.main reaches runs inside
a tracer wrapper, so no layer's time hides in its caller's self time."""

import inspect
import json
import sys
from pathlib import Path

import pytest

import layers
from tracing import Tracer

import gaugelatt
import gaugelatt.cli as cli
from gaugelatt.lattice import Boundary, LatticeGeometry, PhasePattern

PKG_DIR = Path(gaugelatt.__file__).resolve().parent


def _cli_runs(tmp: Path) -> list[list[str]]:
    """Small runs of every CLI command, the benchmark's three included."""
    geom = LatticeGeometry(4, 4, boundary=Boundary.OPEN)
    pattern = tmp / "pattern.json"
    pattern.write_text(PhasePattern(phi=[[0.1 * (i + j) for j in range(4)]
                                         for i in range(4)]).to_json(geom))
    return [
        ["butterfly", "--q-max", "4", "--resolution", "2",
         "--omega", "10", "--output", str(tmp / "b.csv")],
        ["ground", "--lx", "6", "--ly", "6", "--n", "2", "--alpha", "1/9",
         "--output", str(tmp / "g.json")],
        ["synth", "--pattern-file", str(pattern),
         "--output", str(tmp / "s.csv")],
        ["design", "--vplus", "1.0", "--vminus", "2.0"],
        ["flux", str(pattern)],
    ]


def _unwrapped_calls(tracer: Tracer, runs) -> set[str]:
    """Qualified names of public gaugelatt functions that ran without a
    tracer wrapper directly above them."""
    probe = Tracer()
    wrapper_codes = {probe.spanned(len, "x", "x").__code__,
                     probe.counted(len, "x", "x").__code__}
    missed = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if (Path(code.co_filename).parent != PKG_DIR
                or code.co_name.startswith(("_", "<"))
                or "<locals>" in code.co_qualname):
            return
        if code.co_flags & inspect.CO_GENERATOR:
            # resumed by whoever iterates it; its creation was wrapped
            covered = code in tracer.wrapped_codes
        else:
            covered = frame.f_back.f_code in wrapper_codes
        if not covered:
            missed.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        for argv in runs:
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    return missed


@pytest.fixture
def tracer():
    t = Tracer()
    layers.install(t)
    yield t
    t.restore()


def test_every_reachable_public_function_is_wrapped(tracer, tmp_path, capsys):
    assert _unwrapped_calls(tracer, _cli_runs(tmp_path)) == set()
    names = {s.name for s in tracer.spans}
    for expected in ("cli.main", "manybody.second_quantize",
                     "laughlin.laughlin_lattice_states", "beamsynth.solve_beams",
                     "lattice.PhasePattern.from_json", f"{layers.EIG}.eigvalsh",
                     "trapdesign.potential_ratio"):
        assert expected in names
    assert tracer.calls["singleparticle.bloch_block"] > 0
    assert tracer.calls["laughlin.theta_with_characteristics"] > 0


def test_guard_reports_a_binding_left_unwrapped(tracer, tmp_path, capsys):
    # undo the wrapper laughlin got through `from .manybody import ...`
    import gaugelatt.laughlin as laughlin
    laughlin.build_fock_basis = laughlin.build_fock_basis.__wrapped__
    runs = [r for r in _cli_runs(tmp_path) if r[0] == "ground"]
    assert _unwrapped_calls(tracer, runs) == {"manybody.build_fock_basis"}


def test_every_public_binding_is_wrapped(tracer):
    for name in ("gaugelatt",) + tuple(f"gaugelatt.{m}" for m in layers.MODULES):
        for attr, obj in vars(sys.modules[name]).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__.startswith("gaugelatt")):
                assert hasattr(obj, "__wrapped__"), f"{name}.{attr}"


def test_buckets_add_up_to_the_traced_call(tracer, tmp_path, capsys):
    for argv in _cli_runs(tmp_path)[:3]:
        cli.main(argv)
    values = layers.layer_metrics(tracer)
    roots = [s for s in tracer.spans if s.parent == -1]
    total = sum(s.end - s.start for s in roots)
    buckets = sum(v for k, v in values.items()
                  if k.endswith("_s") and not k.startswith(("trace.", "cli.import")))
    assert buckets == pytest.approx(total, rel=1e-9)
    assert values["manybody.second_quantize_calls"] == 3
    assert values["manybody.basis_dim"] == 2628  # 2 bosons in 72 modes
    json.dumps(values)
