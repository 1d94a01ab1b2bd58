"""Synthetic Abelian gauge fields in state-dependent optical lattices.

Pipeline: laser phase pattern -> link phases and plaquette fluxes ->
bilayer tight-binding spectra (Hofstadter scans) -> interacting few-boson
ground states with quantum-Hall diagnostics -> beam-array synthesis for a
target gauge field, plus trap-design calculators.  The API lives in the
submodules (lattice, singleparticle, manybody, laughlin, beamsynth,
trapdesign, cli).
"""

__version__ = "0.1.0"
