"""Spin form factors: induced rotations, pfaffians, and the factorized formula.

A spin operator conjugates one family of fermions into the other; its matrix
elements between the two Fock towers follow from four N x N blocks.  This
script walks from those blocks to multiparticle form factors and checks the
two independent evaluation routes against each other and against the
brute-force oracle.
"""

import numpy as np

from isingff import (Couplings, FockState, FormFactorSpec, ff_closed,
                     ff_pfaffian, induced_rotation, two_particle_matrices,
                     vacuum_overlap)
from isingff.oracle import build_operators, labeled_spectrum, oracle_ff_modulus

c = Couplings.from_kx_ky(0.3, 0.9, 6)

# The induced rotation blocks and their exact relations.
rot = induced_rotation(c, site=2)
print("induced-rotation relation residuals:")
for name, val in rot.relation_residuals().items():
    print(f"  {name:28s} {val:.2e}")

# Two-particle data: D^-1, B D^-1, D^-1 C in closed form.
dinv, bdinv, dinvc = two_particle_matrices(c, site=2)
print("\nD^-1 D residual:", np.max(np.abs(dinv @ rot.d - np.eye(c.n))))

# The vacuum-to-vacuum element and its infinite-volume limit.
print("\nvacuum overlap at N=6 :", vacuum_overlap(c))
for n in (16, 64):
    cn = Couplings.from_kx_ky(0.3, 0.9, n)
    print(f"vacuum overlap at N={n:2d}:", vacuum_overlap(cn))
print("spontaneous magnetization (infinite N):", (1 - c.s**-2) ** 0.125)

# A four-particle form factor through both routes.
spec = FormFactorSpec(site=1,
                      bra=FockState("a", (0, 2, 3, 5)),
                      ket=FockState("p", ()))
f_closed = ff_closed(spec, c)
f_pf = ff_pfaffian(spec, c)
print("\n4-particle matrix element:")
print("  factorized closed form :", f_closed)
print("  pfaffian route         :", f_pf)
print("  relative difference    :", abs(f_closed - f_pf) / abs(f_closed))

# Independent ground truth from dense diagonalization (even sectors).
ops = build_operators(c, eps_y=1)
spectrum = labeled_spectrum(ops)
print("  dense-oracle modulus   :", oracle_ff_modulus(ops, spectrum, spec))

# Translation covariance: the site enters only through a momentum phase.
shift = -c.sector("a").thetas[[0, 2, 3, 5]].sum()
spec0 = FormFactorSpec(0, spec.bra, spec.ket)
pred = np.exp(1j * 1 * shift) * ff_closed(spec0, c)
print("  translation-phase check:", abs(f_closed - pred))
