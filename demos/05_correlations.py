"""Two-point functions on the torus, spectral sum vs exact trace ratio.

The correlation is a double sum of squared form-factor moduli weighted by
transfer-matrix and translation eigenvalues; for small lattices the dense
trace ratio provides the exact reference, for both periodic and antiperiodic
boundary conditions in the transfer direction.
"""

from isingff import Couplings, two_point_correlation
from isingff.oracle import build_operators, oracle_correlation

c = Couplings.from_kx_ky(0.4, 0.7, 4)
ops = build_operators(c, eps_y=1)
m_height = 6

print(f"lattice: N = {c.n} columns, M = {m_height} rows, Kx = {c.kx}, Ky = {c.ky}")
for eps_x in (1, -1):
    print(f"\nboundary eps_x = {eps_x:+d}:")
    print("  dx dy   spectral sum     trace ratio      |diff|")
    for dx in range(0, 3):
        for dy in range(0, 3):
            v1 = two_point_correlation(c, m_height, dx, dy, eps_x=eps_x, eps_y=1)
            v2 = oracle_correlation(ops, m_height, dx, dy, eps_x=eps_x)
            print(f"  {dx}  {dy}   {v1:+.12f}  {v2:+.12f}  {abs(v1 - v2):.1e}")

# Larger widths no longer admit the dense reference; the spectral sum still
# enumerates the full Fock basis up to N = 12 and switches to a
# particle-number cutoff beyond that.
c12 = Couplings.from_kx_ky(0.4, 0.7, 12)
print("\nN = 12 with the full Fock basis:",
      two_point_correlation(c12, 8, 2, 3))
c14 = Couplings.from_kx_ky(0.4, 0.7, 14)
print("N = 14 with default particle cutoff:",
      two_point_correlation(c14, 8, 2, 3))
