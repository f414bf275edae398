"""Elliptic Cauchy matrices: closed determinants, inverses, and interpolation.

The workhorse identities: the Frobenius determinant formula (taken as a
log, so it cannot overflow), its cofactor inverse, the balanced theta-interpolation sum, and the sn-product pfaffian.
Each is compared against plain dense linear algebra.
"""

import math

import numpy as np

from isingff import Couplings, pfaffian
from isingff.cauchy import (EllipticPointConfig, elliptic_cauchy_matrix,
                            frobenius_inverse, frobenius_log_det, ising_modulus,
                            phi_inverse_closed,
                            phi_matrix, psi_matrix, psi_phi_inverse_closed,
                            sn_pfaffian_product, theta_interpolation_sum)
from isingff.elliptic import jacobi_sn_cn_dn
from isingff.linalg import log_det_and_inverse

rng = np.random.default_rng(0)
c = Couplings.from_kx_ky(0.4, 0.7, 5)
mod = ising_modulus(c)

# A generic elliptic Cauchy matrix and its closed determinant/inverse.
size = 5
xs = tuple(rng.uniform(-1, 1, size) + 1j * rng.uniform(-0.1, 0.1, size))
ys = tuple(rng.uniform(-1, 1, size) + 1j * rng.uniform(-0.1, 0.1, size))
cfg = EllipticPointConfig(xs, ys, mod.q, 0.8 + 0.05j)
mat = elliptic_cauchy_matrix(cfg)
log_det, _ = log_det_and_inverse(mat)
print("Frobenius determinant vs dense LU :", abs(np.exp(frobenius_log_det(cfg) - log_det) - 1))
print("closed inverse residual           :",
      np.max(np.abs(frobenius_inverse(cfg) @ mat - np.eye(size))))

# Balanced points annihilate the interpolation sum.
m = 4
zs = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.2, 0.2, m)
zp = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.2, 0.2, m)
zp[-1] += zs.sum() - zp.sum()
print("balanced interpolation sum        :", abs(theta_interpolation_sum(zs, zp, mod.q)))

# The pfaffian of the sn-difference matrix factorizes completely.
pts = np.linspace(-0.7, 0.7, 6) * mod.bigK
sqk = math.sqrt(mod.k)
sn_mat = np.zeros((6, 6), dtype=complex)
for i in range(6):
    for j in range(6):
        if i != j:
            sn_mat[i, j] = sqk * jacobi_sn_cn_dn(pts[i] - pts[j], mod)[0]
print("sn pfaffian vs factorized product :",
      abs(pfaffian(sn_mat) / sn_pfaffian_product(pts, mod) - 1))

# The sector-coupling matrix Phi is of this type, up to diagonal phases and
# the theta-constant ratio kappa: inverse in closed form.
phi = phi_matrix(c)
psi = psi_matrix(c)
print("\nsector matrix Phi (periodic rows, antiperiodic columns):")
print(np.array2string(phi, precision=4))
print("closed Phi^-1 residual            :",
      np.max(np.abs(phi_inverse_closed(c) @ phi - np.eye(c.n))))
_, inv_phi = log_det_and_inverse(phi)
print("closed Psi Phi^-1 vs dense product:",
      np.max(np.abs(psi_phi_inverse_closed(c) - psi @ inv_phi)))
