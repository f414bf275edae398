"""Tour of the elliptic layer: theta functions, quarter periods, sn/cn/dn.

Everything downstream is built from the Jacobi theta function of nome q;
this script shows the basic objects and spot-checks them against their
defining identities.
"""

import math

import numpy as np

from isingff import EllipticModulus, complete_elliptic_K, jacobi_sn_cn_dn, theta
from isingff.elliptic import inverse_sn_real

# A modulus bundles k with its quarter periods and nome.
mod = EllipticModulus(0.8)
print("modulus k        :", mod.k)
print("complementary k' :", mod.kprime)
print("quarter period K :", mod.bigK)
print("quarter period K':", mod.bigKprime)
print("nome q = e^{-pi K'/K}:", mod.q)

# The arithmetic-geometric mean gives K(k); the theta constants give it back.
print("\nAGM route vs theta-constant route:")
t3 = theta(3, 0.0, mod.q)
print("  K from AGM          :", complete_elliptic_K(mod.k))
print("  pi*theta3(0)^2 / 2  :", (math.pi * t3**2 / 2.0).real)

# sn, cn, dn are theta ratios; check the quarter-period values and the
# algebraic identities at an arbitrary complex point.
sn, cn, dn = jacobi_sn_cn_dn(mod.bigK, mod)
print("\nat u = K: sn, cn, dn =", sn.real, cn.real, dn.real, " (expect 1, 0, k')")

u = 0.31 + 0.27j
sn, cn, dn = jacobi_sn_cn_dn(u, mod)
print(f"\nat u = {u}:")
print("  sn^2 + cn^2 - 1        =", abs(sn**2 + cn**2 - 1.0))
print("  dn^2 + k^2 sn^2 - 1    =", abs(dn**2 + mod.k**2 * sn**2 - 1.0))

# Quasiperiodicity of theta_1 with exactly tracked phase factors.
z = 0.4 - 0.1j
tau = mod.tau
lhs = theta(1, z + math.pi * tau, mod.q)
rhs = -np.exp(-1j * math.pi * tau - 2j * z) * theta(1, z, mod.q)
print("\ntheta_1 quasiperiodicity residual:", abs(lhs - rhs))

# The inverse of sn on the real branch with cn >= 0.
s = 0.37
u = inverse_sn_real(s, mod)
print("\ninverse sn:", u, "-> forward sn:", jacobi_sn_cn_dn(u, mod)[0].real)
