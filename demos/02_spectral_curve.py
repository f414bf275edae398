"""The lattice dispersion and its elliptic parametrization.

The dispersion relation defines an algebraic curve; Jacobi functions of
modulus k = 1/(sinh 2Kx sinh 2Ky) uniformize it, and each quasimomentum
theta gets a real coordinate u_theta in [-K, K).  The modulus, eta and
u_theta are the elliptic routes' own, in isingff.cauchy; the couplings hold
only elementary scalars, k among them.
"""

import math

import numpy as np

from isingff import Couplings, b_elliptic, b_of_theta, gamma_of_theta, u_of_theta
from isingff.cauchy import ising_eta, ising_modulus
from isingff.elliptic import jacobi_sn_cn_dn
from isingff.spectral import quasimomenta

c = Couplings.from_kx_ky(0.4, 0.7, 8)
mod, eta = ising_modulus(c), ising_eta(c)
print("couplings Kx, Ky :", c.kx, c.ky)
print("dual coupling    :", c.kx_star, " (ferromagnetic since Kx* < Ky)")
print("modulus k = 1/s  :", mod.k)
print("eta              :", eta, "in (-K'/2, 0), K'/2 =", mod.bigKprime / 2)

# The two momentum sectors: antiperiodic (half-integer) and periodic (integer).
print("\nantiperiodic momenta / pi:", quasimomenta("a", 8) / math.pi)
print("periodic momenta / pi    :", quasimomenta("p", 8) / math.pi)

# Per-momentum spectral table.
print("\n theta/pi     gamma        u_theta      Re b        Im b")
for th in c.sector("a").thetas:
    g = float(gamma_of_theta(th, c))
    u = u_of_theta(th, c)
    b = complex(b_of_theta(th, c))
    print(f"  {th/math.pi:7.4f}  {g:10.6f}  {u:11.6f}  {b.real:9.6f}  {b.imag:9.6f}")

# The uniformization satisfies the curve equation at arbitrary u.
rhs = math.cosh(2 * c.kx) * math.cosh(2 * c.ky)
worst = 0.0
for u in np.linspace(-mod.bigK * 0.95, mod.bigK * 0.95, 11):
    snp = jacobi_sn_cn_dn(u + 1j * eta, mod)[0]
    snm = jacobi_sn_cn_dn(u - 1j * eta, mod)[0]
    z = snp / snm
    lam = 1.0 / (mod.k * snp * snm)
    lhs = c.sinh2kx * (lam + 1 / lam) / 2 + c.sinh2ky * (z + 1 / z) / 2
    worst = max(worst, abs(lhs - rhs))
print("\ncurve-equation residual over a u sweep:", worst)

# The square root of b is rational in sn, cn, dn of u_theta.
th = 2.1
print("sqrt(b) from the elliptic formula, squared, vs b directly:",
      abs(b_elliptic(u_of_theta(th, c), c) ** 2 - b_of_theta(th, c)))

# Endpoint conventions.
print("\nu at theta=0  :", u_of_theta(0.0, c), " (equals -K =", -mod.bigK, ")")
print("u at theta=pi :", u_of_theta(math.pi, c))
