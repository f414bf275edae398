"""Elliptic Cauchy matrices and the closed forms built from them.

Covers the Frobenius determinant and inverse of matrices with entries
theta_1(x_i - y_j + alpha) / (theta_1(x_i - y_j) * theta_1(alpha)), the
balanced theta-interpolation sum, the sn-pfaffian product identity, and the
specialization to the two sector-coupling matrices

    Phi[theta, theta'] = dn(u_theta - u_theta') / sn(u_theta - u_theta'),
    Psi[theta, theta'] = cn(u_theta - u_theta'),

with rows on the periodic momentum set and columns on the antiperiodic one.
Phi is an elliptic Cauchy matrix: with x, y the points of :func:`ising_xy`,
alpha = pi/2 - pi*tau/2 and kappa = theta_2(0) theta_4(0) / theta_3(0),
Phi = kappa diag(e^{-ix}) C(x, y; alpha) diag(e^{iy}), because
theta_3(z) = e^{-iz - pi|tau|/4} theta_1(z + alpha) and
theta_1(alpha) = e^{pi|tau|/4} theta_3(0).  Its inverse and log det are the
Frobenius formulas; Psi*Phi^-1 and Phi^-1*Psi are in closed form too.  The
default code paths use the reduced sn-forms; the raw theta-product forms are
kept behind a ``theta_route`` flag purely for cross-checks.

Every closed form is array algebra over the point grid: theta_1 and sn/cn/dn
are evaluated once on the whole array of pairwise differences, products over
j != i leave the diagonal out with a mask, and products over i < j take the
upper triangle.  The Frobenius determinant is a sum of complex logarithms,
so its N^2 factors cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticModulus, jacobi_sn_cn_dn, theta
from .exceptions import DomainError, SingularMatrixError
from .spectral import Couplings, log_sinh

_LATTICE_TOL = 1e-11


def _theta1_zero_distance(z, q: float):
    """Distance from each z to the zero lattice pi*Z + pi*tau*Z of theta_1."""
    z = np.asarray(z, dtype=complex)
    pit = -math.log(q)
    return np.hypot(z.real - math.pi * np.rint(z.real / math.pi),
                    z.imag - pit * np.rint(z.imag / pit))


def _prod_off_diagonal(grid: np.ndarray) -> np.ndarray:
    """Product along each row of a square grid, leaving out its diagonal entry."""
    return np.prod(grid, axis=1, where=~np.eye(len(grid), dtype=bool))


@dataclass(frozen=True)
class EllipticPointConfig:
    """Point data (x_i, y_i, alpha) of an elliptic Cauchy matrix of nome q."""

    xs: tuple
    ys: tuple
    q: float
    alpha_shift: complex

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(complex(x) for x in self.xs))
        object.__setattr__(self, "ys", tuple(complex(y) for y in self.ys))
        if len(self.xs) != len(self.ys):
            raise DomainError("xs and ys must have the same length")
        diff = np.subtract.outer(np.array(self.xs, dtype=complex),
                            np.array(self.ys, dtype=complex))
        on_lattice = _theta1_zero_distance(diff, self.q) < _LATTICE_TOL
        if np.any(on_lattice):
            raise DomainError(f"x - y = {complex(diff[on_lattice][0])} is on the "
                              f"zero lattice of theta_1")

    @property
    def size(self) -> int:
        return len(self.xs)


def elliptic_cauchy_matrix(cfg: EllipticPointConfig) -> np.ndarray:
    """Dense entries theta_1(x_i - y_j + alpha)/(theta_1(x_i - y_j) theta_1(alpha))."""
    ta = theta(1, cfg.alpha_shift, cfg.q)
    if abs(ta) < _LATTICE_TOL:
        raise DomainError("theta_1(alpha) vanishes; Cauchy entries undefined")
    diff = np.subtract.outer(cfg.xs, cfg.ys)
    return theta(1, diff + cfg.alpha_shift, cfg.q) / (theta(1, diff, cfg.q) * ta)


def frobenius_log_det(cfg: EllipticPointConfig) -> complex:
    """log det of the elliptic Cauchy matrix, one sum of complex logs of the
    Frobenius theta factors with the imaginary part modulo 2*pi; coincident
    points give a real part of -inf."""
    xs, ys, q = np.array(cfg.xs), np.array(cfg.ys), cfg.q
    ta = theta(1, cfg.alpha_shift, q)
    if abs(ta) < _LATTICE_TOL:
        raise DomainError("theta_1(alpha) vanishes; determinant undefined")
    i, j = np.triu_indices(cfg.size, 1)
    with np.errstate(divide="ignore"):
        log_det = (np.log(theta(1, xs.sum() - ys.sum() + cfg.alpha_shift, q) / ta)
                   + np.log(theta(1, xs[i] - xs[j], q)).sum()
                   + np.log(theta(1, ys[j] - ys[i], q)).sum()
                   - np.log(theta(1, np.subtract.outer(xs, ys), q)).sum())
    return complex(log_det.real, math.remainder(log_det.imag, 2.0 * math.pi))


def frobenius_inverse(cfg: EllipticPointConfig) -> np.ndarray:
    """Closed-form inverse from the Frobenius determinant and its cofactors.

    Entry (m, n) pairs the n-th x point with the m-th y point.

    Raises
    ------
    SingularMatrixError
        If theta_1 vanishes at the balancing sum sum(x) - sum(y) + alpha.
    """
    xs, ys, q = np.array(cfg.xs), np.array(cfg.ys), cfg.q
    bal = xs.sum() - ys.sum() + cfg.alpha_shift
    t_bal = theta(1, bal, q)
    if _theta1_zero_distance(bal, q) < _LATTICE_TOL:
        raise SingularMatrixError("balancing sum on the zero lattice; matrix singular")
    diff = np.subtract.outer(xs, ys).T  # x_n - y_m at [m, n]
    return (-theta(1, bal - diff, q) / (t_bal * theta(1, diff, q))
            * _interpolation_terms(ys, xs, q)[:, None]
            * _interpolation_terms(xs, ys, q)[None, :])


def _interpolation_terms(zs, zs_prime, q: float) -> np.ndarray:
    """prod_j theta_1(z_i - z'_j) / prod_{j != i} theta_1(z_i - z_j) for each i."""
    return (np.prod(theta(1, np.subtract.outer(zs, zs_prime), q), axis=1)
            / _prod_off_diagonal(theta(1, np.subtract.outer(zs, zs), q)))


def theta_interpolation_sum(zs, zs_prime, q: float) -> complex:
    """Balanced theta-interpolation sum; vanishes for balanced points.

    Computes sum_i prod_j theta_1(z_i - z'_j) / prod_{j != i} theta_1(z_i - z_j)
    for point sets satisfying sum(z) = sum(z'), for which the result is zero
    up to rounding (|sum| <= 1e-10 times the magnitude of the largest term).

    Raises
    ------
    DomainError
        If the balancing condition is violated beyond 1e-12.
    """
    zs = np.asarray(zs, dtype=complex)
    zp = np.asarray(zs_prime, dtype=complex)
    if len(zs) != len(zp):
        raise DomainError("point sets must have the same length")
    imbalance = abs(zs.sum() - zp.sum())
    if imbalance > 1e-12:
        raise DomainError(f"points not balanced: |sum z - sum z'| = {imbalance:.3e}")
    return complex(_interpolation_terms(zs, zp, q).sum())


def sn_pfaffian_product(us, mod: EllipticModulus) -> complex:
    """Product over i < j of sqrt(k)*sn(u_i - u_j), for an even number of points.

    Equals the pfaffian of the antisymmetric matrix sqrt(k)*sn(u_i - u_j);
    coincident points give 0, consistent with the degenerate pfaffian.
    """
    us = np.asarray(us, dtype=complex)
    if len(us) % 2 != 0:
        raise DomainError("sn pfaffian product needs an even number of points")
    i, j = np.triu_indices(len(us), 1)
    sn = jacobi_sn_cn_dn(us[i] - us[j], mod)[0]
    return complex(np.prod(math.sqrt(mod.k) * sn))


# ---- Ising specialization ------------------------------------------------


def ising_xy(c: Couplings) -> tuple[np.ndarray, np.ndarray]:
    """Theta-argument points x_i (periodic) and y_i (antiperiodic), u scaled by pi/2K."""
    scale = math.pi / (2.0 * c.modulus.bigK)
    return c.sector("p").u * scale, c.sector("a").u * scale


def ising_cauchy_config(c: Couplings) -> tuple[EllipticPointConfig, complex]:
    """Points x, y, alpha and the scalar kappa of Phi as an elliptic Cauchy
    matrix (see the module docstring)."""
    xs, ys = ising_xy(c)
    t2, t3, t4 = c.modulus._theta_zeros
    alpha = math.pi / 2.0 - math.pi * c.modulus.tau / 2.0
    return EllipticPointConfig(tuple(xs), tuple(ys), c.modulus.q, alpha), t2 * t4 / t3


def ising_constraint_residuals(c: Couplings) -> dict[str, float]:
    """Residuals of the point-pairing constraints of the Ising configuration.

    Both parities share x_1 = -pi/2, the pairwise cancellations
    x_j + x_{N+2-j} = 0 and y_k + y_{N+1-k} = 0, and the balancing sum
    sum(x) - sum(y) = -pi/2.  Odd N additionally has y_{(N+1)/2} = 0, even N
    has x_{N/2+1} = 0.
    """
    xs, ys = ising_xy(c)
    n = c.n
    res = {"x1_plus_half_pi": abs(xs[0] + math.pi / 2.0)}
    res["x_pairing"] = float(np.max(np.abs(xs[1:] + xs[:0:-1]), initial=0.0))
    res["y_pairing"] = float(np.max(np.abs(ys + ys[::-1])))
    if n % 2 == 0:
        res["middle_point"] = abs(xs[n // 2])
    else:
        res["middle_point"] = abs(ys[(n - 1) // 2])
    res["balancing_sum"] = abs(xs.sum() - ys.sum() + math.pi / 2.0)
    return res


def _sn_cn_dn_of_differences(c: Couplings, rows: str, cols: str):
    """sn, cn and dn of u_i - u_j, i over sector ``rows`` and j over ``cols``."""
    return jacobi_sn_cn_dn(np.subtract.outer(c.sector(rows).u, c.sector(cols).u),
                           c.modulus)


def phi_matrix(c: Couplings) -> np.ndarray:
    """Phi with rows on periodic momenta and columns on antiperiodic ones."""
    sn, _, dn = _sn_cn_dn_of_differences(c, "p", "a")
    return (dn / sn).real


def psi_matrix(c: Couplings) -> np.ndarray:
    """Psi = cn of pairwise differences, same index layout as Phi."""
    return _sn_cn_dn_of_differences(c, "p", "a")[1].real


def fg_factors(c: Couplings) -> tuple[np.ndarray, np.ndarray]:
    """Per-point theta-product factors of the theta-route closed forms."""
    cfg, kappa = ising_cauchy_config(c)
    pref = 1j / kappa
    return (pref * _interpolation_terms(cfg.xs, cfg.ys, cfg.q),
            pref * _interpolation_terms(cfg.ys, cfg.xs, cfg.q))


def h_function(z, c: Couplings):
    """h(z) = prod_i theta_1(z - x_i)/theta_1(z - y_i) elementwise over z;
    verification route only."""
    xs, ys = ising_xy(c)
    q = c.modulus.q
    z = np.asarray(z, dtype=complex)
    h = (np.prod(theta(1, np.subtract.outer(z, xs), q), axis=-1)
         / np.prod(theta(1, np.subtract.outer(z, ys), q), axis=-1))
    return complex(h) if z.ndim == 0 else h


def phi_inverse_closed(c: Couplings) -> np.ndarray:
    """Phi^-1 with rows on antiperiodic momenta and columns on periodic ones:
    diag(e^{-iy}) C^-1 diag(e^{ix}) / kappa, C^-1 the Frobenius inverse."""
    cfg, kappa = ising_cauchy_config(c)
    return (np.exp(-1j * np.array(cfg.ys))[:, None] * frobenius_inverse(cfg)
            * np.exp(1j * np.array(cfg.xs))[None, :] / kappa)


def phi_inverse_trig(c: Couplings) -> np.ndarray:
    """Phi^-1 from the fully reduced trigonometric formula (cross-check route)."""
    n = c.n
    a, p = c.sector("a"), c.sector("p")
    ga, gp = a.gamma, p.gamma
    half_sum = (ga[:, None] + gp[None, :]) / 2.0
    sin_half = np.sin((a.thetas[:, None] - p.thetas[None, :]) / 2.0)
    amp = np.exp((a.nu[:, None] - p.nu[None, :]) / 2.0)
    return (-c.sinh2ky * amp * np.sinh(half_sum)
            / (n**2 * np.sinh(ga)[:, None] * np.sinh(gp)[None, :] * sin_half))


def chi_kappa(c: Couplings) -> tuple[np.ndarray, np.ndarray]:
    """Cross-sector sn-product ratios chi (periodic) and kappa (antiperiodic)."""
    sn_pa = _sn_cn_dn_of_differences(c, "p", "a")[0].real
    sn_pp = _sn_cn_dn_of_differences(c, "p", "p")[0].real
    sn_aa = _sn_cn_dn_of_differences(c, "a", "a")[0].real
    chi = sn_pa.prod(axis=1) / _prod_off_diagonal(sn_pp)
    kappa = (-sn_pa).prod(axis=0) / _prod_off_diagonal(sn_aa)
    return chi, kappa


def chi_kappa_trig(c: Couplings) -> tuple[np.ndarray, np.ndarray]:
    """chi and kappa through the explicit momentum products (cross-check route).

    The sine products over full momentum sets collapse to +-1/N, leaving
    chi = -exp(-nu) sinh(2*ky)/(N sinh gamma) on the periodic set and
    kappa = +exp(+nu) sinh(2*ky)/(N sinh gamma) on the antiperiodic one.
    """
    a, p = c.sector("a"), c.sector("p")
    chi = -np.exp(-p.nu) * c.sinh2ky / (c.n * np.sinh(p.gamma))
    kappa = np.exp(a.nu) * c.sinh2ky / (c.n * np.sinh(a.gamma))
    return chi, kappa


def lambda_uv(u, v, c: Couplings):
    """Ratio lambda(u, v) in its reduced sn-form, broadcast over u and v.

    lambda(u, v) = w(u)/w(v) * dn u (1 + k sn v) / (dn v (1 + k sn u)) with
    w(u) = prod over momenta of (1 - k sn_p sn u)/(1 - k sn_a sn u).  Scalar
    u and v give a float.
    """
    mod = c.modulus
    k = mod.k
    sn_p = jacobi_sn_cn_dn(c.sector("p").u, mod)[0].real
    sn_a = jacobi_sn_cn_dn(c.sector("a").u, mod)[0].real

    def w(sn):
        sn = np.asarray(sn)[..., None]
        return np.prod((1.0 - k * sn_p * sn) / (1.0 - k * sn_a * sn), axis=-1)

    snu, _, dnu = (np.real(f) for f in jacobi_sn_cn_dn(u, mod))
    snv, _, dnv = (np.real(f) for f in jacobi_sn_cn_dn(v, mod))
    val = dnu * (1.0 + k * snv) / (dnv * (1.0 + k * snu)) * w(snu) / w(snv)
    return float(val) if np.ndim(val) == 0 else val


def psi_phi_inverse_closed(c: Couplings, theta_route: bool = False) -> np.ndarray:
    """Closed form of Psi * Phi^-1, indexed by periodic momenta on both axes.

    The default path uses the reduced sn-form (chi and lambda factors); with
    ``theta_route=True`` the raw theta-product form through h(z) is used
    instead, for cross-checking only.  The diagonal is zero.
    """
    sn_pp = _sn_cn_dn_of_differences(c, "p", "p")[0].real
    if theta_route:
        f, _ = fg_factors(c)
        xs, _ = ising_xy(c)
        hvals = h_function(xs + math.pi * c.modulus.tau / 2.0, c)
        out = f[None, :] * hvals[:, None] * sn_pp
    else:
        chi, _ = chi_kappa(c)
        u = c.sector("p").u
        out = chi[None, :] * lambda_uv(u[:, None], u[None, :], c) * sn_pp
    out = out.astype(complex)
    np.fill_diagonal(out, 0.0)
    return out


def phi_inverse_psi_closed(c: Couplings, theta_route: bool = False) -> np.ndarray:
    """Closed form of Phi^-1 * Psi, indexed by antiperiodic momenta on both axes.

    The diagonal is zero.
    """
    sn_aa = _sn_cn_dn_of_differences(c, "a", "a")[0].real
    if theta_route:
        _, g = fg_factors(c)
        _, ys = ising_xy(c)
        hvals = h_function(ys - math.pi * c.modulus.tau / 2.0, c)
        out = -g[:, None] / hvals[None, :] * sn_aa
    else:
        _, kappa = chi_kappa(c)
        u = c.sector("a").u
        out = kappa[:, None] * lambda_uv(u[:, None], u[None, :], c) * sn_aa.T
    out = out.astype(complex)
    np.fill_diagonal(out, 0.0)
    return out


def log_det_phi_theta(c: Couplings) -> complex:
    """log det(Phi) = N log kappa - i (sum(x) - sum(y)) + log det C(x, y; alpha),
    the phase defined modulo 2*pi; nothing overflows at large N."""
    cfg, kappa = ising_cauchy_config(c)
    return complex(c.n * np.log(kappa) - 1j * (np.sum(cfg.xs) - np.sum(cfg.ys))
                   + frobenius_log_det(cfg))


def log_det_phi_squared_trig(c: Couplings) -> float:
    """log (det Phi)^2 from the fully reduced trigonometric formula."""
    n = c.n
    a, p = c.sector("a"), c.sector("p")
    return float(2.0 * n * math.log(n)
                 + 0.5 * math.log1p(-c.modulus.k**2)
                 - 2.0 * n * math.log(c.sinh2ky)
                 + 0.5 * (p.nu.sum() - a.nu.sum())
                 + log_sinh(p.gamma).sum() + log_sinh(a.gamma).sum())
