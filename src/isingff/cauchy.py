"""Elliptic Cauchy matrices, the closed forms built from them, and the
elliptic routes that cross-check the form factors.

Covers the Frobenius determinant and inverse of matrices with entries
theta_1(x_i - y_j + alpha) / (theta_1(x_i - y_j) * theta_1(alpha)), the
balanced theta-interpolation sum, the sn-pfaffian product identity, and the
specialization to the two sector-coupling matrices

    Phi[theta, theta'] = dn(u_theta - u_theta') / sn(u_theta - u_theta'),
    Psi[theta, theta'] = cn(u_theta - u_theta'),

with rows on the periodic momentum set and columns on the antiperiodic one.
Phi is an elliptic Cauchy matrix: with x, y the points of :func:`ising_cauchy_config`,
alpha = pi/2 - pi*tau/2 and kappa = theta_2(0) theta_4(0) / theta_3(0),
Phi = kappa diag(e^{-ix}) C(x, y; alpha) diag(e^{iy}), because
theta_3(z) = e^{-iz - pi|tau|/4} theta_1(z + alpha) and
theta_1(alpha) = e^{pi|tau|/4} theta_3(0).  Its inverse and log det are the
Frobenius formulas; Psi*Phi^-1 and Phi^-1*Psi are in closed form too, in
reduced sn-form from the per-point factors chi, kappa and L, and in raw
theta-product form as a cross-check.  The induced rotation and the elliptic
assembly of the pairing matrix, which only the verification suites use,
live here too, apart from the evaluation path in :mod:`isingff.formfactors`.

Every closed form is array algebra over the point grid.  A config evaluates
theta_1 once, on first read, over every argument its Frobenius formulas and
interpolation terms read (:attr:`EllipticPointConfig.theta1_grid`); since
theta_1 is odd, the differences x_i - x_j and y_i - y_j are taken for i < j
only, and theta_1(y_i - x_j) is -theta_1(x_j - y_i).  sn/cn/dn are evaluated
once on the whole array of pairwise differences.  The Frobenius determinant
is a sum of complex logarithms, so its N^2 factors cannot overflow.

An :class:`EllipticPointConfig` holds one matrix, (n,) points and one shift,
or a stack of S matrices of one size, (S, n) points and (S,) shifts.  The
Frobenius functions evaluate a stack at once and give one result per row:
(S, n, n) matrices, (S,) log determinants, (S, n) interpolation terms.  A
single matrix is the stack of one and gives a matrix and a complex.  What the
Ising closed forms build is built once per coupling, in :func:`ising_record`;
the elliptic uniformization of the curve (:func:`ising_modulus`,
:func:`ising_eta`, :func:`u_of_theta`) is this module's alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, wraps

import numpy as np

from .elliptic import (EllipticModulus, evaluate_at_once, incomplete_elliptic_F,
                       inverse_sn_real, jacobi_sn_cn_dn, theta)
from .exceptions import ConvergenceError, DomainError, SingularMatrixError
from .formfactors import FormFactorSpec, SpecStack, _as_stack, _ell, _unstack
from .spectral import (SECTORS, Couplings, _read_only, coupling_tables, gamma_of_theta,
                       log_sinh, sqrt_b_of_theta)

_LATTICE_TOL = 1e-11


def _theta1_zero_distance(z, q: float):
    """Distance from each z to the zero lattice pi*Z + pi*tau*Z of theta_1."""
    z = np.asarray(z, dtype=complex)
    pit = -math.log(q)
    return np.hypot(z.real - math.pi * np.rint(z.real / math.pi),
                    z.imag - pit * np.rint(z.imag / pit))


def _prod_off_diagonal(grid: np.ndarray) -> np.ndarray:
    """Product along the last axis of (a stack of) square grids, leaving out
    the diagonal entry."""
    return np.prod(grid, axis=-1, where=~np.eye(grid.shape[-1], dtype=bool))


def _differences(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """x_i - y_j at [..., i, j] for points along the last axis."""
    return xs[..., :, None] - ys[..., None, :]


def _on_zero_lattice(xs, ys, q: float) -> np.ndarray:
    """Per row of (S, n) points (or for one (n,) row), whether some x_i - y_j
    lies on the zero lattice of theta_1, where Cauchy entries are undefined."""
    diff = _differences(np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex))
    return np.any(_theta1_zero_distance(diff, q) < _LATTICE_TOL, axis=(-2, -1))


@lru_cache(maxsize=32)
def _pairs_above(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only :func:`numpy.triu_indices` (i, j) with i < j < n, kept per n."""
    return _read_only(*np.triu_indices(n, 1))


def _upper_pairs(zs: np.ndarray) -> np.ndarray:
    """z_i - z_j for i < j along the last axis, in :func:`numpy.triu_indices` order."""
    i, j = _pairs_above(zs.shape[-1])
    return zs[..., i] - zs[..., j]


def _interpolation_from(cross: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """prod_j cross[..., i, j] / prod_{j != i} theta_1(z_i - z_j) for each i, the
    denominator from its values ``upper`` at i < j (see :func:`_upper_pairs`)
    by theta_1(z_j - z_i) = -theta_1(z_i - z_j)."""
    n = cross.shape[-2]
    i, j = _pairs_above(n)
    within = np.ones(upper.shape[:-1] + (n, n), dtype=complex)
    within[..., i, j] = upper
    within[..., j, i] = -upper
    return np.prod(cross, axis=-1) / np.prod(within, axis=-1)


@dataclass(frozen=True, eq=False)
class EllipticPointConfig:
    """Point data (x_i, y_i, alpha) of elliptic Cauchy matrices of nome q.

    One matrix has (n,) points ``xs`` and ``ys`` and one complex
    ``alpha_shift``; a stack of S matrices of one size has (S, n) points and
    (S,) shifts (a single shift is shared by every row).  The point arrays
    are complex and read-only.
    """

    xs: np.ndarray
    ys: np.ndarray
    q: float
    alpha_shift: complex | np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=complex)
        ys = np.array(self.ys, dtype=complex)
        if xs.shape != ys.shape or xs.ndim not in (1, 2):
            raise DomainError(f"xs and ys must be (n,) or (S, n) arrays of one "
                              f"shape, got {xs.shape} and {ys.shape}")
        if xs.ndim == 1:
            alpha = complex(self.alpha_shift)
        else:
            alpha = _read_only(np.array(np.broadcast_to(self.alpha_shift, xs.shape[:1]),
                                        dtype=complex))[0]
        _read_only(xs, ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "alpha_shift", alpha)
        bad = _on_zero_lattice(xs, ys, self.q)
        if np.any(bad):
            raise DomainError(f"some x - y is on the zero lattice of theta_1 "
                              f"(rows {np.flatnonzero(bad).tolist()})")

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S, n) points x and y and (S,) shifts; one matrix gives S = 1."""
        return (np.atleast_2d(self.xs), np.atleast_2d(self.ys),
                np.reshape(self.alpha_shift, -1))

    def unstack(self, values: np.ndarray):
        """The per-row ``values`` of a stack, or the one value of a matrix."""
        if self.xs.ndim == 2:
            return values
        return values[0] if values.ndim > 1 else complex(values[0])

    @cached_property
    def theta1_grid(self) -> dict[str, np.ndarray]:
        """theta_1 at every argument the Frobenius formulas read, per row, from
        one evaluation: "alpha" and "bal" (S,), at the shift and at the
        balancing sum bal = sum(x) - sum(y) + alpha; "xy", "xy_alpha" and
        "bal_xy" (S, n, n), at x_i - y_j, x_i - y_j + alpha and
        bal - (x_i - y_j); "xx" and "yy" (S, n(n-1)/2), at x_i - x_j and
        y_i - y_j for i < j."""
        xs, ys, alpha = self.rows()
        bal = xs.sum(axis=1) - ys.sum(axis=1) + alpha
        diff = _differences(xs, ys)
        names = ("alpha", "bal", "xy", "xy_alpha", "bal_xy", "xx", "yy")
        values = evaluate_at_once(partial(theta, 1, q=self.q), alpha, bal, diff,
                                  diff + alpha[:, None, None], bal[:, None, None] - diff,
                                  _upper_pairs(xs), _upper_pairs(ys))
        return dict(zip(names, _read_only(*values)))

    @cached_property
    def interpolation_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, n) interpolation terms of (x, y) and of (y, x), see
        :func:`_interpolation_terms`; theta_1(y_i - x_j) = -theta_1(x_j - y_i)."""
        grid = self.theta1_grid
        xy = grid["xy"]
        return _read_only(_interpolation_from(xy, grid["xx"]),
                          _interpolation_from(-np.swapaxes(xy, 1, 2), grid["yy"]))


def _theta1_of_alpha(cfg: EllipticPointConfig) -> np.ndarray:
    """theta_1 of the (S,) shifts; DomainError if one vanishes."""
    ta = cfg.theta1_grid["alpha"]
    if np.any(np.abs(ta) < _LATTICE_TOL):
        raise DomainError("theta_1(alpha) vanishes; Cauchy matrix undefined")
    return ta


def elliptic_cauchy_matrix(cfg: EllipticPointConfig) -> np.ndarray:
    """Dense entries theta_1(x_i - y_j + alpha)/(theta_1(x_i - y_j) theta_1(alpha))."""
    ta = _theta1_of_alpha(cfg)
    grid = cfg.theta1_grid
    return cfg.unstack(grid["xy_alpha"] / (grid["xy"] * ta[:, None, None]))


def frobenius_log_det(cfg: EllipticPointConfig) -> complex | np.ndarray:
    """log det of the elliptic Cauchy matrix, one sum of complex logs of the
    Frobenius theta factors with the imaginary part modulo 2*pi; coincident
    points give a real part of -inf.  A stack gives (S,) values."""
    ta = _theta1_of_alpha(cfg)
    grid = cfg.theta1_grid
    with np.errstate(divide="ignore"):
        # the product over i < j of theta_1(y_j - y_i) is that of -theta_1(y_i - y_j)
        log_det = (np.log(grid["bal"] / ta)
                   + np.log(grid["xx"]).sum(axis=1)
                   + np.log(-grid["yy"]).sum(axis=1)
                   - np.log(grid["xy"]).reshape(len(ta), -1).sum(axis=1))
    log_det.imag -= 2.0 * math.pi * np.rint(log_det.imag / (2.0 * math.pi))
    return cfg.unstack(log_det)


def frobenius_inverse(cfg: EllipticPointConfig) -> np.ndarray:
    """Closed-form inverse from the Frobenius determinant and its cofactors.

    Entry (m, n) pairs the n-th x point with the m-th y point.  A stack
    gives (S, n, n) inverses.

    Raises
    ------
    SingularMatrixError
        If theta_1 vanishes at a balancing sum sum(x) - sum(y) + alpha.
    """
    xs, ys, alpha = cfg.rows()
    bal = xs.sum(axis=1) - ys.sum(axis=1) + alpha
    if np.any(_theta1_zero_distance(bal, cfg.q) < _LATTICE_TOL):
        raise SingularMatrixError("balancing sum on the zero lattice; matrix singular")
    grid = cfg.theta1_grid
    t_xy, t_yx = cfg.interpolation_terms
    cofactor = -grid["bal_xy"] / (grid["bal"][:, None, None] * grid["xy"])
    return cfg.unstack(np.swapaxes(cofactor, 1, 2)  # x_n - y_m at [m, n]
                       * t_yx[:, :, None] * t_xy[:, None, :])


def _interpolation_terms(zs, zs_prime, q: float) -> np.ndarray:
    """prod_j theta_1(z_i - z'_j) / prod_{j != i} theta_1(z_i - z_j) for each i,
    along the last axis of (n,) or (S, n) points, from one theta_1 evaluation."""
    zs = np.asarray(zs, dtype=complex)
    cross, upper = evaluate_at_once(partial(theta, 1, q=q),
                                    _differences(zs, np.asarray(zs_prime)), _upper_pairs(zs))
    return _interpolation_from(cross, upper)


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
    i, j = _pairs_above(len(us))
    sn = jacobi_sn_cn_dn(us[i] - us[j], mod)[0]
    return complex(np.prod(math.sqrt(mod.k) * sn))


# ---- Ising specialization ------------------------------------------------


@lru_cache(maxsize=64)
def ising_modulus(c: Couplings) -> EllipticModulus:
    """The modulus ``c.k`` of the curve, built once per coupling value; where it
    has no double-precision form, the DomainError names the elliptic routes."""
    try:
        return EllipticModulus(c.k)
    except DomainError as exc:
        raise DomainError(f"{exc}, so the elliptic routes (params, spectrum, verify) "
                          f"cannot serve kx={c.kx}, ky={c.ky}") from exc


@lru_cache(maxsize=64)
def ising_eta(c: Couplings) -> float:
    """The real eta in (-K'/2, 0) with sinh(2*kx) = i*sn(2i*eta), solved once per
    coupling value: i*sn(2i*eta) = sc(2|eta|, k') = tan am(2|eta|, k'), so 2|eta|
    is F(atan(sinh 2kx) | k') of the complementary modulus, whose complement is k."""
    mod = ising_modulus(c)
    eta = -0.5 * float(incomplete_elliptic_F(math.atan(c.sinh2kx), mod.k))
    sn2ieta, _, _ = jacobi_sn_cn_dn(2j * eta, mod)
    residual = abs(c.sinh2kx - (1j * sn2ieta))
    if residual > 1e-11:
        raise ConvergenceError(f"eta residual {residual:.3e} exceeds 1e-11")
    return eta


def u_of_theta(theta, c: Couplings):
    """Image u_theta in [-K, K) of the spectral-curve point (e^{i theta}, e^{gamma}).

    Computed by inverting sn on
    sn(u_theta) = -sinh(2*ky) * cos(theta/2) / sinh((gamma_pi + gamma_theta)/2),
    which lands on the branch cn(u) >= 0 and carries the sign convention
    u_theta < 0 for theta < pi (u_0 = -K, u_pi = 0).  Near theta = 0 (where
    that inversion is ill-conditioned, |sn| -> 1) the complementary relation
    sn(u_theta + K) = sinh(2*ky) * sin(theta/2) / sinh((gamma_theta + gamma_0)/2)
    is inverted instead; whichever argument is smaller in magnitude wins.
    Elementwise over an array of momenta; a scalar theta gives a float.
    """
    theta = np.asarray(theta, dtype=float)
    mod = ising_modulus(c)
    gamma_0 = 2.0 * (c.ky - c.kx_star)
    gamma_pi = 2.0 * (c.ky + c.kx_star)
    gamma_t = gamma_of_theta(theta, c)
    s_direct = -c.sinh2ky * np.cos(theta / 2.0) / np.sinh((gamma_pi + gamma_t) / 2.0)
    s_shift = c.sinh2ky * np.sin(theta / 2.0) / np.sinh((gamma_t + gamma_0) / 2.0)
    direct = np.abs(s_direct) <= np.abs(s_shift)
    s = np.clip(np.where(direct, s_direct, s_shift), -1.0, 1.0)
    w = inverse_sn_real(s, mod)
    shifted = w - mod.bigK
    u = np.where(direct, w, np.where(theta <= math.pi, shifted, -shifted))
    return float(u) if u.ndim == 0 else u


def b_elliptic(u, c: Couplings):
    """sqrt(b) on the curve as a function of u, with the sign fixed by sqrt(b_pi) = 1.

    Evaluates (dn u + i*k*sn u*cn u)/sqrt(1 - k^2 sn^4 u); its square equals
    b_of_theta at the momentum corresponding to u.  Elementwise over an array
    of real u; a scalar u gives a complex.
    """
    root = _b_elliptic_of(*jacobi_sn_cn_dn(u, ising_modulus(c)), c.k)
    return complex(root) if np.ndim(root) == 0 else root


def _b_elliptic_of(sn, cn, dn, k: float):
    """The :func:`b_elliptic` root from sn, cn and dn of real u (the real
    parts are read)."""
    sn, cn, dn = np.real(sn), np.real(cn), np.real(dn)
    return (dn + 1j * k * sn * cn) / np.sqrt(1.0 - k**2 * sn**4)


@lru_cache(maxsize=4)
def ising_record(c: Couplings) -> dict:
    """The read-only record shared by every Ising closed form and elliptic route
    of ``c``: "u" and "sqrt_b", u_theta and sqrt(b_theta) per sector (no theta_1),
    and what the :func:`_per_coupling` functions build on first read.  It holds
    a few N x N grids and a 2N x 2N sn table, so the records of only a few
    couplings are kept."""
    return {name: {s: _read_only(f(c.sector(s).thetas, c))[0] for s in SECTORS}
            for name, f in (("u", u_of_theta), ("sqrt_b", sqrt_b_of_theta))}


def _per_coupling(build):
    """``build(c, *args)``, built once per coupling value and arguments and
    kept in the coupling's record."""
    @wraps(build)
    def read(c: Couplings, *args):
        record, key = ising_record(c), (build, *args)
        if key not in record:
            record[key] = build(c, *args)
        return record[key]
    return read


@_per_coupling
def ising_cauchy_config(c: Couplings) -> tuple[EllipticPointConfig, complex]:
    """Points x (periodic) and y (antiperiodic), u scaled by pi/2K, alpha and
    the scalar kappa of Phi as an elliptic Cauchy matrix (see above)."""
    mod = ising_modulus(c)
    u, scale = ising_record(c)["u"], math.pi / (2.0 * mod.bigK)
    xs, ys = u["p"] * scale, u["a"] * scale
    t2, t3, t4 = mod._theta_zeros
    alpha = math.pi / 2.0 - math.pi * mod.tau / 2.0
    return EllipticPointConfig(xs, ys, mod.q, alpha), t2 * t4 / t3


def ising_constraint_residuals(c: Couplings) -> dict[str, float]:
    """Residuals of the point-pairing constraints of the Ising configuration.

    Both parities share x_1 = -pi/2, the pairwise cancellations
    x_j + x_{N+2-j} = 0 and y_k + y_{N+1-k} = 0, and the balancing sum
    sum(x) - sum(y) = -pi/2.  Odd N additionally has y_{(N+1)/2} = 0, even N
    has x_{N/2+1} = 0.
    """
    cfg = ising_cauchy_config(c)[0]
    xs, ys, n = cfg.xs.real, cfg.ys.real, c.n
    return {"x1_plus_half_pi": abs(xs[0] + math.pi / 2.0),
            "x_pairing": float(np.max(np.abs(xs[1:] + xs[:0:-1]), initial=0.0)),
            "y_pairing": float(np.max(np.abs(ys + ys[::-1]))),
            "middle_point": abs(xs[n // 2] if n % 2 == 0 else ys[(n - 1) // 2]),
            "balancing_sum": abs(xs.sum() - ys.sum() + math.pi / 2.0)}


@_per_coupling
def _sn_cn_dn_of_differences(c: Couplings, rows: str, cols: str):
    """sn, cn and dn of u_i - u_j, i over sector ``rows`` and j over ``cols``."""
    u = ising_record(c)["u"]
    return _read_only(*jacobi_sn_cn_dn(np.subtract.outer(u[rows], u[cols]), ising_modulus(c)))


def phi_matrix(c: Couplings) -> np.ndarray:
    """Phi with rows on periodic momenta and columns on antiperiodic ones."""
    sn, _, dn = _sn_cn_dn_of_differences(c, "p", "a")
    return (dn / sn).real


def psi_matrix(c: Couplings) -> np.ndarray:
    """Psi = cn of pairwise differences, same index layout as Phi."""
    return _sn_cn_dn_of_differences(c, "p", "a")[1].real.copy()


@_per_coupling
def phi_inverse_closed(c: Couplings) -> np.ndarray:
    """Phi^-1 (rows antiperiodic, columns periodic), read-only and shared:
    diag(e^{-iy}) C^-1 diag(e^{ix}) / kappa, C^-1 the Frobenius inverse."""
    cfg, kappa = ising_cauchy_config(c)
    return _read_only(np.exp(-1j * cfg.ys)[:, None] * frobenius_inverse(cfg)
                      * np.exp(1j * cfg.xs)[None, :] / kappa)[0]


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


@_per_coupling
def chi_kappa(c: Couplings) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sn-product ratios chi (periodic) and kappa (antiperiodic)."""
    sn_pa = _sn_cn_dn_of_differences(c, "p", "a")[0].real
    sn_pp = _sn_cn_dn_of_differences(c, "p", "p")[0].real
    sn_aa = _sn_cn_dn_of_differences(c, "a", "a")[0].real
    return _read_only(sn_pa.prod(axis=1) / _prod_off_diagonal(sn_pp),
                      (-sn_pa).prod(axis=0) / _prod_off_diagonal(sn_aa))


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


@_per_coupling
def lambda_factors(c: Couplings) -> tuple[np.ndarray, np.ndarray]:
    """L(u) = w(u) dn u / (1 + k sn u) at the periodic and the antiperiodic
    momenta, with w(u) = prod over momenta of (1 - k sn_p sn u)/(1 - k sn_a sn u).

    The ratio lambda(u, v) = L(u)/L(v) is exp((nu_v - nu_u)/2).  One sn
    evaluation over the 2N momenta; the arrays are read-only.
    """
    n, k = c.n, c.k
    u = np.concatenate([ising_record(c)["u"]["p"], ising_record(c)["u"]["a"]])
    sn, _, dn = (f.real for f in jacobi_sn_cn_dn(u, ising_modulus(c)))
    w = np.prod((1.0 - k * sn[:n] * sn[:, None]) / (1.0 - k * sn[n:] * sn[:, None]),
                axis=-1)
    lam = w * dn / (1.0 + k * sn)
    return _read_only(lam[:n], lam[n:])


def _zero_diagonal(out: np.ndarray) -> np.ndarray:
    out = out.astype(complex)
    np.fill_diagonal(out, 0.0)
    return out


def psi_phi_inverse_closed(c: Couplings) -> np.ndarray:
    """Psi * Phi^-1 on periodic momenta (both axes) in reduced sn-form:
    chi_j lambda(u_i, u_j) sn(u_i - u_j), with a zero diagonal."""
    lam = lambda_factors(c)[0]
    return _zero_diagonal(chi_kappa(c)[0][None, :] * (lam[:, None] / lam[None, :])
                          * _sn_cn_dn_of_differences(c, "p", "p")[0].real)


def phi_inverse_psi_closed(c: Couplings) -> np.ndarray:
    """Phi^-1 * Psi on antiperiodic momenta (both axes) in reduced sn-form:
    kappa_i lambda(u_i, u_j) sn(u_j - u_i), with a zero diagonal."""
    lam = lambda_factors(c)[1]
    return _zero_diagonal(chi_kappa(c)[1][:, None] * (lam[:, None] / lam[None, :])
                          * _sn_cn_dn_of_differences(c, "a", "a")[0].real.T)


def closed_products_theta(c: Couplings) -> tuple[np.ndarray, np.ndarray]:
    """Psi * Phi^-1 and Phi^-1 * Psi in raw theta-product form, the
    cross-check of :func:`psi_phi_inverse_closed` and
    :func:`phi_inverse_psi_closed`:

        (Psi Phi^-1)[i, j] = f_j h(x_i + pi*tau/2) sn(u_i - u_j),
        (Phi^-1 Psi)[i, j] = -g_i sn(u_i - u_j) / h(y_j - pi*tau/2),

    with f and g the interpolation terms of (x, y) and (y, x) times i/kappa,
    and h(z) = prod_i theta_1(z - x_i) / theta_1(z - y_i), taken at both
    point sets at once.  The diagonals are zero.
    """
    cfg, kappa = ising_cauchy_config(c)
    xs, ys = cfg.xs, cfg.ys
    f, g = (1j / kappa * cfg.unstack(t) for t in cfg.interpolation_terms)
    shift = math.pi * ising_modulus(c).tau / 2.0
    z = np.concatenate([xs + shift, ys - shift])
    num, den = evaluate_at_once(partial(theta, 1, q=cfg.q),
                                _differences(z, xs), _differences(z, ys))
    h = np.prod(num, axis=-1) / np.prod(den, axis=-1)
    sn_pp = _sn_cn_dn_of_differences(c, "p", "p")[0].real
    sn_aa = _sn_cn_dn_of_differences(c, "a", "a")[0].real
    return (_zero_diagonal(f[None, :] * h[:c.n, None] * sn_pp),
            _zero_diagonal(-g[:, None] / h[None, c.n:] * sn_aa))


@_per_coupling
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
                 + 0.5 * math.log1p(-c.k**2)
                 - 2.0 * n * math.log(c.sinh2ky)
                 + 0.5 * (p.nu.sum() - a.nu.sum())
                 + log_sinh(p.gamma).sum() + log_sinh(a.gamma).sum())


# ---- elliptic routes of the form-factor layer ---------------------------------


@dataclass(frozen=True)
class InducedRotation:
    """The four blocks of the fermion rotation induced by the spin at one site.

    Rows are indexed by periodic momenta, columns by antiperiodic ones.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    site: int

    def relation_residuals(self) -> dict[str, float]:
        """Max residuals of the canonical anticommutation and unitarity relations."""
        a, b, c, d = self.a, self.b, self.c, self.d
        eye = np.eye(a.shape[0])
        return {
            "ABt_plus_BAt": float(np.max(np.abs(a @ b.T + b @ a.T))),
            "CDt_plus_DCt": float(np.max(np.abs(c @ d.T + d @ c.T))),
            "ADt_plus_BCt": float(np.max(np.abs(a @ d.T + b @ c.T - eye))),
            "conjA_minus_D": float(np.max(np.abs(a.conj() - d))),
            "conjB_minus_C": float(np.max(np.abs(b.conj() - c))),
            "CCdag_vs_1_minus_DDdag": float(
                np.max(np.abs(c @ c.conj().T - (eye - d @ d.conj().T)))
            ),
        }


def induced_rotation(c: Couplings, site: int) -> InducedRotation:
    """The blocks (A, B, C, D) of the rotation induced by the spin at ``site``."""
    if not 0 <= site < c.n:
        raise DomainError(f"site {site} outside [0, {c.n})")
    n = c.n
    sqrt_b = ising_record(c)["sqrt_b"]
    tp = c.sector("p").thetas[:, None]
    ta = c.sector("a").thetas[None, :]
    rb = sqrt_b["a"][None, :] / sqrt_b["p"][:, None]
    pb = sqrt_b["a"][None, :] * sqrt_b["p"][:, None]
    ell = site - 0.5
    d = (np.exp(-1j * ell * (tp - ta)) / (2j * n * np.sin((ta - tp) / 2.0))
         * (rb + 1.0 / rb))
    cc = (np.exp(-1j * ell * (tp + ta)) / (2j * n * np.sin((tp + ta) / 2.0))
          * (pb - 1.0 / pb))
    return InducedRotation(a=d.conj(), b=cc.conj(), c=cc, d=d, site=site)


@_per_coupling
def _sn_pairing_table(c: Couplings) -> np.ndarray:
    """sqrt(k)*sn(ut_i - ut_j) over the 2N curve points ut: u_a + iK' at the
    antiperiodic momenta, then u_p at the periodic ones.  Read-only and
    antisymmetric: the upper triangle comes from the aa and pp grids and one
    bra x ket grid, the lower triangle is its negative transpose."""
    u, mod = ising_record(c)["u"], ising_modulus(c)
    sn_ap = jacobi_sn_cn_dn(np.subtract.outer(u["a"] + 1j * mod.bigKprime, u["p"]), mod)[0]
    sn = np.block([[_sn_cn_dn_of_differences(c, "a", "a")[0], sn_ap],
                   [np.zeros_like(sn_ap), _sn_cn_dn_of_differences(c, "p", "p")[0]]])
    upper = np.triu(math.sqrt(mod.k) * sn, 1)
    return _read_only(upper - upper.T)[0]


def _sn_pairing_entries(stack: SpecStack, c: Couplings) -> np.ndarray:
    """(S, m+n, m+n) Rt of a checked stack, gathered from the coupling's
    :func:`_sn_pairing_table`: bra momenta first, then ket momenta, each in
    increasing order, so every entry above the diagonal reads the table's
    upper triangle."""
    at = np.concatenate([stack.bra, c.n + stack.ket], axis=1)
    return _sn_pairing_table(c)[at[:, :, None], at[:, None, :]]


def assemble_r_elliptic(spec: FormFactorSpec | SpecStack, c: Couplings) -> np.ndarray:
    """R rebuilt from the elliptic route: -i*rho * Omega * Rt * Omega.

    Rt has entries sqrt(k)*sn(u_i - u_j) where bra arguments carry an iK'
    shift; used as a cross-check of :func:`isingff.formfactors.assemble_r_matrix`.
    Every entry of Rt depends on one pair of the coupling's 2N curve points,
    so a stack gathers them from sn grids built once per coupling and makes
    no sn evaluation of its own.
    """
    stack = _as_stack(spec, c)
    ia, ip = stack.bra, stack.ket
    rho = math.sqrt(c.sinh2ky / c.sinh2kx)
    ell = _ell(stack.site, 2)
    tab = coupling_tables(c)
    a, p = tab.a, tab.p
    omega = np.concatenate([
        -np.exp(-1j * ell * a.thetas[ia] + a.nu[ia] / 2.0)
        / np.sqrt(c.n * np.sinh(a.gamma[ia])),
        np.exp(1j * ell * p.thetas[ip] - p.nu[ip] / 2.0)
        / np.sqrt(c.n * np.sinh(p.gamma[ip])),
    ], axis=1)
    rt = _sn_pairing_entries(stack, c)
    return _unstack(spec, -1j * rho * (omega[:, :, None] * rt * omega[:, None, :]))
