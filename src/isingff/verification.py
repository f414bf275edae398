"""Formula-vs-formula identity suites, runnable on demand.

Every closed form in the package has an independent route: a defining
integral, a dense linear-algebra computation, an algebraic identity, or a
second reduced formula.  Each suite evaluates its checks at deterministic
pseudo-random points and returns a dict of named residuals (normalized by
the magnitude of the quantities compared, so tolerances are scale-free).
The CLI ``verify`` command and the test suite both call these functions.
"""

from __future__ import annotations

import math

import numpy as np

from . import cauchy as cf
from .elliptic import jacobi_sn_cn_dn, theta
from .exceptions import DomainError, ResourceError
from .formfactors import (_FULL_ENUMERATION_MAX_N, FockState, FormFactorSpec,
                          SpecStack, abs_ff2_table, assemble_r_elliptic,
                          assemble_r_matrix, ff_closed, ff_pfaffian, fock_basis,
                          induced_rotation, two_particle_matrices,
                          vacuum_overlap, xi_t)
from .linalg import det_and_inverse, log_det_and_inverse, pfaffian
from .spectral import (Couplings, b_elliptic, b_of_theta, gamma_of_theta, log_sinh,
                       u_of_theta)

SUITES = ("elliptic", "cauchy", "rotation", "formfactor")
_SEED = 2024            # pseudo-random points of the elliptic and Cauchy suites
_ELLIPTIC_POINTS = 100  # random points per elliptic identity
_CAUCHY_CONFIGS, _CAUCHY_MAX_SIZE = 50, 8  # random Cauchy matrices of 1 to 8 points
_SUITE_MAX_MN = 4       # particles, bra plus ket, in the form-factor suite's specs
_STACK_ROWS = 512  # specs per stack of the form-factor suite, which bounds its memory
# specs of the form-factor suite: each costs about 10 us through both routes
# and the assembly check (N=32 has 637,393 and takes 6 s at (0.4, 0.7)), so
# this is about 10 s; past it the cutoff-4 Fock bases also run to GBs (1.6
# million states at N=80, where a run was killed by the memory limit)
_MAX_SUITE_SPECS = 1_000_000


def _rel(a, b) -> float:
    """Largest |a - b| / max(1, |a|, |b|) over the elements; a NaN is kept."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rel = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(rel, initial=0.0))


def _log_rel(log_a: complex, log_b: complex) -> float:
    """|a / b - 1| from log a and log b, whose phases agree modulo 2*pi; the
    values themselves may lie outside double precision."""
    d = log_a - log_b
    return float(abs(np.expm1(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))))


def _worst(*values) -> float:
    """Largest entry over several arrays or numbers; a NaN is kept."""
    return float(np.max([np.max(v, initial=0.0) for v in values]))


def _mat_rel(a: np.ndarray, b: np.ndarray) -> float:
    """Largest max|a - b| / max(1, max|a|, max|b|) over the matrices of a
    stack (or of one matrix); a NaN is kept."""
    if a.size == 0:
        return 0.0
    axes = (-2, -1)
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes)))
    return float(np.max(np.abs(a - b).max(axis=axes) / scale))


def elliptic_suite(c: Couplings) -> dict[str, float]:
    """Elliptic-function and parametrization identities along the curve.

    Each identity is checked on an array of pseudo-random points at once.
    """
    n_points = _ELLIPTIC_POINTS
    rng = np.random.default_rng(_SEED)
    mod = c.modulus
    k, kk = mod.k, mod.k**2
    bigk, bigkp = mod.bigK, mod.bigKprime
    out = dict(mod.self_check())

    def real_sn_cn_dn(u):
        return tuple(f.real for f in jacobi_sn_cn_dn(u, mod))

    us = rng.uniform(-bigk * 0.98, bigk * 0.98, 2 * n_points)
    sn1, cn1, dn1 = jacobi_sn_cn_dn(us + 2.0 * bigk, mod)
    sn0, cn0, dn0 = jacobi_sn_cn_dn(us, mod)
    out["half_period_shifts"] = _worst(np.abs(sn1 + sn0), np.abs(cn1 + cn0),
                                       np.abs(dn1 - dn0))

    re_im = rng.uniform((-bigk, -0.45), (bigk, 0.45), (n_points, 2))
    sn, cn, dn = jacobi_sn_cn_dn(re_im[:, 0] + 1j * (re_im[:, 1] * bigkp), mod)
    out["algebraic_identities"] = _worst(np.abs(sn**2 + cn**2 - 1.0),
                                         np.abs(dn**2 + kk * sn**2 - 1.0))

    u, v = rng.uniform(-bigk, bigk, (n_points, 2)).T
    snu, cnu, dnu = real_sn_cn_dn(u)
    snv, cnv, dnv = real_sn_cn_dn(v)
    out["dn_addition"] = _rel(
        jacobi_sn_cn_dn(u - v, mod)[2].real,
        (dnu * dnv + kk * snu * cnu * snv * cnv) / (1.0 - kk * snu**2 * snv**2))

    u = rng.uniform(-bigk / 2, bigk / 2, n_points)
    snu, cnu, dnu = real_sn_cn_dn(u)
    out["sn_doubling"] = _rel(jacobi_sn_cn_dn(2.0 * u, mod)[0].real,
                              2.0 * snu * cnu * dnu / (1.0 - kk * snu**4))

    pit = math.pi * mod.tau
    re_im = rng.uniform((-2.0, -0.4), (2.0, 0.4), (20, 2))
    z = re_im[:, 0] + 1j * re_im[:, 1]
    out["theta1_quasiperiod"] = _rel(theta(1, z + pit, mod.q),
                                     -np.exp(-1j * pit - 2j * z) * theta(1, z, mod.q))
    out["theta1_half_tau"] = _rel(theta(1, pit / 2.0, mod.q),
                                  1j * np.exp(-1j * pit / 4.0) * theta(4, 0.0, mod.q))
    out["theta2_is_shifted_theta1"] = _rel(theta(1, math.pi / 2.0, mod.q),
                                           theta(2, 0.0, mod.q))

    thetas = rng.uniform(1e-3, 2.0 * math.pi - 1e-3, n_points)
    gam = gamma_of_theta(thetas, c)
    uu = u_of_theta(thetas, c)
    sqk = math.sqrt(k)
    out["exp_gamma_vs_sn"] = _worst(*(
        _rel(np.exp(-(gam + sgn * 1j * thetas) / 2.0),
             -sqk * jacobi_sn_cn_dn(uu - sgn * 1j * c.eta, mod)[0])
        for sgn in (1.0, -1.0)))

    gamma_0 = 2.0 * (c.ky - c.kx_star)
    gamma_pi = 2.0 * (c.ky + c.kx_star)
    sn, cn, dn = real_sn_cn_dn(uu)
    sh_0 = np.sinh((gam + gamma_0) / 2.0)
    sh_pi = np.sinh((gam + gamma_pi) / 2.0)
    out["sn_shift_quarter"] = _rel(jacobi_sn_cn_dn(uu + bigk, mod)[0].real,
                                   c.sinh2ky * np.sin(thetas / 2.0) / sh_0)
    out["sn_of_u_theta"] = _rel(sn, -c.sinh2ky * np.cos(thetas / 2.0) / sh_pi)
    sn_double = np.where(np.abs(2.0 * uu) > 1e-12,
                         jacobi_sn_cn_dn(2.0 * uu, mod)[0].real, 0.0)
    out["sn_double_u_theta"] = _rel(sn_double,
                                    -c.sinh2ky * np.sin(thetas) / np.sinh(gam))
    out["k_sn_squared"] = _rel(k * sn**2, np.sinh((gamma_pi - gam) / 2.0) / sh_pi)
    out["cn_of_u_theta"] = _rel(cn, np.sin(thetas / 2.0) * np.sqrt(
        c.sinh2ky * math.sinh(gamma_pi) / (sh_0 * sh_pi)))
    out["dn_of_u_theta"] = _rel(dn, np.sqrt(math.sinh(gamma_pi) * sh_0
                                            / (c.sinh2ky * sh_pi)))

    half = n_points // 2
    t1, g1, u1, sn1 = thetas[:half], gam[:half], uu[:half], sn[:half]
    t2 = rng.uniform(1e-3, 2.0 * math.pi - 1e-3, half)
    g2, u2 = gamma_of_theta(t2, c), u_of_theta(t2, c)
    apart = np.abs(u1 - u2) >= 1e-8
    t1, g1, u1, sn1, t2, g2, u2 = (x[apart] for x in (t1, g1, u1, sn1, t2, g2, u2))
    sn2 = jacobi_sn_cn_dn(u2, mod)[0].real
    out["sn_of_difference"] = _worst(
        _rel(jacobi_sn_cn_dn(u1 - u2, mod)[0].real,
             c.sinh2ky * np.sin((t1 - t2) / 2.0) / np.sinh((g1 + g2) / 2.0)),
        _rel(1.0 - kk * sn1**2 * sn2**2,
             math.sinh(gamma_pi) * np.sinh((g1 + g2) / 2.0)
             / (np.sinh((gamma_pi + g1) / 2.0) * np.sinh((gamma_pi + g2) / 2.0))))

    out["sqrt_b_elliptic"] = _rel(b_elliptic(uu, c) ** 2, b_of_theta(thetas, c))

    t1, t2 = rng.uniform(1e-3, 2.0 * math.pi - 1e-3, (n_points, 2)).T
    apart = np.minimum(np.abs(t1 - t2), np.abs(t1 + t2 - 2.0 * math.pi)) >= 1e-3
    t1, t2 = t1[apart], t2[apart]
    g1, g2 = gamma_of_theta(t1, c), gamma_of_theta(t2, c)
    u1, u2 = u_of_theta(t1, c), u_of_theta(t2, c)
    b1, b2 = np.sqrt(b_of_theta(t1, c)), np.sqrt(b_of_theta(t2, c))
    sn, cn, dn = real_sn_cn_dn(u1 - u2)
    root = np.sqrt(np.sinh(g1) * np.sinh(g2))
    out["dn_sn_kernel"] = _rel((b1 / b2 + b2 / b1) / (2.0 * np.sin((t1 - t2) / 2.0)),
                               c.sinh2ky / root * dn / sn)
    out["cn_kernel"] = _rel((b1 * b2 - 1.0 / (b1 * b2)) / (2.0 * np.sin((t1 + t2) / 2.0)),
                            -1j * c.sinh2kx_star / root * cn)
    direct = sqk * sn
    rho = math.sqrt(c.sinh2ky / c.sinh2kx)
    out["sn_shift_iKprime"] = _worst(
        *(_rel(sqk * jacobi_sn_cn_dn(u1 - u2 + sgn * 1j * bigkp, mod)[0], 1.0 / direct)
          for sgn in (1.0, -1.0)),
        _rel(direct, rho * np.sin((t1 - t2) / 2.0) / np.sinh((g1 + g2) / 2.0)))
    return out


def cauchy_suite(c: Couplings) -> dict[str, float]:
    """Frobenius determinant machinery and the Ising closed forms."""
    rng = np.random.default_rng(_SEED)
    mod = c.modulus
    q = mod.q
    out: dict[str, float] = {}

    r_det = r_inv = 0.0
    for _ in range(_CAUCHY_CONFIGS):
        size = int(rng.integers(1, _CAUCHY_MAX_SIZE + 1))
        xs = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        ys = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        alpha = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.2))
        pts = np.concatenate([xs, ys])
        if np.min(np.abs(pts[:, None] - pts[None, :]) + np.eye(2 * size)) < 0.1:
            # near-coincident points only degrade the dense LU reference
            continue
        try:
            cfg = cf.EllipticPointConfig(tuple(xs), tuple(ys), q, alpha)
            log_det, inv = log_det_and_inverse(cf.elliptic_cauchy_matrix(cfg))
        except DomainError:
            continue
        r_det = max(r_det, _log_rel(cf.frobenius_log_det(cfg), log_det))
        r_inv = max(r_inv, _mat_rel(cf.frobenius_inverse(cfg), inv))
    out["frobenius_det_vs_lu"] = r_det
    out["frobenius_inverse_vs_dense"] = r_inv

    r = 0.0
    for m in range(2, 7):
        zs = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp[-1] += zs.sum() - zp.sum()
        s = cf.theta_interpolation_sum(zs, zp, q)
        scale = float(np.max(np.abs(cf._interpolation_terms(zs, zp, q))))
        r = max(r, abs(s) / max(scale, 1e-300))
    out["theta_interpolation"] = r

    r = 0.0
    for size in (2, 4, 6, 8, 10):
        # separated real parts plus alternating iK'/2 offsets (the same mixed
        # structure the physics uses) keep the pfaffian comparable to the
        # entry scale, so relative agreement with the numeric pfaffian is a
        # fair test; purely real clustered points make the elimination
        # cancel catastrophically for any algorithm
        base = (np.linspace(-0.8, 0.8, size)
                + rng.uniform(-0.03, 0.03, size) / size) * mod.bigK
        pts = base + 0.5j * mod.bigKprime * (np.arange(size) % 2)
        mat = math.sqrt(mod.k) * jacobi_sn_cn_dn(np.subtract.outer(pts, pts), mod)[0]
        np.fill_diagonal(mat, 0.0)
        r = max(r, abs(cf.sn_pfaffian_product(pts, mod) / pfaffian(mat) - 1.0))
    out["sn_pfaffian_identity"] = r

    out.update({f"ising_{k}": v for k, v in cf.ising_constraint_residuals(c).items()})

    phi = cf.phi_matrix(c)
    psi = cf.psi_matrix(c)
    log_det_phi, inv_phi = log_det_and_inverse(phi)
    out["phi_inverse_residual"] = _mat_rel(cf.phi_inverse_closed(c) @ phi,
                                           np.eye(c.n))
    out["phi_inverse_vs_dense"] = _mat_rel(cf.phi_inverse_closed(c), inv_phi)
    out["phi_inverse_trig_vs_dense"] = _mat_rel(cf.phi_inverse_trig(c), inv_phi)
    out["det_phi_theta_vs_lu"] = _log_rel(cf.log_det_phi_theta(c), log_det_phi)
    out["det_phi_squared_trig_vs_lu"] = _log_rel(cf.log_det_phi_squared_trig(c),
                                                 2.0 * log_det_phi)
    out["psi_phi_inverse_sn"] = _mat_rel(cf.psi_phi_inverse_closed(c), psi @ inv_phi)
    out["psi_phi_inverse_theta"] = _mat_rel(
        cf.psi_phi_inverse_closed(c, theta_route=True), psi @ inv_phi)
    out["phi_inverse_psi_sn"] = _mat_rel(cf.phi_inverse_psi_closed(c), inv_phi @ psi)
    out["phi_inverse_psi_theta"] = _mat_rel(
        cf.phi_inverse_psi_closed(c, theta_route=True), inv_phi @ psi)

    chi, kappa = cf.chi_kappa(c)
    chi_t, kappa_t = cf.chi_kappa_trig(c)
    out["chi_sn_vs_trig"] = float(np.max(np.abs(chi - chi_t)))
    out["kappa_sn_vs_trig"] = float(np.max(np.abs(kappa - kappa_t)))

    all_u = np.concatenate([c.sector("p").u, c.sector("a").u])
    all_nu = np.concatenate([c.sector("p").nu, c.sector("a").nu])
    out["lambda_vs_nu"] = _rel(cf.lambda_uv(all_u[:, None], all_u[None, :], c),
                               np.exp((all_nu[None, :] - all_nu[:, None]) / 2.0))

    r = 0.0
    for t in rng.uniform(0.1, 2.0 * math.pi - 0.1, 20):
        lhs = 2.0 ** (c.n - 1) * np.prod(np.sin((t - c.sector("p").thetas) / 2.0))
        rhs = (-1.0) ** (c.n - 1) * math.sin(c.n * t / 2.0)
        r = max(r, _rel(lhs, rhs))
    out["sine_product_identity"] = r
    return out


def rotation_suite(c: Couplings, site: int = 0) -> dict[str, float]:
    """Induced-rotation relations and the two-particle closed forms."""
    rot = induced_rotation(c, site)
    out = dict(rot.relation_residuals())
    det_d, dinv_num = det_and_inverse(rot.d)
    dinv, bdinv, dinvc = two_particle_matrices(c, site)
    out["dinv_times_d"] = _mat_rel(dinv @ rot.d, np.eye(c.n))
    out["dinv_closed_vs_numeric"] = _mat_rel(dinv, dinv_num)
    out["bdinv_closed_vs_numeric"] = _mat_rel(bdinv, rot.b @ dinv_num)
    out["dinvc_closed_vs_numeric"] = _mat_rel(dinvc, dinv_num @ rot.c)

    ell = site - 0.5
    a, p = c.sector("a"), c.sector("p")
    lam_a = np.exp(1j * ell * a.thetas) / np.sqrt(np.sinh(a.gamma))
    lam_p = np.exp(1j * ell * p.thetas) / np.sqrt(np.sinh(p.gamma))
    phi_inv = cf.phi_inverse_closed(c)
    route1 = (-1j * c.n / c.sinh2ky) * phi_inv / lam_a[:, None] / lam_p.conj()[None, :]
    out["dinv_elliptic_route"] = _mat_rel(route1, dinv)
    fac = 1j * c.sinh2kx_star / c.sinh2ky
    route2 = fac * lam_p[:, None] * cf.psi_phi_inverse_closed(c) / lam_p.conj()[None, :]
    out["bdinv_elliptic_route"] = _mat_rel(route2, bdinv)
    route3 = fac * cf.phi_inverse_psi_closed(c) * lam_a.conj()[None, :] / lam_a[:, None]
    out["dinvc_elliptic_route"] = _mat_rel(route3, dinvc)

    # compared as logs: (sinh 2ky / N)^N |det Phi| leaves the double range
    # at large N, while |det D| itself stays near the squared vacuum overlap
    log_abs_det_d = (c.n * math.log(c.sinh2ky / c.n) + cf.log_det_phi_theta(c).real
                     - 0.5 * (log_sinh(p.gamma).sum() + log_sinh(a.gamma).sum()))
    out["abs_det_d_elliptic_route"] = _log_rel(log_abs_det_d, math.log(abs(det_d)))
    out["vacuum_overlap_vs_det"] = _rel(vacuum_overlap(c), abs(det_d) ** 0.5)
    out["vacuum_overlap_vs_xi"] = _rel(vacuum_overlap(c),
                                       math.sqrt(c.xi * xi_t(c)))
    return out


def _group_shapes(n: int, max_mn: int):
    """(parity, m, k) of each bra/ket particle-number pair, m + k even and <= max_mn."""
    for parity in (0, 1):
        for m in range(parity, min(n, max_mn) + 1, 2):
            for k in range(parity, min(n, max_mn - m) + 1, 2):
                yield parity, m, k


def _spec_groups(c: Couplings, site: int, max_mn: int):
    """Every (bra, ket) pair with m + n even and at most ``max_mn``, in
    :class:`SpecStack` groups of one (m, n) each: bras in basis order, each
    with every ket, cut into stacks of at most ``_STACK_ROWS`` specs."""
    for parity, m, n in _group_shapes(c.n, max_mn):
        bra = fock_basis(c, "a", parity, max_mn).indices(m)
        ket = fock_basis(c, "p", parity, max_mn).indices(n)
        total = len(bra) * len(ket)
        for start in range(0, total, _STACK_ROWS):
            pairs = np.arange(start, min(start + _STACK_ROWS, total))
            rows, cols = np.divmod(pairs, len(ket))
            yield SpecStack(site, bra[rows], ket[cols])


def _check_spec_count(c: Couplings) -> None:
    """ResourceError if the form-factor suite would check over _MAX_SUITE_SPECS specs."""
    count = sum(math.comb(c.n, m) * math.comb(c.n, k)
                for _, m, k in _group_shapes(c.n, _SUITE_MAX_MN))
    if count > _MAX_SUITE_SPECS:
        raise ResourceError(
            f"the form-factor suite would check {count:,} specs at N={c.n}, "
            f"more than {_MAX_SUITE_SPECS:,}")


def completeness_sum_rule(c: Couplings) -> float:
    """Largest |sum over kets of |F|^2 - 1| over every bra.

    sigma^2 = 1, and a bra couples only to kets of its own particle-number
    parity, so each row of the full |F|^2 table sums to one.
    """
    worst = 0.0
    for parity in (0, 1):
        kets = fock_basis(c, "p", parity)
        for _, bras in fock_basis(c, "a", parity).blocks():
            sums = abs_ff2_table(c, bras, kets).sum(axis=1)
            # np.maximum keeps a NaN, where max() could drop it
            worst = np.maximum(worst, np.max(np.abs(sums - 1.0)))
    return float(worst)


def formfactor_suite(c: Couplings, site: int | None = None) -> dict[str, float]:
    """Multiparticle closed form against the pfaffian route and its assembly,
    and the completeness sum rule wherever the full Fock basis is enumerated.

    The specs run through the routes as stacks of one (m, n) group (and, for
    the translation phases, of one site), a few array calls per stack.
    """
    _check_spec_count(c)
    site = c.n // 2 if site is None else site
    routes, assembly = [], []
    for stack in _spec_groups(c, site, _SUITE_MAX_MN):
        f_closed = ff_closed(stack, c)
        routes.append(np.abs(f_closed - ff_pfaffian(stack, c))
                      / np.maximum(np.abs(f_closed), 1e-30))
        assembly.append(_mat_rel(assemble_r_matrix(stack, c),
                                 assemble_r_elliptic(stack, c)))
    out = {"closed_vs_pfaffian": _worst(*routes),
           "pairing_matrix_assembly": _worst(*assembly)}

    phases = []
    for stack0 in _spec_groups(c, 0, 2):
        f0 = ff_closed(stack0, c)
        shift = (c.sector("p").thetas[stack0.ket].sum(axis=1)
                 - c.sector("a").thetas[stack0.bra].sum(axis=1))
        for l in range(c.n):
            pred = np.exp(1j * l * shift) * f0
            phases += [np.abs(route(stack0._replace(site=l), c) - pred)
                       for route in (ff_closed, ff_pfaffian)]
    out["translation_phase"] = _worst(*phases)

    # reversing the order of the two bra momenta must flip the sign of the
    # pfaffian
    r = 0.0
    if c.n >= 2:
        spec = FormFactorSpec(site, FockState("a", (0, 1)), FockState("p", ()))
        rmat = assemble_r_matrix(spec, c)
        r = abs(pfaffian(rmat[::-1, ::-1]) + pfaffian(rmat))
    out["bra_reversal_antisymmetry"] = r
    if c.n <= _FULL_ENUMERATION_MAX_N:
        out["completeness_sum_rule"] = completeness_sum_rule(c)
    return out


def run_suite(name: str, c: Couplings, site: int = 0) -> dict[str, float]:
    """One named identity suite; ``all`` merges every suite."""
    if name == "elliptic":
        return elliptic_suite(c)
    if name == "cauchy":
        return cauchy_suite(c)
    if name == "rotation":
        return rotation_suite(c, site=site)
    if name == "formfactor":
        return formfactor_suite(c, site=site if site else None)
    if name == "all":
        _check_spec_count(c)      # before the other suites run
        merged = {}
        for suite in SUITES:
            res = run_suite(suite, c, site=site)
            merged.update({f"{suite}.{k}": v for k, v in res.items()})
        return merged
    raise DomainError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")
