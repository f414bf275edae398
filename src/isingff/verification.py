"""Formula-vs-formula identity suites, runnable on demand.

Every closed form in the package has an independent route: a defining
integral, a dense linear-algebra computation, an algebraic identity, or a
second reduced formula.  Each suite evaluates its checks at deterministic
pseudo-random points and returns a dict of named residuals (normalized by
the magnitude of the quantities compared, so tolerances are scale-free).
The CLI ``verify`` command and the test suite both call these functions.

What no coupling enters is built once per process, on first use, and kept
read-only: the Cauchy suite's random sample (:func:`_cauchy_sample`), of
which each call filters only the Frobenius configurations that its nome
puts on the zero lattice of theta_1, and the Fock states whose index rows
list the form-factor suite's (bra, ket) pairs.  A residual is the largest
over its points, and a NaN among them is kept.
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import cauchy as cf
from .elliptic import evaluate_at_once, jacobi_sn_cn_dn, theta
from .exceptions import DomainError, ResourceError
from .formfactors import (_FULL_ENUMERATION_MAX_N, FockState, FormFactorSpec,
                          SpecStack, _ff2_blocks, _fock_states, assemble_r_matrix,
                          ff_closed, ff_pfaffian, two_particle_matrices,
                          vacuum_overlap, xi_t)
from .linalg import log_det_and_inverse, pfaffian
from .spectral import Couplings, _read_only, b_of_theta, gamma_of_theta, log_sinh

SUITES = ("elliptic", "cauchy", "rotation", "formfactor")
_SEED = 2024            # pseudo-random points of the elliptic and Cauchy suites
_ELLIPTIC_POINTS = 100  # random points per elliptic identity
_CAUCHY_CONFIGS, _CAUCHY_MAX_SIZE = 50, 8  # random Cauchy matrices of 1 to 8 points
_SUITE_MAX_MN = 4       # particles, bra plus ket, in the form-factor suite's specs
_STACK_ROWS = 512  # specs per stack of the form-factor suite, which bounds its memory
# specs of the form-factor suite: each costs about 7 us through both routes
# and the assembly check (N=32 has 637,393 and takes 4.5 s at (0.4, 0.7)), so
# this is about 7 s; past it the cutoff-4 Fock bases also run to GBs (1.6
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


@cache
def _elliptic_sample() -> tuple[np.ndarray, ...]:
    """The elliptic suite's read-only draws, once per process: the unit draws
    of its four ranges of +-K or +-K/2, then its four that no coupling enters."""
    rng, n, angle = np.random.default_rng(_SEED), _ELLIPTIC_POINTS, (1e-3, 2.0 * math.pi - 1e-3)
    return _read_only(rng.random(2 * n), rng.random((n, 2)), rng.random((n, 2)), rng.random(n),
                      rng.uniform((-2.0, -0.4), (2.0, 0.4), (20, 2)), rng.uniform(*angle, n),
                      rng.uniform(*angle, n // 2), rng.uniform(*angle, (n, 2)))


def elliptic_suite(c: Couplings) -> dict[str, float]:
    """Elliptic-function and parametrization identities along the curve.

    Each identity is checked on an array of pseudo-random points at once, from
    :func:`_elliptic_sample`.  Every point is drawn first, so that sn/cn/dn
    run once over all of them and theta once per index.
    """
    n_points = _ELLIPTIC_POINTS
    mod = cf.ising_modulus(c)
    k, kk = mod.k, mod.k**2
    bigk, bigkp = mod.bigK, mod.bigKprime
    out = dict(mod.self_check())

    # scaled as numpy's uniform scales its unit draw U: low + (high - low) * U
    us, re_im, uv, w = (lo + np.subtract(hi, lo) * unit for lo, hi, unit in zip(
        (-bigk * 0.98, np.array((-bigk, -0.45)), -bigk, -bigk / 2),
        (bigk * 0.98, np.array((bigk, 0.45)), bigk, bigk / 2), _elliptic_sample()))
    z_re_im, thetas, t2, s12 = _elliptic_sample()[4:]
    (u, v), (s1, s2), half = uv.T, s12.T, n_points // 2

    gam = gamma_of_theta(thetas, c)
    uu = cf.u_of_theta(thetas, c)
    t1, g1, u1 = thetas[:half], gam[:half], uu[:half]
    g2, u2 = gamma_of_theta(t2, c), cf.u_of_theta(t2, c)
    apart = np.abs(u1 - u2) >= 1e-8
    t1, g1, u1, t2, g2, u2 = (x[apart] for x in (t1, g1, u1, t2, g2, u2))
    far = np.minimum(np.abs(s1 - s2), np.abs(s1 + s2 - 2.0 * math.pi)) >= 1e-3
    s1, s2 = s1[far], s2[far]
    h1, h2 = gamma_of_theta(s1, c), gamma_of_theta(s2, c)
    d = cf.u_of_theta(s1, c) - cf.u_of_theta(s2, c)

    args = {
        "us": us, "us_2k": us + 2.0 * bigk,
        "complex": re_im[:, 0] + 1j * (re_im[:, 1] * bigkp),
        "u": u, "v": v, "u_minus_v": u - v, "w": w, "2w": 2.0 * w,
        **{f"eta{sgn}": uu - sgn * 1j * cf.ising_eta(c) for sgn in (1.0, -1.0)},
        "uu": uu, "uu_k": uu + bigk, "2uu": 2.0 * uu, "u2": u2, "u1_u2": u1 - u2,
        "d": d, **{f"d{sgn}": d + sgn * 1j * bigkp for sgn in (1.0, -1.0)}}
    sn_cn_dn = dict(zip(args, evaluate_at_once(partial(jacobi_sn_cn_dn, mod=mod),
                                               *args.values())))

    def real(name):
        return tuple(f.real for f in sn_cn_dn[name])

    sn0, cn0, dn0 = sn_cn_dn["us"]
    sn1, cn1, dn1 = sn_cn_dn["us_2k"]
    out["half_period_shifts"] = _worst(np.abs(sn1 + sn0), np.abs(cn1 + cn0),
                                       np.abs(dn1 - dn0))

    sn, cn, dn = sn_cn_dn["complex"]
    out["algebraic_identities"] = _worst(np.abs(sn**2 + cn**2 - 1.0),
                                         np.abs(dn**2 + kk * sn**2 - 1.0))

    snu, cnu, dnu = real("u")
    snv, cnv, dnv = real("v")
    out["dn_addition"] = _rel(
        real("u_minus_v")[2],
        (dnu * dnv + kk * snu * cnu * snv * cnv) / (1.0 - kk * snu**2 * snv**2))

    snw, cnw, dnw = real("w")
    out["sn_doubling"] = _rel(real("2w")[0], 2.0 * snw * cnw * dnw / (1.0 - kk * snw**4))

    pit = math.pi * mod.tau
    z = z_re_im[:, 0] + 1j * z_re_im[:, 1]
    th1 = theta(1, np.concatenate([z + pit, z, [pit / 2.0, math.pi / 2.0]]), mod.q)
    out["theta1_quasiperiod"] = _rel(th1[:len(z)],
                                     -np.exp(-1j * pit - 2j * z) * th1[len(z):-2])
    out["theta1_half_tau"] = _rel(th1[-2],
                                  1j * np.exp(-1j * pit / 4.0) * theta(4, 0.0, mod.q))
    out["theta2_is_shifted_theta1"] = _rel(th1[-1], theta(2, 0.0, mod.q))

    sqk = math.sqrt(k)
    out["exp_gamma_vs_sn"] = _worst(*(
        _rel(np.exp(-(gam + sgn * 1j * thetas) / 2.0), -sqk * sn_cn_dn[f"eta{sgn}"][0])
        for sgn in (1.0, -1.0)))

    gamma_0 = 2.0 * (c.ky - c.kx_star)
    gamma_pi = 2.0 * (c.ky + c.kx_star)
    sn, cn, dn = real("uu")
    sh_0 = np.sinh((gam + gamma_0) / 2.0)
    sh_pi = np.sinh((gam + gamma_pi) / 2.0)
    out["sn_shift_quarter"] = _rel(real("uu_k")[0],
                                   c.sinh2ky * np.sin(thetas / 2.0) / sh_0)
    out["sn_of_u_theta"] = _rel(sn, -c.sinh2ky * np.cos(thetas / 2.0) / sh_pi)
    sn_double = np.where(np.abs(2.0 * uu) > 1e-12, real("2uu")[0], 0.0)
    out["sn_double_u_theta"] = _rel(sn_double,
                                    -c.sinh2ky * np.sin(thetas) / np.sinh(gam))
    out["k_sn_squared"] = _rel(k * sn**2, np.sinh((gamma_pi - gam) / 2.0) / sh_pi)
    out["cn_of_u_theta"] = _rel(cn, np.sin(thetas / 2.0) * np.sqrt(
        c.sinh2ky * math.sinh(gamma_pi) / (sh_0 * sh_pi)))
    out["dn_of_u_theta"] = _rel(dn, np.sqrt(math.sinh(gamma_pi) * sh_0
                                            / (c.sinh2ky * sh_pi)))

    sn1, sn2 = sn[:half][apart], real("u2")[0]
    out["sn_of_difference"] = _worst(
        _rel(real("u1_u2")[0],
             c.sinh2ky * np.sin((t1 - t2) / 2.0) / np.sinh((g1 + g2) / 2.0)),
        _rel(1.0 - kk * sn1**2 * sn2**2,
             math.sinh(gamma_pi) * np.sinh((g1 + g2) / 2.0)
             / (np.sinh((gamma_pi + g1) / 2.0) * np.sinh((gamma_pi + g2) / 2.0))))

    out["sqrt_b_elliptic"] = _rel(cf._b_elliptic_of(sn, cn, dn, k) ** 2,
                                  b_of_theta(thetas, c))

    b1, b2 = np.sqrt(b_of_theta(s1, c)), np.sqrt(b_of_theta(s2, c))
    sn, cn, dn = real("d")
    root = np.sqrt(np.sinh(h1) * np.sinh(h2))
    out["dn_sn_kernel"] = _rel((b1 / b2 + b2 / b1) / (2.0 * np.sin((s1 - s2) / 2.0)),
                               c.sinh2ky / root * dn / sn)
    out["cn_kernel"] = _rel((b1 * b2 - 1.0 / (b1 * b2)) / (2.0 * np.sin((s1 + s2) / 2.0)),
                            -1j * c.sinh2kx_star / root * cn)
    direct = sqk * sn
    rho = math.sqrt(c.sinh2ky / c.sinh2kx)
    out["sn_shift_iKprime"] = _worst(
        *(_rel(sqk * sn_cn_dn[f"d{sgn}"][0], 1.0 / direct) for sgn in (1.0, -1.0)),
        _rel(direct, rho * np.sin((s1 - s2) / 2.0) / np.sinh((h1 + h2) / 2.0)))
    return out


class _CauchySample(NamedTuple):
    """The Cauchy suite's pseudo-random points, none of which depends on the
    coupling: the Frobenius configurations (xs, ys, alphas) stacked by size,
    each of (S, n), (S, n) and (S,), with any two points at least 0.1 apart;
    the (zs, zs') of the theta-interpolation sums; the real parts of the
    sn-pfaffian points in units of K; and the sine-identity momenta."""

    frobenius: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    interpolation: tuple[tuple[np.ndarray, np.ndarray], ...]
    pfaffian: tuple[np.ndarray, ...]
    sine: np.ndarray


@cache
def _cauchy_sample() -> _CauchySample:
    """The read-only sample, drawn from ``_SEED`` once per process, on the
    suite's first call."""
    rng = np.random.default_rng(_SEED)
    by_size: dict[int, list] = {}
    for _ in range(_CAUCHY_CONFIGS):
        size = int(rng.integers(1, _CAUCHY_MAX_SIZE + 1))
        xs = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        ys = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        alpha = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.2))
        pts = np.concatenate([xs, ys])
        # near-coincident points only degrade the dense LU reference
        if np.min(np.abs(pts[:, None] - pts[None, :]) + np.eye(2 * size)) >= 0.1:
            by_size.setdefault(size, []).append((xs, ys, alpha))
    frobenius = tuple(_read_only(*(np.array(v) for v in zip(*rows)))
                      for rows in by_size.values())

    interpolation = []
    for m in range(2, 7):
        zs = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp[-1] += zs.sum() - zp.sum()
        interpolation.append(_read_only(zs, zp))

    pfaffian = _read_only(*((np.linspace(-0.8, 0.8, size)
                             + rng.uniform(-0.03, 0.03, size) / size)
                            for size in (2, 4, 6, 8, 10)))
    sine = _read_only(rng.uniform(0.1, 2.0 * math.pi - 0.1, 20))[0]
    return _CauchySample(frobenius, tuple(interpolation), pfaffian, sine)


def cauchy_suite(c: Couplings) -> dict[str, float]:
    """Frobenius determinant machinery and the Ising closed forms.

    The random points are the process's one :func:`_cauchy_sample`; per
    call, only the Frobenius configurations with some x - y on the zero
    lattice of the coupling's nome are left out, one filter per size stack.
    """
    sample = _cauchy_sample()
    mod = cf.ising_modulus(c)
    q = mod.q
    out: dict[str, float] = {}

    r_det, r_inv = [], []
    for xs, ys, alphas in sample.frobenius:
        keep = ~cf._on_zero_lattice(xs, ys, q)
        if not keep.any():
            continue
        cfg = cf.EllipticPointConfig(xs[keep], ys[keep], q, alphas[keep])
        # numpy's LAPACK determinant and inverse of the whole stack are the reference
        lu_log_det, lu_inv = log_det_and_inverse(cf.elliptic_cauchy_matrix(cfg))
        r_det += map(_log_rel, cf.frobenius_log_det(cfg), lu_log_det)
        r_inv.append(_mat_rel(cf.frobenius_inverse(cfg), lu_inv))
    out["frobenius_det_vs_lu"] = _worst(r_det)
    out["frobenius_inverse_vs_dense"] = _worst(r_inv)

    r = []
    for zs, zp in sample.interpolation:
        terms = cf._interpolation_terms(zs, zp, q)  # balanced by construction
        scale = float(np.max(np.abs(terms)))
        r.append(abs(complex(terms.sum())) / max(scale, 1e-300))
    out["theta_interpolation"] = _worst(r)

    diffs = []
    for base in sample.pfaffian:
        # separated real parts plus alternating iK'/2 offsets (the same mixed
        # structure the physics uses) keep the pfaffian comparable to the
        # entry scale, so relative agreement with the numeric pfaffian is a
        # fair test; purely real clustered points make the elimination
        # cancel catastrophically for any algorithm
        pts = base * mod.bigK + 0.5j * mod.bigKprime * (np.arange(len(base)) % 2)
        diffs.append(np.subtract.outer(pts, pts))
    r = []
    for sn, _, _ in evaluate_at_once(partial(jacobi_sn_cn_dn, mod=mod), *diffs):
        mat = math.sqrt(mod.k) * sn
        np.fill_diagonal(mat, 0.0)
        # the entries above the diagonal are the factors of sn_pfaffian_product
        product = complex(np.prod(mat[cf._pairs_above(len(mat))]))
        pf = pfaffian(mat)
        # a pfaffian of 0 (from k = 6, a pivot below the floor) fails: inf, not finite
        r.append(abs(product / pf - 1.0) if pf != 0 else math.inf)
    out["sn_pfaffian_identity"] = _worst(r)

    out.update({f"ising_{k}": v for k, v in cf.ising_constraint_residuals(c).items()})

    phi = cf.phi_matrix(c)
    psi = cf.psi_matrix(c)
    log_det_phi, inv_phi = log_det_and_inverse(phi)
    inv_closed = cf.phi_inverse_closed(c)
    out["phi_inverse_residual"] = _mat_rel(inv_closed @ phi, np.eye(c.n))
    out["phi_inverse_vs_dense"] = _mat_rel(inv_closed, inv_phi)
    out["phi_inverse_trig_vs_dense"] = _mat_rel(cf.phi_inverse_trig(c), inv_phi)
    out["det_phi_theta_vs_lu"] = _log_rel(cf.log_det_phi_theta(c), log_det_phi)
    out["det_phi_squared_trig_vs_lu"] = _log_rel(cf.log_det_phi_squared_trig(c),
                                                 2.0 * log_det_phi)
    psi_phi_inv, phi_inv_psi = psi @ inv_phi, inv_phi @ psi
    psi_phi_theta, phi_psi_theta = cf.closed_products_theta(c)
    out["psi_phi_inverse_sn"] = _mat_rel(cf.psi_phi_inverse_closed(c), psi_phi_inv)
    out["psi_phi_inverse_theta"] = _mat_rel(psi_phi_theta, psi_phi_inv)
    out["phi_inverse_psi_sn"] = _mat_rel(cf.phi_inverse_psi_closed(c), phi_inv_psi)
    out["phi_inverse_psi_theta"] = _mat_rel(phi_psi_theta, phi_inv_psi)

    chi, kappa = cf.chi_kappa(c)
    chi_t, kappa_t = cf.chi_kappa_trig(c)
    out["chi_sn_vs_trig"] = float(np.max(np.abs(chi - chi_t)))
    out["kappa_sn_vs_trig"] = float(np.max(np.abs(kappa - kappa_t)))

    lam = np.concatenate(cf.lambda_factors(c))
    all_nu = np.concatenate([c.sector("p").nu, c.sector("a").nu])
    out["lambda_vs_nu"] = _rel(lam[:, None] / lam[None, :],
                               np.exp((all_nu[None, :] - all_nu[:, None]) / 2.0))

    t = sample.sine
    lhs = 2.0 ** (c.n - 1) * np.prod(
        np.sin((t[:, None] - c.sector("p").thetas[None, :]) / 2.0), axis=1)
    out["sine_product_identity"] = _rel(lhs, (-1.0) ** (c.n - 1) * np.sin(c.n * t / 2.0))
    return out


def rotation_suite(c: Couplings, site: int = 0) -> dict[str, float]:
    """Induced-rotation relations and the two-particle closed forms."""
    rot = cf.induced_rotation(c, site)
    out = dict(rot.relation_residuals())
    log_det_d, dinv_num = log_det_and_inverse(rot.d)
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
    out["abs_det_d_elliptic_route"] = _log_rel(log_abs_det_d, log_det_d.real)
    out["vacuum_overlap_vs_det"] = _rel(vacuum_overlap(c), math.exp(0.5 * log_det_d.real))
    out["vacuum_overlap_vs_xi"] = _rel(vacuum_overlap(c),
                                       math.sqrt(c.xi * xi_t(c)))
    return out


def _group_shapes(n: int, max_mn: int):
    """(parity, m, k) of each bra/ket particle-number pair, m + k even and <= max_mn."""
    for parity in (0, 1):
        for m in range(parity, min(n, max_mn) + 1, 2):
            for k in range(parity, min(n, max_mn - m) + 1, 2):
                yield parity, m, k


def _spec_groups(c: Couplings, site, max_mn: int):
    """Every (bra, ket) pair with m + n even and at most ``max_mn``, in
    :class:`SpecStack` groups of one (m, n) each: bras in basis order, each
    with every ket, cut into stacks of at most ``_STACK_ROWS`` specs.

    ``site`` is one site, or an array of sites at each of which every pair
    is taken (the stacks then carry one site per row).
    """
    sites = np.atleast_1d(site)
    for parity, m, n in _group_shapes(c.n, max_mn):
        states = _fock_states(c.n, parity, min(c.n, max_mn))
        bra, ket = states.indices(m), states.indices(n)
        total = len(bra) * len(ket) * len(sites)
        for start in range(0, total, _STACK_ROWS):
            pairs, at = np.divmod(np.arange(start, min(start + _STACK_ROWS, total)),
                                  len(sites))
            rows, cols = np.divmod(pairs, len(ket))
            yield SpecStack(site if np.ndim(site) == 0 else sites[at],
                            bra[rows], ket[cols])


def _check_spec_count(c: Couplings) -> None:
    """ResourceError if the form-factor suite would check over _MAX_SUITE_SPECS specs."""
    count = sum(math.comb(c.n, m) * math.comb(c.n, k)
                for _, m, k in _group_shapes(c.n, _SUITE_MAX_MN))
    if count > _MAX_SUITE_SPECS:
        raise ResourceError(
            f"the form-factor suite would check {count:,} specs at N={c.n}, "
            f"more than {_MAX_SUITE_SPECS:,}")


def completeness_sum_rule(c: Couplings) -> float:
    """Largest |sum of |F|^2 - 1| over every row (a bra, summed over kets) and
    every column (a ket, summed over bras) of the full |F|^2 table.

    sigma^2 = 1, and a bra couples only to kets of its own particle-number
    parity, so both the rows and the columns of each parity's table sum to
    one.  The table's blocks are those of the spectral sum, kept or streamed.
    """
    worst = 0.0
    for parity in (0, 1):
        columns = 0.0
        for _, ff2 in _ff2_blocks(c, parity, c.n):
            # np.maximum keeps a NaN, where max() could drop it
            worst = np.maximum(worst, np.max(np.abs(ff2.sum(axis=1) - 1.0)))
            columns = columns + ff2.sum(axis=0)
            del ff2         # a streamed block is freed before the next is built
        worst = np.maximum(worst, np.max(np.abs(columns - 1.0)))
    return float(worst)


def formfactor_suite(c: Couplings, site: int | None = None) -> dict[str, float]:
    """Multiparticle closed form against the pfaffian route and its assembly,
    and the completeness sum rule wherever the full Fock basis is enumerated.

    The specs run through the routes as stacks of one (m, n) group (for the
    translation phases, over every site at once), a few array calls per stack.
    """
    _check_spec_count(c)
    site = c.n // 2 if site is None else site
    routes, assembly = [], []
    vacuum = vacuum_overlap(c)
    for stack in _spec_groups(c, site, _SUITE_MAX_MN):
        # one R per stack serves the pfaffian route (ff_pfaffian's body) and
        # the assembly check
        pairing = assemble_r_matrix(stack, c)
        f_closed = ff_closed(stack, c)
        routes.append(np.abs(f_closed - vacuum * pfaffian(pairing))
                      / np.maximum(np.abs(f_closed), 1e-30))
        assembly.append(_mat_rel(pairing, cf.assemble_r_elliptic(stack, c)))
    out = {"closed_vs_pfaffian": _worst(*routes),
           "pairing_matrix_assembly": _worst(*assembly)}

    phases = []
    for stack in _spec_groups(c, np.arange(c.n), 2):
        shift = (c.sector("p").thetas[stack.ket].sum(axis=1)
                 - c.sector("a").thetas[stack.bra].sum(axis=1))
        pred = np.exp(1j * stack.site * shift) * ff_closed(stack._replace(site=0), c)
        phases += [np.abs(route(stack, c) - pred) for route in (ff_closed, ff_pfaffian)]
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


def run_suite(name: str, c: Couplings, site: int | None = None) -> dict[str, float]:
    """One named identity suite; ``all`` merges every suite.  Without a
    ``site`` the rotation suite runs at site 0 and the form-factor suite at
    N/2; a site outside [0, N) raises DomainError for every suite, those
    that read none (elliptic, cauchy) included."""
    if name not in SUITES + ("all",):
        raise DomainError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")
    if name in ("formfactor", "all"):
        _check_spec_count(c)      # before the site and the other suites
    if site is not None and not 0 <= site < c.n:
        raise DomainError(f"site {site} outside [0, {c.n})")
    if name == "elliptic":
        return elliptic_suite(c)
    if name == "cauchy":
        return cauchy_suite(c)
    if name == "rotation":
        return rotation_suite(c, site=0 if site is None else site)
    if name == "formfactor":
        return formfactor_suite(c, site=site)
    merged = {}
    for suite in SUITES:
        res = run_suite(suite, c, site=site)
        merged.update({f"{suite}.{k}": v for k, v in res.items()})
    return merged
