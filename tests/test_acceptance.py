"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they complete.
"""

import itertools
import math

import numpy as np
import pytest

from isingff.cauchy import (EllipticPointConfig, elliptic_cauchy_matrix,
                            frobenius_inverse, frobenius_log_det, ising_modulus,
                            lambda_factors,
                            sn_pfaffian_product, theta_interpolation_sum,
                            _interpolation_terms)
from isingff.elliptic import jacobi_sn_cn_dn
from isingff.exceptions import DomainError
from isingff.formfactors import (FockState, FormFactorSpec, SpecStack,
                                 ff_closed, ff_pfaffian, two_point_correlation,
                                 vacuum_overlap, xi_t)
from isingff.linalg import log_det_and_inverse, pfaffian
from isingff.oracle import (block_labels, build_operators, labeled_spectrum,
                            oracle_correlation)
from isingff.spectral import Couplings
from isingff.verification import _log_rel, elliptic_suite, rotation_suite

COUPLINGS = [(0.3, 0.9), (0.5, 0.5), (0.7, 0.8)]


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)


def _specs(n: int, mn_values=(0, 2, 4)):
    for m in range(0, min(n, max(mn_values)) + 1):
        for nn in range(0, min(n, max(mn_values)) + 1):
            if m + nn not in mn_values:
                continue
            for bra in itertools.combinations(range(n), m):
                for ket in itertools.combinations(range(n), nn):
                    yield bra, ket


def test_criterion_1_oracle_agreement():
    """|ff_closed| equals the oracle modulus to 1e-8 relative, all specs m+n in {0,2,4}."""
    worst = 0.0
    count = 0
    for kx, ky in COUPLINGS:
        for n in range(1, 7):
            c = Couplings.from_kx_ky(kx, ky, n)
            for eps_y, parity in ((1, 0), (-1, 1)):
                ops = build_operators(c, eps_y=eps_y)
                spectrum = labeled_spectrum(ops)
                state_of = {(st.sector, st.indices): st for st in spectrum}
                labels_of_block = {st.block: block_labels(spectrum, st.block)
                                   for st in spectrum}
                vecs_of_block = {}
                for st in spectrum:
                    vecs_of_block.setdefault(st.block, []).append(st.vector)
                for site in range(n):
                    diag = ops.sl[site]
                    done_pairs = set()
                    for bra, ket in _specs(n):
                        if len(bra) % 2 != parity or len(ket) % 2 != parity:
                            continue
                        bst = state_of[("a", bra)]
                        kst = state_of[("p", ket)]
                        pair = (bst.block, kst.block)
                        if pair in done_pairs:
                            continue
                        done_pairs.add(pair)
                        oracle_sq = sum(
                            abs(np.vdot(vb, diag * vk)) ** 2
                            for vb in vecs_of_block[bst.block]
                            for vk in vecs_of_block[kst.block])
                        closed_sq = sum(
                            abs(ff_closed(FormFactorSpec(
                                site, FockState("a", bi), FockState("p", ki)), c)) ** 2
                            for _, bi in labels_of_block[bst.block]
                            for _, ki in labels_of_block[kst.block])
                        a, b = math.sqrt(oracle_sq), math.sqrt(closed_sq)
                        err = abs(a - b) / max(b, 1e-300) if b > 1e-13 else abs(a - b)
                        worst = max(worst, err)
                        count += 1
    passed = worst < 1e-8
    _report(1, "closed form vs transfer-matrix oracle, m+n in {0,2,4}, N<=6",
            passed, f"{count} block comparisons, worst rel {worst:.2e}")
    assert passed


def _spec_stacks(n: int, site: int, mn_values=(0, 2, 4)):
    """The specs of :func:`_specs` as one :class:`SpecStack` per (m, n) group."""
    top = min(n, max(mn_values))
    for m, nn in itertools.product(range(top + 1), repeat=2):
        if m + nn in mn_values:
            bra = np.array(list(itertools.combinations(range(n), m)), int)
            ket = np.array(list(itertools.combinations(range(n), nn)), int)
            bra, ket = bra.reshape(math.comb(n, m), m), ket.reshape(math.comb(n, nn), nn)
            yield SpecStack(site, np.repeat(bra, len(ket), axis=0),
                            np.tile(ket, (len(bra), 1)))


def test_criterion_2_route_equivalence():
    """ff_closed equals ff_pfaffian including phase to 1e-10 relative, N <= 8."""
    worst = 0.0
    count = 0
    for kx, ky in COUPLINGS:
        for n in range(1, 9):
            c = Couplings.from_kx_ky(kx, ky, n)
            for site in range(n):
                for stack in _spec_stacks(n, site):
                    f1 = ff_closed(stack, c)
                    f2 = ff_pfaffian(stack, c)
                    worst = max(worst, float(np.max(np.abs(f1 - f2)
                                                    / np.maximum(np.abs(f1), 1e-300))))
                    count += len(f1)
    passed = worst < 1e-10
    _report(2, "closed form vs pfaffian route with phase, N<=8", passed,
            f"{count} specs, worst rel {worst:.2e}")
    assert passed


def test_criterion_3_two_particle_consistency():
    """Closed two-particle matrices match numeric inversion and the elliptic route."""
    worst = 0.0
    for kx, ky in COUPLINGS:
        for n in range(1, 9):
            c = Couplings.from_kx_ky(kx, ky, n)
            for site in (0, n - 1):
                res = rotation_suite(c, site=site)
                for key in ("dinv_closed_vs_numeric", "bdinv_closed_vs_numeric",
                            "dinvc_closed_vs_numeric", "dinv_elliptic_route",
                            "bdinv_elliptic_route", "dinvc_elliptic_route"):
                    worst = max(worst, res[key])
    passed = worst < 1e-10
    _report(3, "two-particle matrices: closed vs numeric vs elliptic, N<=8",
            passed, f"worst residual {worst:.2e}")
    assert passed


def _separated(xs, ys, gap):
    """Minimum pairwise separation keeps the dense LU reference well-conditioned."""
    pts = np.concatenate([xs, ys])
    diffs = np.abs(pts[:, None] - pts[None, :]) + np.eye(len(pts))
    return float(np.min(diffs)) >= gap


def test_criterion_4_frobenius_suite():
    """Frobenius determinant and inverse vs dense LU; balanced sums vanish."""
    rng = np.random.default_rng(42)
    moduli = [ising_modulus(Couplings.from_kx_ky(kx, ky, 2)) for kx, ky in COUPLINGS]
    worst_det = worst_inv = 0.0
    configs = 0
    while configs < 50:
        mod = moduli[configs % len(moduli)]
        size = int(rng.integers(1, 9))
        xs = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        ys = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        alpha = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.2))
        if not _separated(xs, ys, 0.1):
            continue
        try:
            cfg = EllipticPointConfig(tuple(xs), tuple(ys), mod.q, alpha)
            log_det, inv = log_det_and_inverse(elliptic_cauchy_matrix(cfg))
        except DomainError:
            continue
        configs += 1
        worst_det = max(worst_det, _log_rel(frobenius_log_det(cfg), log_det))
        closed = frobenius_inverse(cfg)
        scale = max(1.0, float(np.max(np.abs(inv))))
        worst_inv = max(worst_inv, float(np.max(np.abs(closed - inv))) / scale)
    worst_sum = 0.0
    for m in range(2, 7):
        mod = moduli[m % len(moduli)]
        zs = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp[-1] += zs.sum() - zp.sum()
        total = theta_interpolation_sum(zs, zp, mod.q)
        scale = float(np.max(np.abs(_interpolation_terms(zs, zp, mod.q))))
        worst_sum = max(worst_sum, abs(total) / scale)
    passed = worst_det < 1e-10 and worst_inv < 1e-10 and worst_sum < 1e-10
    _report(4, "Frobenius determinant/inverse vs LU; balanced theta sums",
            passed, f"det {worst_det:.2e}, inv {worst_inv:.2e}, sum {worst_sum:.2e}")
    assert passed


def test_criterion_5_pfaffian_identity():
    """sn-product pfaffian identity and Pf^2 = det up to size 10."""
    rng = np.random.default_rng(7)
    worst_rel = worst_det = 0.0
    for kx, ky in COUPLINGS:
        mod = ising_modulus(Couplings.from_kx_ky(kx, ky, 2))
        for size in (2, 4, 6, 8, 10):
            base = (np.linspace(-0.8, 0.8, size)
                    + rng.uniform(-0.03, 0.03, size) / size) * mod.bigK
            pts = base + 0.5j * mod.bigKprime * (np.arange(size) % 2)
            sqk = math.sqrt(mod.k)
            mat = np.zeros((size, size), dtype=complex)
            for i in range(size):
                for j in range(size):
                    if i != j:
                        mat[i, j] = sqk * jacobi_sn_cn_dn(pts[i] - pts[j], mod)[0]
            pf = pfaffian(mat)
            worst_rel = max(worst_rel, abs(sn_pfaffian_product(pts, mod) / pf - 1.0))
            log_det, _ = log_det_and_inverse(mat)
            worst_det = max(worst_det, abs(pf**2 / np.exp(log_det) - 1.0))
    passed = worst_rel < 1e-10 and worst_det < 1e-10
    _report(5, "sn pfaffian identity up to size 10; Pf^2 = det", passed,
            f"identity {worst_rel:.2e}, Pf^2/det {worst_det:.2e}")
    assert passed


def test_criterion_6_elliptic_identities():
    """All parametrization identities at >= 100 random points, below 1e-10."""
    worst = 0.0
    worst_name = ""
    for kx, ky in COUPLINGS:
        c = Couplings.from_kx_ky(kx, ky, 5)
        res = elliptic_suite(c)
        for name, val in res.items():
            if val > worst:
                worst, worst_name = val, name
    passed = worst < 1e-10
    _report(6, "elliptic identity suite at 100+ random points", passed,
            f"worst {worst_name} = {worst:.2e}")
    assert passed


def test_criterion_7_yang_limit():
    """Vacuum overlap converges to the spontaneous magnetization."""
    errs = []
    for n in (16, 32, 64):
        c = Couplings.from_kx_ky(0.5, 0.5, n)
        yang = (1.0 - c.s ** (-2)) ** 0.125
        errs.append(abs(vacuum_overlap(c) - yang))
    geometric = errs[1] < 0.5 * errs[0] and errs[2] < 0.5 * errs[1]
    passed = errs[-1] < 1e-6 and geometric
    _report(7, "Yang limit at Kx=Ky=0.5, N=16,32,64", passed,
            f"errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}")
    assert passed


def test_criterion_8_translation_invariance():
    """Site dependence is a pure momentum phase, N=5, all 2-particle specs."""
    c = Couplings.from_kx_ky(0.4, 0.7, 5)
    worst = 0.0
    for bra, ket in _specs(5, mn_values=(2,)):
        spec0 = FormFactorSpec(0, FockState("a", bra), FockState("p", ket))
        f0 = ff_closed(spec0, c)
        shift = (c.sector("p").thetas[list(ket)].sum()
                 - c.sector("a").thetas[list(bra)].sum())
        for site in range(5):
            spec_l = FormFactorSpec(site, spec0.bra, spec0.ket)
            pred = np.exp(1j * site * shift) * f0
            worst = max(worst, abs(ff_closed(spec_l, c) - pred),
                        abs(ff_pfaffian(spec_l, c) - pred))
    passed = worst < 1e-12
    _report(8, "translation phase relation across all sites, N=5", passed,
            f"worst abs deviation {worst:.2e}")
    assert passed


def test_criterion_9_correlation_agreement():
    """Spectral-sum correlation equals the dense trace ratio at N=4, M=4."""
    c = Couplings.from_kx_ky(0.4, 0.7, 4)
    ops = build_operators(c, eps_y=1)
    worst = 0.0
    for eps_x in (1, -1):
        for dx in range(0, 3):
            for dy in range(0, 4):
                v1 = two_point_correlation(c, 4, dx, dy, eps_x=eps_x, eps_y=1)
                v2 = oracle_correlation(ops, 4, dx, dy, eps_x=eps_x)
                worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1), abs(v2)))
    passed = worst < 1e-8
    _report(9, "correlations vs trace ratio, N=4, M=4, both eps_x", passed,
            f"worst {worst:.2e}")
    assert passed


def test_criterion_10_nu_lambda_reduction():
    """lambda(u, v) equals exp((nu' - nu)/2) for both lattice-width parities."""
    worst = 0.0
    for n in (3, 4):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        lam = np.concatenate(lambda_factors(c))
        nus = np.concatenate([c.sector("p").nu, c.sector("a").nu])
        for i in range(2 * n):
            for j in range(2 * n):
                worst = max(worst, abs(lam[i] / lam[j]
                                       - math.exp((nus[j] - nus[i]) / 2.0)))
    passed = worst < 1e-10
    _report(10, "sn-product vs sinh-product reduction, N=3 and N=4", passed,
            f"worst {worst:.2e}")
    assert passed


def _toeplitz_determinants(symbol, radii) -> list[float]:
    """det[c_{i-j}], R x R, per R, with c_k the Fourier coefficients of
    ``symbol(z)`` on the unit circle z = e^{i theta}."""
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    coef = np.fft.fft(symbol(z)) / len(z)     # c_k at k mod 4096
    return [np.linalg.det(coef[i[:, None] - i[None, :]]).real
            for i in map(np.arange, radii)]


def _toeplitz_row_correlations(c: Couplings, radii) -> list[float]:
    """Infinite-lattice <s_00 s_0R> at the alpha and beta of ``c``, per R."""
    # Montroll, Potts and Ward (J. Math. Phys. 4, 308, 1963): <s_00 s_0R> is
    # det[c_{i-j}], R x R, with c_k the Fourier coefficients of
    # sqrt((1 - alpha z)(1 - beta/z) / ((1 - beta z)(1 - alpha/z)))
    return _toeplitz_determinants(
        lambda z: np.sqrt((1.0 - c.alpha * z) * (1.0 - c.beta / z)
                          / ((1.0 - c.beta * z) * (1.0 - c.alpha / z))), radii)


def test_criterion_11_infinite_lattice_row_correlation():
    """Row correlation at N=16 equals the infinite-lattice Toeplitz determinant."""
    # at (0.6, 0.9) the correlation length is short enough for N=16, M=24
    c = Couplings.from_kx_ky(0.6, 0.9, 16)
    errs = []
    for r, toeplitz in zip((1, 2, 3), _toeplitz_row_correlations(c, (1, 2, 3))):
        with pytest.warns(UserWarning, match="particle-number cutoff"):
            errs.append(abs(two_point_correlation(c, 24, 0, r) - toeplitz))
    passed = max(errs) < 1e-12
    _report(11, "row correlation vs Toeplitz determinant, (0.6, 0.9), N=16, R=1..3",
            passed, "errors " + ", ".join(f"{e:.2e}" for e in errs))
    assert passed


def test_criterion_11_infinite_lattice_column_correlation():
    """Column correlation at N=16 equals the Toeplitz determinant of the
    swapped couplings."""
    # on the infinite lattice the column direction is the row direction with
    # kx and ky exchanged, so <s_00 s_R0> at (kx, ky) is <s_00 s_0R> at (ky, kx)
    c = Couplings.from_kx_ky(0.6, 0.9, 16)
    swapped = Couplings.from_kx_ky(0.9, 0.6, 16)
    errs = []
    for r, toeplitz in zip((1, 2, 3), _toeplitz_row_correlations(swapped, (1, 2, 3))):
        with pytest.warns(UserWarning, match="particle-number cutoff"):
            errs.append(abs(two_point_correlation(c, 24, r, 0) - toeplitz))
    passed = max(errs) < 1e-11
    _report(11, "column correlation vs Toeplitz determinant of (ky, kx), (0.6, 0.9), "
            "N=16, R=1..3", passed, "errors " + ", ".join(f"{e:.2e}" for e in errs))
    assert passed


def test_criterion_11_infinite_lattice_diagonal_correlation():
    """Diagonal correlation at N=16 equals the infinite-lattice Toeplitz
    determinant of the diagonal symbol."""
    # McCoy and Wu (The Two-Dimensional Ising Model, 1973, ch. XI): <s_00 s_RR>
    # is det[c_{i-j}], R x R, with c_k the Fourier coefficients of
    # sqrt((1 - z/s) / (1 - 1/(s z))), s = sinh(2 kx) sinh(2 ky)
    c = Couplings.from_kx_ky(0.6, 0.9, 16)
    toeplitz = _toeplitz_determinants(
        lambda z: np.sqrt((1.0 - z / c.s) / (1.0 - 1.0 / (c.s * z))), (1, 2, 3))
    errs = []
    for r, value in zip((1, 2, 3), toeplitz):
        with pytest.warns(UserWarning, match="particle-number cutoff"):
            errs.append(abs(two_point_correlation(c, 24, r, r) - value))
    passed = max(errs) < 1e-11
    _report(11, "diagonal correlation vs Toeplitz determinant, (0.6, 0.9), N=16, R=1..3",
            passed, "errors " + ", ".join(f"{e:.2e}" for e in errs))
    assert passed


def test_criterion_12_thermodynamic_limits():
    """vacuum_overlap tends to the spontaneous magnetization and xi_t to 1."""
    # Yang (Phys. Rev. 85, 808, 1952): M = (1 - s^-2)^(1/8); both gaps close
    # exponentially in N
    worst, shrinking = 0.0, True
    for kxy in ((0.4, 0.7), (0.6, 0.9)):
        gaps = []
        for n in (16, 32, 64):
            c = Couplings.from_kx_ky(*kxy, n)
            gaps.append(np.array([abs(vacuum_overlap(c) - (1.0 - c.s ** (-2)) ** 0.125),
                                  abs(xi_t(c) - 1.0)]))
        shrinking &= bool(np.all(gaps[1] < gaps[0]))
        worst = max(worst, float(gaps[2].max()))
    passed = worst < 1e-13 and shrinking
    _report(12, "Yang magnetization and xi_t = 1 at N=64, (0.4, 0.7) and (0.6, 0.9)",
            passed, f"worst {worst:.2e}")
    assert passed
