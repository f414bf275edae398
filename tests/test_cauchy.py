import math

import numpy as np
import pytest

from isingff.cauchy import (EllipticPointConfig, chi_kappa, chi_kappa_trig,
                            elliptic_cauchy_matrix, frobenius_inverse,
                            frobenius_log_det, ising_cauchy_config,
                            ising_constraint_residuals, lambda_uv,
                            log_det_phi_squared_trig, log_det_phi_theta,
                            phi_inverse_closed, phi_inverse_psi_closed,
                            phi_inverse_trig, phi_matrix, psi_matrix,
                            psi_phi_inverse_closed, sn_pfaffian_product,
                            theta_interpolation_sum)
from isingff.elliptic import EllipticModulus, jacobi_sn_cn_dn, theta
from isingff.exceptions import DomainError
from isingff.linalg import det_and_inverse, log_det_and_inverse, pfaffian
from isingff.spectral import Couplings
from isingff.verification import _log_rel, cauchy_suite

BENCH_COUPLINGS = [(0.3, 0.9), (0.4, 0.7), (0.5, 0.5)]
MOD = EllipticModulus.from_k(0.55)
Q = MOD.q


def random_config(rng, size, alpha=0.7 + 0.1j):
    xs = rng.uniform(-1.1, 1.1, size) + 1j * rng.uniform(-0.2, 0.2, size)
    ys = rng.uniform(-1.1, 1.1, size) + 1j * rng.uniform(-0.2, 0.2, size)
    return EllipticPointConfig(tuple(xs), tuple(ys), Q, alpha)


class TestFrobenius:
    def test_single_point_is_reciprocal(self):
        cfg = random_config(np.random.default_rng(0), 1)
        entry = elliptic_cauchy_matrix(cfg)[0, 0]
        assert _log_rel(frobenius_log_det(cfg), np.log(entry)) < 1e-14
        assert abs(frobenius_inverse(cfg)[0, 0] - 1.0 / entry) < 1e-14 / abs(entry)

    def test_coincident_rows_vanish(self):
        x = 0.4 + 0.05j
        cfg = EllipticPointConfig((x, x), (0.1, -0.6), Q, 0.8)
        assert frobenius_log_det(cfg).real == -np.inf

    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_against_dense_lu(self, size):
        rng = np.random.default_rng(size)
        for _ in range(5):
            cfg = random_config(rng, size)
            mat = elliptic_cauchy_matrix(cfg)
            log_det, inv = log_det_and_inverse(mat)
            assert _log_rel(frobenius_log_det(cfg), log_det) < 1e-10
            closed = frobenius_inverse(cfg)
            assert np.max(np.abs(closed - inv)) < 1e-10 * max(1, np.max(np.abs(inv)))
            assert np.max(np.abs(closed @ mat - np.eye(size))) < 1e-10

    def test_permuting_points_permutes_inverse(self):
        rng = np.random.default_rng(9)
        cfg = random_config(rng, 4)
        perm = [2, 0, 3, 1]
        cfg_p = EllipticPointConfig(tuple(cfg.xs[i] for i in perm), cfg.ys,
                                    Q, cfg.alpha_shift)
        np.testing.assert_allclose(frobenius_inverse(cfg_p),
                                   frobenius_inverse(cfg)[:, perm], atol=1e-12)

    def test_vanishing_alpha_rejected(self):
        cfg = EllipticPointConfig((0.3,), (0.9,), Q, 0.0)
        with pytest.raises(DomainError):
            frobenius_log_det(cfg)


class TestThetaInterpolation:
    def test_single_coincident_point(self):
        assert theta_interpolation_sum([0.4], [0.4], Q) == 0.0

    @pytest.mark.parametrize("m", [2, 5])
    def test_balanced_sums_vanish(self, m):
        rng = np.random.default_rng(m)
        zs = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp[-1] += zs.sum() - zp.sum()
        total = theta_interpolation_sum(zs, zp, Q)
        scale = max(abs(theta(1, zs[0] - z, Q)) for z in zp)
        assert abs(total) < 1e-10 * max(scale, 1.0)

    def test_unbalanced_rejected(self):
        with pytest.raises(DomainError):
            theta_interpolation_sum([0.1, 0.2], [0.1, 0.3], Q)


class TestSnPfaffianProduct:
    def test_two_points(self):
        u = (0.3, -0.5)
        expected = math.sqrt(MOD.k) * jacobi_sn_cn_dn(u[0] - u[1], MOD)[0]
        assert abs(sn_pfaffian_product(u, MOD) - expected) < 1e-14

    def test_four_points_vs_pfaffian(self):
        pts = np.array([-0.9, -0.2, 0.4, 1.0]) * MOD.bigK * 0.8
        sqk = math.sqrt(MOD.k)
        mat = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                if i != j:
                    mat[i, j] = sqk * jacobi_sn_cn_dn(pts[i] - pts[j], MOD)[0]
        assert abs(sn_pfaffian_product(pts, MOD) / pfaffian(mat) - 1.0) < 1e-10

    def test_coincident_points_give_zero(self):
        assert sn_pfaffian_product((0.3, 0.3), MOD) == 0.0

    def test_odd_count_rejected(self):
        with pytest.raises(DomainError):
            sn_pfaffian_product((0.1, 0.2, 0.3), MOD)


class TestIsingSpecialization:
    c1 = Couplings.from_kx_ky(0.4, 0.7, 1)

    @pytest.mark.parametrize("kx, ky", BENCH_COUPLINGS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_phi_is_elliptic_cauchy(self, kx, ky, n):
        c = Couplings.from_kx_ky(kx, ky, n)
        cfg, kappa = ising_cauchy_config(c)
        xs, ys = np.array(cfg.xs), np.array(cfg.ys)
        rebuilt = (kappa * np.exp(-1j * xs)[:, None] * elliptic_cauchy_matrix(cfg)
                   * np.exp(1j * ys)[None, :])
        phi = phi_matrix(c)
        assert np.max(np.abs(rebuilt - phi)) < 1e-14 * np.max(np.abs(phi))

    @pytest.mark.parametrize("kx, ky", BENCH_COUPLINGS)
    def test_frobenius_log_det_on_ising_points(self, kx, ky):
        cfg, _ = ising_cauchy_config(Couplings.from_kx_ky(kx, ky, 128))
        log_det, _ = log_det_and_inverse(elliptic_cauchy_matrix(cfg))
        assert _log_rel(frobenius_log_det(cfg), log_det) < 1e-10

    def test_width_one_phi_psi(self):
        kprime = self.c1.modulus.kprime
        assert phi_matrix(self.c1)[0, 0] == pytest.approx(-kprime, rel=1e-13)
        assert abs(psi_matrix(self.c1)[0, 0]) < 1e-14
        assert phi_inverse_closed(self.c1)[0, 0] == pytest.approx(-1.0 / kprime,
                                                                  rel=1e-12)
        assert np.max(np.abs(psi_phi_inverse_closed(self.c1))) == 0.0

    def test_width_one_chi(self):
        chi, kappa = chi_kappa(self.c1)
        assert chi[0] == pytest.approx(-1.0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_phi_inverse_routes(self, n):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        phi = phi_matrix(c)
        _, inv = det_and_inverse(phi)
        assert np.max(np.abs(phi_inverse_closed(c) @ phi - np.eye(n))) < 1e-10
        assert np.max(np.abs(phi_inverse_closed(c) - inv)) < 1e-10
        assert np.max(np.abs(phi_inverse_trig(c) - inv)) < 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    def test_products_and_diagonals(self, n):
        c = Couplings.from_kx_ky(0.5, 0.8, n)
        phi, psi = phi_matrix(c), psi_matrix(c)
        _, inv = det_and_inverse(phi)
        left = psi_phi_inverse_closed(c)
        right = phi_inverse_psi_closed(c)
        assert np.max(np.abs(left - psi @ inv)) < 1e-10
        assert np.max(np.abs(right - inv @ psi)) < 1e-10
        assert np.max(np.abs(np.diag(left))) == 0.0
        assert np.max(np.abs(np.diag(right))) == 0.0
        # raw theta-product route, kept behind the verification flag
        assert np.max(np.abs(psi_phi_inverse_closed(c, theta_route=True)
                             - psi @ inv)) < 1e-10
        assert np.max(np.abs(phi_inverse_psi_closed(c, theta_route=True)
                             - inv @ psi)) < 1e-10

    @pytest.mark.parametrize("n", [3, 6])
    def test_chi_kappa_routes(self, n):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        chi, kappa = chi_kappa(c)
        chi_t, kappa_t = chi_kappa_trig(c)
        np.testing.assert_allclose(chi, chi_t, atol=1e-12)
        np.testing.assert_allclose(kappa, kappa_t, atol=1e-12)

    def test_sine_product_identity(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 5)
        rng = np.random.default_rng(4)
        for t in rng.uniform(0.1, 2 * math.pi - 0.1, 20):
            lhs = 2.0 ** (c.n - 1) * np.prod(
                np.sin((t - c.sector("p").thetas) / 2.0))
            rhs = (-1.0) ** (c.n - 1) * math.sin(c.n * t / 2.0)
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 80, 256])
    def test_log_det_phi_routes(self, n):
        c = Couplings.from_kx_ky(0.3, 0.9, n)
        log_det, _ = log_det_and_inverse(phi_matrix(c))
        theta_route = log_det_phi_theta(c) - log_det
        assert abs(theta_route.real) < 1e-10
        assert abs(math.remainder(theta_route.imag, 2 * math.pi)) < 1e-10
        trig_route = log_det_phi_squared_trig(c) - 2.0 * log_det
        assert abs(trig_route.real) < 1e-10
        assert abs(math.remainder(trig_route.imag, 2 * math.pi)) < 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    def test_lambda_is_nu_ratio(self, n):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        us = np.concatenate([c.sector("p").u, c.sector("a").u])
        nus = np.concatenate([c.sector("p").nu, c.sector("a").nu])
        for i in range(2 * n):
            for j in range(2 * n):
                assert abs(lambda_uv(us[i], us[j], c)
                           - math.exp((nus[j] - nus[i]) / 2.0)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_point_constraints(self, n):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        res = ising_constraint_residuals(c)
        assert max(res.values()) < 1e-13, res


def test_full_cauchy_suite_below_tolerance():
    for kx, ky, n in [(0.3, 0.9, 5), (0.5, 0.5, 4)]:
        res = cauchy_suite(Couplings.from_kx_ky(kx, ky, n))
        assert max(res.values()) < 1e-10, res
