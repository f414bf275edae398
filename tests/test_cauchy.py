import math

import numpy as np
import pytest

from isingff.cauchy import (EllipticPointConfig, _interpolation_terms,
                            _sn_cn_dn_of_differences, chi_kappa, chi_kappa_trig,
                            closed_products_theta, elliptic_cauchy_matrix,
                            frobenius_inverse, frobenius_log_det,
                            ising_cauchy_config, ising_constraint_residuals,
                            ising_eta, ising_modulus, ising_record, lambda_factors,
                            log_det_phi_squared_trig, log_det_phi_theta,
                            phi_inverse_closed, phi_inverse_psi_closed,
                            phi_inverse_trig, phi_matrix, psi_matrix,
                            psi_phi_inverse_closed, sn_pfaffian_product,
                            theta_interpolation_sum, u_of_theta)
from isingff import elliptic
from isingff.elliptic import EllipticModulus, jacobi_sn_cn_dn, theta
from isingff.exceptions import DomainError, SingularMatrixError
from isingff.linalg import log_det_and_inverse, pfaffian
from isingff.spectral import SECTORS, Couplings, sqrt_b_of_theta
from isingff import verification
from isingff.verification import _cauchy_sample, _log_rel, cauchy_suite, rotation_suite

BENCH_COUPLINGS = [(0.3, 0.9), (0.4, 0.7), (0.5, 0.5)]
MOD = EllipticModulus(0.55)
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

    def test_balancing_sum_on_the_zero_lattice_rejected(self):
        cfg = EllipticPointConfig((0.3,), (0.9,), Q, 0.6)     # x - y + alpha = 0
        with pytest.raises(SingularMatrixError, match="balancing sum"):
            frobenius_inverse(cfg)

    @pytest.mark.parametrize("xs, ys", [((0.1, 0.2), (0.3,)), ([[0.1, 0.2]], (0.3, 0.4)),
                                        ([[[0.1]]], [[[0.3]]])])
    def test_points_of_different_shapes_rejected(self, xs, ys):
        with pytest.raises(DomainError, match="xs and ys must be"):
            EllipticPointConfig(xs, ys, Q, 0.7)


class TestFrobeniusStacks:
    @pytest.mark.parametrize("size", range(1, 9))
    def test_rows_equal_the_single_configs(self, size):
        rng = np.random.default_rng(100 + size)
        shape = (6, size)
        xs = rng.uniform(-1.1, 1.1, shape) + 1j * rng.uniform(-0.2, 0.2, shape)
        ys = rng.uniform(-1.1, 1.1, shape) + 1j * rng.uniform(-0.2, 0.2, shape)
        alphas = rng.uniform(0.3, 1.2, 6) + 1j * rng.uniform(-0.2, 0.2, 6)

        def routes(cfg):
            return (elliptic_cauchy_matrix(cfg), frobenius_log_det(cfg),
                    frobenius_inverse(cfg), _interpolation_terms(cfg.xs, cfg.ys, Q))

        stacked = routes(EllipticPointConfig(xs, ys, Q, alphas))
        assert [np.shape(r) for r in stacked] == [(6, size, size), (6,),
                                                  (6, size, size), (6, size)]
        for row in range(6):
            single = routes(EllipticPointConfig(xs[row], ys[row], Q, alphas[row]))
            assert type(single[1]) is complex
            for one, many in zip(single, stacked):
                np.testing.assert_allclose(many[row], one, rtol=1e-15, atol=0.0)

    def test_shared_shift_and_bad_rows(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1.1, 1.1, (3, 4)) + 0.1j
        ys = rng.uniform(-1.1, 1.1, (3, 4)) - 0.1j
        shared = EllipticPointConfig(xs, ys, Q, 0.7)
        each = EllipticPointConfig(xs, ys, Q, np.full(3, 0.7))
        assert np.array_equal(frobenius_log_det(shared), frobenius_log_det(each))
        assert not shared.xs.flags.writeable
        ys[1, 2] = xs[1, 0] + math.pi      # one row on the zero lattice
        with pytest.raises(DomainError):
            EllipticPointConfig(xs, ys, Q, 0.7)


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

    def test_point_sets_of_different_lengths_rejected(self):
        with pytest.raises(DomainError, match="same length"):
            theta_interpolation_sum([0.1, 0.2], [0.3], Q)


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
        kprime = ising_modulus(self.c1).kprime
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
        _, inv = log_det_and_inverse(phi)
        assert np.max(np.abs(phi_inverse_closed(c) @ phi - np.eye(n))) < 1e-10
        assert np.max(np.abs(phi_inverse_closed(c) - inv)) < 1e-10
        assert np.max(np.abs(phi_inverse_trig(c) - inv)) < 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    def test_products_and_diagonals(self, n):
        c = Couplings.from_kx_ky(0.5, 0.8, n)
        phi, psi = phi_matrix(c), psi_matrix(c)
        _, inv = log_det_and_inverse(phi)
        left = psi_phi_inverse_closed(c)
        right = phi_inverse_psi_closed(c)
        assert np.max(np.abs(left - psi @ inv)) < 1e-10
        assert np.max(np.abs(right - inv @ psi)) < 1e-10
        assert np.max(np.abs(np.diag(left))) == 0.0
        assert np.max(np.abs(np.diag(right))) == 0.0
        # raw theta-product route, the cross-check of both products
        left_theta, right_theta = closed_products_theta(c)
        assert np.max(np.abs(left_theta - psi @ inv)) < 1e-10
        assert np.max(np.abs(right_theta - inv @ psi)) < 1e-10

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
        lam = np.concatenate(lambda_factors(c))
        nus = np.concatenate([c.sector("p").nu, c.sector("a").nu])
        for i in range(2 * n):
            for j in range(2 * n):
                assert abs(lam[i] / lam[j]
                           - math.exp((nus[j] - nus[i]) / 2.0)) < 1e-10

    def test_sn_grids_are_shared_and_read_only(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 5)
        grids = _sn_cn_dn_of_differences(c, "p", "a")
        again = _sn_cn_dn_of_differences(c, "p", "a")
        assert all(a is b for a, b in zip(grids, again))
        for grid in grids:
            assert not grid.flags.writeable
            with pytest.raises(ValueError):
                grid[0, 0] = 0.0
        # the matrices built from a grid are the caller's own
        psi = psi_matrix(c)
        psi[0, 0] = 5.0
        assert psi_matrix(c)[0, 0] != 5.0

    @pytest.mark.parametrize("kx, ky", BENCH_COUPLINGS)
    def test_record_points_match_the_public_functions(self, kx, ky):
        c = Couplings.from_kx_ky(kx, ky, 7)
        record = ising_record(c)
        assert ising_record(Couplings.from_kx_ky(kx, ky, 7)) is record
        for sector in SECTORS:
            thetas = c.sector(sector).thetas
            np.testing.assert_array_equal(record["u"][sector], u_of_theta(thetas, c))
            np.testing.assert_array_equal(record["sqrt_b"][sector],
                                          sqrt_b_of_theta(thetas, c))
        cfg, _ = ising_cauchy_config(c)
        scale = math.pi / (2.0 * ising_modulus(c).bigK)
        np.testing.assert_array_equal(cfg.xs, record["u"]["p"] * scale)
        np.testing.assert_array_equal(cfg.ys, record["u"]["a"] * scale)
        assert ising_cauchy_config(c)[0] is cfg

    def test_record_arrays_are_read_only(self):
        c = Couplings.from_kx_ky(0.5, 0.5, 4)
        ising_record.cache_clear()
        rotation_suite(c)  # reads Phi^-1, log det Phi and, through them, the rest
        cauchy_suite(c)

        def arrays(value):
            """Every array held in a record entry."""
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, EllipticPointConfig):
                return [value.xs, value.ys]
            if isinstance(value, dict):
                value = tuple(value.values())
            return [a for v in value for a in arrays(v)] if isinstance(value, tuple) else []

        found = arrays(ising_record(c))
        # u, sqrt(b), x and y, three sn/cn/dn grids, chi and kappa, L, Phi^-1
        assert len(found) == 4 + 2 + 9 + 2 + 2 + 1
        for arr in found:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_record_is_built_without_theta1(self, monkeypatch):
        # the curve points and the Cauchy configuration evaluate no theta_1;
        # the grids and closed forms, built on first read, do
        c = Couplings.from_kx_ky(0.4, 0.7, 6)
        ising_eta(c)   # solved on first read, with theta_1
        ising_record.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("theta_1 evaluated")

        monkeypatch.setattr(elliptic, "_theta1", refuse)
        ising_cauchy_config(c)
        ising_constraint_residuals(c)
        assert set(ising_record(c)["u"]) == set(SECTORS)
        with pytest.raises(AssertionError, match="theta_1 evaluated"):
            _sn_cn_dn_of_differences(c, "p", "p")

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_point_constraints(self, n):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        res = ising_constraint_residuals(c)
        assert max(res.values()) < 1e-13, res


def test_full_cauchy_suite_below_tolerance():
    for kx, ky, n in [(0.3, 0.9, 5), (0.5, 0.5, 4)]:
        res = cauchy_suite(Couplings.from_kx_ky(kx, ky, n))
        assert max(res.values()) < 1e-10, res


def _drawn_per_call():
    """The Cauchy suite's points as each call drew them before the sample was
    kept: one generator from the seed, in the same order, the Frobenius
    configurations grouped by size in order of first appearance."""
    rng = np.random.default_rng(verification._SEED)
    by_size = {}
    for _ in range(verification._CAUCHY_CONFIGS):
        size = int(rng.integers(1, verification._CAUCHY_MAX_SIZE + 1))
        xs = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        ys = rng.uniform(-1.2, 1.2, size) + 1j * rng.uniform(-0.2, 0.2, size)
        alpha = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.2))
        pts = np.concatenate([xs, ys])
        if np.min(np.abs(pts[:, None] - pts[None, :]) + np.eye(2 * size)) >= 0.1:
            by_size.setdefault(size, []).append((xs, ys, alpha))
    frobenius = [tuple(np.array(v) for v in zip(*rows)) for rows in by_size.values()]
    interpolation = []
    for m in range(2, 7):
        zs = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp = rng.uniform(-1, 1, m) + 1j * rng.uniform(-0.3, 0.3, m)
        zp[-1] += zs.sum() - zp.sum()
        interpolation.append((zs, zp))
    pfaffian_points = [np.linspace(-0.8, 0.8, size) + rng.uniform(-0.03, 0.03, size) / size
                       for size in (2, 4, 6, 8, 10)]
    sine = rng.uniform(0.1, 2.0 * math.pi - 0.1, 20)
    return frobenius, interpolation, pfaffian_points, sine


class TestCauchySample:
    def test_equals_the_per_call_draws(self):
        sample = _cauchy_sample()
        frobenius, interpolation, pfaffian_points, sine = _drawn_per_call()
        assert [xs.shape[1] for xs, _, _ in sample.frobenius] \
            == [xs.shape[1] for xs, _, _ in frobenius]
        for kept, drawn in zip(sample.frobenius, frobenius):
            for a, b in zip(kept, drawn):
                np.testing.assert_array_equal(a, b, strict=True)
        assert len(sample.interpolation) == len(interpolation)
        for kept, drawn in zip(sample.interpolation, interpolation):
            for a, b in zip(kept, drawn):
                np.testing.assert_array_equal(a, b, strict=True)
        assert len(sample.pfaffian) == len(pfaffian_points)
        for a, b in zip(sample.pfaffian, pfaffian_points):
            np.testing.assert_array_equal(a, b, strict=True)
        np.testing.assert_array_equal(sample.sine, sine, strict=True)

    def test_drawn_once_and_read_only(self):
        sample = _cauchy_sample()
        assert _cauchy_sample() is sample
        arrays = [a for group in sample.frobenius + sample.interpolation for a in group]
        arrays += [*sample.pfaffian, sample.sine]
        assert len(arrays) == 3 * len(sample.frobenius) + 2 * 5 + 5 + 1
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_suite_repeats_bit_for_bit_across_couplings(self):
        def bits(res):
            return {k: float(v).hex() for k, v in res.items()}

        first = bits(cauchy_suite(Couplings.from_kx_ky(0.3, 0.9, 6)))
        other = bits(cauchy_suite(Couplings.from_kx_ky(0.4, 0.7, 6)))
        again = bits(cauchy_suite(Couplings.from_kx_ky(0.3, 0.9, 6)))
        assert again == first
        assert other != first
