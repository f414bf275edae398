import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq

from isingff import verification
from isingff.cauchy import b_elliptic, ising_eta, ising_modulus, u_of_theta
from isingff.elliptic import jacobi_sn_cn_dn
from isingff.exceptions import DomainError
from isingff.spectral import (SECTORS, Couplings, CouplingTables, b_of_theta,
                              coupling_tables, gamma_of_theta, log_sinh, nu_of_gamma,
                              quasimomenta, sqrt_b_of_theta)
from isingff.verification import elliptic_suite

C = Couplings.from_kx_ky(0.4, 0.7, 5)


class TestQuasimomenta:
    def test_examples(self):
        np.testing.assert_allclose(quasimomenta("p", 1), [0.0])
        np.testing.assert_allclose(quasimomenta("a", 2),
                                   [math.pi / 2, 3 * math.pi / 2])
        np.testing.assert_allclose(quasimomenta("p", 4),
                                   [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_ordering_and_ranges(self):
        for sector in ("a", "p"):
            th = quasimomenta(sector, 7)
            assert np.all(np.diff(th) > 0)
            assert th[0] >= 0.0 and th[-1] < 2.0 * math.pi

    def test_errors(self):
        with pytest.raises(DomainError):
            quasimomenta("x", 3)
        with pytest.raises(DomainError):
            quasimomenta("a", 0)


class TestCouplings:
    def test_ferromagnetic_region_enforced(self):
        with pytest.raises(DomainError):
            Couplings.from_kx_ky(0.1, 0.2, 4)

    @pytest.mark.parametrize("kx, ky", [(0.0, 0.7), (-0.4, 0.7), (0.4, 0.0), (0.4, -0.7)])
    def test_non_positive_coupling_rejected(self, kx, ky):
        with pytest.raises(DomainError, match="couplings must be positive"):
            Couplings(4, kx, ky)

    def test_strong_coupling_constructs(self):
        # k = 1/s is about 1.5e-10, so k' rounds to 1: only the elliptic
        # routes, which build the modulus, refuse the coupling
        c = Couplings(8, 6, 6)
        assert 0.0 < c.k < 2e-10 and c.k == pytest.approx(1.0 / c.s, rel=1e-14)
        with pytest.raises(DomainError, match="rounds to 1"):
            ising_modulus(c)

    def test_ordering_of_derived_scalars(self):
        assert 0.0 < C.beta < C.alpha < 1.0
        assert C.kx_star < C.ky
        assert 0.0 < C.k < 1.0

    def test_dual_coupling_identity(self):
        # sinh(2 kx*) sinh(2 kx) = 1, hence k = 1/s
        assert C.sinh2kx_star * C.sinh2kx == pytest.approx(1.0, rel=1e-14)
        assert C.k == pytest.approx(1.0 / C.s, rel=1e-14)

    def test_direct_construction_is_the_classmethod(self):
        c = Couplings(n=5, kx=0.4, ky=0.7)
        assert c == C and hash(c) == hash(C)
        assert repr(c) == "Couplings(n=5, kx=0.4, ky=0.7)"
        for name in ("kx_star", "alpha", "beta", "s", "k"):
            assert getattr(c, name) == getattr(C, name)
        with pytest.raises(DomainError, match="ferromagnetic"):
            Couplings(n=8, kx=0.1, ky=0.2)

    @pytest.mark.parametrize("kx, ky", [(0.4, 0.7), (0.3, 0.9), (0.4407, 0.4407), (6.0, 6.0)])
    def test_derived_fields_are_their_formulas(self, kx, ky):
        # each scalar is formed once, here, and read by every other module
        c = Couplings(8, kx, ky)
        assert c.sinh2kx == math.sinh(2.0 * c.kx) and c.sinh2ky == math.sinh(2.0 * c.ky)
        assert c.sinh2kx_star == math.sinh(2.0 * c.kx_star)
        assert c.s == c.sinh2kx * c.sinh2ky and c.k == c.sinh2kx_star / c.sinh2ky
        assert c.xi == abs(1.0 - c.s ** (-2)) ** 0.25
        assert c.gamma_0 == 2.0 * (c.ky - c.kx_star)
        assert c.gamma_pi == 2.0 * (c.ky + c.kx_star)
        assert c.rho2 == math.sinh(2.0 * c.ky) / math.sinh(2.0 * c.kx)
        assert c.log_rho2 == math.log(c.rho2)
        assert CouplingTables._fields == ("a", "p", "ap_ratio", "log_vac2")

    @pytest.mark.parametrize("derived", [{"eta": 0.0}, {"kx_star": 1.0}])
    def test_derived_values_are_not_inputs(self, derived):
        with pytest.raises(TypeError):
            Couplings(n=8, kx=0.4, ky=0.7, **derived)

    @pytest.mark.parametrize("n", [8.5, 8.0, "8"])
    def test_non_integral_width_rejected(self, n):
        with pytest.raises(DomainError, match="integer"):
            Couplings.from_kx_ky(0.4, 0.7, n)

    def test_numpy_integer_width_accepted(self):
        c = Couplings.from_kx_ky(0.4, 0.7, np.int64(8))
        assert c == Couplings.from_kx_ky(0.4, 0.7, 8)
        assert len(c.sector("a").thetas) == 8

    def test_replace_gives_a_consistent_instance(self):
        c = dataclasses.replace(C, n=16)
        fresh = Couplings.from_kx_ky(0.4, 0.7, 16)
        assert c == fresh and c.k == C.k
        assert len(c.sector("p").gamma) == 16
        with pytest.raises(DomainError):
            dataclasses.replace(C, ky=0.05)

    @pytest.mark.parametrize("ky", [0.3, 0.7, 0.9, 1.2])
    def test_period_ratio_near_the_critical_line(self, ky):
        # kx from far above the critical line kx*(kx) = ky down to a few ulps
        # across it: every coupling is either rejected or has K'/K above 0.08
        # (q below 0.78), so the theta series keeps its precision
        kx_c = -0.5 * math.log(math.tanh(ky))
        kxs = [kx_c * (1.0 + d) for d in np.logspace(-17, 0, 200)]
        kxs += list(kx_c + np.arange(-10, 40) * np.spacing(kx_c))
        ratios, rejected = [], 0
        for kx in kxs:
            try:
                mod = ising_modulus(Couplings(8, float(kx), ky))
            except DomainError:
                rejected += 1
                continue
            ratios.append(mod.bigKprime / mod.bigK)
        assert rejected > 0 and min(ratios) < 0.09   # the sweep reaches the edge
        assert min(ratios) > 0.08

    def test_eta_is_solved_on_first_read(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 6)
        ising_eta.cache_clear()
        eta = ising_eta(c)
        assert ising_eta(Couplings.from_kx_ky(0.4, 0.7, 6)) is eta
        assert ising_eta.cache_info().misses == 1
        assert ising_eta(pickle.loads(pickle.dumps(c))) == eta
        assert copy.deepcopy(c) == c

    def test_eta_position_and_residual(self):
        assert -ising_modulus(C).bigKprime / 2.0 < ising_eta(C) < 0.0
        sn2ieta = jacobi_sn_cn_dn(2j * ising_eta(C), ising_modulus(C))[0]
        assert abs(math.sinh(2 * C.kx) - (1j * sn2ieta)) < 1e-11

    @pytest.mark.parametrize("kx, ky", [(0.4, 0.7), (0.3, 0.9), (0.5, 0.5),
                                        (0.05, 1.5), (0.7, 0.8), (1.2, 0.3)])
    def test_eta_is_the_root_of_sc(self, kx, ky):
        c = Couplings.from_kx_ky(kx, ky, 1)
        comp = ising_modulus(c).complementary()

        def sc(v):
            sn, cn, _ = jacobi_sn_cn_dn(v, comp)
            return sn.real / cn.real - c.sinh2kx

        root = brentq(sc, 1e-14 * comp.bigK, (1 - 1e-12) * comp.bigK,
                      xtol=1e-15, rtol=8.9e-16)
        assert abs(-0.5 * root - ising_eta(c)) <= 1e-13 * abs(ising_eta(c))

    def test_eta_vanishes_with_weak_horizontal_coupling(self):
        eta = ising_eta(Couplings.from_kx_ky(0.05, 1.5, 1))
        assert -0.06 < eta < 0.0

    def test_uniformization_satisfies_curve(self):
        rng = np.random.default_rng(1)
        mod = ising_modulus(C)
        rhs = math.cosh(2 * C.kx) * math.cosh(2 * C.ky)
        for u in rng.uniform(-mod.bigK, mod.bigK, 20):
            snp = jacobi_sn_cn_dn(u + 1j * ising_eta(C), mod)[0]
            snm = jacobi_sn_cn_dn(u - 1j * ising_eta(C), mod)[0]
            z = snp / snm
            lam = 1.0 / (mod.k * snp * snm)
            lhs = C.sinh2kx * (lam + 1 / lam) / 2 + C.sinh2ky * (z + 1 / z) / 2
            assert abs(lhs - rhs) < 1e-12


class TestSectorTable:
    FORWARDED = ("thetas", "gamma", "u", "b", "sqrt_b", "nu")
    CURVE = {"u": u_of_theta, "b": b_of_theta, "sqrt_b": sqrt_b_of_theta}

    @pytest.mark.parametrize("sector", SECTORS)
    @pytest.mark.parametrize("field", FORWARDED)
    def test_field_sector_names_forward_to_the_table(self, field, sector):
        # the curve points are not on the table: the name evaluates them
        value = getattr(C, f"{field}_{sector}")
        if field in self.CURVE:
            np.testing.assert_array_equal(
                value, self.CURVE[field](C.sector(sector).thetas, C))
        else:
            assert value is getattr(C.sector(sector), field)

    def test_other_names_raise_attribute_error(self):
        with pytest.raises(AttributeError):
            C.not_a_table
        assert not hasattr(C, "gamma_x")
        # copies compare and hash by (n, kx, ky) and carry the same derived fields
        for same in (copy.deepcopy(C), pickle.loads(pickle.dumps(C)), dataclasses.replace(C)):
            assert same == C and hash(same) == hash(C) and repr(same) == repr(C)
            assert all(getattr(same, f.name) == getattr(C, f.name)
                       for f in dataclasses.fields(C))

    def test_one_table_per_coupling_value(self):
        c1 = Couplings.from_kx_ky(0.4, 0.7, 16)
        c2 = Couplings.from_kx_ky(0.4, 0.7, 16)
        assert c1 is not c2
        for sector in SECTORS:
            assert c1.sector(sector) is c2.sector(sector)
        assert coupling_tables(c1) is coupling_tables(c2)

    def test_ninth_coupling_evicts_the_least_recently_used_table(self):
        coupling_tables.cache_clear()
        cs = [Couplings.from_kx_ky(0.4, 0.7, n) for n in range(2, 11)]
        first = [coupling_tables(c) for c in cs[:8]]
        assert coupling_tables(cs[0]) is first[0]       # cs[1] is now the oldest
        coupling_tables(cs[8])
        info = coupling_tables.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 9, 8, 8)
        assert coupling_tables(cs[0]) is first[0]
        assert coupling_tables(cs[1]) is not first[1]
        assert coupling_tables.cache_info().misses == 10

    def test_unknown_sector(self):
        with pytest.raises(DomainError):
            C.sector("x")

    def test_arrays_are_read_only(self):
        tables = coupling_tables(C)
        arrays = [tables.ap_ratio] + [
            value for t in (tables.a, tables.p) for value in vars(t).values()
            if isinstance(value, np.ndarray)]
        assert len(arrays) == 1 + 2 * 6
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("sector", SECTORS)
    def test_table_matches_the_public_functions(self, sector):
        t = C.sector(sector)
        assert t.sector == sector
        np.testing.assert_array_equal(t.thetas, quasimomenta(sector, C.n))
        np.testing.assert_array_equal(t.gamma, gamma_of_theta(t.thetas, C))
        np.testing.assert_array_equal(t.nu, nu_of_gamma(t.gamma, C))
        assert np.all(np.diag(t.pair_ratio) == 0.0)


class TestGamma:
    def test_endpoints(self):
        assert gamma_of_theta(0.0, C) == pytest.approx(2 * (C.ky - C.kx_star),
                                                       rel=1e-13)
        assert gamma_of_theta(math.pi, C) == pytest.approx(2 * (C.ky + C.kx_star),
                                                           rel=1e-13)

    def test_half_pi_against_elliptic_route(self):
        # independent check through lambda(u) = [k sn(u+i eta) sn(u-i eta)]^{-1}
        c = Couplings.from_kx_ky(0.3, 0.7, 3)
        g = float(gamma_of_theta(math.pi / 2, c))
        expected = math.acosh(math.cosh(2 * c.kx_star) * math.cosh(2 * c.ky))
        assert g == pytest.approx(expected, rel=1e-14)
        u = u_of_theta(math.pi / 2, c)
        snp = jacobi_sn_cn_dn(u + 1j * ising_eta(c), ising_modulus(c))[0]
        snm = jacobi_sn_cn_dn(u - 1j * ising_eta(c), ising_modulus(c))[0]
        lam = 1.0 / (ising_modulus(c).k * snp * snm)
        assert abs(lam - math.exp(g)) < 1e-11

    def test_reflection_symmetry(self):
        th = 1.1
        assert gamma_of_theta(th, C) == pytest.approx(
            float(gamma_of_theta(2 * math.pi - th, C)), rel=1e-14)

    @pytest.mark.parametrize("kx, ky, n, gate", [
        (0.3, 0.9, 64, 1e-15), (0.3, 0.9, 256, 1e-15),
        (0.4, 0.7, 64, 1e-15), (0.4, 0.7, 256, 1e-15),
        (0.5, 0.5, 64, 1e-15), (0.5, 0.5, 256, 1e-15),
        # near the critical line the floor is the rounding of ky - kx* itself
        (0.4407, 0.4407, 32, 1e-11)])
    def test_against_50_digit_dispersion(self, kx, ky, n, gate):
        mp = pytest.importorskip("mpmath")
        c = Couplings.from_kx_ky(kx, ky, n)
        with mp.workdps(50):
            kx_star, k = mp.atanh(mp.exp(-2 * mp.mpf(kx))), mp.mpf(ky)
            ch, sh = mp.cosh(2 * kx_star) * mp.cosh(2 * k), mp.sinh(2 * kx_star) * mp.sinh(2 * k)
            worst = 0.0
            for sector in SECTORS:
                thetas = quasimomenta(sector, n)
                for theta, g in zip(thetas, gamma_of_theta(thetas, c)):
                    ref = mp.acosh(ch - sh * mp.cos(mp.mpf(float(theta))))
                    worst = max(worst, float(abs(g - ref) / ref))
        assert worst <= gate


class TestB:
    def test_endpoint_values(self):
        assert b_of_theta(0.0, C) == pytest.approx(1.0)
        assert abs(b_of_theta(math.pi, C) - 1.0) < 1e-14

    def test_unimodular_and_reciprocal(self):
        rng = np.random.default_rng(2)
        for th in rng.uniform(0, 2 * math.pi, 50):
            b = b_of_theta(th, C)
            assert abs(abs(b) - 1.0) < 1e-14
            assert abs(b * b_of_theta(2 * math.pi - th, C) - 1.0) < 1e-13

    def test_sqrt_branch_positive_real_part(self):
        rng = np.random.default_rng(3)
        for th in rng.uniform(0, 2 * math.pi, 50):
            assert complex(sqrt_b_of_theta(th, C)).real > 0.0

    def test_elliptic_square_root(self):
        rng = np.random.default_rng(4)
        for th in rng.uniform(0, 2 * math.pi, 50):
            root = b_elliptic(u_of_theta(th, C), C)
            assert abs(root**2 - b_of_theta(th, C)) < 1e-13
        assert b_elliptic(0.0, C) == pytest.approx(1.0)
        assert b_elliptic(-ising_modulus(C).bigK, C) == pytest.approx(1.0)


class TestUOfTheta:
    def test_endpoints(self):
        assert abs(u_of_theta(0.0, C) + ising_modulus(C).bigK) < 1e-13
        assert abs(u_of_theta(math.pi, C)) < 1e-13

    def test_reflection(self):
        rng = np.random.default_rng(5)
        for th in rng.uniform(1e-6, math.pi, 50):
            assert abs(u_of_theta(2 * math.pi - th, C) + u_of_theta(th, C)) < 1e-12

    def test_array_matches_elementwise(self):
        c = Couplings.from_kx_ky(0.3, 0.9, 8)
        th = np.linspace(0.0, 2 * math.pi, 25).reshape(5, 5)
        us = u_of_theta(th, c)
        assert us.shape == th.shape
        for t, u in zip(th.ravel(), us.ravel()):
            ref = u_of_theta(float(t), c)
            assert isinstance(ref, float)
            assert abs(u - ref) <= 1e-14 * max(abs(ref), 1.0)

    def test_defining_relation_and_branch(self):
        rng = np.random.default_rng(6)
        gamma_pi = 2 * (C.ky + C.kx_star)
        for th in rng.uniform(0, 2 * math.pi, 100):
            u = u_of_theta(th, C)
            assert -ising_modulus(C).bigK <= u < ising_modulus(C).bigK
            sn, cn, _ = jacobi_sn_cn_dn(u, ising_modulus(C))
            g = float(gamma_of_theta(th, C))
            target = -C.sinh2ky * math.cos(th / 2) / math.sinh((gamma_pi + g) / 2)
            assert abs(sn.real - target) < 1e-13
            assert cn.real > -1e-13


class TestNu:
    def test_single_width_formula(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 1)
        th = 1.3
        g = float(gamma_of_theta(th, c))
        ga = float(gamma_of_theta(math.pi, c))
        gp = float(gamma_of_theta(0.0, c))
        expected = math.log(math.sinh((g + ga) / 2) / math.sinh((g + gp) / 2))
        assert nu_of_gamma(g, c) == pytest.approx(expected, rel=1e-13)

    def test_log_sinh_large_argument(self):
        assert log_sinh(500.0) == pytest.approx(500.0 - math.log(2.0), rel=1e-15)
        assert log_sinh(0.3) == pytest.approx(math.log(math.sinh(0.3)), rel=1e-14)
        mp = pytest.importorskip("mpmath")
        xs = np.array([1e-12, 1e-8, 1e-4, 0.01, 0.3, 1.0, 5.0, 19.999, 20.0,
                       20.001, 35.0, 100.0, 700.0])
        out = log_sinh(xs)
        assert out.shape == xs.shape
        with mp.workdps(40):
            for x, got in zip(xs, out):
                ref = mp.log(mp.sinh(mp.mpf(float(x))))
                assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), x
        assert isinstance(log_sinh(20.0), float)
        assert log_sinh(xs.reshape(13, 1)).shape == (13, 1)

    def test_decays_with_lattice_width(self):
        worst = []
        for n in (4, 8, 16, 32):
            c = Couplings.from_kx_ky(0.4, 0.7, n)
            worst.append(max(np.max(np.abs(c.sector("a").nu)),
                             np.max(np.abs(c.sector("p").nu))))
        assert worst[1] < worst[0] and worst[2] < worst[1] and worst[3] < worst[2]
        assert worst[-1] < 1e-4


def test_elliptic_identity_suite_everywhere_small():
    """All curve identities (quasiperiodic, kernels, auxiliary) below 1e-10."""
    for kx, ky, n in [(0.3, 0.9, 6), (0.7, 0.8, 4)]:
        res = elliptic_suite(Couplings.from_kx_ky(kx, ky, n))
        assert max(res.values()) < 1e-10, res


def test_elliptic_sample_scales_to_the_per_call_draws():
    """The elliptic suite's sample is drawn once and read-only, and its unit
    draws U, scaled as the suite scales them, low + (high - low) * U, are
    numpy's per-call uniform draws bit for bit, at any K."""
    sample = verification._elliptic_sample()
    assert verification._elliptic_sample() is sample and len(sample) == 8
    for arr in sample:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0
    n, angle = verification._ELLIPTIC_POINTS, (1e-3, 2.0 * math.pi - 1e-3)
    for bigk in (math.pi / 2, 1.8751972447858734, 2.2572053268208538, 7.9):
        rng = np.random.default_rng(verification._SEED)
        bounds = [(-bigk * 0.98, bigk * 0.98, 2 * n), ((-bigk, -0.45), (bigk, 0.45), (n, 2)),
                  (-bigk, bigk, (n, 2)), (-bigk / 2, bigk / 2, n)]
        drawn = [rng.uniform(*b) for b in bounds]
        drawn += [rng.uniform((-2.0, -0.4), (2.0, 0.4), (20, 2)), rng.uniform(*angle, n),
                  rng.uniform(*angle, n // 2), rng.uniform(*angle, (n, 2))]
        scaled = [np.asarray(lo) + np.subtract(hi, lo) * unit
                  for (lo, hi, _), unit in zip(bounds, sample)]
        for a, b in zip(scaled + list(sample[4:]), drawn):
            assert a.tobytes() == b.tobytes()
