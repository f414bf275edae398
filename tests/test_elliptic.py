import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj

from isingff import elliptic
from isingff.cauchy import ising_modulus
from isingff.elliptic import (EllipticModulus, complete_elliptic_K, incomplete_elliptic_F,
                              inverse_sn_real, jacobi_sn_cn_dn, theta)
from isingff.exceptions import DomainError
from isingff.spectral import Couplings


def elliptic_K_quadrature(k: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral.

    Integrated in the substituted variable t = sin(phi), which removes the
    endpoint singularity without changing the value.
    """
    val, err = quad(lambda phi: 1.0 / math.sqrt(1.0 - (k * math.sin(phi)) ** 2),
                    0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    return val


class TestCompleteEllipticK:
    def test_small_modulus_limit(self):
        assert abs(complete_elliptic_K(1e-8) - math.pi / 2.0) < 1e-12

    def test_self_complementary_point(self):
        k = 1.0 / math.sqrt(2.0)
        kprime = math.sqrt(1.0 - k * k)
        assert complete_elliptic_K(k) == pytest.approx(complete_elliptic_K(kprime),
                                                       rel=1e-15)

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.8, 0.99])
    def test_against_quadrature(self, k):
        assert abs(complete_elliptic_K(k) - elliptic_K_quadrature(k)) < 1e-12

    @pytest.mark.parametrize("k", [0.0, 1.0, -0.3, 1.5])
    def test_domain(self, k):
        with pytest.raises(DomainError):
            complete_elliptic_K(k)


class TestTheta:
    @pytest.mark.parametrize("q", [0.01, 0.2, 0.6])
    def test_theta1_odd_at_zero(self, q):
        assert theta(1, 0.0, q) == 0.0

    def test_theta1_half_pi_is_theta2_zero(self):
        q = 0.3
        assert theta(1, math.pi / 2.0, q) == pytest.approx(theta(2, 0.0, q), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-3.0, 3.0), y=st.floats(-0.5, 0.5),
           q=st.floats(0.02, 0.85))
    def test_quasiperiodicity(self, x, y, q):
        z = complex(x, y)
        tau = 1j * (-math.log(q)) / math.pi
        lhs = theta(1, z + math.pi * tau, q)
        rhs = -cmath.exp(-1j * math.pi * tau - 2j * z) * theta(1, z, q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_theta1_at_half_tau(self):
        q = 0.17
        tau = 1j * (-math.log(q)) / math.pi
        lhs = theta(1, math.pi * tau / 2.0, q)
        rhs = 1j * cmath.exp(-1j * math.pi * tau / 4.0) * theta(4, 0.0, q)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0.01, 0.2, 0.6, 0.85])
    def test_array_matches_elementwise(self, index, q):
        rng = np.random.default_rng(11)
        z = (rng.uniform(-4.0, 4.0, (3, 7)) + 1j * rng.uniform(-2.0, 2.0, (3, 7)))
        z[0, 0] = 0.0
        vals = theta(index, z, q)
        assert vals.shape == z.shape
        for zi, vi in zip(z.ravel(), vals.ravel()):
            ref = theta(index, complex(zi), q)
            assert isinstance(ref, complex)
            assert abs(vi - ref) <= 1e-14 * max(abs(ref), 1e-300)

    def test_bad_index_and_nome(self):
        with pytest.raises(DomainError):
            theta(5, 0.1, 0.3)
        with pytest.raises(DomainError):
            theta(1, 0.1, 0.9999)
        with pytest.raises(DomainError):
            theta(1, 0.1, 0.95)     # the series has no correct digit left there
        with pytest.raises(DomainError):
            theta(1, 0.1, -0.2)


# Largest relative error against mpmath.jtheta allowed at each nome: the
# errors measured before the Clenshaw sum of theta_1 (at most 6.7e-15 for
# q <= 0.6, 3.5e-13 at 0.78, 4.9e-11 at 0.85), rounded up.  0.859 sits just
# below elliptic._Q_MAX, which is set where the error reaches 1e-10.
THETA_BOUNDS = {0.003: 1e-14, 0.05: 1e-14, 0.3: 1e-14, 0.6: 1e-14, 0.78: 5e-13,
                0.85: 5e-11, 0.859: 1e-10}
# pi/2 is not a double, so theta_2(z) = theta_1(z + pi/2) is evaluated ~1e-16
# off in its argument: 6e-12 relative at 1e-5 from the zero of theta_2
THETA2_NEAR_ZERO_BOUND = 1e-11


def theta_test_points(q: float) -> dict[str, np.ndarray]:
    """Arguments across and beyond the strip |Im z| <= pi|tau|/2, within 1e-3
    of the zero of theta_1, and within 1e-3 of pi/2 (the zero of theta_2)."""
    pit = -math.log(q)
    rng = np.random.default_rng(7)
    radii = [r * np.exp(1j * a) for r in (1e-3, 1e-7, 1e-12) for a in (0.0, 0.9, math.pi / 2)]
    near = [r * np.exp(1j * a) for r in (1e-3, 1e-4, 1e-5) for a in (0.0, 2.0, -math.pi / 2)]
    return {"strip": rng.uniform(-4.0, 4.0, 24) + 1j * pit * rng.uniform(-2.2, 2.2, 24),
            "small": np.array(radii), "half_pi": math.pi / 2 + np.array(near)}


class TestThetaAgainstMpmath:
    @pytest.mark.parametrize("q", sorted(THETA_BOUNDS))
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_relative_error(self, index, q):
        mpmath = pytest.importorskip("mpmath")
        assert q < elliptic._Q_MAX
        for name, z in theta_test_points(q).items():
            with mpmath.workdps(50):
                ref = np.array([complex(mpmath.jtheta(index, mpmath.mpc(v.real, v.imag),
                                                      mpmath.mpf(q))) for v in z])
            err = np.max(np.abs(theta(index, z, q) - ref) / np.abs(ref))
            bound = THETA_BOUNDS[q]
            if index == 2 and name == "half_pi":
                bound = max(bound, THETA2_NEAR_ZERO_BOUND)
            assert err <= bound, (name, err)


class TestJacobiAgainstMpmath:
    # the moduli Couplings reaches toward the critical line: kx = kx_c (1 + eps)
    # with sinh(2 kx_c) sinh(2 ky) = 1 gives q from about 0.09 (eps = 0.1) to
    # 0.75 (eps = 1e-14); the largest error measured is 4e-14
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6, 1e-10, 1e-14])
    @pytest.mark.parametrize("ky", [0.3, 0.7, 0.9, 1.2])
    def test_error_near_criticality(self, ky, eps):
        mpmath = pytest.importorskip("mpmath")
        kx_c = -0.5 * math.log(math.tanh(ky))
        mod = ising_modulus(Couplings(8, kx_c * (1.0 + eps), ky))
        big_k, big_kp = mod.bigK, mod.bigKprime
        rng = np.random.default_rng(11)
        # real u, and complex u in the period rectangle, |Im u| <= 0.9 K'
        u = np.concatenate([rng.uniform(-2.0 * big_k, 2.0 * big_k, 20),
                            rng.uniform(-2.0 * big_k, 2.0 * big_k, 20)
                            + 1j * rng.uniform(-0.9 * big_kp, 0.9 * big_kp, 20)])
        with mpmath.workdps(40):
            m = mpmath.mpf(mod.k) ** 2
            for name, value in zip(("sn", "cn", "dn"), jacobi_sn_cn_dn(u, mod)):
                ref = np.array([complex(mpmath.ellipfun(name, mpmath.mpc(v.real, v.imag), m=m))
                                for v in u])
                err = np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref)))
                assert err < 1e-12, (name, err)


class TestJacobiFunctions:
    mod = EllipticModulus(0.8)

    def test_origin(self):
        sn, cn, dn = jacobi_sn_cn_dn(0.0, self.mod)
        assert sn == 0.0
        assert abs(cn - 1.0) < 1e-15
        assert abs(dn - 1.0) < 1e-15

    def test_quarter_period(self):
        sn, cn, dn = jacobi_sn_cn_dn(self.mod.bigK, self.mod)
        assert abs(sn - 1.0) < 1e-14
        assert abs(cn) < 1e-14
        assert abs(dn - self.mod.kprime) < 1e-14

    def test_algebraic_identities_complex(self):
        rng = np.random.default_rng(5)
        k2 = self.mod.k ** 2
        for _ in range(50):
            u = complex(rng.uniform(-2, 2), rng.uniform(-0.8, 0.8))
            sn, cn, dn = jacobi_sn_cn_dn(u, self.mod)
            assert abs(sn**2 + cn**2 - 1.0) < 1e-12
            assert abs(dn**2 + k2 * sn**2 - 1.0) < 1e-12

    def test_real_axis_against_scipy(self):
        rng = np.random.default_rng(6)
        for u in rng.uniform(-3.0, 3.0, 200):
            sn, cn, dn = jacobi_sn_cn_dn(u, self.mod)
            s, c, d, _ = ellipj(u, self.mod.k ** 2)
            assert abs(sn - s) < 1e-13
            assert abs(cn - c) < 1e-13
            assert abs(dn - d) < 1e-13

    def test_half_period_shifts(self):
        rng = np.random.default_rng(7)
        two_k = 2.0 * self.mod.bigK
        for u in rng.uniform(-self.mod.bigK, self.mod.bigK, 200):
            sn0, cn0, dn0 = jacobi_sn_cn_dn(u, self.mod)
            sn1, cn1, dn1 = jacobi_sn_cn_dn(u + two_k, self.mod)
            assert abs(sn1 + sn0) < 1e-11
            assert abs(cn1 + cn0) < 1e-11
            assert abs(dn1 - dn0) < 1e-11

    def test_dn_addition_formula(self):
        rng = np.random.default_rng(8)
        k2 = self.mod.k ** 2
        for _ in range(100):
            u, v = rng.uniform(-self.mod.bigK, self.mod.bigK, 2)
            snu, cnu, dnu = (x.real for x in jacobi_sn_cn_dn(u, self.mod))
            snv, cnv, dnv = (x.real for x in jacobi_sn_cn_dn(v, self.mod))
            lhs = jacobi_sn_cn_dn(u - v, self.mod)[2].real
            rhs = (dnu * dnv + k2 * snu * cnu * snv * cnv) \
                / (1.0 - k2 * snu**2 * snv**2)
            assert abs(lhs - rhs) < 1e-11

    def test_sn_doubling_formula(self):
        rng = np.random.default_rng(9)
        k2 = self.mod.k ** 2
        for u in rng.uniform(-0.5 * self.mod.bigK, 0.5 * self.mod.bigK, 100):
            snu, cnu, dnu = (x.real for x in jacobi_sn_cn_dn(u, self.mod))
            lhs = jacobi_sn_cn_dn(2.0 * u, self.mod)[0].real
            rhs = 2.0 * snu * cnu * dnu / (1.0 - k2 * snu**4)
            assert abs(lhs - rhs) < 1e-11

    def test_array_matches_elementwise(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(-3.0, 3.0, (4, 5)) + 1j * rng.uniform(-0.8, 0.8, (4, 5))
        arrays = jacobi_sn_cn_dn(u, self.mod)
        for which, vals in enumerate(arrays):
            assert vals.shape == u.shape
            for ui, vi in zip(u.ravel(), vals.ravel()):
                ref = jacobi_sn_cn_dn(complex(ui), self.mod)[which]
                assert abs(vi - ref) <= 1e-14 * abs(ref)

    def test_one_pole_in_an_array_is_reported(self):
        u = np.array([0.1, 0.5 + 0.2j, 2 * self.mod.bigK + 1j * self.mod.bigKprime, -0.3])
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(u, self.mod)

    def test_pole_proximity_reported(self):
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(1j * self.mod.bigKprime, self.mod)
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(2 * self.mod.bigK + 1j * self.mod.bigKprime + 1e-13,
                            self.mod)


MODULI_TO_ONE = [0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999]


class TestIncompleteF:
    @pytest.mark.parametrize("k", MODULI_TO_ONE)
    def test_against_a_40_digit_reference(self, k):
        mpmath = pytest.importorskip("mpmath")
        kprime = math.sqrt((1.0 - k) * (1.0 + k))
        phi = np.linspace(-math.pi / 2.0, math.pi / 2.0, 61)
        f = incomplete_elliptic_F(phi, kprime)
        with mpmath.workdps(40):
            m = 1 - mpmath.mpf(kprime) ** 2     # the modulus whose complement is kprime
            ref = np.array([float(mpmath.ellipf(mpmath.mpf(p), m)) for p in phi])
        assert f[[0, -1]].tolist() == [-f[-1], f[-1]]    # the endpoints, odd in phi
        assert np.all(np.abs(f - ref) <= 1e-15 * np.abs(ref))


class TestInverseSn:
    mod = EllipticModulus(0.6)

    @pytest.mark.parametrize("k", MODULI_TO_ONE)
    def test_roundtrip_near_k_one(self, k):
        mod = EllipticModulus(k)
        s = np.linspace(-1.0, 1.0, 41)
        u = inverse_sn_real(s, mod)
        sn, cn, _ = jacobi_sn_cn_dn(u, mod)
        assert np.max(np.abs(sn - s)) < 1e-12
        assert np.all(cn.real >= -1e-15)

    def test_endpoints(self):
        assert inverse_sn_real(0.0, self.mod) == 0.0
        assert abs(inverse_sn_real(1.0, self.mod) - self.mod.bigK) < 1e-12

    def test_roundtrip_against_forward_sn(self):
        u = inverse_sn_real(0.37, self.mod)
        assert abs(jacobi_sn_cn_dn(u, self.mod)[0] - 0.37) < 1e-12
        assert jacobi_sn_cn_dn(u, self.mod)[1].real >= 0.0

    def test_branch_and_range(self):
        rng = np.random.default_rng(10)
        for s in rng.uniform(-1, 1, 50):
            u = inverse_sn_real(s, self.mod)
            assert -self.mod.bigK <= u <= self.mod.bigK
            sn, cn, _ = jacobi_sn_cn_dn(u, self.mod)
            assert abs(sn - s) < 1e-12
            assert cn.real >= -1e-15

    def test_array_matches_elementwise(self):
        s = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
        u = inverse_sn_real(s, self.mod)
        assert u.shape == s.shape
        assert [inverse_sn_real(float(x), self.mod) for x in s.ravel()] == list(u.ravel())

    def test_domain(self):
        with pytest.raises(DomainError):
            inverse_sn_real(1.5, self.mod)
        with pytest.raises(DomainError):
            inverse_sn_real(np.array([0.2, -1.5]), self.mod)


class TestEllipticModulus:
    @pytest.mark.parametrize("k", [0.2, 0.59, 0.8, 0.97])
    def test_invariants(self, k):
        mod = EllipticModulus(k)
        res = mod.self_check()
        assert res["k2_plus_kprime2"] < 1e-15
        assert res["nome"] < 1e-15
        assert res["k_from_thetas"] < 1e-13
        assert res["twoK_from_thetas"] < 1e-13
        assert 0.0 < mod.q < 1.0

    def test_complementary_swaps_periods(self):
        mod = EllipticModulus(0.3)
        comp = mod.complementary()
        assert comp.bigK == pytest.approx(mod.bigKprime, rel=1e-15)
        assert comp.bigKprime == pytest.approx(mod.bigK, rel=1e-15)

    def test_domain(self):
        for k in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(DomainError):
                EllipticModulus(k)
        with pytest.raises(DomainError):
            EllipticModulus(1.5)

    def test_k_is_the_only_input(self):
        mod = EllipticModulus(0.8)
        assert mod == EllipticModulus(0.8)
        assert hash(mod) == hash(EllipticModulus(0.8))
        assert repr(mod) == "EllipticModulus(k=0.8)"
        assert mod.tau == 1j * mod.bigKprime / mod.bigK
        for derived in ("kprime", "bigK", "bigKprime", "tau", "q"):
            with pytest.raises(TypeError):
                EllipticModulus(k=0.8, **{derived: getattr(mod, derived)})
