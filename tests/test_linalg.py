import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingff.exceptions import DomainError, SingularMatrixError
from isingff.formfactors import SpecStack, assemble_r_matrix
from isingff.linalg import log_det_and_inverse, pfaffian
from isingff.spectral import Couplings
from isingff.verification import _spec_groups


def rank_four_skew():
    """An integer 6 x 6 skew matrix of rank 4: Pf = 0, which the elimination
    reaches only through its pivot floor (1.7e-13 without it)."""
    v, w, x, y = np.array([[1.0, 2.0, 3.0, 4.0, 0.0, 1.0], [0.0, 1.0, -1.0, 2.0, 3.0, 1.0],
                           [2.0, -1.0, 0.0, 1.0, 1.0, 5.0], [1.0, 1.0, 2.0, -3.0, 0.0, 2.0]])
    return np.outer(v, w) - np.outer(w, v) + np.outer(x, y) - np.outer(y, x)


def random_skew(n, rng, complex_entries=True):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return a - a.T


def second_of_two(m):
    """A stack of two: a random skew matrix of ``m``'s shape, then ``m``, so
    that ``m`` runs in a stack and is not its first matrix."""
    rows, cols = m.shape
    first = random_skew(rows, np.random.default_rng(9)) if rows == cols else np.zeros(m.shape)
    return np.stack([first, m])


class TestPfaffian:
    def test_two_by_two_definition(self):
        assert pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == 2.5 + 0.0j

    def test_four_by_four_expansion(self):
        m = random_skew(4, np.random.default_rng(0))
        expected = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
        assert abs(pfaffian(m) - expected) < 1e-13 * abs(expected)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_square_is_determinant(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            m = random_skew(n, rng)
            log_det, _ = log_det_and_inverse(m)
            assert abs(pfaffian(m) ** 2 / np.exp(log_det) - 1.0) < 1e-10

    def test_odd_dimension_and_empty(self):
        assert pfaffian(random_skew(5, np.random.default_rng(1))) == 0.0
        assert pfaffian(np.zeros((0, 0))) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_sign(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        m = random_skew(n, rng, complex_entries=False)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        sign = round(np.linalg.det(p))
        assert abs(pfaffian(p @ m @ p.T) - sign * pfaffian(m)) < 1e-12

    def test_asymmetry_rejected(self):
        with pytest.raises(DomainError):
            pfaffian(np.array([[0.0, 1.0], [-1.0 + 1e-8, 0.0]]))
        with pytest.raises(DomainError):
            pfaffian(np.ones((2, 3)))
        with pytest.raises(DomainError, match="not antisymmetric"):
            pfaffian(second_of_two(np.array([[0.0, 1.0], [-1.0 + 1e-8, 0.0]])))
        with pytest.raises(DomainError):
            pfaffian(second_of_two(np.ones((2, 3))))

    def test_numerically_singular_gives_zero(self):
        # rank-2 skew matrix embedded in dimension 4: the expansion cancels
        # exactly
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([0.0, 1.0, -1.0, 2.0])
        m = np.outer(v, w) - np.outer(w, v)
        assert pfaffian(m) == 0.0
        pfs = pfaffian(second_of_two(m))
        assert pfs[1] == 0.0 and pfs[0] != 0.0
        # a rank-4 6 x 6 stops at the pivot floor
        assert pfaffian(rank_four_skew()) == 0.0
        pfs = pfaffian(second_of_two(rank_four_skew()))
        assert pfs[1] == 0.0 and pfs[0] != 0.0

    # past double range the pfaffian raises, naming log10|Pf|, with no
    # RuntimeWarning (which the test configuration turns into an error)
    def test_overflow_raises(self):
        m = random_skew(512, np.random.default_rng(0))
        with pytest.raises(DomainError, match=r"log10\|Pf\| = 3\d\d\."):
            pfaffian(m)
        # Pf = 1e616: the elimination overflows an entry, which is no
        # pivot below the floor
        with pytest.raises(DomainError, match=r"log10\|Pf\| = 616\.0"):
            pfaffian(1e308 * np.triu(np.ones((4, 4)), 1) - 1e308 * np.tril(np.ones((4, 4)), -1))
        with pytest.raises(DomainError, match=r"log10\|Pf\| = 616\.0"):
            pfaffian(second_of_two(1e308 * np.triu(np.ones((4, 4)), 1)
                                   - 1e308 * np.tril(np.ones((4, 4)), -1)))

    def test_small_four_by_four_has_no_floor(self):
        # the elimination's absolute pivot floor, 1e-13 x max(1, .), gave 0
        m = 1e-100 * random_skew(4, np.random.default_rng(5))
        assert pfaffian(m) == expansion_pfaffian(m) != 0.0
        assert abs(pfaffian(m) / (1e-200 * pfaffian(1e100 * m)) - 1.0) < 1e-15
        assert pfaffian(second_of_two(m))[1] == expansion_pfaffian(m)

    def test_four_by_four_cancelling_past_overflow_has_its_value(self):
        # a01 a23 and a02 a13 overflow and cancel; Pf = a03 a12 = 1e300
        m = np.zeros((4, 4))
        m[0, 1], m[2, 3], m[0, 2], m[1, 3], m[0, 3], m[1, 2] = 4 * (1e200,) + 2 * (1e150,)
        m = m - m.T
        assert abs(pfaffian(m) / 1e300 - 1.0) < 1e-15
        assert abs(pfaffian(second_of_two(m))[1] / 1e300 - 1.0) < 1e-15

    def test_four_by_four_underflow_raises(self):
        # every product of two entries is below the smallest subnormal
        m = 1e-170 * random_skew(4, np.random.default_rng(5))
        assert expansion_pfaffian(m) == 0.0
        with pytest.raises(DomainError, match=r"log10\|Pf\| = -33\d\."):
            pfaffian(m)
        with pytest.raises(DomainError, match=r"log10\|Pf\| = -33\d\."):
            pfaffian(second_of_two(m))

    def test_four_by_four_mixed_scale_underflow_raises(self):
        # Pf = a01 a23 = 1e-400: scaling by the largest entry, a02 = 1, leaves
        # that product below the smallest subnormal, which is no cancellation
        m = np.zeros((4, 4))
        m[0, 1] = m[2, 3] = 1e-200
        m[0, 2] = 1.0
        m = m - m.T
        with pytest.raises(DomainError, match=r"log10\|Pf\| = -400\.0"):
            pfaffian(m)
        with pytest.raises(DomainError, match=r"log10\|Pf\| = -400\.0"):
            pfaffian(second_of_two(m))

    def test_underflow_raises_instead_of_zero(self):
        # every pivot is far above the floor, but their product is below 1e-323
        m = 1e-5 * random_skew(200, np.random.default_rng(0))
        with pytest.raises(DomainError, match=r"log10\|Pf\| = -3\d\d\."):
            pfaffian(m)
        with pytest.raises(DomainError):
            pfaffian(np.stack([random_skew(200, np.random.default_rng(1)), m]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_rejected(self, bad):
        m = random_skew(4, np.random.default_rng(2))
        m[2, 0] = bad      # below the diagonal, which elimination never reads
        with pytest.raises(DomainError, match="non-finite"):
            pfaffian(m)
        with pytest.raises(DomainError, match="non-finite"):
            pfaffian(second_of_two(m))


def scalar_pfaffian(m):
    """The one-matrix Parlett-Reid pfaffian that the stacked one replaced,
    kept as the reference for bit-identical results."""
    a = np.asarray(m).astype(complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2 == 1:
        return 0.0 + 0.0j
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:
            a[[k + 1, kp], k:] = a[[kp, k + 1], k:]
            a[k:, [k + 1, kp]] = a[k:, [kp, k + 1]]
            pf = -pf
        pivot = a[k + 1, k]
        if abs(pivot) <= 1e-13 * max(1.0, float(np.max(np.abs(a[k:, k:])))):
            return 0.0 + 0.0j
        pf *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2:] / a[k, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, a[k + 2:, k + 1])
            a[k + 2:, k + 2:] -= np.outer(a[k + 2:, k + 1], tau)
    return complex(pf)


def expansion_pfaffian(m, number=complex):
    """Pf of a k x k matrix with k <= 4 by its expansion in entries, each
    entry made a ``number``: in Python complex arithmetic, the bit reference
    of the kernel's expansion."""
    a = [[number(x) for x in row] for row in m]
    if len(a) % 2:
        return 0j
    if len(a) < 4:
        return a[0][1] if a else 1.0 + 0.0j
    return a[0][1] * a[2][3] - a[0][2] * a[1][3] + a[0][3] * a[1][2]


def pivoting_skew_stack(size, n, rng):
    """Random complex skew matrices whose first subdiagonal is small, so that
    every elimination step swaps rows."""
    a = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    i = np.arange(n - 1)
    a[:, i + 1, i] *= 1e-3
    return a - np.swapaxes(a, 1, 2)


def paired_r_stack(kxy, size, pairs, rng, n=256):
    """R at N=``n`` of ``size`` specs at random sites, each with ``pairs`` bra
    momenta and a ket momentum at distance pi/N from each."""
    offset = rng.integers(0, 2, (size, 1))
    bra = np.sort([2 * rng.choice(n // 2, pairs, replace=False) for _ in range(size)],
                  axis=1) + offset
    ket = np.sort((bra + rng.integers(0, 2, bra.shape)) % n, axis=1)
    return assemble_r_matrix(SpecStack(rng.integers(0, n, size), bra, ket),
                             Couplings.from_kx_ky(*kxy, n))


COUPLINGS = ((0.3, 0.9), (0.4, 0.7), (0.5, 0.5))
# the spec at (0.4, 0.7), N=256 whose pivot falls below the floor: Pf = 0
PFAFFIAN_ZERO = (184, (13, 56, 72, 75, 143, 153, 168, 193, 208, 221, 222, 233))


def pfaffian_stack(case, rng):
    """The stack of a bit-pin case: random skew matrices of size ``case``, or
    R matrices at N=256 of the pfaffian-zero spec, of bra = ket = 0..23, or
    of paired specs at the coupling ``case``."""
    if isinstance(case, int):
        return np.concatenate([pivoting_skew_stack(20, case, rng),
                               random_skew(case, rng)[None]])
    if case == "pfaffian-zero":
        zero = SpecStack(PFAFFIAN_ZERO[0], np.array([PFAFFIAN_ZERO[1]]), np.zeros((1, 0), int))
        r = assemble_r_matrix(zero, Couplings.from_kx_ky(0.4, 0.7, 256))
        return np.concatenate([r, paired_r_stack((0.4, 0.7), 4, 6, rng)])
    if case == "block-24":
        block = np.tile(np.arange(24), (3, 1))
        return assemble_r_matrix(SpecStack(np.array([0, 1, 128]), block, block),
                                 Couplings.from_kx_ky(0.4, 0.7, 256))
    return paired_r_stack(case, 6, 8, rng)


def bits(z):
    return z.real, z.imag, np.signbit(z.real), np.signbit(z.imag)


class TestStackedPfaffian:
    @pytest.mark.parametrize("case", [
        *range(13), 16, 24, 48, "pfaffian-zero", "block-24",
        *(pytest.param(kxy, id=f"paired-{kxy[0]}-{kxy[1]}") for kxy in COUPLINGS)])
    def test_stack_equals_each_matrix_and_the_scalar_algorithm(self, case):
        rng = np.random.default_rng(100 + (case if isinstance(case, int) else 0))
        stack = pfaffian_stack(case, rng)
        reference = expansion_pfaffian if stack.shape[-1] <= 4 else scalar_pfaffian
        pfs = pfaffian(stack)
        assert pfs.shape == (len(stack),)
        for m, pf in zip(stack, pfs):
            one = pfaffian(m)
            assert isinstance(one, complex)
            assert one == pf == reference(m)
            assert pfaffian(m[None])[0] == one
            assert bits(one) == bits(pf) == bits(complex(reference(m)))
        if case == "pfaffian-zero":
            assert pfs[0] == 0.0 and pfs[1:].all()

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_square_is_determinant(self, n):
        stack = pivoting_skew_stack(8, n, np.random.default_rng(n))
        for m, pf, log_det in zip(stack, pfaffian(stack), log_det_and_inverse(stack)[0]):
            assert abs(pf ** 2 / np.exp(log_det) - 1.0) < 1e-9

    def test_pivot_floor_zeroes_only_its_matrix(self):
        rng = np.random.default_rng(7)
        stack = np.stack([random_skew(6, rng), rank_four_skew(), random_skew(6, rng)])
        pfs = pfaffian(stack)
        assert pfs[1] == 0.0
        assert pfs[0] == scalar_pfaffian(stack[0]) != 0.0
        assert pfs[2] == scalar_pfaffian(stack[2]) != 0.0

    def test_one_non_antisymmetric_matrix_rejects_the_stack(self):
        stack = pivoting_skew_stack(5, 4, np.random.default_rng(3))
        stack[3, 0, 1] += 1e-6
        with pytest.raises(DomainError):
            pfaffian(stack)
        with pytest.raises(DomainError):
            pfaffian(np.zeros((2, 3, 4)))

    def test_empty_stack(self):
        assert pfaffian(np.zeros((0, 4, 4))).shape == (0,)
        assert pfaffian(np.zeros((0, 6, 6))).shape == (0,)

    @pytest.mark.parametrize("kxy", COUPLINGS)
    def test_expansion_is_more_accurate_than_the_elimination(self, kxy):
        # every k = 4 pairing matrix of the form-factor suite at N=8 (1,820
        # specs), against its expansion in 40 digits: the error measured is
        # the algorithm's rounding of the same double entries.  Worst
        # relative errors: expansion 2.8e-13, 1.0e-13 and 9.3e-14 at the
        # three couplings, elimination 8.5e-13, 1.9e-13 and 1.4e-13.
        mpmath = pytest.importorskip("mpmath")
        c = Couplings.from_kx_ky(*kxy, 8)
        r = np.concatenate([assemble_r_matrix(stack, c) for stack in _spec_groups(c, 4, 4)
                            if stack.bra.shape[1] + stack.ket.shape[1] == 4])
        assert len(r) == 1820
        with mpmath.workdps(40):
            exact = [expansion_pfaffian(m, mpmath.mpc) for m in r]

            def worst(pfs):
                return max(float(abs(mpmath.mpc(pf) - ref) / abs(ref))
                           for pf, ref in zip(pfs, exact))

            expansion, elimination = worst(pfaffian(r)), worst(map(scalar_pfaffian, r))
        assert expansion < elimination


class TestDetAndInverse:
    def test_identity(self):
        log_det, inv = log_det_and_inverse(np.eye(3))
        assert log_det == 0.0
        np.testing.assert_allclose(inv, np.eye(3))

    def test_diagonal(self):
        log_det, inv = log_det_and_inverse(np.diag([2.0, 3.0]))
        assert np.exp(log_det) == pytest.approx(6.0)
        np.testing.assert_allclose(inv, np.diag([0.5, 1.0 / 3.0]))

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        log_det, inv = log_det_and_inverse(m)
        assert np.max(np.abs(m @ inv - np.eye(10))) < 1e-10
        assert abs(np.exp(log_det) / np.linalg.det(m) - 1.0) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            log_det_and_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            log_det_and_inverse(np.ones((2, 3)))

    def test_log_det_matches_det_where_both_exist(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        log_det, log_inv = log_det_and_inverse(m)
        assert abs(np.exp(log_det) / np.linalg.det(m) - 1.0) < 1e-12
        np.testing.assert_array_equal(np.linalg.inv(m), log_inv)

    def test_log_det_stays_finite_past_overflow(self):
        m = np.diag(np.full(400, 1e3)) * np.exp(0.25j)
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(m)
        log_det, _ = log_det_and_inverse(m)
        assert not np.isfinite(det)
        assert abs(log_det.real - 400 * np.log(1e3)) < 1e-9
        assert abs(np.exp(1j * log_det.imag) - np.exp(100j)) < 1e-9


def pivoting_stack(size, n, rng):
    """Random complex matrices with a small diagonal, so that elimination swaps rows."""
    a = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    a[:, np.arange(n), np.arange(n)] *= 1e-3
    return a


class TestStackedElimination:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_stack_equals_each_matrix(self, n):
        stack = pivoting_stack(12, n, np.random.default_rng(200 + n))
        log_dets, log_invs = log_det_and_inverse(stack)
        assert log_dets.shape == (12,) and log_invs.shape == stack.shape
        for m, log_det, log_inv in zip(stack, log_dets, log_invs):
            one_log, one_log_inv = log_det_and_inverse(m)
            assert isinstance(one_log, complex)
            assert one_log == log_det
            assert one_log_inv.tobytes() == log_inv.tobytes()
            assert abs(np.exp(log_det) / np.linalg.det(m) - 1.0) < 1e-12

    def test_singular_rejected(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            log_det_and_inverse(m)
        stack = np.concatenate([pivoting_stack(2, 2, np.random.default_rng(9)), m[None]])
        with pytest.raises(SingularMatrixError):
            log_det_and_inverse(stack)
        log_det_and_inverse(stack[:2])

    def test_near_singular_rejected(self):
        # exactly representable, not exactly singular: det = 1.1e-15, and
        # 1 / cond_inf = 2.8e-16 is below the 1e-13 floor
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        stack = np.concatenate([pivoting_stack(2, 2, np.random.default_rng(9)), m[None]])
        for a in (m, stack):
            with pytest.raises(SingularMatrixError):
                log_det_and_inverse(a)
