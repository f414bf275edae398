import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from isingff import cauchy, elliptic, spectral, verification
from isingff.cauchy import (_sn_pairing_entries, assemble_r_elliptic, induced_rotation,
                            ising_modulus, ising_record)
from isingff.elliptic import jacobi_sn_cn_dn
from isingff.exceptions import DomainError
from isingff.formfactors import (_FF2_KEPT_MAX_BYTES, FockState, FormFactorSpec,
                                 SpecStack, _fock_basis, _kept_ff2_blocks, abs_ff2_table,
                                 assemble_r_matrix, ff_closed, ff_pfaffian, fock_basis,
                                 two_particle_matrices, two_point_correlation,
                                 vacuum_overlap, xi_t)
from isingff.linalg import log_det_and_inverse, pfaffian
from isingff.spectral import Couplings, coupling_tables, gamma_of_theta, nu_of_gamma
from isingff.verification import (_spec_groups, completeness_sum_rule,
                                  formfactor_suite, rotation_suite)

C4 = Couplings.from_kx_ky(0.4, 0.7, 4)
BENCH_COUPLINGS = ((0.3, 0.9), (0.4, 0.7), (0.5, 0.5))


class TestFockTypes:
    def test_repeated_momenta_rejected(self):
        with pytest.raises(DomainError):
            FockState("a", (1, 1))
        with pytest.raises(DomainError):
            FockState("a", (2, 1))

    def test_bad_sector_rejected(self):
        with pytest.raises(DomainError):
            FockState("q", (0,))

    def test_odd_selection_rule_rejected(self):
        with pytest.raises(DomainError):
            FormFactorSpec(0, FockState("a", (0,)), FockState("p", ()))

    def test_sector_roles_enforced(self):
        with pytest.raises(DomainError):
            FormFactorSpec(0, FockState("p", ()), FockState("p", ()))

    def test_ket_outside_the_periodic_sector_rejected(self):
        with pytest.raises(DomainError, match="ket must live in the periodic sector"):
            FormFactorSpec(0, FockState("a", ()), FockState("a", ()))

    def test_out_of_range_index(self):
        spec = FormFactorSpec(0, FockState("a", (7,)), FockState("p", (0,)))
        with pytest.raises(DomainError):
            ff_closed(spec, C4)


class TestInducedRotation:
    def test_width_one_modulus(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 1)
        rot = induced_rotation(c, 0)
        assert abs(abs(rot.d[0, 0]) - 1.0) < 1e-14

    def test_relations(self):
        for n in (2, 4, 6):
            rot = induced_rotation(Couplings.from_kx_ky(0.3, 0.9, n), 1 % n)
            res = rot.relation_residuals()
            assert max(res.values()) < 1e-11, res

    def test_site_validation(self):
        with pytest.raises(DomainError):
            induced_rotation(C4, 4)


class TestNu:
    def test_width_one(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 1)
        th = 0.9
        g = float(gamma_of_theta(th, c))
        expected = math.log(math.sinh((g + c.sector("a").gamma[0]) / 2)
                            / math.sinh((g + c.sector("p").gamma[0]) / 2))
        assert nu_of_gamma(gamma_of_theta(th, c), c) == pytest.approx(expected, rel=1e-13)

    def test_width_four_against_direct_product(self):
        th = 2.2
        g = float(gamma_of_theta(th, C4))
        num = np.prod(np.sinh((g + C4.sector("a").gamma) / 2))
        den = np.prod(np.sinh((g + C4.sector("p").gamma) / 2))
        assert (nu_of_gamma(gamma_of_theta(th, C4), C4)
                == pytest.approx(math.log(num / den), rel=1e-13))


class TestTwoParticleMatrices:
    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_inverse_residual(self, n):
        c = Couplings.from_kx_ky(0.5, 0.5, n)
        rot = induced_rotation(c, n // 2)
        dinv, _, _ = two_particle_matrices(c, n // 2)
        assert np.max(np.abs(dinv @ rot.d - np.eye(n))) < 1e-10

    @pytest.mark.parametrize("site", [-1, 4, 5])
    def test_site_outside_the_chain_rejected(self, site):
        with pytest.raises(DomainError, match=rf"site {site} outside \[0, 4\)"):
            two_particle_matrices(C4, site)

    def test_antisymmetry_and_zero_diagonal(self):
        _, bdinv, dinvc = two_particle_matrices(C4, 2)
        assert np.max(np.abs(bdinv + bdinv.T)) < 1e-14
        assert np.max(np.abs(dinvc + dinvc.T)) < 1e-14
        assert np.all(np.diag(bdinv) == 0.0)
        assert np.all(np.diag(dinvc) == 0.0)

    def test_full_rotation_suite(self):
        for kx, ky, n in [(0.3, 0.9, 5), (0.7, 0.8, 6)]:
            res = rotation_suite(Couplings.from_kx_ky(kx, ky, n), site=1)
            assert max(res.values()) < 1e-10, res


class TestVacuumOverlap:
    def test_width_one_is_unity(self):
        assert vacuum_overlap(Couplings.from_kx_ky(0.4, 0.7, 1)) \
            == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_against_lu_determinant(self, n):
        c = Couplings.from_kx_ky(0.35, 0.8, n)
        log_det, _ = log_det_and_inverse(induced_rotation(c, 0).d)
        assert abs(vacuum_overlap(c) - np.exp(0.5 * log_det.real)) < 1e-10

    def test_equals_xi_xi_t(self):
        assert vacuum_overlap(C4) == pytest.approx(math.sqrt(C4.xi * xi_t(C4)),
                                                   rel=1e-13)

    def test_yang_limit(self):
        c = Couplings.from_kx_ky(0.5, 0.5, 64)
        yang = (1.0 - c.s ** (-2)) ** 0.125
        assert abs(vacuum_overlap(c) - yang) < 1e-6


class TestFormFactors:
    def test_vacuum_matrix_element(self):
        spec = FormFactorSpec(0, FockState("a", ()), FockState("p", ()))
        assert ff_pfaffian(spec, C4) == pytest.approx(vacuum_overlap(C4))
        assert ff_closed(spec, C4) == pytest.approx(vacuum_overlap(C4))

    def test_two_zero_is_single_pairing(self):
        spec = FormFactorSpec(1, FockState("a", (0, 2)), FockState("p", ()))
        _, _, dinvc = two_particle_matrices(C4, 1)
        expected = vacuum_overlap(C4) * dinvc[0, 2]
        assert ff_pfaffian(spec, C4) == pytest.approx(expected)

    def test_one_one_is_dinv_entry(self):
        spec = FormFactorSpec(2, FockState("a", (1,)), FockState("p", (3,)))
        dinv, _, _ = two_particle_matrices(C4, 2)
        expected = vacuum_overlap(C4) * dinv[1, 3]
        assert ff_closed(spec, C4) == pytest.approx(expected)
        assert ff_pfaffian(spec, C4) == pytest.approx(expected)

    def test_routes_agree_with_phase(self):
        for n in (2, 5):
            c = Couplings.from_kx_ky(0.3, 0.9, n)
            for m in range(0, min(n, 4) + 1):
                for nn in range(0, min(n, 4) + 1):
                    if (m + nn) % 2 or m + nn > 4:
                        continue
                    for bra in itertools.combinations(range(n), m):
                        for ket in itertools.combinations(range(n), nn):
                            spec = FormFactorSpec(n - 1, FockState("a", bra),
                                                  FockState("p", ket))
                            f1, f2 = ff_closed(spec, c), ff_pfaffian(spec, c)
                            assert abs(f1 - f2) <= 1e-10 * max(abs(f1), 1e-15)

    def test_translation_phase(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 5)
        spec0 = FormFactorSpec(0, FockState("a", (0, 3)), FockState("p", ()))
        f0 = ff_closed(spec0, c)
        shift = -c.sector("a").thetas[[0, 3]].sum()
        for l in range(5):
            fl = ff_closed(FormFactorSpec(l, spec0.bra, spec0.ket), c)
            assert abs(fl - np.exp(1j * l * shift) * f0) < 1e-12

    def test_pairing_matrix_elliptic_assembly(self):
        spec = FormFactorSpec(1, FockState("a", (0, 1, 2)), FockState("p", (2,)))
        r1 = assemble_r_matrix(spec, C4)
        r2 = assemble_r_elliptic(spec, C4)
        assert np.max(np.abs(r1 - r2)) < 1e-12

    def test_bra_reversal_sign(self):
        # conjugation bookkeeping: reversing the four bra momenta is an odd
        # permutation pattern with sign (-1)^{m(m-1)/2}
        c = Couplings.from_kx_ky(0.3, 0.9, 6)
        spec = FormFactorSpec(2, FockState("a", (0, 2, 3, 5)), FockState("p", ()))
        r = assemble_r_matrix(spec, c)
        perm = np.eye(4)[::-1]
        assert abs(pfaffian(perm @ r @ perm.T)
                   - (-1.0) ** (4 * 3 // 2) * pfaffian(r)) < 1e-14

    def test_full_suite(self):
        res = formfactor_suite(Couplings.from_kx_ky(0.5, 0.5, 4))
        assert max(res.values()) < 1e-10, res

    def test_large_n_many_particles_stays_finite(self):
        # 24 + 24 particles at N=256: the linear product of the factors
        # overflows, the log-space sum does not
        c = Couplings.from_kx_ky(0.4, 0.7, 256)
        block = FockState("a", tuple(range(24))), FockState("p", tuple(range(24)))
        spec = FormFactorSpec(0, *block)
        f, ref = ff_closed(spec, c), ff_pfaffian(spec, c)
        assert np.isfinite(f.real) and np.isfinite(f.imag)
        assert abs(f - ref) <= 1e-10 * abs(ref)


class TestFockBasis:
    def test_order_energies_and_momenta(self):
        c = Couplings.from_kx_ky(0.3, 0.9, 6)
        for sector in ("a", "p"):
            table = c.sector(sector)
            gam, th = table.gamma, table.thetas
            for parity in (0, 1):
                basis = fock_basis(c, sector, parity, cutoff=5)
                ref = [s for k in range(parity, 6, 2)
                       for s in itertools.combinations(range(6), k)]
                assert list(basis.states) == ref
                for row, s in enumerate(ref):
                    assert list(np.nonzero(basis.occupancy[row])[0]) == list(s)
                    assert basis.particles[row] == len(s)
                    e = 0.5 * gam.sum() - gam[list(s)].sum()
                    assert abs(basis.energies[row] - e) < 1e-13
                    assert abs(basis.momenta[row] - th[list(s)].sum()) < 1e-13

    @pytest.mark.parametrize("n, max_mn", [(3, 4), (8, 2), (8, 4)])
    def test_suite_specs_are_every_even_pair_once(self, n, max_mn):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        specs = [(tuple(bra), tuple(ket)) for group in _spec_groups(c, 1, max_mn)
                 for bra, ket in zip(group.bra.tolist(), group.ket.tolist())]
        expected = sum(math.comb(n, m) * math.comb(n, k)
                       for m in range(n + 1) for k in range(n + 1)
                       if (m + k) % 2 == 0 and m + k <= max_mn)
        assert len(specs) == len(set(specs)) == expected

    @pytest.mark.parametrize("n", [4, 8])
    def test_suite_specs_read_the_coupling_free_states(self, n):
        """The stacks are those of every coupling's own cutoff-4 bases, in order."""
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        for site in (1, np.arange(n)):
            stacks = list(_spec_groups(c, site, 4))
            expected = []
            for parity, m, k in verification._group_shapes(n, 4):
                bra = fock_basis(c, "a", parity, 4).indices(m)
                ket = fock_basis(c, "p", parity, 4).indices(k)
                sites = np.atleast_1d(site)
                pairs = np.array(list(itertools.product(range(len(bra)), range(len(ket)),
                                                        range(len(sites)))))
                for start in range(0, len(pairs), verification._STACK_ROWS):
                    rows, cols, at = pairs[start:start + verification._STACK_ROWS].T
                    expected.append((sites[at], bra[rows], ket[cols]))
            assert len(stacks) == len(expected)
            for stack, (sites, bra, ket) in zip(stacks, expected):
                np.testing.assert_array_equal(np.broadcast_to(stack.site, sites.shape), sites)
                np.testing.assert_array_equal(stack.bra, bra, strict=True)
                np.testing.assert_array_equal(stack.ket, ket, strict=True)

    def test_repeated_suites_build_no_basis(self):
        couplings = [Couplings.from_kx_ky(kx, ky, 8) for kx, ky in BENCH_COUPLINGS]
        for c in couplings:
            formfactor_suite(c)
        misses = _fock_basis.cache_info().misses
        for c in couplings:
            formfactor_suite(c)
        assert _fock_basis.cache_info().misses == misses

    def test_states_shared_by_sectors_and_couplings(self):
        bases = [fock_basis(Couplings.from_kx_ky(kx, ky, 6), sector, 0, cutoff=4)
                 for kx, ky in BENCH_COUPLINGS for sector in ("a", "p")]
        assert all(b.occupancy is bases[0].occupancy for b in bases)
        assert all(b.states is bases[0].states for b in bases)

    def test_shared_and_read_only(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 6)
        basis = fock_basis(c, "p", 1, cutoff=3)
        assert fock_basis(Couplings.from_kx_ky(0.4, 0.7, 6), "p", 3, 3) is basis
        for array in (basis.occupancy, basis.particles, basis.energies, basis.momenta):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_indices_are_the_k_particle_states(self):
        basis = fock_basis(Couplings.from_kx_ky(0.4, 0.7, 6), "a", 0, cutoff=4)
        for k in (0, 2, 4):
            assert [tuple(row) for row in basis.indices(k).tolist()] \
                == list(itertools.combinations(range(6), k))

    def test_blocks_cover_the_basis_in_order(self):
        basis = fock_basis(Couplings.from_kx_ky(0.4, 0.7, 12), "a", 0)
        states = [s for _, block in basis.blocks() for s in block.states]
        assert states == list(basis.states)


def _spec_of(stack, row):
    return FormFactorSpec(stack.site, FockState("a", stack.bra[row]),
                          FockState("p", stack.ket[row]))


class TestSpecStacks:
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("kxy", BENCH_COUPLINGS)
    def test_stacked_routes_equal_the_single_spec_calls(self, kxy, n):
        c = Couplings.from_kx_ky(*kxy, n)
        for site in range(n):
            for stack in _spec_groups(c, site, 4):
                routes = (ff_closed(stack, c), ff_pfaffian(stack, c),
                          assemble_r_matrix(stack, c), assemble_r_elliptic(stack, c))
                # every row at N=3, a spread of rows at N=6
                for row in range(0, len(stack.bra), 1 if n == 3 else 7):
                    spec = _spec_of(stack, row)
                    assert ff_closed(spec, c) == routes[0][row]
                    assert ff_pfaffian(spec, c) == routes[1][row]
                    assert np.array_equal(assemble_r_matrix(spec, c), routes[2][row])
                    # the elliptic route multiplies complex arrays, which
                    # numpy's long vector loops round with fused
                    # multiply-adds, so a stack agrees to rounding only
                    np.testing.assert_allclose(assemble_r_elliptic(spec, c),
                                               routes[3][row], rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("kxy", BENCH_COUPLINGS)
    def test_gathered_entries_equal_the_full_matrices(self, kxy, n):
        c = Couplings.from_kx_ky(*kxy, n)
        for site in range(n):
            dinv, bdinv, dinvc = two_particle_matrices(c, site)
            for stack in _spec_groups(c, site, 4):
                m = stack.bra.shape[1]
                r = assemble_r_matrix(stack, c)
                for row, (ia, ip) in enumerate(zip(stack.bra, stack.ket)):
                    assert np.array_equal(r[row, :m, :m], dinvc[np.ix_(ia, ia)])
                    assert np.array_equal(r[row, :m, m:], dinv[np.ix_(ia, ip)])
                    assert np.array_equal(r[row, m:, :m], -dinv[np.ix_(ia, ip)].T)
                    assert np.array_equal(r[row, m:, m:], bdinv[np.ix_(ip, ip)])

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("kxy", BENCH_COUPLINGS)
    def test_elliptic_entries_are_gathered_from_the_coupling_grids(self, kxy, n,
                                                                  monkeypatch):
        c = Couplings.from_kx_ky(*kxy, n)
        stacks = list(_spec_groups(c, 0, 4))
        assemble_r_elliptic(stacks[0], c)       # builds the coupling's sn grids
        calls = []
        theta1 = elliptic._theta1
        monkeypatch.setattr(elliptic, "_theta1",
                            lambda *args: calls.append(1) or theta1(*args))
        gathered = [_sn_pairing_entries(stack, c) for stack in stacks]
        for stack in stacks:
            assemble_r_elliptic(stack, c)
        assert not calls
        monkeypatch.undo()
        u, mod = ising_record(c)["u"], ising_modulus(c)
        for stack, rt in zip(stacks, gathered):
            k = stack.bra.shape[1] + stack.ket.shape[1]
            i, j = np.triu_indices(k, 1)
            for row, (ia, ip) in enumerate(zip(stack.bra, stack.ket)):
                # the differences of the spec's own curve points, bras shifted by iK'
                ut = np.concatenate([u["a"][ia] + 1j * mod.bigKprime,
                                     u["p"][ip].astype(complex)])
                own = np.zeros((k, k), dtype=complex)
                own[i, j] = math.sqrt(mod.k) * jacobi_sn_cn_dn(ut[i] - ut[j], mod)[0]
                own -= own.T
                assert np.array_equal(rt[row].view(float), own.view(float))

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("kxy", BENCH_COUPLINGS)
    def test_site_arrays_equal_the_per_site_stacks(self, kxy, n):
        c = Couplings.from_kx_ky(*kxy, n)
        for stack in _spec_groups(c, np.arange(n), 4):
            closed, pf = ff_closed(stack, c), ff_pfaffian(stack, c)
            r_ell = assemble_r_elliptic(stack, c)
            for site in range(n):
                rows = stack.site == site
                one = SpecStack(site, stack.bra[rows], stack.ket[rows])
                assert np.array_equal(ff_closed(one, c), closed[rows])
                np.testing.assert_allclose(pf[rows], ff_pfaffian(one, c),
                                           rtol=1e-15, atol=0.0)
                single = assemble_r_elliptic(one, c)
                scale = np.abs(single).max(initial=0.0)
                assert np.abs(r_ell[rows] - single).max(initial=0.0) <= 1e-15 * scale

    def test_site_array_must_match_the_stack(self):
        stack = SpecStack(np.array([0, 5]), np.array([[0], [1]]), np.array([[1], [2]]))
        with pytest.raises(DomainError):
            ff_closed(stack, C4)                       # site 5 outside [0, 4)
        with pytest.raises(DomainError):
            ff_closed(stack._replace(site=np.array([0, 1, 2])), C4)

    def test_single_spec_gives_scalars_and_matrices(self):
        spec = FormFactorSpec(1, FockState("a", (0, 2)), FockState("p", (1, 3)))
        assert type(ff_closed(spec, C4)) is complex
        assert type(ff_pfaffian(spec, C4)) is complex
        assert assemble_r_matrix(spec, C4).shape == (4, 4)
        assert assemble_r_elliptic(spec, C4).shape == (4, 4)

    @pytest.mark.parametrize("bra, ket", [
        ([[0, 1]], [[0], [1]]),      # stack sizes differ
        ([[0]], [[]]),               # m + n odd
        ([[0, 4]], [[]]),            # index outside [0, N)
        ([[1, 0]], [[]]),            # not increasing
        ([0, 1], [[]]),              # not a stack
    ])
    def test_bad_stacks_rejected(self, bra, ket):
        stack = SpecStack(0, np.array(bra, dtype=int), np.array(ket, dtype=int).reshape(len(ket), -1))
        with pytest.raises(DomainError):
            ff_closed(stack, C4)

    # a single spec is checked on its tuples, with the messages of its stack of one
    @pytest.mark.parametrize("site, bra, ket, message", [
        (0, (0, 4), (), r"momentum indices must increase strictly within \[0, 4\)"),
        (0, (), (-1, 2), r"momentum indices must increase strictly within \[0, 4\)"),
        (1, (5,), (0, 1, 2), r"momentum indices must increase strictly within \[0, 4\)"),
        (4, (0,), (1,), r"site 4 outside \[0, 4\)"),
        (-1, (), (), r"site -1 outside \[0, 4\)"),
    ])
    def test_bad_single_specs_rejected(self, site, bra, ket, message):
        spec = FormFactorSpec(site, FockState("a", bra), FockState("p", ket))
        stack = SpecStack(site, np.array([bra], dtype=int).reshape(1, -1),
                          np.array([ket], dtype=int).reshape(1, -1))
        for route in (ff_closed, ff_pfaffian, assemble_r_matrix):
            for case in (spec, stack):
                with pytest.raises(DomainError, match=message):
                    route(case, C4)

    def test_bad_site_rejected(self):
        stack = SpecStack(4, np.zeros((1, 0), dtype=int), np.zeros((1, 0), dtype=int))
        with pytest.raises(DomainError):
            ff_pfaffian(stack, C4)


class TestAbsFf2Table:
    def test_matches_closed_form(self):
        c = Couplings.from_kx_ky(0.3, 0.9, 6)
        for parity in (0, 1):
            bras, kets = fock_basis(c, "a", parity), fock_basis(c, "p", parity)
            table = abs_ff2_table(c, bras, kets)
            for i, sa in enumerate(bras.states):
                for j, sp in enumerate(kets.states):
                    f = ff_closed(FormFactorSpec(2, FockState("a", sa),
                                                 FockState("p", sp)), c)
                    assert abs(table[i, j] - abs(f) ** 2) <= 1e-12 * abs(f) ** 2

    def test_parity_and_sector_checked(self):
        with pytest.raises(DomainError):
            abs_ff2_table(C4, fock_basis(C4, "a", 0), fock_basis(C4, "p", 1))
        with pytest.raises(DomainError):
            abs_ff2_table(C4, fock_basis(C4, "p", 0), fock_basis(C4, "p", 0))

    def test_completeness_sum_rule(self):
        # the couplings of the acceptance suite
        for kxy in ((0.3, 0.9), (0.5, 0.5), (0.7, 0.8)):
            for n in range(4, 11):
                res = completeness_sum_rule(Couplings.from_kx_ky(*kxy, n))
                assert res < 1e-12, (kxy, n, res)


class TestTwoPointCorrelation:
    def test_coincident_points(self):
        assert two_point_correlation(C4, 4, 0, 0) == 1.0

    @pytest.mark.filterwarnings("ignore:particle-number cutoff")
    def test_coincident_points_carry_the_boundary_signs(self):
        # T^N = U flips every spin for eps_y = -1: at N=14 (a cutoff sum)
        # dy = N is -1, the sign of its neighbour dx = 1, which is the
        # negative of dy = 0's
        c = Couplings.from_kx_ky(0.4, 0.7, 14)
        assert two_point_correlation(c, 8, 0, 14, eps_y=-1) == -1.0
        near = two_point_correlation(c, 8, 1, 14, eps_y=-1)
        assert near < -0.78
        assert near == pytest.approx(-two_point_correlation(c, 8, 1, 0, eps_y=-1), rel=1e-12)

    def test_reflection_symmetry_in_dy(self):
        for dy in (1, 2, 3):
            a = two_point_correlation(C4, 5, 1, dy)
            b = two_point_correlation(C4, 5, 1, C4.n - dy)
            assert a == pytest.approx(b, rel=1e-12)

    def test_row_periodicity(self):
        assert two_point_correlation(C4, 5, 1, 1) \
            == pytest.approx(two_point_correlation(C4, 5, 1, 1 + C4.n), rel=1e-12)

    def test_dx_bounds(self):
        with pytest.raises(DomainError):
            two_point_correlation(C4, 3, 4, 0)

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            two_point_correlation(C4, 3, 1, 0, eps_x=2)

    def test_repeat_is_bit_identical(self):
        # N=10 streams the |F|^2 table in two blocks of bra rows
        c = Couplings.from_kx_ky(0.5, 0.5, 10)
        for eps_x, eps_y in ((1, 1), (-1, -1)):
            a = two_point_correlation(c, 16, 5, 3, eps_x=eps_x, eps_y=eps_y)
            assert a == two_point_correlation(c, 16, 5, 3, eps_x=eps_x, eps_y=eps_y)

    def test_full_enumeration_up_to_n12(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = two_point_correlation(c, 8, 2, 3)
        with pytest.warns(UserWarning, match="cutoff"):
            trunc = two_point_correlation(c, 8, 2, 3, max_particles=4)
        assert abs(full - trunc) < 1e-4

    def test_cutoff_warning(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 12)
        with pytest.warns(UserWarning, match="cutoff"):
            two_point_correlation(c, 2, 1, 0, max_particles=0)

    def test_no_states_below_the_cutoff(self):
        # eps_y = -1 keeps odd particle numbers, and a cutoff of 0 keeps none
        with pytest.raises(DomainError, match="no states of the required parity"):
            two_point_correlation(C4, 8, 2, 1, eps_y=-1, max_particles=0)

    @pytest.mark.filterwarnings("ignore:particle-number cutoff")
    def test_cutoff_converges_to_full_sum(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 6)
        full = two_point_correlation(c, 6, 2, 1)
        trunc = two_point_correlation(c, 6, 2, 1, max_particles=4)
        assert abs(full - trunc) < 1e-6


class TestAbsFF2Cache:
    """The |F|^2 tables that two_point_correlation keeps per (coupling,
    parity, cap) and reads again."""

    def setup_method(self):
        _kept_ff2_blocks.cache_clear()

    @pytest.mark.filterwarnings("ignore:particle-number cutoff")
    @pytest.mark.parametrize("kxy", BENCH_COUPLINGS)
    def test_warm_call_equals_cold_call(self, kxy):
        c = Couplings.from_kx_ky(*kxy, 8)
        calls = [((m, dx, dy, eps_x, eps_y), {})
                 for eps_y in (1, -1) for eps_x in (1, -1)
                 for m, dx, dy in ((16, 5, 3), (8, 0, -2))]
        calls.append(((32, 7, 1, -1, 1), {"max_particles": 4}))
        cold = []
        for args, kwargs in calls:
            _kept_ff2_blocks.cache_clear()
            cold.append(two_point_correlation(c, *args, **kwargs))
        _kept_ff2_blocks.cache_clear()
        for args, kwargs in calls:        # every table kept, by another separation
            two_point_correlation(c, 4, 1, 1, eps_y=args[4], **kwargs)
        assert _kept_ff2_blocks.cache_info().currsize == 3   # (c, 0, 8), (c, 1, 8), (c, 0, 4)
        assert [two_point_correlation(c, *args, **kwargs) for args, kwargs in calls] == cold
        assert _kept_ff2_blocks.cache_info().misses == 3

    def test_kept_tables_are_read_only(self):
        c = Couplings.from_kx_ky(0.5, 0.5, 10)     # two blocks of bra rows
        two_point_correlation(c, 16, 5, 3)
        blocks = _kept_ff2_blocks(c, 0, 10)
        assert len(blocks) == 2 and _kept_ff2_blocks.cache_info().misses == 1
        for _, table in blocks:
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    @pytest.mark.parametrize("n", [11, 12])
    def test_full_table_past_the_cap_is_not_kept(self, n):
        # 2^(n-1) x 2^(n-1) doubles: 8 MiB at N=11, 32 MiB at N=12, so it streams
        two_point_correlation(Couplings.from_kx_ky(0.4, 0.7, n), 8, 2, 3)
        assert _kept_ff2_blocks.cache_info().currsize == 0

    def test_held_bytes_stay_within_the_budget(self):
        # each kept table is at most the cap, and at most maxsize are kept
        info = _kept_ff2_blocks.cache_info
        assert info().maxsize * _FF2_KEPT_MAX_BYTES <= 16 * 2**20
        c10 = Couplings.from_kx_ky(0.5, 0.5, 10)
        two_point_correlation(c10, 8, 2, 3)        # 512 x 512 doubles, the cap itself
        assert sum(table.nbytes for _, table in _kept_ff2_blocks(c10, 0, 10)) \
            == _FF2_KEPT_MAX_BYTES
        for kx in (0.4, 0.5, 0.6, 0.7):
            for eps_y in (1, -1):
                two_point_correlation(Couplings.from_kx_ky(kx, 0.9, 6), 8, 2, 3, eps_y=eps_y)
        assert info().currsize == info().maxsize
        misses = info().misses
        two_point_correlation(c10, 8, 2, 3)        # the least recently used, dropped
        assert info().misses == misses + 1 and info().currsize == info().maxsize


def _imports(module: str, nodes):
    """(line, dotted name) of each import statement among the nodes of
    ``module``'s source tree, given the tree (every node) or its body."""
    source = Path(__file__).resolve().parents[1] / "src" / "isingff" / f"{module}.py"
    for node in nodes(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, f"{node.module or ''}.{alias.name}")
                        for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_evaluation_path_imports_no_verification_route():
    """formfactors, which ff and corr run, and the dense oracle, which checks
    them, import nothing from the elliptic, Cauchy or verification layers:
    the three-way agreement needs an oracle of its own."""
    banned = {"elliptic", "cauchy", "verification"}
    for module in ("formfactors", "oracle"):
        for line, name in _imports(module, ast.walk):
            assert not banned & set(name.split(".")), f"{module} line {line}: {name}"


@pytest.mark.parametrize("module", ["spectral", "formfactors", "linalg"])
def test_evaluation_layers_import_no_elliptic_side(module):
    """The modules of the evaluation path import neither elliptic nor cauchy
    at module level: the uniformization of the curve is the elliptic routes'
    own.  (``Couplings.__getattr__`` imports ``u_of_theta`` in its body.)"""
    for line, name in _imports(module, lambda tree: tree.body):
        assert not {"elliptic", "cauchy"} & set(name.split(".")), f"line {line}: {name}"


def test_evaluation_path_evaluates_no_elliptic_function(monkeypatch):
    """Constructing the couplings, the form factors, the vacuum overlap, xi_T
    and the spectral sum read only elementary functions of theta: with
    theta_1 and the complete elliptic integral refused, so that no modulus
    can be built either, each runs from cold tables."""
    spectral.coupling_tables.cache_clear()
    cauchy.ising_modulus.cache_clear()
    _fock_basis.cache_clear()
    _kept_ff2_blocks.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("an elliptic function was evaluated")

    monkeypatch.setattr(elliptic, "_theta1", refuse)
    monkeypatch.setattr(elliptic, "complete_elliptic_K", refuse)
    c = Couplings.from_kx_ky(0.4, 0.7, 8)
    spec = FormFactorSpec(3, FockState("a", (1, 4)), FockState("p", (0, 6)))
    values = (ff_closed(spec, c), ff_pfaffian(spec, c), vacuum_overlap(c), xi_t(c),
              two_point_correlation(c, 8, 2, 3))
    assert all(math.isfinite(abs(v)) for v in values)


def _mp_sectors(mpmath, kx: float, ky: float, n: int):
    """theta_a, gamma_a and nu_a, and the vacuum overlap
    ((1 - k^2) exp(sum nu_p - sum nu_a))^(1/8) at width n, each written out
    from elementary functions at mpmath's working precision."""
    kx, ky = mpmath.mpf(kx), mpmath.mpf(ky)
    kx_star = mpmath.atanh(mpmath.exp(-2 * kx))
    ch, sh = mpmath.cosh(2 * kx_star), mpmath.sinh(2 * kx_star)

    def gamma(t):
        return mpmath.acosh(ch * mpmath.cosh(2 * ky) - sh * mpmath.sinh(2 * ky) * mpmath.cos(t))

    theta_a = [(2 * j + 1) * mpmath.pi / n for j in range(n)]
    gamma_a = [gamma(t) for t in theta_a]
    gamma_p = [gamma(2 * j * mpmath.pi / n) for j in range(n)]

    def nu(g):
        return (sum(mpmath.log(mpmath.sinh((g + h) / 2)) for h in gamma_a)
                - sum(mpmath.log(mpmath.sinh((g + h) / 2)) for h in gamma_p))

    nu_a = [nu(g) for g in gamma_a]
    k = sh / mpmath.sinh(2 * ky)
    vacuum = ((1 - k**2) * mpmath.exp(sum(nu(g) for g in gamma_p) - sum(nu_a))) ** (
        mpmath.mpf(1) / 8)
    return theta_a, gamma_a, nu_a, vacuum


def test_ff_closed_against_a_50_digit_reference():
    """ff_closed where the pfaffian route loses digits (N=16, (0.3, 0.9),
    site 8, bra momenta 6..9 and an empty ket, |F| about 1e-11) against the
    vacuum overlap times the pfaffian of the four D^-1*C entries, each
    written out from elementary functions at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    n, site, bra = 16, 8, (6, 7, 8, 9)
    with mpmath.workdps(50):
        theta_a, gamma_a, nu_a, vacuum = _mp_sectors(mpmath, 0.3, 0.9, n)
        kx, ky = mpmath.mpf(0.3), mpmath.mpf(0.9)
        rho2 = mpmath.sinh(2 * ky) / mpmath.sinh(2 * kx)
        ell = site - mpmath.mpf(1) / 2

        def amp(i):
            return mpmath.exp(nu_a[i] / 2) / mpmath.sqrt(n * mpmath.sinh(gamma_a[i]))

        def dinvc(i, j):
            ti, tj = theta_a[i], theta_a[j]
            return (-1j * mpmath.exp(-1j * ell * (ti + tj)) * rho2 * amp(i) * amp(j)
                    * mpmath.sin((ti - tj) / 2) / mpmath.sinh((gamma_a[i] + gamma_a[j]) / 2))

        b0, b1, b2, b3 = bra
        pf = (dinvc(b0, b1) * dinvc(b2, b3) - dinvc(b0, b2) * dinvc(b1, b3)
              + dinvc(b0, b3) * dinvc(b1, b2))
        ref = complex(vacuum * pf)
    c = Couplings.from_kx_ky(0.3, 0.9, n)
    spec = FormFactorSpec(site, FockState("a", bra), FockState("p", ()))
    assert abs(ff_closed(spec, c) - ref) <= 1e-13 * abs(ref)


def test_vacuum_prefactor_near_criticality_against_a_50_digit_reference():
    """The closed route's prefactor exp(log_vac2 / 2), the vacuum overlap,
    at (0.4407, 0.4407), N=8, where gamma_0 is 5.3e-5; formed from xi it was
    8.5e-13 off."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = float(_mp_sectors(mpmath, 0.4407, 0.4407, 8)[3])
    value = math.exp(coupling_tables(Couplings.from_kx_ky(0.4407, 0.4407, 8)).log_vac2 / 2.0)
    assert abs(value - ref) <= 2e-13 * ref


def _mp_pfaffian(a: list) -> complex:
    """Pfaffian of an antisymmetric matrix of mpmath numbers, as nested lists:
    Pf(A) = A[0][1] Pf(S) with the Schur complement
    S[i][k] = A[i][k] + (A[i][1] A[k][0] - A[i][0] A[k][1]) / A[0][1] over
    i, k >= 2, after the largest entry of the first column is pivoted into
    row 1.  S is antisymmetric, so only its lower triangle is computed."""
    pf = 1
    while a:
        j = max(range(1, len(a)), key=lambda i: abs(a[i][0]))
        if j != 1:
            order = list(range(len(a)))
            order[1], order[j] = j, 1
            a = [[a[i][k] for k in order] for i in order]
            pf = -pf
        pf *= a[0][1]
        x, y = ([row[col] / a[0][1] for row in a] for col in (1, 0))
        low = [[a[i][k] + x[i] * a[k][0] - y[i] * a[k][1] for k in range(2, i)]
               for i in range(2, len(a))]
        a = [row + [0] + [-low[k][i] for k in range(i + 1, len(low))]
             for i, row in enumerate(low)]
    return pf


# the PFAFFIAN_ZERO spec of the ff-large benchmark, where the pfaffian route
# returns exactly 0, and the old overflow spec bra = ket = 0..23
@pytest.mark.parametrize("site, bra, ket", [
    (184, (13, 56, 72, 75, 143, 153, 168, 193, 208, 221, 222, 233), ()),
    (0, tuple(range(24)), tuple(range(24)))], ids=["pfaffian-zero", "24-24"])
def test_ff_closed_against_a_60_digit_reference_at_n256(site, bra, ket):
    """ff_closed at N=256, (0.4, 0.7) against the vacuum overlap times the
    pfaffian of R, whose entries are written out from elementary functions
    at 60 digits; nu is evaluated only at the spec's momenta."""
    mpmath = pytest.importorskip("mpmath")
    n = 256
    c = Couplings.from_kx_ky(0.4, 0.7, n)
    with mpmath.workdps(60):
        kx, ky = mpmath.mpf(0.4), mpmath.mpf(0.7)
        kx_star = mpmath.atanh(mpmath.exp(-2 * kx))
        ch, sh = mpmath.cosh(2 * kx_star), mpmath.sinh(2 * kx_star)
        theta = {"a": [(2 * j + 1) * mpmath.pi / n for j in range(n)],
                 "p": [2 * j * mpmath.pi / n for j in range(n)]}
        gamma = {s: [mpmath.acosh(ch * mpmath.cosh(2 * ky)
                                  - sh * mpmath.sinh(2 * ky) * mpmath.cos(t)) for t in ts]
                 for s, ts in theta.items()}
        rho2 = mpmath.sinh(2 * ky) / mpmath.sinh(2 * kx)
        ell = site - mpmath.mpf(1) / 2

        def amp(s, i):
            g = gamma[s][i]
            nu = mpmath.log(mpmath.fprod(mpmath.sinh((g + h) / 2) for h in gamma["a"])
                            / mpmath.fprod(mpmath.sinh((g + h) / 2) for h in gamma["p"]))
            return mpmath.exp((nu if s == "a" else -nu) / 2) / mpmath.sqrt(n * mpmath.sinh(g))

        points = [("a", i, amp("a", i)) for i in bra] + [("p", j, amp("p", j)) for j in ket]

        def entry(x, y):
            (s, i, ai), (t, j, aj) = x, y
            ti, tj, gi, gj = theta[s][i], theta[t][j], gamma[s][i], gamma[t][j]
            if s != t:      # D^-1, and -D^-1 transposed below the diagonal
                sign = 1 if s == "a" else -1
                ti, tj, gi, gj = (ti, tj, gi, gj) if s == "a" else (tj, ti, gj, gi)
                return (sign * 1j * mpmath.exp(-1j * ell * (ti - tj)) * ai * aj
                        * mpmath.sinh((gi + gj) / 2) / mpmath.sin((ti - tj) / 2))
            phase = -1 if s == "a" else 1   # D^-1*C, and B*D^-1
            return (-1j * mpmath.exp(phase * 1j * ell * (ti + tj)) * rho2 * ai * aj
                    * mpmath.sin((ti - tj) / 2) / mpmath.sinh((gi + gj) / 2))

        r = [[entry(x, y) if x is not y else 0 for y in points] for x in points]
        ref = complex(vacuum_overlap(c) * _mp_pfaffian(r))
    spec = FormFactorSpec(site, FockState("a", bra), FockState("p", ket))
    assert abs(ff_closed(spec, c) - ref) <= 1e-13 * abs(ref)
