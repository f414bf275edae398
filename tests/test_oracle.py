import cmath
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from isingff import cli, oracle
from isingff.exceptions import AmbiguousLabelError, DomainError, ResourceError
from isingff.formfactors import FockState, FormFactorSpec, two_point_correlation
from isingff.oracle import (_GROUP_TOL, build_operators, labeled_spectrum,
                            oracle_correlation, oracle_ff_modulus,
                            predicted_fock_labels)
from isingff.spectral import Couplings

BENCH_COUPLINGS = ((0.4, 0.7), (0.5, 0.5), (0.3, 0.9))
C4 = Couplings.from_kx_ky(0.4, 0.7, 4)
OPS4 = build_operators(C4, eps_y=1)
SPECT4 = labeled_spectrum(OPS4)


def _kron_v(c: Couplings, eps_y: int) -> np.ndarray:
    """V from N Kronecker factors of V_x and a V_y diagonal of Kronecker
    sigma^z products, site 0 the leftmost factor."""
    ch, sh = math.cosh(c.kx_star), math.sinh(c.kx_star)
    vx = np.ones((1, 1))
    sz = []
    for j in range(c.n):
        vx = np.kron(vx, np.array([[ch, sh], [sh, ch]]))
        sz.append(np.kron(np.kron(np.ones(2 ** j), [1.0, -1.0]), np.ones(2 ** (c.n - 1 - j))))
    bond = sum(sz[j] * sz[(j + 1) % c.n] for j in range(c.n - 1)) + eps_y * sz[-1] * sz[0]
    vy_half = np.exp(0.5 * c.ky * bond)
    return (2 * math.sinh(2 * c.kx)) ** (c.n / 2) * vy_half[:, None] * vx * vy_half[None, :]


class TestOperators:
    @pytest.mark.parametrize("n", [3, 4, 7])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_commutators_and_symmetry(self, n, eps_y):
        ops = build_operators(Couplings.from_kx_ky(0.4, 0.7, n), eps_y=eps_y)
        res = ops.commutator_residuals()
        assert max(res.values()) < 1e-12, res

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_v_matches_kronecker_product(self, n, eps_y):
        c = Couplings.from_kx_ky(0.4, 0.7, n)
        np.testing.assert_allclose(build_operators(c, eps_y=eps_y).v, _kron_v(c, eps_y),
                                   rtol=1e-14, atol=0)

    def test_v_entries_match_dense_v(self):
        ops = build_operators(Couplings.from_kx_ky(0.3, 0.9, 7), eps_y=-1)
        rng = np.random.default_rng(7)
        rows, cols = rng.integers(0, ops.dim, (2, 500))
        assert np.array_equal(ops.v_entries(rows, cols), ops.v[rows, cols])

    def test_positive_spectrum(self):
        w = np.linalg.eigvalsh(OPS4.v)
        assert np.all(w > 0.0)

    def test_width_one_reduces_to_dressed_flip(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 1)
        ops = build_operators(c, eps_y=1)
        assert ops.v.shape == (2, 2)
        scale = (2 * math.sinh(2 * c.kx)) ** 0.5 * math.exp(c.ky)
        expected = scale * np.array(
            [[math.cosh(c.kx_star), math.sinh(c.kx_star)],
             [math.sinh(c.kx_star), math.cosh(c.kx_star)]])
        np.testing.assert_allclose(ops.v, expected, rtol=1e-14)

    def test_size_limit(self):
        with pytest.raises(ResourceError):
            build_operators(Couplings.from_kx_ky(0.4, 0.7, 13))

    def test_spin_flip_anticommutes_with_spin(self):
        assert np.all(OPS4.sl[0][OPS4.flip] == -OPS4.sl[0])


class TestLabeledSpectrum:
    def test_state_count_per_sector(self):
        for eps_y in (1, -1):
            ops = build_operators(C4, eps_y=eps_y)
            spect = labeled_spectrum(ops)
            a_states = [st for st in spect if st.sector == "a"]
            p_states = [st for st in spect if st.sector == "p"]
            assert len(a_states) == len(p_states) == 2 ** (C4.n - 1)
            parity = 0 if eps_y == 1 else 1
            assert all(len(st.indices) % 2 == parity for st in spect)

    def test_vacuum_is_top_of_antiperiodic_sector(self):
        vac = next(st for st in SPECT4 if st.sector == "a" and st.indices == ())
        assert vac.eigenvalue == pytest.approx(max(st.eigenvalue for st in SPECT4))
        assert abs(vac.t_eigenvalue - 1.0) < 1e-10
        assert vac.charge == 1

    def test_spectrum_multiset_matches_prediction(self):
        for n in (2, 5, 6, 8):
            c = Couplings.from_kx_ky(0.4, 0.7, n)
            ops = build_operators(c, eps_y=1)
            w = np.sort(np.linalg.eigvalsh(ops.v))
            pred = np.sort([lab[2] for lab in predicted_fock_labels(c, 1)])
            assert np.max(np.abs(w - pred) / pred) < 1e-9

    def test_labels_match_direct_enumeration(self):
        c = Couplings.from_kx_ky(0.3, 0.9, 5)
        pref = (2.0 * math.sinh(2.0 * c.kx)) ** (c.n / 2.0)
        for eps_y in (1, -1):
            parity = 0 if eps_y == 1 else 1
            ref = []
            for sector, charge in (("a", 1), ("p", -1)):
                table = c.sector(sector)
                gam, th = table.gamma, table.thetas
                for k in range(parity, c.n + 1, 2):
                    for s in itertools.combinations(range(c.n), k):
                        lam = pref * math.exp(0.5 * gam.sum() - gam[list(s)].sum())
                        ref.append((sector, s, lam, np.exp(-1j * th[list(s)].sum()),
                                    charge * (-1) ** k))
            labels = predicted_fock_labels(c, eps_y)
            assert [lab[:2] + lab[4:] for lab in labels] \
                == [lab[:2] + lab[4:] for lab in ref]
            for lab, r in zip(labels, ref):
                assert abs(lab[2] - r[2]) <= 1e-13 * r[2]
                assert abs(lab[3] - r[3]) <= 1e-13

    def test_translation_eigenvalues(self):
        for st in SPECT4:
            thetas = C4.sector(st.sector).thetas[list(st.indices)]
            assert abs(st.t_eigenvalue - np.exp(-1j * thetas.sum())) < 1e-9

    def test_momentum_reversal_doublets_share_block(self):
        blocks = {}
        for st in SPECT4:
            blocks.setdefault(st.block, []).append(st.indices)
        multi = [sorted(v) for v in blocks.values() if len(v) > 1]
        assert multi == [[(0, 1), (2, 3)]]

    def test_eps_minus_one_spectrum(self):
        ops = build_operators(C4, eps_y=-1)
        spect = labeled_spectrum(ops)
        w = np.sort(np.linalg.eigvalsh(ops.v))
        pred = np.sort([lab[2] for lab in predicted_fock_labels(C4, -1)])
        assert np.max(np.abs(w - pred) / pred) < 1e-9
        for st in spect:
            thetas = C4.sector(st.sector).thetas[list(st.indices)]
            assert abs(st.t_eigenvalue - np.exp(-1j * thetas.sum())) < 1e-9

    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_labels_bottom_of_strong_coupling_spectrum(self, eps_y):
        c = Couplings.from_kx_ky(0.3, 0.9, 10)
        spect = labeled_spectrum(build_operators(c, eps_y=eps_y))
        assert len(spect) == 1024
        assert len({(st.sector, st.indices) for st in spect}) == 1024

    @pytest.mark.parametrize("kxy", BENCH_COUPLINGS, ids=str)
    @pytest.mark.parametrize("n", [5, 8, 10])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_eigen_properties_against_dense_operators(self, kxy, n, eps_y):
        c = Couplings.from_kx_ky(*kxy, n)
        ops = build_operators(c, eps_y=eps_y)
        spect = labeled_spectrum(ops)
        q = np.array([st.vector for st in spect])
        lam = np.array([st.eigenvalue for st in spect])
        t_val = np.array([st.t_eigenvalue for st in spect])
        charge = np.array([st.charge for st in spect])
        lam_max = np.max(lam)
        assert np.max(np.linalg.norm(q @ ops.v.T - lam[:, None] * q, axis=1)) \
            <= 1e-12 * lam_max
        assert np.max(np.linalg.norm(q[:, ops.shift] - t_val[:, None] * q, axis=1)) <= 1e-12
        assert np.max(np.linalg.norm(q[:, ops.flip] - charge[:, None] * q, axis=1)) <= 1e-12
        assert np.max(np.abs(q.conj() @ q.T - np.eye(len(spect)))) <= 1e-12
        predicted = {(lab[0], lab[1]): lab[2:] for lab in predicted_fock_labels(c, eps_y)}
        for st in spect:
            p_lam, p_t, p_charge = predicted[(st.sector, st.indices)]
            assert abs(st.eigenvalue - p_lam) <= _GROUP_TOL * p_lam
            assert abs(st.t_eigenvalue - p_t) <= _GROUP_TOL
            assert st.charge == p_charge

    # each eigenvalue group's vectors come from their own inverse iteration,
    # so vectors of distinct groups are orthogonal only to about
    # eps * lambda_max / gap: 5.5e-13 at (0.3, 0.9) and 1.1e-11 here, the
    # widest spectrum labelled at N=10 (eps_y=-1 is the strict xfail
    # test_labels_wide_spectrum_odd_tower); inside a group 1.3e-15 or less
    def test_eigen_properties_wide_spectrum(self):
        c = Couplings.from_kx_ky(0.2, 1.2, 10)
        ops = build_operators(c, eps_y=1)
        spect = labeled_spectrum(ops)
        q = np.array([st.vector for st in spect])
        lam = np.array([st.eigenvalue for st in spect])
        assert np.max(np.linalg.norm(q @ ops.v.T - lam[:, None] * q, axis=1)) \
            <= 1e-12 * np.max(lam)
        gram = np.abs(q.conj() @ q.T - np.eye(len(spect)))
        block = np.array([st.block for st in spect])
        same = block[:, None] == block[None, :]
        assert np.max(gram[same]) <= 1e-14
        assert np.max(gram[~same]) <= 5e-11

    @pytest.mark.parametrize("kxy, eps_y, blocks", [((0.4, 0.7), 1, 860),
                                                    ((0.5, 0.5), -1, 868)])
    def test_doublet_block_count_n10(self, kxy, eps_y, blocks):
        c = Couplings.from_kx_ky(*kxy, 10)
        spect = labeled_spectrum(build_operators(c, eps_y=eps_y))
        assert len({st.block for st in spect}) == blocks

    # at (0.3, 0.9) distinct eigenvalues at the bottom of a character block
    # differ by less than 1e-9 of the block's top, so only a grouping relative
    # to each eigenvalue labels them
    # ids: the coupling for eps_y = +1, with a "-odd" suffix for eps_y = -1
    @pytest.mark.parametrize("kxy, eps_y", [
        pytest.param(kxy, eps_y, id=str(kxy) + ("" if eps_y == 1 else "-odd"))
        for eps_y in (1, -1) for kxy in BENCH_COUPLINGS])
    def test_labels_every_state_n12(self, kxy, eps_y):
        c = Couplings.from_kx_ky(*kxy, 12)
        spect = labeled_spectrum(build_operators(c, eps_y=eps_y))
        labels = {(st.sector, st.indices) for st in spect}
        assert len(spect) == len(labels) == 4096
        assert labels == {lab[:2] for lab in predicted_fock_labels(c, eps_y)}

    # the spectrum of V spans 2.3e12 and its bottom eigenvalues miss their
    # predictions by up to 2e-9 relative, above _GROUP_TOL: a known fault of
    # the precision envelope, which passes loudly once mended
    @pytest.mark.xfail(raises=AmbiguousLabelError, strict=True,
                       reason="bottom eigenvalues off by 2e-9 relative at (0.2, 1.2)")
    def test_labels_wide_spectrum_odd_tower(self):
        c = Couplings.from_kx_ky(0.2, 1.2, 10)
        spect = labeled_spectrum(build_operators(c, eps_y=-1))
        assert len(spect) == 1024

    # the faulty cell above lies in neither block of this ff, whose own blocks
    # label cleanly; a ket in a faulty block is still refused
    def test_ff_in_clean_blocks_of_the_wide_spectrum(self, capsys):
        argv = ["ff", "--kx", "0.2", "--ky", "1.2", "--n", "10", "--site", "5"]
        assert cli.main(argv + ["--bra", "4", "--ket", "7"]) == cli.EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["oracle_agrees"] and results["oracle_residual"] <= 1e-12
        assert cli.main(argv + ["--bra", "1", "--ket", "3"]) == cli.EXIT_DOMAIN
        assert "matching labels" in capsys.readouterr().err

    @pytest.mark.parametrize("kxy", BENCH_COUPLINGS, ids=str)
    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_restriction_equals_full_spectrum(self, kxy, n, eps_y):
        c = Couplings.from_kx_ky(*kxy, n)
        ops = build_operators(c, eps_y=eps_y)
        full = labeled_spectrum(ops)
        labels = [lab[:2] for lab in predicted_fock_labels(c, eps_y)]
        a_side, p_side = ([lab for lab in labels if lab[0] == sector] for sector in "ap")
        rng = np.random.default_rng(n + 3 * eps_y)
        for _ in range(3):
            bra = a_side[rng.integers(len(a_side))]
            ket = p_side[rng.integers(len(p_side))]
            part = labeled_spectrum(ops, [bra, ket])
            held = {(st.t_eigenvalue, st.charge) for st in full
                    if (st.sector, st.indices) in (bra, ket)}
            assert len(held) == 2
            ref = [st for st in full if (st.t_eigenvalue, st.charge) in held]
            assert [(st.sector, st.indices, st.eigenvalue, st.t_eigenvalue, st.charge)
                    for st in part] == \
                [(st.sector, st.indices, st.eigenvalue, st.t_eigenvalue, st.charge)
                 for st in ref]
            assert _partition(part) == _partition(ref)
            spec = FormFactorSpec(int(rng.integers(n)), FockState(*bra), FockState(*ket))
            assert oracle_ff_modulus(ops, part, spec) == oracle_ff_modulus(ops, full, spec)

    def test_restriction_to_no_labeled_state_is_empty(self):
        assert labeled_spectrum(OPS4, [("a", (0,)), ("p", (1,))]) == []   # odd, eps_y=+1

    @pytest.mark.parametrize("kxy", [(0.4, 0.7), (0.3, 0.9)], ids=str)
    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_block_matrices_one_sum_per_conjugate_pair(self, kxy, n, eps_y):
        # a last-bit change of H_chi moves labels at the bottom of wide
        # spectra, so every summed block keeps the complex sum's bits
        ops = build_operators(Couplings.from_kx_ky(*kxy, n), eps_y=eps_y)
        ref = _complex_sum_blocks(ops)

        def blocks_of(spect):
            return {(_momentum(st.t_eigenvalue, n), st.charge): st._source for st in spect}

        blocks = blocks_of(labeled_spectrum(ops))
        # the same blocks labelled again, their rows read last to first
        backward = blocks_of(labeled_spectrum(ops))
        assert blocks.keys() == ref.keys()
        for (m, u), block in blocks.items():
            size = len((block.lead or block).w)
            rows = np.array([block.vector(row) for row in range(size)])
            # a row's vector is its group's, whatever row of the group is read first
            again = [backward[m, u].vector(row) for row in reversed(range(size))][::-1]
            assert rows.tobytes() == np.array(again).tobytes()
            if m > n:          # a partner: its lead's eigenvectors, conjugated
                lead = blocks[(2 * n - m, u)]
                assert block.h is None and block.lead is lead
                np.testing.assert_allclose(
                    rows, np.array([lead.vector(row) for row in range(size)]).conj(),
                    rtol=0, atol=1e-15)
                continue
            # a lead: the smaller index of its conjugate pair
            assert block.lead is None
            assert block.h.tobytes() == ref[(m, u)].tobytes()
            h = ref[(m, u)] + np.tril(ref[(m, u)], -1).conj().T
            q = np.array([block.column(row) for row in range(size)]).T
            lam_max = float(np.max(np.abs(block.w)))
            assert np.max(np.linalg.norm(h @ q - q * block.w, axis=0)) <= 1e-12 * lam_max
            assert np.max(np.abs(q.conj().T @ q - np.eye(size))) <= 1e-12

    def test_trace_power_spectral_vs_dense(self):
        m = 6
        w = np.linalg.eigvalsh(OPS4.v / np.linalg.eigvalsh(OPS4.v)[-1])
        dense = np.trace(np.linalg.matrix_power(
            OPS4.v / np.linalg.eigvalsh(OPS4.v)[-1], m))
        assert abs(np.sum(w ** m) / dense - 1.0) < 1e-10


def _partition(spectrum) -> set[frozenset]:
    """The states of each block, as a set of label sets."""
    blocks = {}
    for st in spectrum:
        blocks.setdefault(st.block, set()).add((st.sector, st.indices))
    return {frozenset(b) for b in blocks.values()}


def _momentum(t_eigenvalue: complex, n: int) -> int:
    """The m of a translation eigenvalue exp(-i pi m / N), in [0, 2N)."""
    return round(-cmath.phase(t_eigenvalue) * n / math.pi) % (2 * n)


def _complex_sum_blocks(ops) -> dict[tuple[int, int], np.ndarray]:
    """The lower triangle of every nonempty block H_chi, keyed by chi's (m, u):
    sum_g chi(g)^* V[r, g s] in g order as complex numbers, divided by
    sqrt(|Stab_r| |Stab_s|)."""
    act = oracle._group_action(ops)
    reps = np.unique(act.min(axis=0))
    stab = act[:, reps] == reps
    stab_size = stab.sum(axis=0)
    m, u, chi = oracle._characters(ops.couplings.n, ops.eps_y)
    keep = np.abs(chi @ stab - stab_size) < 0.5
    r, s = np.tril_indices(len(reps))
    acc = np.zeros((len(r), len(m)), dtype=complex)
    for v_g, phase in zip(ops.v_entries(reps[r], act[:, reps[s]]), chi.conj().T):
        acc += v_g[:, None] * phase
    acc /= np.sqrt(stab_size[r] * stab_size[s])[:, None]
    blocks = {}
    for k in np.flatnonzero(keep.any(axis=1)):
        col = np.cumsum(keep[k]) - 1
        inside = keep[k, r] & keep[k, s]
        h = np.zeros((col[-1] + 1,) * 2, dtype=complex)
        h[col[r[inside]], col[s[inside]]] = acc[inside, k]
        blocks[(int(m[k]), int(u[k]))] = h
    return blocks


def _drop_label(labels):
    keep = np.arange(len(labels)) != 5
    return oracle.FockLabels(labels.states[:5] + labels.states[6:], labels.split - 1,
                             labels.lam[keep], labels.t[keep], labels.charge[keep])


def _shift_label(labels):
    lam = labels.lam.copy()
    lam[5] *= 1 + 1e-6
    return dataclasses.replace(labels, lam=lam)


class TestLabelFailures:
    """Predicted labels that do not fit the spectrum raise AmbiguousLabelError,
    and the CLI exits 3 on it: on any label count that does not fit, and on
    an energy that does not match in the bra's or the ket's own character."""

    @pytest.mark.parametrize("edit, kind", [(_drop_label, "predicted"),
                                            (_shift_label, "matching")],
                             ids=["count", "energy"])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_tampered_labels(self, monkeypatch, capsys, edit, kind, eps_y):
        predicted = oracle.predicted_fock_labels

        def tampered(c, eps_y):
            return edit(predicted(c, eps_y))

        monkeypatch.setattr(oracle, "predicted_fock_labels", tampered)
        c = Couplings.from_kx_ky(0.4, 0.7, 6)
        with pytest.raises(AmbiguousLabelError, match=rf"has \d+ states but \d+ {kind} labels"):
            labeled_spectrum(build_operators(c, eps_y=eps_y))
        bra, ket = ("0,1", "") if eps_y == 1 else ("2", "1")
        if kind == "matching":
            # ff labels only the bra's and the ket's characters: a bra outside
            # the tampered label's character passes, and that label's own
            # state as the bra is refused
            assert cli.main(["ff", "--kx", "0.4", "--ky", "0.7", "--n", "6", "--bra", bra,
                             "--ket", ket]) == cli.EXIT_OK
            capsys.readouterr()
            sector, indices = predicted(c, eps_y)[5][:2]
            assert sector == "a"
            bra = ",".join(map(str, indices))
        code = cli.main(["ff", "--kx", "0.4", "--ky", "0.7", "--n", "6", "--bra", bra,
                         "--ket", ket])
        assert code == cli.EXIT_DOMAIN
        assert f"{kind} labels" in capsys.readouterr().err


def _fingerprint(spectrum) -> list[tuple]:
    """Every state's label, eigenvalue bits, quantum numbers, block id and
    vector bytes, then the bytes of every lead block's H_chi."""
    states = [(st.sector, st.indices, st.eigenvalue.hex(), st.t_eigenvalue, st.charge,
               st.block, st.vector.tobytes()) for st in spectrum]
    sources = {id(st._source): st._source for st in spectrum}.values()
    return states + [b.h.tobytes() for b in sources if b.h is not None]


class TestGeometryCache:
    """The coupling-free geometry of a width and boundary sign is built once
    and shared: labelling with it kept from another coupling gives the same
    bits as with it new, and none of its arrays can be written."""

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_kept_geometry_labels_bit_for_bit(self, eps_y, n):
        def label(kx, ky):
            return _fingerprint(labeled_spectrum(
                build_operators(Couplings.from_kx_ky(kx, ky, n), eps_y)))

        label(0.4, 0.7)
        kept = label(0.5, 0.5)
        oracle._geometry.cache_clear()
        assert label(0.5, 0.5) == kept

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_shared_arrays_are_read_only(self, eps_y, n):
        ops = build_operators(Couplings.from_kx_ky(0.4, 0.7, n), eps_y)
        st = labeled_spectrum(ops)[0]
        geometry = oracle._geometry(n, eps_y)
        arrays = [v for part in (geometry, geometry.symmetry) for v in vars(part).values()
                  if isinstance(v, np.ndarray)]
        assert len(arrays) >= 18
        for array in arrays + [*ops.sl, ops.shift, ops.flip, st._source.col, st._source.amp]:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]


class TestOracleMatrixElements:
    def test_width_one_vacuum_element(self):
        c = Couplings.from_kx_ky(0.4, 0.7, 1)
        ops = build_operators(c, eps_y=1)
        spect = labeled_spectrum(ops)
        spec = FormFactorSpec(0, FockState("a", ()), FockState("p", ()))
        assert oracle_ff_modulus(ops, spect, spec) == pytest.approx(1.0)

    def test_same_sector_elements_vanish(self):
        a_states = [st for st in SPECT4 if st.sector == "a"]
        s1 = np.diag(OPS4.sl[1])
        val = abs(np.vdot(a_states[0].vector, s1 @ a_states[1].vector))
        assert val < 1e-12

    def test_odd_total_particle_number_vanishes(self):
        # an even antiperiodic state against an odd periodic one (taken from
        # the eps_y = -1 tower) carries the same flip charge, so the spin
        # matrix element between them is zero
        ops_m = build_operators(C4, eps_y=-1)
        spect_m = labeled_spectrum(ops_m)
        even_a = next(st for st in SPECT4 if st.sector == "a" and st.indices == ())
        odd_p = next(st for st in spect_m if st.sector == "p" and len(st.indices) == 1)
        s0 = np.diag(OPS4.sl[0])
        assert abs(np.vdot(even_a.vector, s0 @ odd_p.vector)) < 1e-12

    def test_missing_state_reported(self):
        spec = FormFactorSpec(0, FockState("a", (0,)), FockState("p", (1,)))
        with pytest.raises(DomainError):
            oracle_ff_modulus(OPS4, SPECT4, spec)  # odd states, eps_y=+1 tower


class TestOracleCorrelation:
    def test_coincident_points(self):
        assert oracle_correlation(OPS4, 4, 0, 0) == pytest.approx(1.0)

    @pytest.mark.parametrize("eps_x", [1, -1])
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_coincident_points_are_exact_on_both_routes(self, eps_x, eps_y):
        # s_0^2 = 1, U^chi s_0 = eps_x s_0 U^chi carries s_0 round the torus
        # (dx = M), and T^N = U for eps_y = -1 flips it (|dy| = N)
        ops = build_operators(C4, eps_y=eps_y)
        for dx, dy in itertools.product((0, 5), (0, 4, -4, 8)):
            exact = (eps_x if dx else 1) * (eps_y if abs(dy) == C4.n else 1)
            assert two_point_correlation(C4, 5, dx, dy, eps_x=eps_x, eps_y=eps_y) == exact
            dense = oracle_correlation(ops, 5, dx, dy, eps_x=eps_x)
            assert abs(dense - exact) < 1e-12, (dx, dy, dense)

    # at eps_x = -1 in the ordered phase the dense trace sums the positive
    # entries of V^M; against its 40-digit value from the same double V
    @pytest.mark.parametrize("kx, ky, n, m_height, dx, dy, value", [
        (6.0, 6.0, 4, 16, 3, 11, 0.625),
        (1.0, 1.2, 5, 4, 1, 1, 0.49905912821372606),   # the spectral sum is 7.1e-13 off
    ])
    def test_dense_trace_against_a_40_digit_trace(self, kx, ky, n, m_height, dx, dy, value):
        mpmath = pytest.importorskip("mpmath")
        ops = build_operators(Couplings.from_kx_ky(kx, ky, n))
        dim = ops.dim
        s0, mid = (1 - 2 * ((np.arange(dim) >> (n - 1 - j)) & 1) for j in (0, dy % n))
        with mpmath.workdps(40):
            v = mpmath.matrix(ops.v.tolist())
            left, right = v ** dx, v ** (m_height - dx)
            terms = [(left[i, k] * right[k, dim - 1 - i], int(s0[i] * mid[k]))
                     for i in range(dim) for k in range(dim)]      # U|i> = |dim - 1 - i>
            ref = mpmath.fsum(t * s for t, s in terms) / mpmath.fsum(t for t, _ in terms)
            assert abs(ref - value) < 1e-16
            assert abs(oracle_correlation(ops, m_height, dx, dy, eps_x=-1) - ref) < 1e-14

    def test_reflection_in_dy(self):
        a = oracle_correlation(OPS4, 4, 1, 1)
        b = oracle_correlation(OPS4, 4, 1, C4.n - 1)
        assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_approach_to_cylinder(self):
        vals = [oracle_correlation(OPS4, m, 1, 0) for m in (4, 8, 12, 16)]
        diffs = np.abs(np.diff(vals))
        assert np.all(np.diff(diffs) < 0)

    def test_matches_spectral_route(self):
        for eps_x in (1, -1):
            v1 = two_point_correlation(C4, 4, 1, 2, eps_x=eps_x, eps_y=1)
            v2 = oracle_correlation(OPS4, 4, 1, 2, eps_x=eps_x)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_matches_spectral_route_n10(self):
        c = Couplings.from_kx_ky(0.3, 0.9, 10)
        ops = build_operators(c, eps_y=1)
        for eps_x in (1, -1):
            v1 = two_point_correlation(c, 6, 2, 3, eps_x=eps_x, eps_y=1)
            v2 = oracle_correlation(ops, 6, 2, 3, eps_x=eps_x)
            assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1), abs(v2))

    # every T eigenvalue is a 2N-th root of unity (T^N = U for eps_y = -1):
    # the spectral sum reduces |dy| mod 2N and keeps its sign, so a shift by
    # a multiple of 2N that keeps the sign repeats it bit for bit, and one
    # that flips the sign to rounding; the dense route reduces dy mod 2N
    @pytest.mark.parametrize("eps_y", [1, -1])
    def test_dy_counts_modulo_2n(self, eps_y):
        c = Couplings.from_kx_ky(0.4, 0.7, 8)
        ops = build_operators(c, eps_y=eps_y)
        period = 2 * c.n
        for dy in (3, -5):
            sign = 1 if dy > 0 else -1
            same_sign = [dy, dy + sign * period * 10 ** 6, dy + sign * period * 10 ** 12]
            flipped = [dy - sign * period * 10 ** 6]
            spectral = {two_point_correlation(c, 8, 2, d, eps_y=eps_y) for d in same_sign}
            dense = {oracle_correlation(ops, 8, 2, d) for d in same_sign + flipped}
            assert len(spectral) == len(dense) == 1, (spectral, dense)
            assert two_point_correlation(c, 8, 2, flipped[0], eps_y=eps_y) \
                == pytest.approx(spectral.pop(), rel=1e-13, abs=1e-15)

    def test_limits(self):
        with pytest.raises(ResourceError):
            oracle_correlation(OPS4, 65, 1, 0)
        with pytest.raises(DomainError):
            oracle_correlation(OPS4, 4, 5, 0)

    @pytest.mark.parametrize("m_height", [0, -1])
    def test_torus_of_no_height_rejected(self, m_height):
        # a height-0 trace ratio is Tr[s_0 s_0] / Tr[1], not a correlation
        for dy in (0, 1):
            with pytest.raises(DomainError, match="height"):
                oracle_correlation(OPS4, m_height, 0, dy)
            with pytest.raises(DomainError, match="height"):
                two_point_correlation(C4, m_height, 0, dy)
