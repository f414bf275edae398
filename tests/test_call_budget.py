"""Call budgets of the verification suites.

The suites evaluate their checks as stacks: one Frobenius stack per matrix
size, one form-factor stack per (m, n) group, over every site at once for the
translation phases, and the Ising closed forms of a coupling share one
record, in which each sn/cn/dn grid, Phi^-1 and log det Phi is built once.
An elliptic Cauchy config evaluates theta_1 once, over every argument its
Frobenius formulas and interpolation terms read, so the closed products read
the interpolation terms of the Ising config that Phi^-1 built.
The elliptic assembly of the pairing matrix gathers its entries from sn
grids built once per coupling, the form-factor suite builds one pairing
matrix per stack for both the pfaffian route and the assembly check, and the
elliptic suite and the Cauchy suite's sn-pfaffian check draw every point
first and evaluate sn/cn/dn once.
Counting the theta_1 evaluations and the route calls pins that down, so a
return to per-config, per-site or per-check loops fails here.  The pins are
the exact counts at N=8, (0.4, 0.7).  Evaluated one config at a time, the
Cauchy suite makes 403 theta_1 evaluations there, and 159 with its
per-point factors (lambda, f, g) rebuilt by each closed form; ``verify all``
made 179 while the rotation suite built Phi^-1 and log det Phi again.  With
theta_1 evaluated once per Frobenius formula rather than once per config,
the Cauchy suite made 132 and ``verify all`` 167, and with one evaluation
per Cauchy config 27 and 62 (the elliptic suite 25, the form-factor suite
10, one sn evaluation per stack).  With one stack per site, the form-factor
suite made 46 ff_closed and 42 ff_pfaffian calls, and 18 and 14 with the
translation phases over every site at once; ff_pfaffian now runs for the
translation phases only.

The oracle labels its states from eigenvalues alone, each pair of conjugate
character blocks once per coupling and process up to N=10: one eigenvalue
call, grouped per character, kept with each character's label of each row
in the coupling's tower (wider towers are not kept).  It makes no full eigendecomposition: the eigenvectors of
one eigenvalue group of a block are formed by inverse iteration on the
group's eigenvalues, once per group, conjugate pair, coupling and process,
when one of them is read, and kept read-only on the lead as columns of its
block; a state's full-space vector is expanded from its column on each read
and is not kept.  A form factor below 1e-6 is read again from its two
groups' vectors refined against V's factors, one refinement per group.
``isingff ff`` labels two character blocks, the bra's and the ket's, out of
twenty at N=10, and forms only the columns of the bra's and the ket's
eigenvalue groups, one inverse iteration each; a second call with either
block kept labels and forms nothing of it again.  The oracle's
coupling-free geometry is built once per (N, eps_y) and read by every later
coupling.  The oracle counts here start from no kept tower.
"""

import cmath
import math

import numpy as np
import pytest

from isingff import cauchy, cli, elliptic, oracle, verification
from isingff.formfactors import FockState, FormFactorSpec
from isingff.spectral import Couplings

THETA1_BUDGET = {"elliptic": 4, "cauchy": 18, "formfactor": 3, "all": 23}
ROUTE_BUDGET = {"ff_closed": 18, "ff_pfaffian": 4}


@pytest.fixture
def counted(monkeypatch):
    """A fresh N=8 coupling, with eta solved, and the calls counted from then on."""
    c = Couplings.from_kx_ky(0.4, 0.7, 8)
    cauchy.ising_eta(c)   # solving eta is construction work, not the suites'
    counted = dict.fromkeys(("theta1", *ROUTE_BUDGET), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(elliptic, "_theta1", counting("theta1", elliptic._theta1))
    for name in ROUTE_BUDGET:
        monkeypatch.setattr(verification, name, counting(name, getattr(verification, name)))
    # a cold record cache, so the count does not depend on earlier tests
    cauchy.ising_record.cache_clear()
    return c, counted


def test_elliptic_suite_budget(counted):
    # one sn/cn/dn evaluation, and one theta call per index (1, 2 and 4)
    c, counts = counted
    verification.elliptic_suite(c)
    assert counts["theta1"] == THETA1_BUDGET["elliptic"]


def test_cauchy_suite_budget(counted):
    c, counts = counted
    verification.cauchy_suite(c)
    assert counts["theta1"] == THETA1_BUDGET["cauchy"]


def test_formfactor_suite_budget(counted):
    # the aa, pp and bra x ket sn grids of the elliptic assembly
    c, counts = counted
    verification.formfactor_suite(c)
    assert counts["theta1"] == THETA1_BUDGET["formfactor"]
    for name, budget in ROUTE_BUDGET.items():
        assert counts[name] == budget, name


def test_all_suites_budget(counted):
    # the rotation suite reads Phi^-1 and log det Phi from the Cauchy suite's
    # record, and the form-factor suite its aa and pp sn grids
    c, counts = counted
    verification.run_suite("all", c)
    assert counts["theta1"] == THETA1_BUDGET["all"]


def test_one_theta1_evaluation_per_cauchy_config(counted):
    _, counts = counted
    rng = np.random.default_rng(1)
    xs, ys = (rng.uniform(-1.1, 1.1, (3, 4)) + 1j * rng.uniform(-0.2, 0.2, (3, 4))
              for _ in range(2))
    cfg = cauchy.EllipticPointConfig(xs, ys, 0.05, [0.7, 0.8 + 0.1j, 0.9])
    cauchy.elliptic_cauchy_matrix(cfg)
    cauchy.frobenius_log_det(cfg)
    cauchy.frobenius_inverse(cfg)
    assert counts["theta1"] == 1


@pytest.fixture
def eigh_calls(monkeypatch):
    """The oracle's eigensolver calls from then on, on no kept tower: eigvalsh
    for values, inverse iteration for vectors, and any full eigh."""
    calls = {"values": 0, "vectors": 0, "eigh": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    assert not hasattr(oracle, "eigh")
    monkeypatch.setattr(oracle, "eigvalsh", counting("values", oracle.eigvalsh))
    monkeypatch.setattr(oracle, "_group_eigenvectors",
                        counting("vectors", oracle._group_eigenvectors))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    oracle._tower.cache_clear()     # a cold labelling, whatever ran before
    return calls


def _blocks(spect) -> list:
    """The distinct character blocks behind the states of ``spect``."""
    return list({id(st._source): st._source for st in spect}.values())


def _leads(spect) -> list:
    """The distinct lead blocks behind the states of ``spect``; a wanted
    partner's lead may hold no returned state."""
    return list({id(b.lead or b): b.lead or b for b in _blocks(spect)}.values())


# the odd tower's group is cyclic of order 2N, so its character table differs
@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("eps_y", [1, -1])
def test_oracle_labels_without_eigenvectors(eigh_calls, eps_y, n):
    c = Couplings.from_kx_ky(0.4, 0.7, n)
    spect = oracle.labeled_spectrum(oracle.build_operators(c, eps_y))
    blocks = {(st.t_eigenvalue, st.charge) for st in spect}
    # chi = (m, u) and its conjugate (-m, u) share one eigenvalue call
    moms = {t: round(-cmath.phase(t) * n / math.pi) % (2 * n) for t, _ in blocks}
    pairs = {(min(moms[t], -moms[t] % (2 * n)), u) for t, u in blocks}
    assert len(pairs) == {(8, 1): 10, (8, -1): 9, (10, 1): 12, (10, -1): 11}[n, eps_y]
    assert eigh_calls == {"values": len(pairs), "vectors": 0, "eigh": 0}
    for st in spect:
        assert st.vector.tobytes() == st.vector.tobytes()   # a re-read forms the same vector
    # one inverse iteration per eigenvalue group of a lead block: a
    # partner block's eigenvectors are its lead's, conjugated
    groups = {st.block for st in spect if st._source.lead is None}
    assert eigh_calls == {"values": len(pairs), "vectors": len(groups), "eigh": 0}
    # the leads keep one H_chi column per state of a lead block, and no
    # full-space vector is kept
    assert sum(len(lead.columns) for lead in _leads(spect)) == \
        sum(st._source.lead is None for st in spect)


# ff labels only the bra's and the ket's characters: one eigenvalue call per
# conjugate pair among the two, a partner's (m > N) on its lead's block, and
# one inverse iteration for each of the two states
@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("eps_y", [1, -1])
def test_oracle_ff_labels_two_characters(capsys, eigh_calls, eps_y, n):
    bra, ket = ((1, 2), (0, 5)) if eps_y == 1 else ((3,), (1, 2, 6))
    c = Couplings.from_kx_ky(0.4, 0.7, n)
    labels = {lab[:2]: lab[3:] for lab in oracle.predicted_fock_labels(c, eps_y)}
    pairs = set()
    for t, u in (labels["a", bra], labels["p", ket]):
        m = round(-cmath.phase(t) * n / math.pi) % (2 * n)
        pairs.add((min(m, -m % (2 * n)), u))
    code = cli.main(["ff", "--kx", "0.4", "--ky", "0.7", "--n", str(n), "--site", "3",
                     "--bra", ",".join(map(str, bra)), "--ket", ",".join(map(str, ket))])
    capsys.readouterr()
    assert code == 0
    assert eigh_calls == {"values": len(pairs), "vectors": 2, "eigh": 0}


# a second identical ff call reads the tower and the vectors the first one
# kept: no eigenvalue call and no inverse iteration, and the same output
@pytest.mark.parametrize("eps_y", [1, -1])
def test_oracle_ff_labels_once_per_coupling(capsys, eigh_calls, eps_y):
    bra, ket = ("1,2", "0,5") if eps_y == 1 else ("3", "1,2,6")
    argv = ["ff", "--kx", "0.4", "--ky", "0.7", "--n", "10", "--site", "3",
            "--bra", bra, "--ket", ket]
    assert cli.main(argv) == 0
    first, cold = capsys.readouterr().out, dict(eigh_calls)
    assert cold["values"] >= 1 and cold["vectors"] == 2
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert eigh_calls == cold


# ff labels the bra's and the ket's characters and forms the columns of their
# eigenvalue groups alone; a bra in a momentum-reversal doublet has two, from
# one inverse iteration
@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("eps_y", [1, -1])
def test_oracle_ff_forms_the_vectors_of_two_blocks(monkeypatch, capsys, eigh_calls, eps_y, n):
    bra = {(8, 1): (1, 2), (10, 1): (1, 3), (8, -1): (1, 2, 4), (10, -1): (1, 3, 5)}[n, eps_y]
    ket = (0, 5) if eps_y == 1 else (1, 2, 6)
    spectra = []

    def keeping(*args):
        spectra.append(oracle.labeled_spectrum(*args))
        return spectra[-1]

    monkeypatch.setattr(cli, "labeled_spectrum", keeping)
    code = cli.main(["ff", "--kx", "0.4", "--ky", "0.7", "--n", str(n), "--site", "3",
                     "--bra", ",".join(map(str, bra)), "--ket", ",".join(map(str, ket))])
    capsys.readouterr()
    assert code == 0
    assert eigh_calls["vectors"] == 2 and eigh_calls["eigh"] == 0
    (spect,) = spectra
    ids = [oracle.find_state(spect, sector, idx).block for sector, idx in (("a", bra), ("p", ket))]
    held = [sum(st.block == b for st in spect) for b in ids]
    assert held[0] == 2 and held[1] in (1, 2)
    assert sum(len(lead.columns) for lead in _leads(spect)) == sum(held)


# a form factor below 1e-6 is taken again from refined vectors: one
# refinement for each of its two groups, on the vectors of their one inverse
# iteration each; a larger one refines nothing
@pytest.mark.parametrize("kx, ky, site, bra, ket, refined", [
    ("0.4", "0.7", "3", "1,3", "0,5", 0),            # |F| = 0.0376
    ("0.2", "1.2", "6", "0,9", "2,5,6,7", 2),        # |F| = 2.55e-8
])
def test_oracle_ff_refines_small_form_factors_only(monkeypatch, capsys, eigh_calls,
                                                   kx, ky, site, bra, ket, refined):
    calls = []
    refine = oracle._refined_group

    def counting(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(oracle, "_refined_group", counting)
    code = cli.main(["ff", "--kx", kx, "--ky", ky, "--n", "10", "--site", site,
                     "--bra", bra, "--ket", ket])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == refined and eigh_calls["vectors"] == 2 and eigh_calls["eigh"] == 0


# the oracle's geometry (group action, character blocks, spin distances)
# depends on (N, eps_y) alone: ff builds it on its first call and every
# later coupling reads it
def test_oracle_ff_builds_the_geometry_once_per_width_and_sign(capsys):
    oracle._geometry.cache_clear()
    for n in (8, 10):
        for kx, ky in ((0.4, 0.7), (0.5, 0.5), (0.3, 0.9)):
            for bra, ket in (("1", "0,2,3"), ("0,3", "1,4")):
                code = cli.main(["ff", "--kx", str(kx), "--ky", str(ky), "--n", str(n),
                                 "--site", "3", "--bra", bra, "--ket", ket])
                assert code == 0
    capsys.readouterr()
    assert oracle._geometry.cache_info().misses == 4      # (8, +1), (8, -1), (10, +1), (10, -1)


# a bra in a momentum-reversal doublet, and a singleton pair
@pytest.mark.parametrize("bra, ket", [((0, 3), (1, 4)), ((0, 7), ())])
def test_oracle_ff_modulus_same_before_and_after_expansion(bra, ket):
    c = Couplings.from_kx_ky(0.4, 0.7, 8)
    ops = oracle.build_operators(c)
    spect = oracle.labeled_spectrum(ops)
    spec = FormFactorSpec(3, FockState("a", bra), FockState("p", ket))
    first = oracle.oracle_ff_modulus(ops, spect, spec)
    assert all(st.vector.shape == (ops.dim,) for st in spect)   # expands every block
    assert oracle.oracle_ff_modulus(ops, spect, spec) == first
