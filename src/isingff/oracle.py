"""Brute-force transfer-matrix oracle on the full 2^N spin space.

Holds the spin operators and V_y^{1/2} as diagonals, the translation T and
the global flip U as index maps, and V as one entry formula, and labels
every eigenstate of V with a Fock momentum set.  T and U generate an abelian
group, so V is diagonalized in one small block per (momentum, charge)
character, read off V at the orbit representatives; each block's
eigenvalues are grouped by a tolerance relative to the eigenvalue and
matched in energy order against the predicted labels with the same
(momentum, charge) key.  Everything here is independent of the closed-form
modules except for the shared dispersion gamma_theta, so it serves as
ground truth for matrix elements and correlations at small N.

Momentum-reversal doublets: states whose momentum sets S and -S share the
same energy, translation eigenvalue, and charge (possible for N >= 4, at any
coupling) cannot be separated by these quantum numbers, and no further
commuting lattice operator in this set distinguishes them.  Such states are
labeled as one degenerate block carrying the multiset of labels; matrix
elements touching a block are only defined through basis-invariant
(Frobenius-norm) combinations, which is what :func:`oracle_ff_modulus`
returns.  Singleton blocks reduce to plain matrix elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh

from .exceptions import AmbiguousLabelError, DomainError, ResourceError
from .formfactors import FormFactorSpec, fock_basis
from .spectral import Couplings

_MAX_DENSE_N = 12
_TRACE_MAX_N, _TRACE_MAX_M = 10, 64  # widths and heights the dense trace ratio takes
# eigenvalue grouping and label matching, relative to the eigenvalue: the
# spectrum spans about ten decades at N=10, (0.3, 0.9), so a tolerance
# relative to the top merges distinct states at the bottom
_GROUP_TOL = 1e-9


@dataclass
class SpinOperatorSet:
    """The chain for one eps_y: diagonals, index maps and V's entry formula;
    the dense :attr:`v` is formed on first read."""

    couplings: Couplings
    eps_y: int
    vy_half: np.ndarray           # diagonal of V_y^{1/2}
    sl: list[np.ndarray]          # diagonal of each spin operator
    shift: np.ndarray             # (T x)[i] = x[shift[i]]
    flip: np.ndarray              # (U x)[i] = x[flip[i]]

    @property
    def dim(self) -> int:
        return len(self.flip)

    def v_entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """V[rows, cols] over broadcast basis-index arrays.  V_x is the product
        over sites of ch + sh sigma^x_j (Kaufman 1949), so its entry between
        basis states that differ on d spins is ch^(N-d) sh^d."""
        c, d = self.couplings, np.arange(self.couplings.n + 1)
        table = (2.0 * math.sinh(2.0 * c.kx)) ** (c.n / 2.0) \
            * math.cosh(c.kx_star) ** (c.n - d) * math.sinh(c.kx_star) ** d
        bits = np.count_nonzero(np.array(self.sl) < 0.0, axis=0)   # down spins
        return self.vy_half[rows] * table[bits[rows ^ cols]] * self.vy_half[cols]

    @cached_property
    def v(self) -> np.ndarray:
        idx = np.arange(self.dim)
        return self.v_entries(idx[:, None], idx[None, :])

    def commutator_residuals(self) -> dict[str, float]:
        v = self.v
        scale = float(np.max(np.abs(v)))
        back = np.argsort(self.shift)       # V T = v[:, back], T V = v[shift, :]
        return {
            "V_U": float(np.max(np.abs(v[:, self.flip] - v[self.flip, :]))) / scale,
            "V_T": float(np.max(np.abs(v[:, back] - v[self.shift, :]))) / scale,
            "T_U": float(np.any(self.shift[self.flip] != self.flip[self.shift])),
            "V_symmetry": float(np.max(np.abs(v - v.T))) / scale,
        }


@dataclass
class LabeledEigenstate:
    """Eigenvector with its quantum numbers and matched Fock label."""

    vector: np.ndarray
    sector: str
    indices: tuple[int, ...]
    eigenvalue: float
    t_eigenvalue: complex
    charge: int
    block: int


def _spin_table(n: int) -> np.ndarray:
    """spins[i, j] = sigma_j of basis state i (site 0 on the most significant bit)."""
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    return 1.0 - 2.0 * bits


def build_operators(c: Couplings, eps_y: int = 1) -> SpinOperatorSet:
    """V, spin, flip, and translation operators for width-N chains.

    V = (2 sinh 2kx)^{N/2} V_y^{1/2} V_x V_y^{1/2} with V_y diagonal in the
    spin basis (so its square root is an entrywise exponential of half the
    coupling) and V_x a product of commuting single-site flips; the
    symmetrized form makes V manifestly symmetric positive definite.
    """
    if eps_y not in (1, -1):
        raise DomainError("eps_y must be +1 or -1")
    n = c.n
    if n > _MAX_DENSE_N:
        raise ResourceError(f"dense oracle limited to N <= {_MAX_DENSE_N}, got {n}")
    dim = 1 << n
    spins = _spin_table(n)

    bond = sum(spins[:, j] * spins[:, (j + 1) % n] * (eps_y if j == n - 1 else 1)
               for j in range(n))
    vy_half = np.exp(0.5 * c.ky * bond)

    idx = np.arange(dim)
    flip = idx ^ (dim - 1)
    msb = ((idx >> (n - 1)) & 1) ^ (eps_y == -1)
    shift = ((idx << 1) & (dim - 1)) | msb
    return SpinOperatorSet(couplings=c, eps_y=eps_y, vy_half=vy_half,
                           sl=list(spins.T.copy()), shift=shift, flip=flip)


def predicted_fock_labels(c: Couplings, eps_y: int):
    """All surviving Fock labels with predicted (V, T, U) values.

    For eps_y = +1 only even particle numbers survive in either sector; for
    eps_y = -1 only odd ones.  Charges: the two vacua carry +1 (antiperiodic)
    and -1 (periodic), and every particle flips the sign.
    """
    parity = 0 if eps_y == 1 else 1
    pref = (2.0 * math.sinh(2.0 * c.kx)) ** (c.n / 2.0)
    labels = []
    for sector, base_charge in (("a", 1), ("p", -1)):
        basis = fock_basis(c, sector, parity)
        lams = (pref * np.exp(basis.energies)).tolist()
        t_vals = np.exp(-1j * basis.momenta).tolist()
        charge = base_charge * (-1) ** parity
        labels += [(sector, s, lam, t_val, charge)
                   for s, lam, t_val in zip(basis.states, lams, t_vals)]
    return labels


def _group_action(ops: SpinOperatorSet) -> np.ndarray:
    """act[j + N*s, x]: the basis index of T^j U^s |x>, for j < N and s in (0, 1).

    T and U commute and generate an abelian group G of order 2N (T^N = 1 for
    eps_y = +1, T^N = U for eps_y = -1), so the 2N rows are all of G.
    """
    n = ops.couplings.n
    step = np.argsort(ops.shift)          # T|x> = |step[x]>
    act = np.empty((2 * n, ops.dim), dtype=np.intp)
    act[0] = np.arange(ops.dim)
    for j in range(1, n):
        act[j] = step[act[j - 1]]
    act[n:] = act[:n, ops.flip]
    return act


def _characters(n: int, eps_y: int) -> list[tuple[int, int]]:
    """Every character (m, u) of G: T -> exp(-i pi m / N), U -> u."""
    if eps_y == 1:
        return [(m, u) for m in range(0, 2 * n, 2) for u in (1, -1)]
    return [(m, (-1) ** m) for m in range(2 * n)]


def labeled_spectrum(ops: SpinOperatorSet, c: Couplings) -> list[LabeledEigenstate]:
    """Simultaneous (V, T, U) eigenbasis with Fock labels attached.

    V is diagonalized in one block per character chi = (T, U) of the symmetry
    group G = {T^j U^s}.  Each block is spanned by the projections
    |r_chi> = (|G| |Stab_r|)^{-1/2} sum_g chi(g)^* g|r> of the orbit
    representatives r (smallest basis index) whose stabilizer chi is trivial
    on, so H_chi[r, s] = sum_g chi(g)^* V[r, g s] / sqrt(|Stab_r| |Stab_s|)
    is read off V at the representatives, and the eigenvectors are expanded
    back to the full space, orthonormal.

    The predicted labels are placed into blocks by their (momentum, charge)
    key.  Inside a block the eigenvalues are grouped by the relative
    tolerance ``_GROUP_TOL * |lambda|`` and both sides are walked in energy
    order: each group must match exactly as many labels as it has states,
    the next ones in energy order, otherwise an AmbiguousLabelError is
    raised, as it is when a block and its labels differ in number, a label
    is left over, or a label is used twice.  Groups of more than one state
    are momentum-reversal doublets: their vectors share a block id and the
    label-to-vector assignment inside the block is not physically
    meaningful.
    """
    n, dim = c.n, ops.dim
    act = _group_action(ops)
    rep_of = act.min(axis=0)
    to_rep = act.argmin(axis=0)           # an element g with g|x> = |rep_of[x]>
    reps, orbit = np.unique(rep_of, return_inverse=True)
    stab = act[:, reps] == reps           # (|G|, R): g fixes representative r
    stab_size = stab.sum(axis=0)
    v_reps = ops.v_entries(reps[None, :, None], act[:, reps][:, None, :])   # V[r, g s]
    norm = np.sqrt(np.outer(stab_size, stab_size))
    amp_size = np.sqrt(stab_size[orbit] / len(act))
    j = np.arange(n)

    labels = predicted_fock_labels(c, ops.eps_y)
    by_key: dict[tuple[int, int], list[int]] = {}
    for i, (sector, indices, _, _, charge) in enumerate(labels):
        # the momentum is pi m / N modulo 2 pi
        m = 2 * sum(indices) + (len(indices) if sector == "a" else 0)
        by_key.setdefault((m % (2 * n), charge), []).append(i)

    states: list[LabeledEigenstate] = []
    block_id = 0
    for m, charge in _characters(n, ops.eps_y):
        phase = np.exp(-1j * math.pi * ((m * j) % (2 * n)) / n)
        chi = np.concatenate([phase, charge * phase])
        keep = np.abs(chi @ stab - stab_size) < 0.5      # chi trivial on Stab_r
        size = int(np.count_nonzero(keep))
        t_here = complex(np.exp(-1j * math.pi * m / n))
        cell = sorted(by_key.pop((m, charge), []), key=lambda i: labels[i][2])
        if len(cell) != size:
            raise AmbiguousLabelError(
                f"block T={t_here:.4f}, U={charge} has {size} states "
                f"but {len(cell)} predicted labels"
            )
        if not size:
            continue
        h = np.einsum("g,grs->rs", chi.conj(), v_reps[:, keep][:, :, keep]) \
            / norm[np.ix_(keep, keep)]
        # QR iteration: the bottom of the spectrum keeps its relative accuracy
        # (divide and conquer loses it, 6.7e-8 at N=12, (0.3, 0.9)) and the
        # vectors are orthonormal to 1e-13 (MRRR's to 3e-13)
        w, q = eigh(h, driver="ev")
        # <x|r_chi> = chi(g) sqrt(|Stab_r| / |G|) for the g with g|x> = |r>
        inside = keep[orbit]
        col = (np.cumsum(keep) - 1)[orbit[inside]]
        vecs = np.zeros((size, dim), dtype=complex)
        vecs[:, inside] = q[col].T * (chi[to_rep[inside]] * amp_size[inside])

        lams = np.array([labels[i][2] for i in cell])
        starts = np.r_[0, np.nonzero(np.diff(w) > _GROUP_TOL * np.abs(w[1:]))[0] + 1]
        ends = np.r_[starts[1:], size]
        lam_grp = np.add.reduceat(w, starts) / (ends - starts)
        tol = _GROUP_TOL * np.abs(lam_grp)
        lo = np.searchsorted(lams, lam_grp - tol, side="left")
        hi = np.searchsorted(lams, lam_grp + tol, side="right")
        bad = np.nonzero((lo != starts) | (hi != ends))[0]
        if bad.size:
            g = bad[0]
            raise AmbiguousLabelError(
                f"cell with V={lam_grp[g]:.6g}, T={t_here:.4f}, U={charge} "
                f"has {ends[g] - starts[g]} states but {hi[g] - lo[g]} matching labels, "
                f"the first at position {lo[g]} of {size} in energy order, not {starts[g]}"
            )
        # inside a group the labels keep their predicted order
        grp_of = np.repeat(np.arange(len(starts)), ends - starts)
        cell = np.asarray(cell)[np.lexsort((cell, grp_of))].tolist()
        lam_of = lam_grp.tolist()
        for k, (i, g) in enumerate(zip(cell, grp_of.tolist())):
            lab = labels[i]
            states.append(LabeledEigenstate(
                vector=vecs[k],
                sector=lab[0],
                indices=tuple(lab[1]),
                eigenvalue=lam_of[g],
                t_eigenvalue=t_here,
                charge=charge,
                block=block_id + g,
            ))
        block_id += len(starts)

    # the label set must be exhausted exactly once
    if len(states) != len(labels):
        raise AmbiguousLabelError(
            f"matched {len(states)} states to {len(labels)} predicted labels"
        )
    # remove duplicates check: each label used at most once
    seen = {}
    for st in states:
        key = (st.sector, st.indices)
        if key in seen:
            raise AmbiguousLabelError(f"label {key} assigned twice")
        seen[key] = st
    return states


def find_state(spectrum: list[LabeledEigenstate], sector: str,
               indices: tuple[int, ...]) -> LabeledEigenstate:
    """The labeled state (``sector``, ``indices``), by a scan of the list."""
    for st in spectrum:
        if st.sector == sector and st.indices == tuple(indices):
            return st
    raise DomainError(
        f"state ({sector}, {indices}) is not in the labeled spectrum; "
        f"check the particle-number parity for these boundary conditions"
    )


def oracle_ff_modulus(ops: SpinOperatorSet, spectrum: list[LabeledEigenstate],
                      spec: FormFactorSpec) -> float:
    """|<bra| s_l |ket>| from the labeled eigenvectors (modulus only).

    If either state sits in a degenerate momentum-reversal block, the
    returned value is the basis-invariant Frobenius norm of the spin-operator
    sub-block between the two blocks; for singleton blocks this is the plain
    matrix-element modulus.
    """
    bra = find_state(spectrum, "a", spec.bra.indices)
    ket = find_state(spectrum, "p", spec.ket.indices)
    bra_vecs = [st.vector for st in spectrum if st.block == bra.block]
    ket_vecs = [st.vector for st in spectrum if st.block == ket.block]
    diag = ops.sl[spec.site]
    total = 0.0
    for vb in bra_vecs:
        for vk in ket_vecs:
            total += abs(np.vdot(vb, diag * vk)) ** 2
    return math.sqrt(total)


def block_labels(spectrum: list[LabeledEigenstate], block: int) -> list[tuple[str, tuple]]:
    """The (sector, indices) labels carried by one degenerate block."""
    return [(st.sector, st.indices) for st in spectrum if st.block == block]


def oracle_correlation(ops: SpinOperatorSet, m_height: int, dx: int, dy: int,
                       eps_x: int = 1) -> float:
    """Exact trace-ratio two-point function via dense powers of V.

    Computes Tr[s_0 V^{dx} T^{dy} s_0 T^{-dy} V^{M-dx} U^chi] over
    Tr[V^M U^chi] with chi = (1 - eps_x)/2, after normalizing V by its
    largest eigenvalue (the ratio is scale invariant).
    """
    c = ops.couplings
    if c.n > _TRACE_MAX_N or m_height > _TRACE_MAX_M:
        raise ResourceError(f"dense trace ratio limited to N <= {_TRACE_MAX_N}, "
                            f"M <= {_TRACE_MAX_M}")
    if eps_x not in (1, -1):
        raise DomainError("eps_x must be +1 or -1")
    if not 0 <= dx <= m_height:
        raise DomainError(f"need 0 <= dx <= M, got dx={dx}, M={m_height}")
    lam_max = float(eigh(ops.v, eigvals_only=True, subset_by_index=(ops.dim - 1, ops.dim - 1))[0])
    vn = ops.v / lam_max
    s0 = ops.sl[0]
    # T^dy s_0 T^-dy is diagonal: s_0 read through the dy-fold translation
    # map.  T^N is the spin flip rather than the identity for eps_y = -1 and
    # the map carries it, so dy is applied literally instead of reduced mod N
    step = ops.shift if dy >= 0 else np.argsort(ops.shift)
    moved = np.arange(ops.dim)
    for _ in range(abs(dy)):
        moved = step[moved]
    mid = s0[moved]
    left = np.linalg.matrix_power(vn, dx) if dx else np.eye(ops.dim)
    right = np.linalg.matrix_power(vn, m_height - dx)
    # Tr[A B U^chi] = sum_ik A[i, k] B[k, cols[i]], so no product is formed
    cols = ops.flip if eps_x == -1 else np.arange(ops.dim)
    right_t = right[:, cols].T
    num = float(np.sum(s0[:, None] * left * mid[None, :] * right_t))
    den = float(np.sum(left * right_t))
    if abs(den) < 1e-300:
        raise DomainError("partition-sum trace vanishes for these boundary conditions")
    return num / den
