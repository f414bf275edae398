"""Brute-force transfer-matrix oracle on the full 2^N spin space.

Builds the symmetrized transfer matrix, the spin operators, the global flip,
and the translation operator as dense matrices; diagonalizes them
simultaneously; and labels every eigenstate with a Fock momentum set by
matching its (energy, translation, charge) triple against the predicted
spectrum.  Everything here is independent of the closed-form modules except
for the shared dispersion gamma_theta, so it serves as ground truth for
matrix elements and correlations at small N.

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

import numpy as np
from scipy.linalg import eigh, schur

from .exceptions import AmbiguousLabelError, DomainError, ResourceError
from .formfactors import FormFactorSpec, fock_basis
from .spectral import Couplings

_MAX_DENSE_N = 12
_GROUP_TOL = 1e-9         # eigenvalue grouping, relative to spectral radius
_T_TOL = 1e-8             # translation eigenvalue clustering, absolute
# label matching shares the grouping tolerance: a wider window could match
# one label to two adjacent groups, a narrower one could miss its own group
_MATCH_TOL = _GROUP_TOL


@dataclass
class SpinOperatorSet:
    """Dense operators of the finite chain for one choice of eps_y."""

    couplings: Couplings
    eps_y: int
    v: np.ndarray
    sl: list[np.ndarray]          # diagonal of each spin operator
    u: np.ndarray
    t: np.ndarray

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    def commutator_residuals(self) -> dict[str, float]:
        scale = float(np.max(np.abs(self.v)))
        return {
            "V_U": float(np.max(np.abs(self.v @ self.u - self.u @ self.v))) / scale,
            "V_T": float(np.max(np.abs(self.v @ self.t - self.t @ self.v))) / scale,
            "T_U": float(np.max(np.abs(self.t @ self.u - self.u @ self.t))),
            "V_symmetry": float(np.max(np.abs(self.v - self.v.T))) / scale,
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
    """Dense V, spin, flip, and translation operators for width-N chains.

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

    ch, sh = math.cosh(c.kx_star), math.sinh(c.kx_star)
    vx = np.eye(dim)
    idx = np.arange(dim)
    for j in range(n):
        flipped = idx ^ (1 << (n - 1 - j))
        vx = ch * vx + sh * vx[flipped, :]
    v = (2.0 * math.sinh(2.0 * c.kx)) ** (n / 2.0) \
        * (vy_half[:, None] * vx * vy_half[None, :])

    sl = [spins[:, j].copy() for j in range(n)]

    u = np.zeros((dim, dim))
    u[idx, idx ^ (dim - 1)] = 1.0

    t = np.zeros((dim, dim))
    msb = (idx >> (n - 1)) & 1
    if eps_y == -1:
        msb = msb ^ 1
    shifted = ((idx << 1) & (dim - 1)) | msb
    t[idx, shifted] = 1.0

    return SpinOperatorSet(couplings=c, eps_y=eps_y, v=v, sl=sl, u=u, t=t)


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


def labeled_spectrum(ops: SpinOperatorSet, c: Couplings) -> list[LabeledEigenstate]:
    """Simultaneous (V, T, U) eigenbasis with Fock labels attached.

    Diagonalizes V first, then T inside each degenerate V block, then U
    inside each (V, T) block, so the final basis is orthonormal.  Each
    resulting (V, T, U) cell is matched against the predicted Fock labels;
    the match must be exact in count, otherwise an AmbiguousLabelError is
    raised.  Cells of dimension > 1 are momentum-reversal doublets: their
    vectors share a block id and the label-to-vector assignment inside the
    block is not physically meaningful.
    """
    w, q = eigh(ops.v)
    scale = float(np.max(np.abs(w)))
    labels = predicted_fock_labels(c, ops.eps_y)
    states: list[LabeledEigenstate] = []
    block_id = 0

    # group V eigenvalues
    splits = np.nonzero(np.diff(w) > _GROUP_TOL * scale)[0] + 1
    for grp in np.split(np.arange(len(w)), splits):
        qg = q[:, grp].astype(complex)
        tb = qg.conj().T @ ops.t @ qg
        tri, zs = schur(tb, output="complex")
        qg = qg @ zs
        tvals = np.diag(tri)
        # cluster T eigenvalues inside the group; rotate before taking angles
        # so that roots sitting exactly at angle +-pi are not split in two
        ang = np.angle(tvals * np.exp(0.5j * math.pi / c.n))
        order = np.argsort(ang)
        pos = 0
        used = order.tolist()
        while pos < len(used):
            cluster = [used[pos]]
            while (pos + len(cluster) < len(used)
                   and abs(tvals[used[pos + len(cluster)]] - tvals[cluster[0]]) < _T_TOL):
                cluster.append(used[pos + len(cluster)])
            qs = qg[:, cluster]
            ub = qs.conj().T @ ops.u @ qs
            uw, uv = eigh((ub + ub.conj().T) / 2.0)
            qs = qs @ uv
            for charge_val in (-1, 1):
                sel = [i for i, val in enumerate(uw) if abs(val - charge_val) < 1e-6]
                if not sel:
                    continue
                vecs = qs[:, sel]
                lam_here = float(np.mean(w[grp]))
                t_here = complex(tvals[cluster[0]])
                matches = [
                    lab for lab in labels
                    if (abs(lab[2] - lam_here) <= _MATCH_TOL * scale
                        and abs(lab[3] - t_here) <= _T_TOL
                        and lab[4] == charge_val)
                ]
                if len(matches) != len(sel):
                    raise AmbiguousLabelError(
                        f"cell with V={lam_here:.6g}, T={t_here:.4f}, U={charge_val} "
                        f"has {len(sel)} states but {len(matches)} matching labels"
                    )
                for pos_in_cell, lab in enumerate(matches):
                    states.append(LabeledEigenstate(
                        vector=vecs[:, pos_in_cell],
                        sector=lab[0],
                        indices=tuple(lab[1]),
                        eigenvalue=lam_here,
                        t_eigenvalue=t_here,
                        charge=charge_val,
                        block=block_id,
                    ))
                block_id += 1
            pos += len(cluster)

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
    """Exact trace-ratio two-point function via dense matrix powers.

    Computes Tr[s_0 V^{dx} T^{dy} s_0 T^{-dy} V^{M-dx} U^chi] over
    Tr[V^M U^chi] with chi = (1 - eps_x)/2, after normalizing V by its
    largest eigenvalue (the ratio is scale invariant).
    """
    c = ops.couplings
    if c.n > 10 or m_height > 64:
        raise ResourceError("dense trace ratio limited to N <= 10, M <= 64")
    if eps_x not in (1, -1):
        raise DomainError("eps_x must be +1 or -1")
    if not 0 <= dx <= m_height:
        raise DomainError(f"need 0 <= dx <= M, got dx={dx}, M={m_height}")
    lam_max = float(eigh(ops.v, eigvals_only=True, subset_by_index=(ops.dim - 1, ops.dim - 1))[0])
    vn = ops.v / lam_max
    s0 = np.diag(ops.sl[0])
    # T^N is the spin flip rather than the identity for eps_y = -1, so the
    # translation count is applied literally instead of reduced mod N
    td = np.linalg.matrix_power(ops.t, dy)
    mid = td @ s0 @ td.T
    left = np.linalg.matrix_power(vn, dx) if dx else np.eye(ops.dim)
    right = np.linalg.matrix_power(vn, m_height - dx)
    core = s0 @ left @ mid @ right
    den_mat = np.linalg.matrix_power(vn, m_height)
    if eps_x == -1:
        core = core @ ops.u
        den_mat = den_mat @ ops.u
    num = float(np.trace(core))
    den = float(np.trace(den_mat))
    if abs(den) < 1e-300:
        raise DomainError("partition-sum trace vanishes for these boundary conditions")
    return num / den
