"""Brute-force transfer-matrix oracle on the full 2^N spin space.

Holds the spin operators and V_y^{1/2} as diagonals, the translation T and
the global flip U as index maps, and V as one entry formula, and labels
every eigenstate of V, or those of chosen (T, U) characters, with a Fock
momentum set.  T and U generate an abelian group; its character table gives
every (momentum, charge) block of V at once, read off V at the orbit
representatives.  V's eigenvalues come block by block, once per pair of
conjugate characters, whose blocks are complex conjugates of each other, and
all eigenvalues together are grouped by a tolerance relative to the
eigenvalue and matched in energy order against the predicted labels, sorted
once by (character, V).  No block is fully diagonalized: the eigenvectors of
an eigenvalue group are formed by inverse iteration on the group's known
eigenvalues when one of its states is read, and a matrix element below
1e-6 is taken again from eigenvectors refined against V's factors in
extended precision (:func:`_refined_group`).  What no coupling enters
(spins, index maps, orbits, characters, block maps, spin distances:
:class:`_Geometry`) is built once per (N, eps_y) and shared read-only;
V_y^{1/2}, V_x's N + 1 entries, the labels, block sums, eigenvalues and
matching are per coupling.  Everything here is independent of the closed-form
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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import LinAlgError, eigvalsh, norm, solve

from .exceptions import AmbiguousLabelError, DomainError, ResourceError
from .formfactors import FormFactorSpec, fock_basis
from .spectral import Couplings, _read_only

_MAX_DENSE_N = 12
_TRACE_MAX_N, _TRACE_MAX_M = 10, 64  # widths and heights the dense trace ratio takes
# eigenvalue grouping and label matching, relative to the eigenvalue: the
# spectrum spans about ten decades at N=10, (0.3, 0.9), so a tolerance
# relative to the top merges distinct states at the bottom
_GROUP_TOL = 1e-9
# oracle_ff_modulus refines the eigenvectors behind a matrix element below
# this: H_chi's carry an absolute error of order 1e-17 into it
_REFINE_BELOW = 1e-6


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
        """V[rows, cols] over broadcast basis-index arrays."""
        table = _vx_table(self.couplings)[_geometry(self.couplings.n, self.eps_y).down]
        return self.vy_half[rows] * table[rows ^ cols] * self.vy_half[cols]

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


@dataclass(eq=False)
class _CharacterBlock:
    """One character block of V and what expands H_chi's eigenvectors to the
    full space.  A lead holds the lower triangle of H_chi, its eigenvalues in
    ascending order and, set by labelling, each row's eigenvalue group
    ``[lo, hi)``; its conjugate partner holds the lead instead, since
    H_chi-bar = conj(H_chi) has the conjugate eigenvectors.  The first read of
    a vector of either block forms its group's eigenvectors of H_chi by
    :func:`_group_eigenvectors`, and each full-space vector is formed on its
    own first read, from its one column: ``ff`` reads one or two of a block's
    ~52 states at N=10."""

    h: np.ndarray | None      # a lead's H_chi; None for a partner
    col: np.ndarray           # each basis state's column of H_chi
    amp: np.ndarray           # its amplitude <x|r_chi>, 0 outside the block
    lead: _CharacterBlock | None = None   # a partner's lead
    w: np.ndarray | None = None           # a lead's eigenvalues, ascending
    groups: list[tuple[int, int]] = field(default_factory=list, repr=False)   # a lead's, by row
    columns: dict[int, np.ndarray] = field(default_factory=dict, repr=False)  # a lead's, by row
    formed: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def column(self, row: int) -> np.ndarray:
        """A lead's eigenvector of H_chi for its row-th eigenvalue."""
        q = self.columns.get(row)
        if q is None:
            lo, hi = self.groups[row]
            self.columns.update(zip(range(lo, hi), _group_eigenvectors(self.h, self.w, lo, hi).T))
            q = self.columns[row]
        return q

    def vector(self, row: int) -> np.ndarray:
        """The full-space eigenvector of H_chi's row-th eigenvalue (read-only)."""
        vec = self.formed.get(row)
        if vec is None:
            q = self.column(row) if self.lead is None else self.lead.column(row).conj()
            vec = self.formed[row] = q[self.col] * self.amp
            vec.flags.writeable = False
        return vec


@lru_cache(maxsize=None)
def _start_block(size: int, width: int) -> np.ndarray:
    """The fixed start block of inverse iteration, from its own seeded generator
    (read-only: it is shared by every block of this size)."""
    (block,) = _read_only(np.random.default_rng(0).standard_normal((size, width)))
    return block


def _shifted(h_low: np.ndarray, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """H - shift for the Hermitian H whose lower triangle is ``h_low``, formed
    as eigvalsh reads it (the upper triangle its conjugate transpose, the
    diagonal real), with the shift at the mean of the group ``w[lo:hi]``."""
    a = h_low + h_low.conj().T
    a[np.diag_indices(len(w))] = h_low.diagonal().real - w[lo:hi].mean()
    return a


def _solve_shifted(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a^{-1} b for ``a`` from :func:`_shifted`.  Where the shift is an
    eigenvalue to the last bit, the LU factorization meets an exact zero
    pivot, and the shift moves, in ``a``, by size * eps * lambda_max."""
    try:
        return solve(a, b)
    except LinAlgError:
        a[np.diag_indices(len(a))] -= len(a) * np.finfo(float).eps * w[-1]   # V is positive definite
        return solve(a, b)


def _orthonormal(y: np.ndarray) -> np.ndarray:
    """The columns of ``y`` made orthonormal by Gram-Schmidt, twice: columns
    are only combined, coordinate by coordinate, so a coordinate where a
    column is small takes rounding of its own size.  A Householder QR puts
    rounding of the order eps * |y| into every coordinate, and so into the
    large-eigenvalue directions that a small eigenvalue's vectors are nearly
    free of (at ``ff --kx 0.15 --ky 1.5 --n 8 --site 0 --bra 0,1,2,3,5
    --ket 0``, a doublet's, oracle_residual 2.1e-7 against 1.0e-8 here)."""
    q = np.empty_like(y)
    for j in range(y.shape[1]):
        v = y[:, j]
        for _ in range(2 if j else 0):
            v = v - q[:, :j] @ (q[:, :j].conj().T @ v)
        q[:, j] = v / norm(v)
    return q


def _group_eigenvectors(h_low: np.ndarray, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Orthonormal eigenvectors, as columns, of the Hermitian H whose lower
    triangle is ``h_low``, for its eigenvalues ``w[lo:hi]`` (one group).

    Two steps of inverse iteration (Ipsen, SIAM Review 39, 254, 1997) solve
    (H - shift) X = B (:func:`_shifted`), each followed by
    :func:`_orthonormal`, from a fixed start block of its own seeded
    generator, so a vector does not depend on the global random state.  The
    eigenvalues are known to rounding, so each solve damps an eigenvector
    outside the group, of eigenvalue lambda_j, by
    |lambda - shift| / |lambda_j - shift| against the group's.  Vectors of
    distinct groups are orthogonal to about eps * lambda_max / gap.
    """
    a = _shifted(h_low, w, lo, hi)
    x = _start_block(len(w), hi - lo)
    for _ in range(2):
        x = _orthonormal(_solve_shifted(a, x, w))
    return x


def _v_product(ops: SpinOperatorSet, x: np.ndarray) -> np.ndarray:
    """V x for full-space columns ``x``, in extended precision
    (np.clongdouble), from V's factors as :func:`build_operators` gives them:
    V_y^{1/2}, ch + sh sigma^x on every site (whose product :func:`_vx_table`
    tabulates), V_y^{1/2}."""
    c, ld = ops.couplings, np.longdouble
    half = ops.vy_half.astype(ld)[:, None]
    y = (half * x).reshape((2,) * c.n + x.shape[1:])
    th = ld(math.sinh(c.kx_star)) / ld(math.cosh(c.kx_star))
    for site in range(c.n):
        y = y + th * np.flip(y, site)
    scale = (ld(2.0 * math.sinh(2.0 * c.kx)) ** (c.n / 2.0)) * ld(math.cosh(c.kx_star)) ** c.n
    return scale * half * y.reshape(x.shape)


def _refined_group(ops: SpinOperatorSet, lead: _CharacterBlock, lo: int, hi: int) -> np.ndarray:
    """The eigenvectors of V in the lead block's group ``[lo, hi)``, as columns
    of H_chi's coordinates, from those of H_chi by two Newton steps.

    H_chi's summed entries round by about eps * lambda_max, so its
    eigenvectors miss V's by that over the gap; a small form factor, whose
    bra and ket nearly cancel under the spin, reads that as a relative error
    of order 1e-17 / |F|.  Each step takes the residual R = V X - X (X^H V X)
    in extended precision, from :func:`_v_product` on the full-space
    expansion, and solves the Jacobi-Davidson correction equation
    (1 - X X^H)(H - shift) T = -R, T orthogonal to X, with H_chi's LU in
    double (Sleijpen and van der Vorst, SIAM J. Matrix Anal. Appl. 17, 401,
    1996): T = -M R + M X C, M = (H - shift)^{-1},
    C = (X^H M X)^{-1} X^H M R.  Each step shrinks the miss by about
    eps * lambda_max / gap.
    """
    width, inside = hi - lo, np.flatnonzero(lead.amp)
    rows, amp = lead.col[inside], lead.amp[inside, None].astype(np.clongdouble)
    a = _shifted(lead.h, lead.w, lo, hi)
    x = np.array([lead.column(r) for r in range(lo, hi)], dtype=np.clongdouble).T
    full = np.zeros((len(lead.amp), width), dtype=np.clongdouble)
    for _ in range(2):
        full[inside] = x[rows] * amp
        vx = np.zeros_like(x)
        np.add.at(vx, rows, amp.conj() * _v_product(ops, full)[inside])
        r = vx - x @ (x.conj().T @ vx)
        xd = x.astype(complex)
        m = _solve_shifted(a, np.hstack([r.astype(complex), xd]), lead.w)
        mr, mx = m[:, :width], m[:, width:]
        x = x + (mx @ solve(xd.conj().T @ mx, xd.conj().T @ mr) - mr)
        # x^H x = 1 + e to about 1e-16: (1 + e)^{-1/2} to third order
        e = x.conj().T @ x - np.eye(width)
        x = x @ (np.eye(width) - e / 2 + 3 * (e @ e) / 8)
    return x.astype(complex)


@dataclass
class LabeledEigenstate:
    """Eigenstate with its quantum numbers and matched Fock label; the
    eigenvector is formed on first read, and kept: its eigenvalue group's
    eigenvectors of the block come from one inverse iteration per conjugate
    pair, and only this state's column is expanded to the full space."""

    sector: str
    indices: tuple[int, ...]
    eigenvalue: float
    t_eigenvalue: complex
    charge: int
    block: int
    _source: _CharacterBlock = field(repr=False, compare=False)
    _row: int = field(repr=False, compare=False)

    @property
    def vector(self) -> np.ndarray:
        return self._source.vector(self._row)


def _vx_table(c: Couplings) -> np.ndarray:
    """(2 sinh 2kx)^{N/2} ch^(N-d) sh^d for d = 0..N: V_x, the product over sites of
    ch + sh sigma^x_j (Kaufman 1949), between basis states that differ on d spins."""
    d = np.arange(c.n + 1)
    return (2.0 * math.sinh(2.0 * c.kx)) ** (c.n / 2.0) \
        * math.cosh(c.kx_star) ** (c.n - d) * math.sinh(c.kx_star) ** d


class _Geometry:
    """The read-only geometry of the width-N chain with boundary sign eps_y;
    the :attr:`symmetry` that labelling reads is built on first read."""

    def __init__(self, n: int, eps_y: int):
        self.eps_y, idx, every = eps_y, np.arange(1 << n), (1 << n) - 1   # every spin's bit
        # sl[j, i] = sigma_j of basis state i (site 0 on the most significant bit)
        self.sl = 1.0 - 2.0 * ((idx[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1)
        self.down = np.count_nonzero(self.sl < 0.0, axis=0).astype(np.uint8)
        self.bond = sum(self.sl[j] * self.sl[(j + 1) % n] * (eps_y if j == n - 1 else 1)
                        for j in range(n))
        self.flip = idx ^ every
        self.shift = ((idx << 1) & every) | (((idx >> (n - 1)) & 1) ^ (eps_y == -1))
        _read_only(self.sl, self.down, self.bond, self.flip, self.shift)

    @cached_property
    def symmetry(self) -> _Symmetry:
        return _Symmetry(self)


class _Symmetry:
    """A :class:`_Geometry`'s symmetry.  V_y^{1/2} is G-invariant (the bond sums
    are exact integers), so V[r, g s] = vy_half[r] table[dist] vy_half[s]."""

    def __init__(self, chain: _Geometry):
        n, act = len(chain.sl), _group_action(chain)
        to_rep = act.argmin(axis=0)       # a g taking x to its orbit's smallest index
        self.reps, orbit = np.unique(act.min(axis=0), return_inverse=True)
        stab = act[:, self.reps] == self.reps      # (|G|, R): g fixes representative r
        stab_size = stab.sum(axis=0)
        self.m, self.u, self.chi = _characters(n, chain.eps_y)
        self.keep = np.abs(self.chi @ stab - stab_size) < 0.5   # chi trivial on Stab_r
        self.size = self.keep.sum(axis=1)
        self.t_of = tuple(np.exp(-1j * (math.pi * self.m / n)).tolist())
        self.char_at = np.full((2 * n, 2), len(self.m))   # no character: a slot after the last
        self.char_at[self.m, (1 - self.u) // 2] = np.arange(len(self.m))
        self.conj = self.char_at[-self.m % (2 * n), (1 - self.u) // 2]   # chi-bar of chi
        # each x's column of H_chi; <x|r_chi> = chi(g) sqrt(|Stab_r| / |G|) for g|x> = |r>
        self.col = np.cumsum(self.keep, axis=1)[:, orbit] - 1
        scale = np.sqrt(stab_size[orbit] / len(act))
        self.amp = np.where(self.keep[:, orbit], self.chi[:, to_rep] * scale, 0)
        self.r, self.s = np.tril_indices(len(self.reps))
        self.norm = np.sqrt(stab_size[self.r] * stab_size[self.s])
        self.dist = chain.down[self.reps[self.r] ^ act[:, self.reps[self.s]]]
        _read_only(*(v for v in vars(self).values() if isinstance(v, np.ndarray)))


@lru_cache(maxsize=None)          # at most 2 x 12 keys: N <= 12, eps_y = +-1
def _geometry(n: int, eps_y: int) -> _Geometry:
    return _Geometry(n, eps_y)


def build_operators(c: Couplings, eps_y: int = 1) -> SpinOperatorSet:
    """V, spin, flip, and translation operators for width-N chains.

    V = (2 sinh 2kx)^{N/2} V_y^{1/2} V_x V_y^{1/2} with V_y diagonal in the
    spin basis (so its square root is an entrywise exponential of half the
    coupling) and V_x a product of commuting single-site flips; the
    symmetrized form makes V manifestly symmetric positive definite.
    """
    if eps_y not in (1, -1):
        raise DomainError("eps_y must be +1 or -1")
    if c.n > _MAX_DENSE_N:
        raise ResourceError(f"dense oracle limited to N <= {_MAX_DENSE_N}, got {c.n}")
    g = _geometry(c.n, eps_y)
    return SpinOperatorSet(couplings=c, eps_y=eps_y, vy_half=np.exp(0.5 * c.ky * g.bond),
                           sl=list(g.sl), shift=g.shift, flip=g.flip)


@dataclass(eq=False)
class FockLabels(Sequence):
    """The surviving Fock labels of one tower, the antiperiodic sector's then
    the periodic one's, each in :func:`fock_basis` order, with their
    predicted V, T and U eigenvalues as arrays.  Label i reads as the tuple
    (sector, indices, V, T, U)."""

    states: tuple[tuple[int, ...], ...]
    split: int              # the first periodic label
    lam: np.ndarray         # predicted V eigenvalues
    t: np.ndarray           # predicted T eigenvalues
    charge: np.ndarray      # predicted U eigenvalues

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> tuple:
        i = range(len(self))[i]
        return ("a" if i < self.split else "p", self.states[i],
                float(self.lam[i]), complex(self.t[i]), int(self.charge[i]))

    def position(self, sector: str, indices) -> int | None:
        """The index of the label (``sector``, ``indices``); None if there is none."""
        lo, hi = {"a": (0, self.split), "p": (self.split, len(self))}.get(sector, (0, 0))
        try:
            return self.states.index(tuple(indices), lo, hi)
        except ValueError:
            return None


def predicted_fock_labels(c: Couplings, eps_y: int) -> FockLabels:
    """All surviving Fock labels with predicted (V, T, U) values.

    For eps_y = +1 only even particle numbers survive in either sector; for
    eps_y = -1 only odd ones.  Charges: the two vacua carry +1 (antiperiodic)
    and -1 (periodic), and every particle flips the sign, so each sector's
    charge is one constant.  The arrays come straight from the two
    :func:`fock_basis` objects; no per-label tuple is formed.
    """
    parity = 0 if eps_y == 1 else 1
    pref = (2.0 * math.sinh(2.0 * c.kx)) ** (c.n / 2.0)
    a, p = fock_basis(c, "a", parity), fock_basis(c, "p", parity)
    charge = (-1) ** parity
    return FockLabels(a.states + p.states, len(a),
                      np.concatenate([pref * np.exp(a.energies), pref * np.exp(p.energies)]),
                      np.concatenate([np.exp(-1j * a.momenta), np.exp(-1j * p.momenta)]),
                      np.repeat([charge, -charge], [len(a), len(p)]))


def _group_action(chain) -> np.ndarray:
    """act[j + N*s, x]: the basis index of T^j U^s |x>, for j < N and s in (0, 1),
    from the spin diagonals ``sl`` and index maps ``shift`` and ``flip`` of ``chain``.

    T and U commute and generate an abelian group G of order 2N (T^N = 1 for
    eps_y = +1, T^N = U for eps_y = -1), so the 2N rows are all of G.
    """
    n, dim = len(chain.sl), len(chain.flip)
    step = np.argsort(chain.shift)        # T|x> = |step[x]>
    act = np.empty((2 * n, dim), dtype=np.intp)
    act[0] = np.arange(dim)
    for j in range(1, n):
        act[j] = step[act[j - 1]]
    act[n:] = act[:n, chain.flip]
    return act


def _characters(n: int, eps_y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The character table of G: every character's key (m, u), for
    T -> exp(-i pi m / N) and U -> u, and chi[k, g] on the rows g of
    :func:`_group_action`."""
    k = np.arange(2 * n)
    m, u = (k - k % 2 if eps_y == 1 else k), 1 - 2 * (k % 2)
    phase = np.exp(-1j * math.pi * ((m[:, None] * np.arange(n)) % (2 * n)) / n)
    return m, u, np.hstack([phase, u[:, None] * phase])


def _lower_triangles(v_low: np.ndarray, chi: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Row j: sum_g chi_j(g)^* v_low[g] / norm, for each row chi_j of ``chi``.

    Summed in g order and not by a BLAS product: last-bit changes of H_chi
    move the bottom of a wide spectrum by more than _GROUP_TOL (at (0.2, 1.2),
    N=8, eps_y=-1).  ``v_low`` is real, so the real and imaginary parts are
    summed apart, and they and the scaling by the reciprocal norm round as
    numpy's complex product and complex-by-real division do.
    """
    phase = chi.conj().T
    acc, term = np.zeros((2, len(chi), len(norm))), np.empty((2, len(chi), len(norm)))
    for v_g, p in zip(v_low, np.stack([phase.real, phase.imag], axis=1)):
        acc += np.multiply(p[:, :, None], v_g, out=term)
    acc *= 1.0 / norm
    out = np.empty((len(chi), len(norm)), dtype=complex)
    out.real, out.imag = acc
    return out


def labeled_spectrum(ops: SpinOperatorSet,
                     states: list[tuple[str, tuple[int, ...]]] | None = None
                     ) -> list[LabeledEigenstate]:
    """Simultaneous (V, T, U) eigenbasis of ``ops``, with Fock labels attached.

    V is diagonalized in one block per character chi = (T, U) of the symmetry
    group G = {T^j U^s}.  Each block is spanned by the projections
    |r_chi> = (|G| |Stab_r|)^{-1/2} sum_g chi(g)^* g|r> of the orbit
    representatives r (smallest basis index) whose stabilizer chi is trivial
    on, so H_chi[r, s] = sum_g chi(g)^* V[r, g s] / sqrt(|Stab_r| |Stab_s|)
    is read off V at the representatives, for every character at once from
    the character table.  V and the group action are real, so the block of
    the conjugate character (momentum -m, same charge) is conj(H_chi), with
    the same eigenvalues and the conjugate eigenvectors: only the lead
    (smaller index) of each conjugate pair is summed, in real arithmetic, and
    labelling makes one eigenvalues-only call per nonempty pair and records
    each row's eigenvalue group on the lead.  The first read of a state's
    :attr:`LabeledEigenstate.vector` forms the eigenvectors of its group, once
    per pair, by inverse iteration on the group's eigenvalues
    (:func:`_group_eigenvectors`), and each state's vector is expanded back
    to the full space on its own first read.  The vectors of one group are
    orthonormal to rounding; those of distinct groups are orthogonal to
    about eps * lambda_max / gap (1.1e-11 at (0.2, 1.2), N=10, eps_y=+1).

    The predicted V, T and U are read as arrays from
    :func:`predicted_fock_labels`.  Each predicted label belongs to the
    character of its predicted (T, U) values, and one sort orders the labels
    by (character, V), next to the blocks' eigenvalues in energy order.  The
    eigenvalues are grouped by the relative tolerance ``_GROUP_TOL *
    |lambda|``; every block must hold as many labels as states, and every
    group exactly the labels of its block within tolerance of its mean,
    otherwise an AmbiguousLabelError is raised.
    Groups of more than one state are momentum-reversal doublets: their
    vectors share a block id and the label-to-vector assignment inside the
    block is not physically meaningful.

    With ``states``, a list of (sector, indices), only the characters that
    hold those states are summed, diagonalized, matched and returned (with,
    for a conjugate partner, its lead's block summed and diagonalized).  No
    group crosses a character, so each returned state carries the eigenvalue
    bits, quantum numbers and block partition of the whole spectrum; block
    ids are numbered within the returned list.  The label count per
    character is still checked for every character.
    """
    n, sym = ops.couplings.n, _geometry(ops.couplings.n, ops.eps_y).symmetry
    m, u, size, conj, t_of = sym.m, sym.u, sym.size, sym.conj, sym.t_of

    labels = predicted_fock_labels(ops.couplings, ops.eps_y)
    # the T eigenvalue exp(-i pi m / N) a label predicts gives its m, with a
    # margin of pi / 2N for rounding
    m_lab = np.rint(np.angle(labels.t) * (-n / math.pi)).astype(int) % (2 * n)
    char_of = sym.char_at[m_lab, (1 - labels.charge) // 2]
    count = np.bincount(char_of, minlength=len(m) + 1)
    bad = np.flatnonzero(count != np.r_[size, 0])
    if bad.size:
        k = bad[0]
        raise AmbiguousLabelError(
            f"{count[k]} predicted labels fit no block" if k == len(m) else
            f"block T={t_of[k]:.4f}, U={u[k]} has {size[k]} states "
            f"but {count[k]} predicted labels"
        )
    if states is None:
        want = size > 0
    else:
        found = (labels.position(sector, idx) for sector, idx in states)
        want = np.zeros(len(m), dtype=bool)
        want[char_of[[i for i in found if i is not None]]] = True
        if not want.any():
            return []
    need = want | want[conj]              # a wanted partner needs its lead's block
    order = np.lexsort((labels.lam, char_of))
    order = order[want[char_of[order]]]
    lam = labels.lam[order]

    # H_chi is summed only for the lead, the smaller index, of each conjugate pair
    lead = np.flatnonzero((conj >= np.arange(len(m))) & need)
    vy = ops.vy_half[sym.reps]
    h_low = dict(zip(lead.tolist(), _lower_triangles(
        vy[sym.r] * np.take(_vx_table(ops.couplings), sym.dist) * vy[sym.s],   # V[r, g s]
        sym.chi[lead], sym.norm)))
    blocks, vals = {}, {}
    for k in np.flatnonzero(need).tolist():
        if conj[k] < k:               # a partner: its lead came first
            blocks[k] = _CharacterBlock(None, sym.col[k], sym.amp[k], blocks[conj[k]])
            vals[k] = vals[conj[k]]
            continue
        at = sym.col[k, sym.reps]                            # each representative's row
        inside = sym.keep[k, sym.r] & sym.keep[k, sym.s]     # each lead's block, read off h_low
        h = np.zeros((size[k], size[k]), dtype=complex)
        h[at[sym.r[inside]], at[sym.s[inside]]] = h_low[k][inside]
        vals[k] = eigvalsh(h)
        blocks[k] = _CharacterBlock(h, sym.col[k], sym.amp[k], w=vals[k])
    w = np.concatenate([vals[k] for k in np.flatnonzero(want).tolist()])

    chars = char_of[order]                        # the character of each position
    held = np.where(want, size, 0)
    first = np.cumsum(held) - held                # each character's first position
    new = np.r_[True, (np.diff(w) > _GROUP_TOL * np.abs(w[1:])) | (np.diff(chars) != 0)]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], len(w)]
    grp = np.cumsum(new) - 1
    lam_grp = np.add.reduceat(w, starts) / (ends - starts)
    tol = _GROUP_TOL * np.abs(lam_grp)
    # complex numbers sort by real part, then imaginary part: with the
    # character as the real part, each search stays inside the group's block
    key, k = chars + 1j * lam, chars[starts]
    lo = np.searchsorted(key, k + 1j * (lam_grp - tol), side="left")
    hi = np.searchsorted(key, k + 1j * (lam_grp + tol), side="right")
    bad = np.flatnonzero((lo != starts) | (hi != ends))
    if bad.size:
        g = bad[0]
        raise AmbiguousLabelError(
            f"cell with V={lam_grp[g]:.6g}, T={t_of[k[g]]:.4f}, U={u[k[g]]} "
            f"has {ends[g] - starts[g]} states but {hi[g] - lo[g]} matching labels, "
            f"the first at position {lo[g] - first[k[g]]} of {size[k[g]]} in energy "
            f"order, not {starts[g] - first[k[g]]}"
        )

    # inside a group the labels keep their predicted order
    order = order[np.lexsort((order, grp))]
    row = np.arange(len(w)) - first[chars]
    # each row's group, recorded on the lead, which forms a group's vectors at once
    bounds = list(zip((starts[grp] - first[chars]).tolist(), (ends[grp] - first[chars]).tolist()))
    for k in np.flatnonzero(want).tolist():
        blocks[min(k, conj[k])].groups = bounds[first[k]:first[k] + size[k]]
    lam_of, u_of, split, fock = lam_grp.tolist(), u.tolist(), labels.split, labels.states
    # positional arguments: keywords take about three times as long
    return [LabeledEigenstate("a" if i < split else "p", fock[i], lam_of[g], t_of[k], u_of[k],
                              g, blocks[k], j)
            for i, g, k, j in zip(order.tolist(), grp.tolist(), chars.tolist(), row.tolist())]


def find_state(spectrum: list[LabeledEigenstate], sector: str,
               indices: tuple[int, ...]) -> LabeledEigenstate:
    """The labeled state (``sector``, ``indices``), by a scan of the list."""
    indices = tuple(indices)
    for st in spectrum:
        if st.sector == sector and st.indices == indices:
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
    matrix-element modulus.  ``spectrum`` may be any part of the labeled
    states that holds both blocks whole.  Below ``_REFINE_BELOW`` the value
    is taken again from both blocks' eigenvectors of V, refined by
    :func:`_refined_group` (about 3 ms more at N=10).
    """
    bra = find_state(spectrum, "a", spec.bra.indices)
    ket = find_state(spectrum, "p", spec.ket.indices)
    bra_vecs = np.array([st.vector for st in spectrum if st.block == bra.block])
    ket_vecs = np.array([st.vector for st in spectrum if st.block == ket.block])
    value = float(np.linalg.norm(bra_vecs.conj() @ (ops.sl[spec.site] * ket_vecs).T))
    if value < _REFINE_BELOW:
        bra_vecs, ket_vecs = (_refined_vectors(ops, st) for st in (bra, ket))
        value = float(np.linalg.norm(bra_vecs.conj() @ (ops.sl[spec.site] * ket_vecs).T))
    return value


def _refined_vectors(ops: SpinOperatorSet, state: LabeledEigenstate) -> np.ndarray:
    """The full-space vectors, as rows, of ``state``'s eigenvalue group from
    :func:`_refined_group` (a partner's: its lead's, conjugated)."""
    source = state._source
    lead = source.lead or source
    q = _refined_group(ops, lead, *lead.groups[state._row])
    if source.lead is not None:
        q = q.conj()
    return (q[source.col] * source.amp[:, None]).T


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
    if m_height < 1:
        raise DomainError(f"torus height M must be at least 1, got {m_height}")
    if not 0 <= dx <= m_height:
        raise DomainError(f"need 0 <= dx <= M, got dx={dx}, M={m_height}")
    lam_max = float(eigvalsh(ops.v)[-1])
    vn = ops.v / lam_max
    s0 = ops.sl[0]
    # T^dy s_0 T^-dy is the spin at site dy mod N; T^N is the spin flip for
    # eps_y = -1 (T^2N the identity for both), which negates it
    flipped = ops.eps_y == -1 and dy % (2 * c.n) >= c.n
    mid = -ops.sl[dy % c.n] if flipped else ops.sl[dy % c.n]
    left = np.linalg.matrix_power(vn, dx)
    right = np.linalg.matrix_power(vn, m_height - dx)
    # Tr[A B U^chi] = sum_ik A[i, k] B[k, cols[i]], so no product is formed
    cols = ops.flip if eps_x == -1 else np.arange(ops.dim)
    right_t = right[:, cols].T
    num = float(np.sum(s0[:, None] * left * mid[None, :] * right_t))
    den = float(np.sum(left * right_t))
    if abs(den) < 1e-300:
        raise DomainError("partition-sum trace vanishes for these boundary conditions")
    return num / den
