"""Brute-force transfer-matrix oracle on the full 2^N spin space.

Holds the spin operators and V_y^{1/2} as diagonals, the translation T and
the global flip U as index maps, and V as one entry formula, and labels
every eigenstate of V, or those of chosen (T, U) characters, with a Fock
momentum set.  T and U generate an abelian group; its character table gives
every (momentum, charge) block of V at once, read off V at the orbit
representatives.  V's eigenvalues come block by block, once per pair of
conjugate characters (complex conjugate blocks), coupling and process at
N <= 10; each block's are grouped by a tolerance relative to the
eigenvalue and matched in energy order against its character's
predicted labels.  No block is fully diagonalized: the eigenvectors of an
eigenvalue group are formed by inverse iteration on the group's known
eigenvalues when one of its states is read, and a matrix element below
1e-6 is taken again from eigenvectors refined against V's factors in
extended precision (:func:`_refined_group`).  What no coupling enters
(spins, index maps, orbits, characters, block maps, spin distances) is one
read-only :class:`_Geometry`, built whole once per (N, eps_y) and shared;
V_y^{1/2}, V_x's N + 1 entries, the labels, block sums, eigenvalues and
matching are per coupling, kept in one :class:`_Tower`.  Everything here is
independent of the closed-form modules except for the shared dispersion
gamma_theta, so it serves as ground truth for matrix elements and
correlations at small N.

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
import threading
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
_KEPT_MAX_N = 10    # towers kept up to N=10: ~1 MB of blocks with every vector read, 3.3 MB at N=11


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
    full space.  A lead holds, read-only, the lower triangle of H_chi, its
    eigenvalues in ascending order and their groups (:func:`_lead_block`);
    its conjugate partner holds the lead instead, since H_chi-bar =
    conj(H_chi) has the conjugate eigenvectors.  The first read of a vector of
    either block forms its group's eigenvectors of H_chi by
    :func:`_group_eigenvectors`, kept read-only on the lead (~52 entries each
    at N=10); a full-space vector is expanded from its one column on each read."""

    h: np.ndarray | None      # a lead's H_chi; None for a partner
    col: np.ndarray           # each basis state's column of H_chi
    amp: np.ndarray           # its amplitude <x|r_chi>, 0 outside the block
    lead: _CharacterBlock | None = None   # a partner's lead
    w: np.ndarray | None = None           # a lead's eigenvalues, ascending
    groups: np.ndarray | None = None      # a lead's rows [lo, hi) of each row's group
    grp: np.ndarray | None = None         # a lead's group of each row
    means: np.ndarray | None = None       # a lead's mean eigenvalue of each group
    columns: dict[int, np.ndarray] = field(default_factory=dict, repr=False)  # a lead's, by row

    def column(self, row: int) -> np.ndarray:
        """A lead's eigenvector of H_chi for its row-th eigenvalue."""
        q = self.columns.get(row)
        if q is None:
            lo, hi = self.groups[row]
            (x,) = _read_only(_group_eigenvectors(self.h, self.w, lo, hi))
            self.columns.update(zip(range(lo, hi), x.T))
            q = self.columns[row]
        return q

    def vector(self, row: int) -> np.ndarray:
        """The full-space eigenvector of H_chi's row-th eigenvalue, a new array."""
        q = self.column(row) if self.lead is None else self.lead.column(row).conj()
        return q[self.col] * self.amp

    def group_vectors(self, row: int, refine: SpinOperatorSet | None = None) -> np.ndarray:
        """The full-space eigenvectors, as rows, of the row-th eigenvalue's group;
        given V's operators as ``refine``, refined by :func:`_refined_group`."""
        lead = self.lead or self
        lo, hi = lead.groups[row]
        if refine is None:
            return np.array([self.vector(r) for r in range(lo, hi)])
        q = _refined_group(refine, lead, lo, hi)
        return ((q if lead is self else q.conj())[self.col] * self.amp[:, None]).T


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
    eigenvector is a new array on each read, this state's column expanded to
    the full space: its group's eigenvectors of the block come from one inverse
    iteration per conjugate pair, coupling and process, kept on the lead."""

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
    """What no coupling enters in the width-N chain with boundary sign eps_y,
    read-only: spin diagonals, bond sums, index maps, orbits, characters, block
    maps and spin distances.  V_y^{1/2} is G-invariant (the bond sums are exact
    integers), so V[r, g s] = vy_half[r] table[dist] vy_half[s]."""

    def __init__(self, n: int, eps_y: int):
        self.eps_y, idx, every = eps_y, np.arange(1 << n), (1 << n) - 1   # every spin's bit
        # sl[j, i] = sigma_j of basis state i (site 0 on the most significant bit)
        self.sl = 1.0 - 2.0 * ((idx[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1)
        self.down = np.count_nonzero(self.sl < 0.0, axis=0).astype(np.uint8)
        self.bond = sum(self.sl[j] * self.sl[(j + 1) % n] * (eps_y if j == n - 1 else 1)
                        for j in range(n))
        self.flip = idx ^ every
        self.shift = ((idx << 1) & every) | (((idx >> (n - 1)) & 1) ^ (eps_y == -1))
        act = _group_action(self)
        to_rep = act.argmin(axis=0)       # a g taking x to its orbit's smallest index
        self.reps, orbit = np.unique(act.min(axis=0), return_inverse=True)
        stab = act[:, self.reps] == self.reps      # (|G|, R): g fixes representative r
        stab_size = stab.sum(axis=0)
        self.m, self.u, self.chi = _characters(n, eps_y)
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
        self.dist = self.down[self.reps[self.r] ^ act[:, self.reps[self.s]]]
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


def _lead_block(geo: _Geometry, k: int, h_low: np.ndarray) -> _CharacterBlock:
    """Character k's lead block, read-only, from its entries ``h_low``."""
    at = geo.col[k, geo.reps]                            # each representative's row
    inside = geo.keep[k, geo.r] & geo.keep[k, geo.s]     # the block, read off h_low
    h = np.zeros((geo.size[k], geo.size[k]), dtype=complex)
    h[at[geo.r[inside]], at[geo.s[inside]]] = h_low[inside]
    w = eigvalsh(h)
    new = np.concatenate(([True], np.diff(w) > _GROUP_TOL * np.abs(w[1:])))
    starts, grp = np.flatnonzero(new), np.cumsum(new) - 1
    ends = np.append(starts[1:], len(w))
    return _CharacterBlock(*_read_only(h), geo.col[k], geo.amp[k], None, *_read_only(
        w, np.stack((starts, ends), axis=1)[grp], grp,
        np.add.reduceat(w, starts) / (ends - starts)))


class _Tower:
    """What labelling keeps of one tower, (Couplings, eps_y): built whole, the
    predicted labels and each one's character (every character's count
    checked); filled under ``_LABELLING``, by character, the blocks and each
    labelled character's label of each row."""

    def __init__(self, c: Couplings, eps_y: int):
        self.geo = geo = _geometry(c.n, eps_y)
        self.labels = labels = predicted_fock_labels(c, eps_y)
        # the T eigenvalue exp(-i pi m / N) a label predicts gives its m, with a
        # margin of pi / 2N for rounding
        m_lab = np.rint(np.angle(labels.t) * (-c.n / math.pi)).astype(int) % (2 * c.n)
        self.char_of = geo.char_at[m_lab, (1 - labels.charge) // 2]
        count = np.bincount(self.char_of, minlength=len(geo.m) + 1)
        bad = np.flatnonzero(count != np.r_[geo.size, 0])
        if bad.size:
            k = bad[0]
            raise AmbiguousLabelError(
                f"{count[k]} predicted labels fit no block" if k == len(geo.m) else
                f"block T={geo.t_of[k]:.4f}, U={geo.u[k]} has {geo.size[k]} states "
                f"but {count[k]} predicted labels"
            )
        self.blocks, self.rows = {}, {}

    def label(self, ops: SpinOperatorSet, want: list[int]) -> None:
        """Label ``ops``'s characters ``want`` (ascending) not yet labelled, all or none."""
        geo, conj = self.geo, self.geo.conj.tolist()
        missing = [k for k in want if k not in self.rows]
        if not missing:
            return
        # H_chi is summed only for the lead (smaller index) of a conjugate pair, in one pass
        leads = sorted({min(k, conj[k]) for k in missing} - self.blocks.keys())
        vy = ops.vy_half[geo.reps]
        v_low = vy[geo.r] * np.take(_vx_table(ops.couplings), geo.dist) * vy[geo.s]   # V[r, g s]
        blocks = {k: _lead_block(geo, k, low) for k, low in
                  zip(leads, _lower_triangles(v_low, geo.chi[leads], geo.norm))}
        lead_of = {**self.blocks, **blocks}
        rows = {k: self._match(k, lead_of[min(k, conj[k])]) for k in missing}
        blocks.update((k, _CharacterBlock(None, geo.col[k], geo.amp[k], lead_of[conj[k]]))
                      for k in missing if conj[k] < k)
        self.blocks.update(blocks)
        self.rows.update(rows)

    def _match(self, k: int, lead: _CharacterBlock) -> list[int]:
        """Character k's label of each row of its lead block: each group holds
        k's labels within tolerance of its mean, in their predicted order."""
        geo, labels = self.geo, np.flatnonzero(self.char_of == k)
        labels = labels[np.argsort(self.labels.lam[labels], kind="stable")]    # by V
        lam, mean = self.labels.lam[labels], lead.means[lead.grp]    # each row's group mean
        tol, (starts, ends) = _GROUP_TOL * np.abs(mean), lead.groups.T
        lo = np.searchsorted(lam, mean - tol, side="left")
        hi = np.searchsorted(lam, mean + tol, side="right")
        bad = np.flatnonzero((lo != starts) | (hi != ends))
        if bad.size:
            j = bad[0]
            raise AmbiguousLabelError(
                f"cell with V={mean[j]:.6g}, T={geo.t_of[k]:.4f}, U={geo.u[k]} "
                f"has {ends[j] - starts[j]} states but {hi[j] - lo[j]} matching labels, "
                f"the first at position {lo[j]} of {geo.size[k]} in energy order, "
                f"not {starts[j]}"
            )
        return labels[np.lexsort((labels, lead.grp))].tolist()


_tower = lru_cache(maxsize=8)(_Tower)      # the kept _Tower of (Couplings, eps_y)
_LABELLING = threading.Lock()              # one thread at a time builds or fills a tower


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
    diagonalized, by one eigenvalues-only call.  Up to N=10 each character is
    labelled once per coupling and process: the last 8 towers (:class:`_Tower`)
    are kept, with the blocks and labels of the ``ops`` that filled them.
    The first read of a state's :attr:`LabeledEigenstate.vector` forms the
    eigenvectors of its group, kept on the lead, by inverse iteration on the
    group's eigenvalues (:func:`_group_eigenvectors`); a state's vector is
    expanded back to the full space on each read, and not kept.  The vectors
    of one group are orthonormal to rounding; those of distinct groups are
    orthogonal to about eps * lambda_max / gap (1.1e-11 at (0.2, 1.2), N=10).

    The predicted V, T and U are read as arrays from
    :func:`predicted_fock_labels`.  Each predicted label belongs to the
    character of its predicted (T, U) values, and one sort orders the labels
    by (character, V).  A block's eigenvalues are grouped by the relative
    tolerance ``_GROUP_TOL * |lambda|``, so no group crosses a character, and
    are matched per character: every block must hold as many labels as
    states, and every group exactly the labels of its block within tolerance
    of its mean, otherwise an AmbiguousLabelError is raised (by the first
    failing character, on every call).  Groups of more than one state are
    momentum-reversal doublets: their vectors share a block id and the
    label-to-vector assignment inside the block is not physically meaningful.

    With ``states``, a list of (sector, indices), only the characters that
    hold those states are labelled and returned (with, for a conjugate
    partner, its lead's block).  Each returned state carries the eigenvalue
    bits, quantum numbers and block partition of the whole spectrum; block
    ids are numbered within the returned list.  The label count per
    character is still checked for every character.
    """
    with _LABELLING:
        tower = (_tower if ops.couplings.n <= _KEPT_MAX_N else _Tower)(ops.couplings, ops.eps_y)
        geo, labels = tower.geo, tower.labels
        if states is None:
            want = np.flatnonzero(geo.size > 0).tolist()
        else:
            found = [labels.position(sector, idx) for sector, idx in states]
            want = np.unique(tower.char_of[[i for i in found if i is not None]]).tolist()
        tower.label(ops, want)
    out, split, fock = [], labels.split, labels.states
    for k in want:
        block, base = tower.blocks[k], out[-1].block + 1 if out else 0   # ids run on
        lead, t, u = block.lead or block, geo.t_of[k], int(geo.u[k])
        lam = lead.means.tolist()
        # positional arguments: keywords take about three times as long
        out += [LabeledEigenstate("a" if i < split else "p", fock[i], lam[g], t, u, base + g,
                                  block, j)
                for j, (i, g) in enumerate(zip(tower.rows[k], lead.grp.tolist()))]
    return out


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
    matrix-element modulus.  ``spectrum`` may be any list of labeled states
    that holds the bra and the ket: each one's eigenvalue group is read from
    its character block.  Below ``_REFINE_BELOW`` the value is taken again
    from both groups' eigenvectors of V, refined by :func:`_refined_group`
    (about 3 ms more at N=10).  A site outside [0, N) raises DomainError.
    """
    if not 0 <= spec.site < ops.couplings.n:
        raise DomainError(f"site {spec.site} outside [0, {ops.couplings.n})")
    pair = find_state(spectrum, "a", spec.bra.indices), find_state(spectrum, "p", spec.ket.indices)
    for refine in (None, ops):
        bra_vecs, ket_vecs = (st._source.group_vectors(st._row, refine) for st in pair)
        value = float(np.linalg.norm(bra_vecs.conj() @ (ops.sl[spec.site] * ket_vecs).T))
        if value >= _REFINE_BELOW:
            break
    return value


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
