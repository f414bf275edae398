"""Multiparticle spin form factors and the spectral sum: the evaluation path.

The spin operator at site l conjugates periodic-sector fermions into linear
combinations of antiperiodic ones; the four N x N blocks (A, B, C, D) of that
induced rotation determine every matrix element of the spin between the two
fermionic Fock towers.  Normalized two-particle form factors are entries of
D^-1, B*D^-1 and D^-1*C, read here from their closed forms; any
multiparticle form factor is the pfaffian of a matrix assembled from those,
or equivalently the fully factorized closed product over the participating
momenta.  The rotation itself and the elliptic assembly of the pairing
matrix are cross-checks, kept in :mod:`isingff.cauchy`.

The routes take one :class:`FormFactorSpec` or a :class:`SpecStack` of
many specs with the same particle numbers, at one site or at one site per
spec, and evaluate a stack as array algebra; a single spec is the stack of
one.

Phase convention: the vacuum-to-vacuum matrix element is declared real
positive.  Bra momenta are supplied in ascending order, ket momenta likewise;
swapping two momenta flips the sign of the form factor in both routes.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, VerificationError
from .linalg import pfaffian
from .spectral import (SECTORS, Couplings, SectorTable, _read_only, coupling_tables,
                       torus_dy, tower_parity)

_FULL_ENUMERATION_MAX_N = 12
_DEFAULT_PARTICLE_CUTOFF = 4
_BLOCK_ROWS = 256  # bra rows per block of a streamed |F|^2 table
_I_POWERS = tuple(complex(1j) ** p for p in range(4))


@dataclass(frozen=True)
class FockState:
    """A fermionic eigenstate label: sector plus strictly increasing momenta.

    Momenta are integer indices into the sector's ordered quasimomentum set,
    so states can be matched across modules without floating-point drift.
    """

    sector: str
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.sector not in SECTORS:
            raise DomainError(f"sector must be 'a' or 'p', got {self.sector!r}")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if any(j <= i for i, j in zip(self.indices, self.indices[1:])):
            raise DomainError(
                f"momenta must be strictly increasing (fermionic exclusion), "
                f"got {self.indices}"
            )

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class FormFactorSpec:
    """Which matrix element to compute: site plus bra (sector a) and ket (sector p).

    The m + n odd case vanishes identically by the charge selection rule and
    is rejected on construction.
    """

    site: int
    bra: FockState
    ket: FockState

    def __post_init__(self):
        if self.bra.sector != "a":
            raise DomainError("bra must live in the antiperiodic sector")
        if self.ket.sector != "p":
            raise DomainError("ket must live in the periodic sector")
        if (len(self.bra) + len(self.ket)) % 2 != 0:
            raise DomainError(
                "m + n must be even; odd matrix elements vanish by charge selection"
            )


class SpecStack(NamedTuple):
    """S specs of one (m, n): ``bra`` (S, m) antiperiodic and ``ket`` (S, n)
    periodic momentum indices, each row strictly increasing, and ``site``
    one int shared by every row or an (S,) int array of one site per row.

    Every form-factor route takes a stack and gives one value (or matrix) per
    row; a :class:`FormFactorSpec` is the stack of one.  A row's value does
    not depend on whether its site is shared: bit for bit in
    :func:`ff_closed`, to rounding in the routes that multiply complex arrays.
    """

    site: int | np.ndarray
    bra: np.ndarray
    ket: np.ndarray


def _as_stack(spec: FormFactorSpec | SpecStack, c: Couplings) -> SpecStack:
    """``spec`` as a checked stack; a :class:`FormFactorSpec` gives S = 1."""
    site = spec.site
    if isinstance(spec, FormFactorSpec):
        # FockState has checked that each side increases strictly, and
        # FormFactorSpec that m + n is even: only the ends remain, on the tuples
        bra, ket = spec.bra.indices, spec.ket.indices
        inside = all(x[0] >= 0 and x[-1] < c.n for x in (bra, ket) if x)
        bra, ket = np.array([bra], dtype=int), np.array([ket], dtype=int)
    else:
        bra, ket = np.asarray(spec.bra, dtype=int), np.asarray(spec.ket, dtype=int)
        if not (bra.ndim == ket.ndim == 2 and len(bra) == len(ket)
                and (bra.shape[1] + ket.shape[1]) % 2 == 0):
            raise DomainError(f"a spec stack needs (S, m) bra and (S, n) ket indices, "
                              f"m + n even, got shapes {bra.shape} and {ket.shape}")
        inside = all(np.all((x >= 0) & (x < c.n)) and np.all(np.diff(x, axis=1) > 0)
                     for x in (bra, ket))
    if not inside:
        raise DomainError(f"momentum indices must increase strictly within [0, {c.n})")
    if np.ndim(site) == 0:
        inside = 0 <= site < c.n
    else:
        site = np.asarray(site, dtype=int)
        if site.shape != (len(bra),):
            raise DomainError(f"a stack needs one site or {len(bra)} sites, "
                              f"got shape {site.shape}")
        inside = np.all((site >= 0) & (site < c.n))
    if not inside:
        raise DomainError(f"site {spec.site} outside [0, {c.n})")
    return SpecStack(site, bra, ket)


def _unstack(spec: FormFactorSpec | SpecStack, values: np.ndarray):
    """The per-row ``values`` of a stack, or the one value of a single spec."""
    if not isinstance(spec, FormFactorSpec):
        return values
    return values[0] if values.ndim > 1 else complex(values[0])


def _log_ratio2(ratio: np.ndarray) -> np.ndarray:
    """2 log|ratio| entrywise, and 0 where the ratio vanishes (the diagonal of
    a same-sector table, which is no factor of any form factor)."""
    out = np.zeros(ratio.shape)
    np.log(np.abs(ratio), out=out, where=ratio != 0.0)
    return 2.0 * out


def _ell(site, ndim: int):
    """ell = site - 1/2; (S,) sites become (S, 1, ...) of ``ndim`` axes, to
    broadcast along the first axis of per-row arrays."""
    ell = site - 0.5
    return ell if np.ndim(ell) == 0 else ell.reshape((-1,) + (1,) * (ndim - 1))


def _two_particle_entries(c: Couplings, site, rows_a, cols_a, rows_p, cols_p):
    """D^-1[rows_a, cols_p], (B*D^-1)[rows_p, cols_p] and (D^-1*C)[rows_a, cols_a]
    from the closed forms, the index arrays broadcast; entry by entry, so a
    gathered entry equals that of the full matrices bit for bit.  (S,) sites
    broadcast along the first axis of the index arrays."""
    tab = coupling_tables(c)
    a, p = tab.a, tab.p
    ell = _ell(site, np.ndim(rows_a))
    dinv = (1j * np.exp(-1j * ell * (a.thetas[rows_a] - p.thetas[cols_p]))
            * a.amp[rows_a] * p.amp[cols_p] * tab.ap_ratio[rows_a, cols_p])
    bdinv = (-1j * np.exp(1j * ell * (p.thetas[rows_p] + p.thetas[cols_p]))
             * c.rho2 * p.amp[rows_p] * p.amp[cols_p] * p.pair_ratio[rows_p, cols_p])
    dinvc = (-1j * np.exp(-1j * ell * (a.thetas[rows_a] + a.thetas[cols_a]))
             * c.rho2 * a.amp[rows_a] * a.amp[cols_a] * a.pair_ratio[rows_a, cols_a])
    return dinv, bdinv, dinvc


def two_particle_matrices(c: Couplings, site: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of (D^-1, B*D^-1, D^-1*C) for the rotation at ``site``.

    D^-1 is indexed antiperiodic x periodic; B*D^-1 periodic x periodic;
    D^-1*C antiperiodic x antiperiodic.  The entries are the normalized
    two-particle form factors.
    """
    if not 0 <= site < c.n:
        raise DomainError(f"site {site} outside [0, {c.n})")
    rows, cols = np.arange(c.n)[:, None], np.arange(c.n)[None, :]
    return _two_particle_entries(c, site, rows, cols, rows, cols)


def xi_t(c: Couplings) -> float:
    """Finite-size correction factor multiplying the infinite-lattice amplitude."""
    tab = coupling_tables(c)
    return math.exp((tab.p.nu.sum() - tab.a.nu.sum()) / 4.0)


def vacuum_overlap(c: Couplings) -> float:
    """Vacuum-to-vacuum spin matrix element |det D|^{1/2}, evaluated in log space.

    Equals [(1 - k^2) * prod_p e^{nu} * prod_a e^{-nu}]^{1/8} = exp(log_vac2 / 2);
    converges to the spontaneous magnetization (1 - s^{-2})^{1/8} as N grows.
    """
    return math.exp(coupling_tables(c).log_vac2 / 2.0)


def assemble_r_matrix(spec: FormFactorSpec | SpecStack, c: Couplings) -> np.ndarray:
    """Antisymmetric pairing matrix R of the pfaffian representation.

    Blocks: bra x bra from D^-1*C, bra x ket from D^-1, ket x ket from B*D^-1,
    gathered at the spec's momenta without building the N x N matrices.  A
    stack gives an (S, m+n, m+n) array, a single spec one matrix.
    """
    stack = _as_stack(spec, c)
    ia, ip = stack.bra, stack.ket
    dinv, bdinv, dinvc = _two_particle_entries(c, stack.site, ia[:, :, None],
                                               ia[:, None, :], ip[:, :, None],
                                               ip[:, None, :])
    m = ia.shape[1]
    r = np.empty((len(ia), m + ip.shape[1], m + ip.shape[1]), dtype=complex)
    r[:, :m, :m], r[:, :m, m:], r[:, m:, m:] = dinvc, dinv, bdinv
    r[:, m:, :m] = -np.swapaxes(dinv, 1, 2)
    return _unstack(spec, r)


def ff_pfaffian(spec: FormFactorSpec | SpecStack, c: Couplings):
    """Form factor as |det D|^{1/2} times the pfaffian of the pairing matrix.

    A stack gives S values from one stacked pfaffian, a spec a complex.
    """
    return vacuum_overlap(c) * pfaffian(assemble_r_matrix(spec, c))


def _pair_log_sums(ratio: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per stack row, the sum of 2 log|ratio| over every (row, col) index pair."""
    logs = _log_ratio2(ratio[rows[:, :, None], cols[:, None, :]])
    return logs.reshape(len(rows), rows.shape[1] * cols.shape[1]).sum(axis=1)


def ff_closed(spec: FormFactorSpec | SpecStack, c: Couplings):
    """Fully factorized closed form of the (m, n)-particle form factor.

    The modulus is accumulated in log space from the same factors that
    :func:`abs_ff2_table` sums, so large N and many particles cannot
    overflow.  The sign is the parity of the negative factors: momentum
    indices increase, so every same-sector ratio is negative, and a mixed
    ratio is negative exactly when the bra index lies below the ket index.
    The phase exp(i*ell*(sum theta_p - sum theta_a)) is reduced modulo 2*pi
    in integers, and the leading power of i has an integer exponent for even
    m + n, so no branch choice enters; the result agrees with the pfaffian
    route including its phase.  A stack gives S values, a spec a complex.
    """
    stack = _as_stack(spec, c)
    ia, ip = stack.bra, stack.ket
    m, n = ia.shape[1], ip.shape[1]
    tab = coupling_tables(c)

    log_f2 = (tab.log_vac2 + 0.5 * (m - n) ** 2 * c.log_rho2
              + tab.a.log_amp2[ia].sum(axis=1) + tab.p.log_amp2[ip].sum(axis=1)
              + 0.5 * _pair_log_sums(tab.a.pair_ratio, ia, ia)
              + 0.5 * _pair_log_sums(tab.p.pair_ratio, ip, ip)
              + _pair_log_sums(tab.ap_ratio, ia, ip))
    negative = (m * (m - 1) + n * (n - 1)) // 2 \
        + np.count_nonzero(ia[:, :, None] < ip[:, None, :], axis=(1, 2))
    # N/pi * (sum theta_p - sum theta_a) is the integer 2*sum(ket) - 2*sum(bra) - m
    # and ell = (2*site - 1)/2, so the phase angle is pi*turns/(2N) modulo 2*pi
    turns = ((2 * stack.site - 1) * (2 * ip.sum(axis=1) - 2 * ia.sum(axis=1) - m)
             % (4 * c.n))
    ipower = (2 * m * n - (m + n) // 2) % 4
    # math.exp per value: numpy's vector exp can round differently in the
    # last bit, and a value must not depend on the stack it is computed in
    modulus = np.fromiter(map(math.exp, 0.5 * log_f2), float, len(log_f2))
    val = (np.where(negative % 2, -modulus, modulus) * _I_POWERS[ipower]
           * np.exp(1j * math.pi * turns / (2 * c.n)))
    return _unstack(spec, val)


# ---- Fock basis and the batched |F|^2 kernel ---------------------------------


@dataclass(frozen=True)
class FockStates:
    """Every Fock state of N momenta with a fixed particle-number parity, up
    to a particle cap: the part of a basis that no coupling enters.

    States are ordered by particle number, then in ``itertools.combinations``
    order.  ``occupancy`` is the 0/1 matrix (states x momenta).  The arrays
    are read-only, because :func:`_fock_states` shares one set of states
    between both sectors and every coupling of one (N, parity, cap).
    """

    parity: int
    states: tuple[tuple[int, ...], ...]
    occupancy: np.ndarray
    particles: np.ndarray

    def __post_init__(self):
        _read_only(self.occupancy, self.particles)

    def __len__(self) -> int:
        return len(self.states)

    def indices(self, k: int) -> np.ndarray:
        """Momentum indices of the k-particle states, one row each, in order."""
        rows = self.occupancy[self.particles == k]
        return np.nonzero(rows)[1].reshape(len(rows), k)


@dataclass(frozen=True)
class FockBasis(FockStates):
    """The :class:`FockStates` of one sector at one coupling, with the reduced
    energy (log of the transfer-matrix eigenvalue without its common
    prefactor) and the total momentum of each state: the products of the
    occupancy with gamma and theta.  Read-only, like the states.
    """

    sector: str
    energies: np.ndarray
    momenta: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        _read_only(self.energies, self.momenta)

    def blocks(self):
        """Consecutive (slice, basis) blocks of at most ``_BLOCK_ROWS`` states.

        The block boundaries depend only on the basis size, so sums streamed
        over the blocks repeat bit for bit.
        """
        for start in range(0, len(self), _BLOCK_ROWS):
            sel = slice(start, start + _BLOCK_ROWS)
            yield sel, FockBasis(self.parity, self.states[sel], self.occupancy[sel],
                                 self.particles[sel], self.sector,
                                 self.energies[sel], self.momenta[sel])


def fock_basis(c: Couplings, sector: str, parity: int,
               cutoff: int | None = None) -> FockBasis:
    """All states of ``sector`` with particle number = parity (mod 2), up to ``cutoff``.

    Built once per (coupling, sector, parity, cutoff) and shared afterwards.
    """
    return _fock_basis(c, sector, parity % 2, c.n if cutoff is None else min(c.n, cutoff))


# the states past N=12 can hold tens of MB (the occupancy is states x N
# doubles), so few are kept: both parities of four (N, cap) pairs, such as
# the form-factor suite's caps 2 and 4 and the full basis at one N
@lru_cache(maxsize=8)
def _fock_states(n: int, parity: int, cap: int) -> FockStates:
    states = tuple(s for k in range(parity, cap + 1, 2)
                   for s in itertools.combinations(range(n), k))
    particles = np.fromiter(map(len, states), int, len(states))
    occupancy = np.zeros((len(states), n))
    occupancy[np.repeat(np.arange(len(states)), particles),
              np.fromiter(itertools.chain.from_iterable(states), int)] = 1.0
    return FockStates(parity, states, occupancy, particles)


# a basis adds only two vectors to the states it shares with both sectors
# and every coupling of its (N, parity, cap), so the cache keeps both
# parities and sectors of four couplings, such as the full bases that the
# form-factor suite's completeness sum rule reads at each coupling
@lru_cache(maxsize=16)
def _fock_basis(c: Couplings, sector: str, parity: int, cap: int) -> FockBasis:
    table = c.sector(sector)
    base = _fock_states(c.n, parity, cap)
    return FockBasis(parity, base.states, base.occupancy, base.particles, sector,
                     energies=0.5 * table.gamma.sum() - base.occupancy @ table.gamma,
                     momenta=base.occupancy @ table.thetas)


def _log_ff2_one_side(basis: FockBasis, table: SectorTable,
                      log_rho2: float) -> np.ndarray:
    """The part of log|F|^2 that depends on the bra (or the ket) alone."""
    occ = basis.occupancy
    pairs = 0.5 * np.einsum("ij,ij->i", occ @ _log_ratio2(table.pair_ratio), occ)
    return 0.5 * basis.particles ** 2 * log_rho2 + occ @ table.log_amp2 + pairs


def abs_ff2_table(c: Couplings, bras: FockBasis, kets: FockBasis) -> np.ndarray:
    """|F|^2 of every (bra, ket) pair; the modulus does not depend on the site.

    log|F|^2 splits into a constant, a per-bra and a per-ket term, and the
    cross term O_a . L_ap . O_p^T - m*n*log(rho^2), so the whole table is a
    few matrix products and one exponential.
    """
    if bras.sector != "a" or kets.sector != "p":
        raise DomainError("bras must be antiperiodic and kets periodic")
    if bras.parity != kets.parity:
        raise DomainError(
            "bra and ket parities differ; odd matrix elements vanish by charge selection"
        )
    tab, lr = coupling_tables(c), c.log_rho2
    log_f2 = bras.occupancy @ (_log_ratio2(tab.ap_ratio) @ kets.occupancy.T)
    log_f2 -= lr * np.outer(bras.particles, kets.particles)
    log_f2 += _log_ff2_one_side(bras, tab.a, lr)[:, None]
    log_f2 += (tab.log_vac2 + _log_ff2_one_side(kets, tab.p, lr))[None, :]
    return np.exp(log_f2, out=log_f2)


# A spectral sum's |F|^2 table depends on none of M, dx, dy and eps_x, so a
# caller that sweeps separations at one coupling, or the completeness sum
# rule of the form-factor suite, can read it again.  Only a
# table of at most 2 MiB is kept (every full table up to N=10; 128 KiB at
# N=8), so a one-shot call holds at most 2 MiB more than a streamed one and
# the eight most recent hold at most 16 MiB.  A larger table, such as the
# full one at N=11 (8 MiB), streams one block at a time and is not kept.
_FF2_KEPT_MAX_BYTES = 2 * 2**20


@lru_cache(maxsize=8)
def _kept_ff2_blocks(c: Couplings, parity: int, cap: int):
    """The read-only (rows, |F|^2) blocks of a spectral sum, as it streams them."""
    kets = _fock_basis(c, "p", parity, cap)
    return tuple((rows, *_read_only(abs_ff2_table(c, bras, kets)))
                 for rows, bras in _fock_basis(c, "a", parity, cap).blocks())


def _ff2_blocks(c: Couplings, parity: int, cap: int):
    """The (rows, |F|^2) blocks of a spectral sum: kept for a table of at most
    2 MiB, else built one at a time (a caller frees each before the next)."""
    bras, kets = _fock_basis(c, "a", parity, cap), _fock_basis(c, "p", parity, cap)
    if len(bras) * len(kets) * 8 <= _FF2_KEPT_MAX_BYTES:       # doubles
        return _kept_ff2_blocks(c, parity, cap)
    return ((rows, abs_ff2_table(c, block, kets)) for rows, block in bras.blocks())


# ---- two-point correlation -------------------------------------------------


def two_point_correlation(c: Couplings, m_height: int, dx: int, dy: int,
                          eps_x: int = 1, eps_y: int = 1,
                          max_particles: int | None = None) -> float:
    """Spin-spin correlation <sigma_{0,0} sigma_{dx,dy}> on the M x N torus.

    Assembled from the spectral expansion: squared form-factor moduli
    weighted by transfer-matrix and translation eigenvalues, with the
    spin-flip insertion for eps_x = -1, in the tower of eps_y (its parity and
    U charges are :func:`isingff.spectral.tower_parity`'s).  The double sum
    runs over the tower's whole Fock basis for N <= 12; beyond that a particle
    cutoff (default 4) is applied and a truncation bound is estimated.

    The |F|^2 table is summed in fixed blocks of bra rows, so repeated runs
    are bit-identical.  It depends only on the coupling, the parity and the
    cutoff, so a table of at most 2 MiB (every full table up to N=10) is kept
    for later calls with the same three; a larger one streams through one
    block at a time (see :func:`_ff2_blocks`).
    """
    parity = tower_parity(eps_y)
    dy = torus_dy(c.n, m_height, dx, dy, eps_x)
    if dx in (0, m_height) and dy % c.n == 0:
        # coincident points: s_0^2 = 1, U^chi s_0 = eps_x s_0 U^chi carries
        # s_0 round the torus, and T^N is the spin flip for eps_y = -1
        return float((eps_x if dx else 1) * (eps_y if abs(dy) == c.n else 1))
    cutoff = max_particles
    if c.n > _FULL_ENUMERATION_MAX_N and cutoff is None:
        cutoff = _DEFAULT_PARTICLE_CUTOFF
    basis_a = fock_basis(c, "a", parity, cutoff)
    basis_p = fock_basis(c, "p", parity, cutoff)
    if not len(basis_a) or not len(basis_p):
        raise DomainError("no states of the required parity below the cutoff")

    e_max = max(basis_a.energies.max(), basis_p.energies.max())
    e_a = basis_a.energies - e_max
    e_p = basis_p.energies - e_max
    ph_a, ph_p = basis_a.momenta, basis_p.momenta

    # for eps_x = -1 the trace reads the towers' U charges, eps_y (a) and -eps_y (p)
    u_a, u_p = (float(eps_y), -float(eps_y)) if eps_x == -1 else (1.0, 1.0)

    # both weights times their translation phase are outer products of a bra
    # and a ket vector, so the double sum is two bilinear forms in |F|^2
    left = np.stack([u_a * np.exp((m_height - dx) * e_a + 1j * dy * ph_a),
                     u_p * np.exp(dx * e_a - 1j * dy * ph_a)], axis=1)
    right = np.stack([np.exp(dx * e_p - 1j * dy * ph_p),
                      np.exp((m_height - dx) * e_p + 1j * dy * ph_p)], axis=1)
    num = 0j
    for rows, ff2 in _ff2_blocks(c, parity, c.n if cutoff is None else min(c.n, cutoff)):
        # a real product with the (re, im) columns of ``right``
        partial = (ff2 @ right.view(float)).view(complex)
        del ff2             # a streamed block is freed before the next is built
        num += np.sum(left[rows] * partial)
    den = np.sum(np.exp(m_height * e_a)) * u_a + np.sum(np.exp(m_height * e_p)) * u_p
    if abs(den) < 1e-300:
        raise DomainError("partition sum vanishes for these boundary conditions")
    result = num / den

    if cutoff is not None and cutoff < c.n:
        # every omitted state carries at least cutoff+1 particles, so its
        # reduced energy is at most e_om below; combined with
        # sum over a full sector of |F|^2 = 1 this gives a coarse tail bound
        k_min = cutoff + 1
        e_om_a, e_om_p = (0.5 * g.sum() - np.sort(g)[:k_min].sum() - e_max
                          for g in (c.sector("a").gamma, c.sector("p").gamma))
        e_om = max(e_om_a, e_om_p)
        tail = (np.sum(np.exp((m_height - dx) * e_a)) * math.exp(dx * e_om_p)
                + np.sum(np.exp(dx * e_p)) * math.exp((m_height - dx) * e_om_a)
                + 2.0 ** c.n * math.exp(m_height * e_om))
        bound = tail / abs(den)
        if bound > 1e-10:
            warnings.warn(
                f"particle-number cutoff {cutoff} may truncate the state sum; "
                f"estimated bound on the omitted weight: {bound:.2e}",
                stacklevel=2,
            )

    if abs(result.imag) > 1e-9 * max(1.0, abs(result.real)):
        raise VerificationError(
            f"correlation sum has non-negligible imaginary part {result.imag:.3e}"
        )
    return float(result.real)
