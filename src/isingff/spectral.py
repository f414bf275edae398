"""Lattice dispersion relation and the per-coupling spectral tables.

The dispersion gamma_theta, the unimodular coefficients b_theta, and the
coupling container of n, kx and ky, whose scalars are all elementary: the
elliptic uniformization of the curve is :mod:`isingff.cauchy`'s own.

Each momentum sector has one read-only :class:`SectorTable`, reached by
``c.sector(name)`` and built lazily, once per coupling value.

Quasimomenta are handled as exact integer indices into a sector's ordered
momentum set wherever states are matched across modules; floating theta values
are produced only at evaluation sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError

SECTORS = ("a", "p")


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: they are cached and shared per coupling."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def quasimomenta(sector: str, n: int) -> np.ndarray:
    """Ordered quasimomentum set of the antiperiodic ("a") or periodic ("p") sector.

    Sector "a" is {pi/N, 3pi/N, ..., 2pi - pi/N}; sector "p" is
    {0, 2pi/N, ..., 2pi - 2pi/N}.
    """
    if n < 1:
        raise DomainError(f"lattice width must be positive, got {n}")
    j = np.arange(n)
    if sector == "a":
        return (2 * j + 1) * math.pi / n
    if sector == "p":
        return 2 * j * math.pi / n
    raise DomainError(f"sector must be 'a' or 'p', got {sector!r}")


@dataclass(frozen=True)
class Couplings:
    """Lattice width and couplings, with the elementary scalars of the curve.

    Construction enforces an integral n >= 1 and the ferromagnetic region
    kx_star < ky (alpha < 1); the inputs alone decide equality and hashing.
    The elliptic modulus (of ``k`` = 1/s) and eta are the elliptic routes' own
    (:func:`isingff.cauchy.ising_modulus`, :func:`isingff.cauchy.ising_eta`).

    Pure data, immutable and safe to share across threads.  ``sector(name)``
    returns the read-only :class:`SectorTable` of a sector, built on first
    use and shared by every equal instance.
    """

    n: int
    kx: float
    ky: float
    kx_star: float = field(init=False, repr=False, compare=False)
    alpha: float = field(init=False, repr=False, compare=False)
    beta: float = field(init=False, repr=False, compare=False)
    s: float = field(init=False, repr=False, compare=False)
    k: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, kx, ky = self.n, self.kx, self.ky
        if kx <= 0.0 or ky <= 0.0:
            raise DomainError(f"couplings must be positive, got kx={kx}, ky={ky}")
        if not isinstance(n, (int, np.integer)):
            raise DomainError(f"lattice width must be an integer, got {n!r}")
        if n < 1:
            raise DomainError(f"lattice width must be positive, got {n}")
        kx_star = math.atanh(math.exp(-2.0 * kx))
        if not kx_star < ky:
            raise DomainError(
                f"not in the ferromagnetic region: kx*={kx_star:.6f} >= ky={ky}"
            )
        alpha = math.tanh(kx_star) / math.tanh(ky)
        beta = math.tanh(kx_star) * math.tanh(ky)
        k = math.sinh(2.0 * kx_star) / math.sinh(2.0 * ky)     # 1/s: near 1 at criticality
        if not (0.0 < beta < alpha < 1.0 and k < 1.0):
            raise DomainError(f"expected 0 < beta < alpha < 1, k < 1: {beta}, {alpha}, {k}")
        s = math.sinh(2.0 * kx) * math.sinh(2.0 * ky)
        for name, value in (("kx_star", kx_star), ("alpha", alpha), ("beta", beta), ("s", s),
                            ("k", k)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_kx_ky(cls, kx: float, ky: float, n: int) -> "Couplings":
        return cls(n, kx, ky)

    @property
    def sinh2kx(self) -> float:
        return math.sinh(2.0 * self.kx)

    @property
    def sinh2ky(self) -> float:
        return math.sinh(2.0 * self.ky)

    @property
    def sinh2kx_star(self) -> float:
        return math.sinh(2.0 * self.kx_star)

    @property
    def xi(self) -> float:
        """|1 - s^{-2}|^{1/4}; the spontaneous magnetization is xi^{1/2}."""
        return abs(1.0 - self.s ** (-2)) ** 0.25

    def sector(self, name: str) -> "SectorTable":
        """The spectral table of sector ``name`` ("a" or "p")."""
        if name not in SECTORS:
            raise DomainError(f"sector must be 'a' or 'p', got {name!r}")
        return getattr(coupling_tables(self), name)

    def __getattr__(self, name: str):
        # ``<field>_<sector>``: a table field, or ``<field>_of_theta`` at the sector's
        # momenta; u is the elliptic side's, imported for ``perfbench/workloads.build_corr``
        field, _, sector = name.rpartition("_")
        curve = {"b": b_of_theta, "sqrt_b": sqrt_b_of_theta}
        if sector not in SECTORS or field not in ("thetas", "gamma", "nu", "u", *curve):
            raise AttributeError(name)
        table = self.sector(sector)
        if field == "u":
            from .cauchy import u_of_theta
            return u_of_theta(table.thetas, self)
        return curve[field](table.thetas, self) if field in curve else getattr(table, field)


@dataclass(frozen=True)
class SectorTable:
    """Per-momentum data of one fermion sector, in quasimomentum order.

    ``log_amp2`` = +-nu - log N - log sinh gamma (+ in sector "a") is the
    log squared normalisation of a particle in the two-particle form factors,
    and ``amp`` = exp(``log_amp2`` / 2); ``pair_ratio`` is sin((theta-theta')/2) /
    sinh((gamma+gamma')/2) with a zero diagonal.  The arrays are read-only,
    because every equal :class:`Couplings` shares the table.
    """

    sector: str
    thetas: np.ndarray
    gamma: np.ndarray
    nu: np.ndarray
    amp: np.ndarray
    log_amp2: np.ndarray
    pair_ratio: np.ndarray

    def __post_init__(self):
        _read_only(*(v for v in vars(self).values() if isinstance(v, np.ndarray)))


class CouplingTables(NamedTuple):
    """Both sector tables, the mixed a x p pair ratio and the scalars of log|F|^2.

    ``ap_ratio`` is sinh((gamma_a+gamma_p)/2)/sin((theta_a-theta_p)/2),
    ``rho2`` = sinh(2ky)/sinh(2kx), and the log squared vacuum overlap is
    ``log_vac2`` = (log(1 - k^2) + sum nu_p - sum nu_a) / 4, log(xi * xi_T).
    """

    a: SectorTable
    p: SectorTable
    ap_ratio: np.ndarray
    rho2: float
    log_rho2: float
    log_vac2: float


@lru_cache(maxsize=64)
def coupling_tables(c: Couplings) -> CouplingTables:
    """The spectral tables of ``c``, built once per coupling value.

    nu is taken from the two gamma arrays built here: :func:`nu_of_gamma`
    reads these tables, so calling it would re-enter the cache.  The pair
    ratios are kept, not their N x N logs: caching those as well cost each
    N=256 ``isingff ff`` call about 2,000 more minor page faults.
    """
    thetas = {s: quasimomenta(s, c.n) for s in SECTORS}
    gamma = {s: gamma_of_theta(thetas[s], c) for s in SECTORS}
    tables = {}
    # the antiperiodic amplitude carries e^{+nu/2}, the periodic one e^{-nu/2}
    for sector, sign in zip(SECTORS, (1.0, -1.0)):
        th, g = thetas[sector], gamma[sector]
        nu = _nu(g, gamma["a"], gamma["p"])
        log_amp2 = sign * nu - math.log(c.n) - log_sinh(g)
        ratio = np.sin((th[:, None] - th[None, :]) / 2.0) \
            / np.sinh((g[:, None] + g[None, :]) / 2.0)
        np.fill_diagonal(ratio, 0.0)
        tables[sector] = SectorTable(
            sector=sector, thetas=th, gamma=g, nu=nu,
            amp=np.exp(log_amp2 / 2.0), log_amp2=log_amp2, pair_ratio=ratio)
    ap_ratio = _read_only(np.sinh((gamma["a"][:, None] + gamma["p"][None, :]) / 2.0)
                          / np.sin((thetas["a"][:, None] - thetas["p"][None, :]) / 2.0))[0]
    rho2 = c.sinh2ky / c.sinh2kx
    return CouplingTables(
        **tables, ap_ratio=ap_ratio, rho2=rho2, log_rho2=math.log(rho2),
        log_vac2=(math.log1p(-c.k**2) + tables["p"].nu.sum() - tables["a"].nu.sum()) / 4.0)


def gamma_of_theta(theta, c: Couplings):
    """Single-particle energy gamma_theta >= 0 of the lattice dispersion: cosh gamma =
    cosh 2kx* cosh 2ky - sinh 2kx* sinh 2ky cos theta with cosh gamma - 1 = 2 sinh^2(gamma/2)
    is sinh^2(gamma/2) = sinh^2(ky - kx*) + sinh 2kx* sinh 2ky sin^2(theta/2), whose terms
    are non-negative: nothing cancels, so a small gamma near criticality keeps its digits."""
    sinh2_half = (math.sinh(c.ky - c.kx_star) ** 2
                  + c.sinh2kx_star * c.sinh2ky * np.sin(np.asarray(theta) / 2.0) ** 2)
    return 2.0 * np.arcsinh(np.sqrt(sinh2_half))


def b_of_theta(theta, c: Couplings):
    """Unimodular coefficient b_theta, square-root branch with positive real part.

    Raises
    ------
    DomainError
        If the radicand lands on the negative real axis (branch cut); the
        branch is then ambiguous and no side is silently picked.
    """
    z = np.exp(1j * np.asarray(theta, dtype=float))
    num = (1.0 - c.alpha * z) * (1.0 - c.beta / z)
    den = (1.0 - c.beta * z) * (1.0 - c.alpha / z)
    ratio = num / den
    b = np.sqrt(ratio)
    if np.any(b.real <= 0.0):
        raise DomainError("b_theta radicand on the branch cut; cannot fix the sign")
    return b if b.ndim else complex(b)


def sqrt_b_of_theta(theta, c: Couplings):
    """Principal square root of b_theta; its real part is positive, as b_theta's is.

    The convention sqrt(b_pi) = 1 fixes the branch used throughout the
    induced-rotation matrices.
    """
    return np.sqrt(b_of_theta(theta, c))


def log_sinh(x):
    """log(sinh(x)) for x > 0, as x - log 2 + log(1 - e^{-2x}): no overflow at
    large x, and expm1 keeps the digits at small x."""
    x = np.asarray(x, dtype=float)
    return x - math.log(2.0) + np.log(-np.expm1(-2.0 * x))


def nu_of_gamma(gamma, c: Couplings):
    """Sector-asymmetry exponent nu for given single-particle energies.

    nu = sum over antiperiodic momenta of log sinh((gamma + gamma')/2)
    minus the same sum over periodic momenta; evaluated in log space so
    large energies cannot overflow.
    """
    out = _nu(gamma, c.sector("a").gamma, c.sector("p").gamma)
    return out if out.ndim else float(out)


def _nu(gamma, gamma_a: np.ndarray, gamma_p: np.ndarray) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)[..., None]
    return (log_sinh((g + gamma_a) / 2.0).sum(axis=-1)
            - log_sinh((g + gamma_p) / 2.0).sum(axis=-1))
