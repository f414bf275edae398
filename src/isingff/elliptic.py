"""Jacobi theta functions, elliptic integrals of the first kind, and Jacobi elliptic functions.

Conventions: theta functions take the nome q in (0, 1) and an argument z with
real period pi, so that sn/cn/dn of argument u are theta ratios evaluated at
z = pi*u/(2K).  The period ratio tau = i*K'/K is always pure imaginary here,
hence q = exp(-pi*K'/K) is real.

All evaluation is in double precision.  Arguments with large imaginary part
are reduced into the fundamental strip by quasiperiod shifts with exact
bookkeeping of the accumulated phase factor.

``theta``, ``jacobi_sn_cn_dn`` and ``inverse_sn_real`` take scalars or numpy
arrays: arrays are evaluated elementwise in one pass of array arithmetic and
keep their shape, while a scalar argument gives a Python scalar.  The four
theta functions behind one sn/cn/dn evaluation are summed as one stacked
theta_1 series.  theta_1 is sin z times a series in cos 2z, summed by
Clenshaw's recurrence: one complex sine per element, not one per term.  The
incomplete integral F is Carlson's R_F, reduced by a fixed number of
duplication steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceError, DomainError

_SERIES_CUTOFF = 1e-17
_MAX_TERMS = 512
# theta's error against a 50-digit reference stays below 1e-10 for every
# q < 0.86 (it is 1.1e-10 at 0.863 and 1.5e3 at 0.95): the alternating series
# cancels to a value about exp(-pi^2 / (4 log(1/q))) times its first term
_Q_MAX = 0.86
_POLE_TOL = 1e-11
_DUPLICATIONS = 10


def complete_elliptic_K(k: float) -> float:
    """Complete elliptic integral K(k) by the arithmetic-geometric mean.

    The complementary integral K' is obtained by calling with the
    complementary modulus k' = sqrt(1 - k^2).

    Raises
    ------
    DomainError
        If k is outside (0, 1).
    """
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus k={k} outside (0, 1)")
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(64):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    else:
        raise ConvergenceError("AGM iteration did not converge")
    return math.pi / (a + b)


def incomplete_elliptic_F(phi, kprime: float) -> np.ndarray:
    """F(phi | k) = sin(phi) R_F(cos^2 phi, 1 - k^2 sin^2 phi, 1) elementwise,
    for the modulus k whose complement is ``kprime``.

    1 - k^2 sin^2 phi is formed as cos^2 phi + k'^2 sin^2 phi, which keeps its
    relative accuracy as k approaches 1.  Carlson's R_F by duplication
    (Carlson, Numer. Algorithms 10, 13, 1995; DLMF 19.36.1): each step
    quarters the spread of the three arguments, and after a fixed 10 of them
    the series to fifth order in their deviations is exact in double
    precision, so no element depends on its neighbours.
    """
    sin, cos = np.sin(phi), np.cos(phi)
    x, y, z = cos * cos, cos * cos + (kprime * sin) ** 2, 1.0
    for _ in range(_DUPLICATIONS):
        rx, ry, rz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = rx * (ry + rz) + ry * rz
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    mu = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mu, 1.0 - y / mu
    e2, e3 = dx * dy - (dx + dy) ** 2, -dx * dy * (dx + dy)
    return sin * (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) \
        / np.sqrt(mu)


def _theta1_strip(z: np.ndarray, q: float) -> np.ndarray:
    """theta_1 sine series over a 1-d array whose |Im z| lie inside the half-strip.

    The bound q^((n+3/2)^2) exp((2n+3)|Im z|) on the first omitted term falls
    with n in the half-strip.  Each element sums its own terms until that
    bound is below _SERIES_CUTOFF times its first term, plus one term of
    margin; the coefficients past an element's count are zero, so its value
    does not depend on the other elements of the array.

    With P_n = sin((2n+1)z) / sin z, which obeys P_0 = 1, P_1 = 2t + 1 and
    P_(n+1) = 2t P_n - P_(n-1) for t = cos 2z = 1 - 2 sin^2 z, the series is
    2 sin z sum_n (-1)^n q^((n+1/2)^2) P_n(t), summed by Clenshaw's backward
    recurrence b_n = c_n + 2t b_(n+1) - b_(n+2), whose sum is b_0 + b_1: one
    complex sine per element, and a few multiply-adds per term.  sin z is
    factored out, so the value keeps its relative accuracy at the zero z = 0.
    """
    pit = -math.log(q)
    y = np.abs(z.imag)
    sin = np.sin(z)
    first = q ** 0.25 * np.abs(sin)
    log_ratio = np.maximum(-np.log(_SERIES_CUTOFF * np.maximum(first, 1e-300)), 0.0)
    # n + 3/2 > t solves pit*(n+3/2)^2 - 2*y*(n+3/2) > log_ratio
    count = np.floor((y + np.sqrt(y * y + pit * log_ratio)) / pit + 1.5)
    count[z == 0] = 0.0  # the series vanishes identically there
    top = max(int(np.max(count, initial=0.0)), 1)
    if top > _MAX_TERMS:
        raise ConvergenceError(
            f"theta_1 series needs {top} > {_MAX_TERMS} terms (q={q}, "
            f"max |Im z|={float(np.max(y))})"
        )
    n = np.arange(top)
    coef = (-1.0) ** n * q ** ((n + 0.5) ** 2)
    two_t = 2.0 - 4.0 * sin * sin
    # each term's coefficients are formed as the recurrence reaches it, so a
    # long array holds no (terms, elements) table
    b1, b2 = np.where(top - 1 < count, coef[-1], 0.0).astype(complex), np.zeros_like(z)
    for k in range(top - 2, -1, -1):
        b1, b2 = np.where(k < count, coef[k], 0.0) + two_t * b1 - b2, b1
    return 2.0 * sin * (b1 + b2)


def _theta1(z: np.ndarray, q: float) -> np.ndarray:
    """theta_1(z, q) elementwise over a complex array.

    Uses theta_1(z + pi) = -theta_1(z) and the quasiperiodicity relation
    theta_1(z + l*pi*tau) = (-1)^l exp(-i*pi*l^2*tau - 2*i*l*z) theta_1(z)
    to reduce each argument; the shift counts are integers (rounded to
    nearest), so the phase factor is tracked exactly.
    """
    pit = -math.log(q)  # pi*|tau|, with tau = i*K'/K
    z = z.ravel()
    ell = np.rint(z.imag / pit)
    m = np.rint(z.real / math.pi)
    zr = z - m * math.pi - 1j * (ell * pit)
    # theta_1(zr + l*pi*tau) = (-1)^l exp(pi*|tau|*l^2 - 2i*l*zr) theta_1(zr):
    # the sign from the parity of m + l, the exponential only where l != 0.
    # Every value is multiplied by its complex phase, not negated, because the
    # product sets the sign of a zero imaginary part, which picks the branch
    # of a later complex log (the Frobenius log determinants)
    phase = (1.0 - 2.0 * ((m + ell) % 2)).astype(complex)
    shifted = np.flatnonzero(ell)
    if shifted.size:
        ls = ell[shifted]
        phase[shifted] *= np.exp(pit * ls * ls - 2j * ls * zr[shifted])
    return phase * _theta1_strip(zr, q)


def _thetas(indices: tuple[int, ...], z: np.ndarray, q: float) -> np.ndarray:
    """theta_index(z) for each index, stacked along a new first axis.

    theta_2, theta_3, theta_4 are theta_1 at half-period shifts of the
    argument, so every requested function is one theta_1 evaluation over
    the stacked shifted arguments.
    """
    pit = -math.log(q)
    shifts = {1: 0.0, 2: math.pi / 2, 3: math.pi / 2 - 0.5j * pit, 4: -0.5j * pit}
    args = np.add.outer([shifts[i] for i in indices], z)
    vals = _theta1(args, q).reshape(args.shape)
    phase = np.exp(-1j * z - pit / 4)
    # products into new arrays: numpy multiplies a one-element array in place
    # with other rounding than a longer one, and a value must not depend on
    # the array it is evaluated in
    for row, index in enumerate(indices):
        if index == 3:
            vals[row] = vals[row] * phase
        elif index == 4:
            vals[row] = vals[row] * (1j * phase)
    return vals


def theta(index: int, z, q: float):
    """Jacobi theta function theta_index(z) of nome q, elementwise over z.

    theta_1 is summed from its sine series; theta_2, theta_3, theta_4 are
    obtained from theta_1 by the half-period shifts of its argument.

    Parameters
    ----------
    index : int
        Which theta function, 1 through 4.
    z : complex or array_like
        Argument (real period pi); arrays are evaluated elementwise and keep
        their shape, a scalar gives a Python complex.
    q : float
        Nome, 0 < q < 0.86; above that the series cancels too far for 1e-10.
    """
    if not 0.0 < q < _Q_MAX:
        raise DomainError(f"nome q={q} outside (0, {_Q_MAX})")
    if index not in (1, 2, 3, 4):
        raise DomainError(f"theta index must be 1..4, got {index}")
    z = np.asarray(z, dtype=complex)
    val = _thetas((index,), z, q)[0]
    return complex(val) if z.ndim == 0 else val


@dataclass(frozen=True)
class EllipticModulus:
    """Elliptic modulus k, with its quarter periods, period ratio and nome derived.

    Invariants (see :meth:`self_check`): k^2 + k'^2 = 1, q = exp(-pi*K'/K)
    in (0, 1), and the theta-constant routes k = theta_2(0)^2/theta_3(0)^2,
    2K = pi*theta_3(0)^2 reproduce k and K.  Equality and hashing read k only.
    """

    k: float
    kprime: float = field(init=False, repr=False, compare=False)
    bigK: float = field(init=False, repr=False, compare=False)
    bigKprime: float = field(init=False, repr=False, compare=False)
    tau: complex = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bigK = complete_elliptic_K(self.k)   # DomainError outside (0, 1)
        kprime = math.sqrt((1.0 - self.k) * (1.0 + self.k))
        if kprime == 1.0:
            raise DomainError(f"modulus k={self.k:.3e}: k' = sqrt(1 - k^2) rounds to 1")
        bigKprime = complete_elliptic_K(kprime)
        ratio = bigKprime / bigK
        q = math.exp(-math.pi * ratio)
        if q >= _Q_MAX:
            raise DomainError(
                f"nome q={q:.6f} too close to 1 for double precision (k={self.k})"
            )
        for name, value in (("kprime", kprime), ("bigK", bigK), ("bigKprime", bigKprime),
                            ("tau", 1j * ratio), ("q", q)):
            object.__setattr__(self, name, value)

    def complementary(self) -> "EllipticModulus":
        """Modulus object for k', with K and K' exchanged."""
        return EllipticModulus(self.kprime)

    @cached_property
    def _theta_zeros(self) -> tuple[complex, complex, complex]:
        """(theta_2(0), theta_3(0), theta_4(0))."""
        t2, t3, t4 = _thetas((2, 3, 4), np.zeros(()), self.q)
        return complex(t2), complex(t3), complex(t4)

    def self_check(self) -> dict[str, float]:
        """Residuals of the defining invariants, for verification suites."""
        t2, t3, t4 = self._theta_zeros
        return {
            "k2_plus_kprime2": abs(self.k**2 + self.kprime**2 - 1.0),
            "nome": abs(self.q - math.exp(-math.pi * self.bigKprime / self.bigK)),
            "k_from_thetas": abs(t2**2 / t3**2 - self.k),
            "twoK_from_thetas": abs(math.pi * t3**2 - 2.0 * self.bigK),
        }


def _pole_distance(u: np.ndarray, mod: EllipticModulus) -> np.ndarray:
    """Distance from each u to the pole lattice iK' + 2K*Z + 2iK'*Z of sn/cn/dn."""
    x = u.real - 2.0 * mod.bigK * np.rint(u.real / (2.0 * mod.bigK))
    y = u.imag - mod.bigKprime
    y = y - 2.0 * mod.bigKprime * np.rint(y / (2.0 * mod.bigKprime))
    return np.hypot(x, y)


def jacobi_sn_cn_dn(u, mod: EllipticModulus):
    """(sn u, cn u, dn u) for complex u via theta-function ratios, elementwise.

    The theta evaluator reduces large imaginary parts internally, so u may
    have any imaginary part as long as it stays away from the common pole
    lattice iK' mod (2K, 2iK').  An array u gives three complex arrays of its
    shape, a scalar three Python complex numbers.

    Raises
    ------
    DomainError
        If any u is within tolerance of a pole; the value is not extrapolated.
    """
    u = np.asarray(u, dtype=complex)
    near = _pole_distance(u, mod) < _POLE_TOL * (1.0 + np.abs(u))
    if np.any(near):
        raise DomainError(f"u={complex(u[near].flat[0])} within tolerance of a "
                          f"pole of sn/cn/dn")
    t1, t2, t3, t4 = _thetas((1, 2, 3, 4), u * (math.pi / (2.0 * mod.bigK)), mod.q)
    c2, c3, c4 = mod._theta_zeros
    sn = (c3 / c2) * t1 / t4
    cn = (c4 / c2) * t2 / t4
    dn = (c4 / c3) * t3 / t4
    if u.ndim == 0:
        return complex(sn), complex(cn), complex(dn)
    return sn, cn, dn


def evaluate_at_once(f, *args) -> list:
    """``f`` of each argument array, from one call of ``f`` over all of them
    concatenated: per argument a C-contiguous array of its shape, or a tuple
    of them where ``f`` gives a tuple (as :func:`jacobi_sn_cn_dn` does)."""
    flat = f(np.concatenate([np.ravel(a) for a in args]))
    ends = np.cumsum([np.size(a) for a in args])[:-1]
    parts = [[v.reshape(np.shape(a)) for a, v in zip(args, np.split(values, ends))]
             for values in (flat if isinstance(flat, tuple) else (flat,))]
    return list(zip(*parts)) if isinstance(flat, tuple) else parts[0]


def inverse_sn_real(s, mod: EllipticModulus):
    """u in [-K, K] with sn u = s and cn u >= 0, for real s in [-1, 1], elementwise.

    Inverts through the incomplete elliptic integral of the first kind,
    u = F(arcsin s | k), through Carlson's R_F.  Values of |s| exceeding 1 by
    no more than a few ulps are clamped.  A scalar s gives a Python float.
    """
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) > 1.0 + 8e-16):
        raise DomainError(f"|s|={float(np.max(np.abs(s)))} exceeds 1; "
                          f"sn is not invertible there")
    u = incomplete_elliptic_F(np.arcsin(np.clip(s, -1.0, 1.0)), mod.kprime)
    return float(u) if u.ndim == 0 else u
