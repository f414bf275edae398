"""Dense complex linear algebra: pfaffian, log determinant and inverse.

A pfaffian of order k <= 4 is its expansion in entries, over a whole stack
at once; a larger one is eliminated one matrix at a time by skew-symmetric
tridiagonalization (Parlett-Reid style Gauss transforms) with partial
pivoting, the row/column swaps counted exactly because the sign of the
pfaffian carries physics downstream.  Log determinants and inverses, which
only the verification suites and the tests read as dense references, are
numpy's LAPACK (``slogdet``, ``inv``) on the same stacks.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .exceptions import DomainError, SingularMatrixError

_SKEW_TOL = 1e-13
_PIVOT_TOL = 1e-13
_RCOND_TOL = 1e-13  # smallest 1/cond that log_det_and_inverse accepts


def _largest_entries(m: np.ndarray) -> np.ndarray:
    """max |m| over the last two axes, and 0 for empty matrices."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def _textbook_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for complex arrays, with the real and imaginary parts rounded as
    separate products and sums.

    numpy's vector loop for long contiguous complex arrays uses fused
    multiply-adds, so ``x * y`` would round differently in a stack of many
    matrices than for one matrix.
    """
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _square_stack(m) -> np.ndarray:
    """``m`` as a complex (S, k, k) stack; a single matrix is the stack of one."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"need a square matrix or a stack of them, got shape {m.shape}")
    return m if m.ndim == 3 else m[None]


def _check_skew(m) -> np.ndarray:
    """``m`` as a complex (S, k, k) stack, each matrix checked antisymmetric."""
    m = _square_stack(m)
    if not np.isfinite(m).all():
        raise DomainError("matrix has a non-finite entry")
    asym = _largest_entries(m + np.swapaxes(m, 1, 2))
    bad = asym > _SKEW_TOL * np.maximum(1.0, _largest_entries(m))
    if np.any(bad):
        raise DomainError(f"matrix not antisymmetric: max|M + M^T| = "
                          f"{float(asym[bad][0]):.3e}")
    return m


def _out_of_range(log10_abs: float) -> DomainError:
    """The error of a pfaffian outside double range, naming log10|Pf|."""
    return DomainError(f"pfaffian outside double range: log10|Pf| = {log10_abs:.1f}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # checked at the end
def pfaffian(m: np.ndarray):
    """Pfaffian of a complex antisymmetric matrix, Pf(m)^2 = det(m).

    ``m`` is one k x k matrix, giving a Python complex, or an (S, k, k)
    stack, giving an array of S pfaffians.  k <= 4 takes the expansion in
    entries over the whole stack, a larger k the elimination of each matrix
    in turn; a matrix gives the same bits alone and in any stack.  Odd k
    gives 0; k = 0 gives 1.  Antisymmetry is checked on entry, per matrix
    (absolute tolerance 1e-13 relative to its largest entry).  For k > 4, a
    pivot below 1e-13 x max(1, largest remaining entry) gives exactly 0.  A
    non-finite entry, or a pfaffian that overflows or underflows to 0,
    raises DomainError, naming log10|Pf|.
    """
    a = _check_skew(m)
    if a.shape[-1] <= 4:
        pf = _expansion(a)
    else:
        pf = [_pfaffian_one(one) for one in a.copy()]
    return complex(pf[0]) if np.ndim(m) == 2 else np.asarray(pf, dtype=complex)


def _expansion(a: np.ndarray) -> np.ndarray:
    """Pf of each matrix of an (S, k, k) stack with k <= 4, by its expansion
    a01 a23 - a02 a13 + a03 a12 (a01 at k = 2).

    A matrix whose expansion is not finite or is 0 is expanded again with
    its entries scaled exactly by a power of two, 2^-e below 1, and the result
    by 2^2e: a pfaffian in double range gets its value, a scaled expansion
    of 0 (the terms cancel exactly) gives 0, and any other raises, as does
    one of 0 where a product of two nonzero entries underflowed.
    """
    size, n = a.shape[:2]
    if n != 4:
        return a[:, 0, 1].copy() if n == 2 else np.full(size, 0j if n else 1.0 + 0.0j)

    def expand(b):    # the products a01 a23, a02 a13 and a03 a12 at once
        x, y = b[:, 0, 1:], b[:, [2, 1, 1], [3, 3, 2]]
        p = _textbook_product(x, y)
        return p[:, 0] - p[:, 1] + p[:, 2], p, x, y

    pf = expand(a)[0]
    lost = ~np.isfinite(pf) | (pf == 0)
    if lost.any():
        b = a[lost]
        e = np.frexp(_largest_entries(b))[1]    # |entries| < 2^e
        f = -e[:, None, None]
        scaled, p, x, y = expand(np.ldexp(b.real, f) + 1j * np.ldexp(b.imag, f))
        value = np.ldexp(scaled.real, 2 * e) + 1j * np.ldexp(scaled.imag, 2 * e)
        # a scaled expansion of 0 where a product of nonzero entries
        # underflowed is no cancellation: the largest such product stands for it
        under = np.where((p == 0) & (x != 0) & (y != 0),
                         np.log10(np.abs(x)) + np.log10(np.abs(y)), -np.inf).max(axis=1)
        log10_scaled = np.where(scaled != 0, np.log10(np.abs(scaled)), under)
        outside = ~np.isfinite(value) | ((value == 0) & (log10_scaled > -np.inf))
        if outside.any():
            i = np.argmax(outside)
            raise _out_of_range(2 * e[i] * math.log10(2.0) + log10_scaled[i])
        pf[lost] = value
    return pf


def _pfaffian_one(a: np.ndarray) -> complex:
    """The pfaffian of one checked matrix by skew-symmetric tridiagonalization
    (Parlett-Reid Gauss transforms with partial pivoting), eliminated in
    place on 2-D basic slices, with the sign, pivot, floor and product as
    Python scalars."""
    n = len(a)
    if n % 2:
        return 0j
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        if k + 2 < n:
            kp = k + 1 + int(np.abs(a[k + 1:, k]).argmax())
            if kp != k + 1:    # swap rows, then columns, k+1 and kp
                row = a[k + 1, k:].copy()
                a[k + 1, k:], a[kp, k:] = a[kp, k:], row
                column = a[k:, k + 1].copy()
                a[k:, k + 1], a[k:, kp] = a[k:, kp], column
                pf = -pf
        # max(big, 1.0), not max(1.0, big): a NaN entry keeps the floor NaN
        floor = _PIVOT_TOL * max(float(np.abs(a[k:, k:]).max()), 1.0)
        pivot = complex(a[k, k + 1])
        if abs(a[k + 1, k]) <= floor and math.isfinite(floor):
            return 0j
        pf *= pivot
        if k + 2 < n:
            tau = a[k, k + 2:] / pivot
            col = a[k + 2:, k + 1]
            t = a[k + 2:, k + 2:]
            t += tau[:, None] * col[None, :]
            t -= col[:, None] * tau[None, :]
    if not (cmath.isfinite(pf) and pf):
        # scaled from the pivots left on the superdiagonal
        raise _out_of_range(np.sum(np.log10(np.abs(np.diagonal(a, 1)[::2]))))
    return pf


def log_det_and_inverse(m: np.ndarray):
    """log det and inverse of a square complex matrix, or of each matrix of
    an (S, k, k) stack, from numpy's LAPACK (``slogdet`` and ``inv``).

    A single matrix gives a Python complex and its inverse, a stack an array
    of S log determinants and the stack of inverses.  log|det| stays finite
    where the determinant over- or underflows; the imaginary part (the
    phase) is the angle of its sign, in (-pi, pi].

    Raises
    ------
    SingularMatrixError
        If any matrix is exactly singular, or near-singular:
        1 / (||A||_inf ||A^-1||_inf) at most 1e-13.
    """
    stack = _square_stack(m)
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix exactly singular") from None
    # condition number in the infinity norm (largest row sum), from the
    # inverse formed anyway; a NaN or inf in the inverse fails the check too
    cond = np.linalg.norm(stack, np.inf, axis=(1, 2)) * np.linalg.norm(inv, np.inf, axis=(1, 2))
    if not np.all(cond * _RCOND_TOL < 1.0):
        raise SingularMatrixError(f"matrix singular to tolerance (cond {np.max(cond):.3e})")
    sign, log_abs = np.linalg.slogdet(stack)
    log_det = log_abs + 1j * np.angle(sign)
    return (complex(log_det[0]), inv[0]) if np.ndim(m) == 2 else (log_det, inv)
