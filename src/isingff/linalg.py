"""Dense complex linear algebra: pfaffian, determinant (or its log), inverse.

The pfaffian is computed by skew-symmetric tridiagonalization (Parlett-Reid
style Gauss transforms) with partial pivoting, on one matrix or on a stack of
them at once; both do the same arithmetic in the same order, so a matrix
gives the same bits alone as in any stack.  Row/column swaps are counted
exactly because the sign of the pfaffian carries physics downstream.
Determinants, log determinants and inverses, which only the verification
suites and the tests read as dense references, are numpy's LAPACK (``det``,
``slogdet``, ``inv``) on the same stacks.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .exceptions import DomainError, SingularMatrixError

_SKEW_TOL = 1e-13
_PIVOT_TOL = 1e-13
_RCOND_TOL = 1e-13  # smallest 1/cond that det_and_inverse accepts


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


def _overflow(a: np.ndarray) -> DomainError:
    """The range error of an elimination ended in ``a`` (one matrix), scaled
    from the pivots left on its superdiagonal."""
    scale = np.sum(np.log10(np.abs(np.diagonal(a, 1)[::2])))
    return DomainError(f"pfaffian outside double range: log10|Pf| = {scale:.1f}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # checked at the end
def pfaffian(m: np.ndarray):
    """Pfaffian of a complex antisymmetric matrix, Pf(m)^2 = det(m).

    ``m`` is one k x k matrix, giving a Python complex, or an (S, k, k)
    stack, giving an array of S pfaffians.  One matrix, or a stack of one,
    runs a one-matrix elimination; a larger stack runs every matrix through
    the same elimination steps at once, each keeping its own pivoting, sign
    and checks.  Both do the same arithmetic in the same order, so a matrix
    gives the same bits alone and in any stack.  Odd k gives 0; k = 0 gives
    1.  Antisymmetry is checked on entry, per matrix (absolute tolerance
    1e-13 relative to its largest entry).  A matrix whose pivot falls below
    1e-13 x max(1, largest remaining entry) gives exactly 0.  A non-finite
    entry, or a pfaffian that overflows or whose kept pivots multiply to 0,
    raises DomainError, naming log10|Pf|.
    """
    a = _check_skew(m).copy()
    if len(a) == 1:
        pf = _pfaffian_one(a[0])
        return pf if np.ndim(m) == 2 else np.array([pf])
    stack, n = a.shape[:2]
    pf = np.full(stack, 1.0 + 0.0j if n % 2 == 0 else 0.0j)
    alive = np.ones(stack, dtype=bool)
    s = np.arange(stack)
    for k in range(0, n - 1, 2) if n % 2 == 0 else ():
        if k + 2 < n:    # the last step has one candidate row
            # pivot the largest remaining entry of column k into position (k+1, k)
            kp = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
            swap = kp != k + 1
            a[s, k + 1, k:], a[s, kp, k:] = a[s, kp, k:], a[s, k + 1, k:]
            a[s, k:, k + 1], a[s, k:, kp] = a[s, k:, kp], a[s, k:, k + 1]
            pf[swap] = -pf[swap]
        floor = _PIVOT_TOL * np.maximum(1.0, _largest_entries(a[:, k:, k:]))
        dead = np.abs(a[:, k + 1, k]) <= floor
        if np.any(dead):
            # a dropped matrix is zeroed, so its later steps divide by 1
            dead &= np.isfinite(floor)    # an infinite floor is an overflow, not a small pivot
            alive &= ~dead
            a[dead] = 0.0
        pf = _textbook_product(pf, a[:, k, k + 1])
        if k + 2 < n:
            pivot = np.where(alive, a[:, k, k + 1], 1.0)
            tau = a[:, k, k + 2:] / pivot[:, None]
            col = a[:, k + 2:, k + 1]
            a[:, k + 2:, k + 2:] += tau[:, :, None] * col[:, None, :]
            a[:, k + 2:, k + 2:] -= col[:, :, None] * tau[:, None, :]
    # an even matrix kept to the end has nonzero pivots, so a 0 is underflow
    if n % 2 == 0 and not (np.isfinite(pf).all() and pf.all()):
        lost = alive & ~(np.isfinite(pf) & (pf != 0))
        if lost.any():
            raise _overflow(a[np.argmax(lost)])
    pf[~alive] = 0.0
    return pf


def _pfaffian_one(a: np.ndarray) -> complex:
    """The stacked elimination of :func:`pfaffian` on one checked matrix,
    eliminated in place: 2-D basic slices, and the sign, pivot, floor and
    product as Python scalars.  CPython's complex product is the textbook
    product of :func:`_textbook_product`, so the bits are those of a stack."""
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
        raise _overflow(a)
    return pf


def _det_and_inverse(m: np.ndarray, log: bool):
    """(log) det and inverse of one matrix, or of each matrix of a stack,
    from numpy's LAPACK on the whole stack."""
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
    if log:
        sign, log_abs = np.linalg.slogdet(stack)
        det = log_abs + 1j * np.angle(sign)
    else:
        det = np.linalg.det(stack)
    return (complex(det[0]), inv[0]) if np.ndim(m) == 2 else (det, inv)


def det_and_inverse(m: np.ndarray):
    """Determinant and inverse of a square complex matrix, or of each matrix
    of an (S, k, k) stack, from numpy's LAPACK (``det`` and ``inv``).

    A single matrix gives a Python complex and its inverse, a stack an array
    of S determinants and the stack of inverses.

    Raises
    ------
    SingularMatrixError
        If any matrix is exactly singular, or near-singular:
        1 / (||A||_inf ||A^-1||_inf) at most 1e-13.
    """
    return _det_and_inverse(m, log=False)


def log_det_and_inverse(m: np.ndarray):
    """log det and inverse, returned like :func:`det_and_inverse`.

    log|det| is numpy's ``slogdet``, so it stays finite where the
    determinant itself over- or underflows; the imaginary part (the phase)
    is the angle of its sign, in (-pi, pi].  Raises like
    :func:`det_and_inverse`.
    """
    return _det_and_inverse(m, log=True)
