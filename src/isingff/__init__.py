"""Exact form factors and correlation functions of the finite periodic 2D Ising model.

Closed-form spin matrix elements between the two fermionic Fock towers of the
transfer matrix, evaluated through elliptic Cauchy determinants and verified
against a brute-force dense oracle.
"""

from .elliptic import (EllipticModulus, complete_elliptic_K, inverse_sn_real,
                       jacobi_sn_cn_dn, theta)
from .exceptions import (AmbiguousLabelError, ConvergenceError, DomainError,
                         IsingFFError, ResourceError, SingularMatrixError,
                         VerificationError)
from .cauchy import InducedRotation, b_elliptic, induced_rotation, u_of_theta
from .formfactors import (FockState, FormFactorSpec, SpecStack, ff_closed,
                          ff_pfaffian, two_particle_matrices,
                          two_point_correlation, vacuum_overlap, xi_t)
from .linalg import pfaffian
from .spectral import (Couplings, b_of_theta, gamma_of_theta, quasimomenta,
                       sqrt_b_of_theta)

__all__ = [
    "AmbiguousLabelError", "ConvergenceError", "Couplings", "DomainError",
    "EllipticModulus", "FockState", "FormFactorSpec", "InducedRotation",
    "IsingFFError", "ResourceError", "SingularMatrixError", "SpecStack",
    "VerificationError", "b_elliptic", "b_of_theta", "complete_elliptic_K",
    "ff_closed", "ff_pfaffian",
    "gamma_of_theta", "induced_rotation", "inverse_sn_real",
    "jacobi_sn_cn_dn", "pfaffian", "quasimomenta",
    "sqrt_b_of_theta", "theta", "two_particle_matrices",
    "two_point_correlation", "u_of_theta", "vacuum_overlap", "xi_t",
]

__version__ = "0.1.0"
