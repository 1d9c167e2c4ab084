"""Matrix-exponential oracles that share no code with momalg.

`expm_eigh` exponentiates Hermitian and anti-Hermitian matrices through an
eigendecomposition; `expm_mp` exponentiates any matrix with mpmath at 30
significant digits and rounds the result to complex doubles.
"""

import mpmath
import numpy as np


def expm_eigh(h, t=1.0) -> np.ndarray:
    """exp(t h) for Hermitian h and real or imaginary t."""
    evals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (vecs * np.exp(t * evals)) @ vecs.conj().T


def expm_mp(a) -> np.ndarray:
    """exp(a) at 30 digits, for any square matrix."""
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(np.asarray(a, dtype=complex).tolist()))
        return np.array(e.tolist(), dtype=complex)
