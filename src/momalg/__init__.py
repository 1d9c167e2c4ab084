"""momalg: the moment algebra (convolution, cumulants, anticumulants) over
subsets and multisets, exact jet arithmetic in coupling strengths, and a
finite-dimensional weak-measurement simulator that verifies the cumulant
identities for sequential, simultaneous-with-evolution and thermal weak
measurement to machine precision."""

from .combinatorics import (
    EMPTY,
    Multiset,
    Partition,
    multiset_lattice,
    partitions_of,
)
from .algebra import (
    MMap,
    apply_fstar,
    convolve,
    exp_star,
    identity_mmap,
    inverse_star,
    is_factorizing,
    log1p_series,
    log_star,
    raise_label,
    scalar_mmap,
)
from .jets import Jet, JetMatrix, jet_matrix_exp, spectral_jet_matrix_exp

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "Jet",
    "JetMatrix",
    "MMap",
    "Multiset",
    "Partition",
    "apply_fstar",
    "convolve",
    "exp_star",
    "identity_mmap",
    "inverse_star",
    "is_factorizing",
    "jet_matrix_exp",
    "log1p_series",
    "log_star",
    "multiset_lattice",
    "partitions_of",
    "raise_label",
    "scalar_mmap",
    "spectral_jet_matrix_exp",
]
