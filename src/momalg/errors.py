"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: InputFormatError -> 2, DomainError
(and subclasses) -> 3.  Verification failures are reported, not raised.
"""


class MomalgError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(MomalgError):
    """Malformed or inconsistent serialized input (JSON payloads, files)."""


class DomainError(MomalgError):
    """An operation was called outside its mathematical domain."""


class EmptyMultisetError(DomainError):
    """An enumeration that requires a nonempty multiset got the empty one."""


class ShapeMismatchError(DomainError):
    """Operands live on different ground sets or multiplicity caps."""


class NonInvertibleError(DomainError):
    """The constant part f(empty) is not invertible."""


class SeriesDivergenceError(DomainError):
    """The logarithm power series was requested outside |f(empty)| < 1."""


class CapExceededError(DomainError):
    """A multiset operation would exceed the per-label multiplicity cap."""


class NotBipartitionError(DomainError):
    """The two label sets do not form a bipartition of the ground set."""


class SingularPostselectionError(DomainError):
    """Postselection amplitude below the configured floor; weak values blow up."""


DEFAULT_FLOOR = 1e-8  # postselection amplitudes at or below it are singular
