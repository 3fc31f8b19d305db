"""Exception types shared across the package."""


class KawasakiDppError(Exception):
    """Base class for every error raised by this package."""


class PoleError(KawasakiDppError, ValueError):
    """Gamma-family function evaluated at a non-positive integer."""


class DomainError(KawasakiDppError, ValueError):
    """Parameters outside the supported admissible domain."""


class SizeError(KawasakiDppError, ValueError):
    """Window or state space larger than the supported cap."""


class WindowMismatchError(KawasakiDppError, ValueError):
    """Operands defined on different or incompatible windows."""


class DuplicateSiteError(KawasakiDppError, ValueError):
    """A site collection that must be distinct contains repeats."""


class SamePointError(KawasakiDppError, ValueError):
    """A pair of lattice sites that must be distinct is degenerate."""


class EmptyInputError(KawasakiDppError, ValueError):
    """An input collection that must be nonempty is empty."""


class ZeroProbabilityError(KawasakiDppError, ArithmeticError):
    """Ratio against a configuration of numerically zero probability."""


class NumericalError(KawasakiDppError, ArithmeticError):
    """A numerical routine failed an internal accuracy check."""


class DimensionMismatchError(KawasakiDppError, ValueError):
    """Vector arguments sized inconsistently with the state list."""


class NotReversibleError(KawasakiDppError, ValueError):
    """Generator fails the reversibility residual needed for symmetrization."""
