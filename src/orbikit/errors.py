"""Exception hierarchy shared across the package."""


class OrbikitError(Exception):
    """Base class for every error raised by this package; subclasses set the CLI `exit_code`."""
    exit_code: int


class ParseError(OrbikitError):
    """Input document is malformed: bad JSON, unknown fields, wrong value shapes."""
    exit_code = 2


class ValidationError(OrbikitError):
    """Structurally well-formed data violates a geometric invariant."""
    exit_code = 3


class PseudoReflectionError(ValidationError):
    """A sector automorphism fixes a locus of codimension one."""


class ScalarActionError(ValidationError):
    """A nonidentity group element acts as a scalar, i.e. trivially on projective space."""


class GroupTooLargeError(ValidationError):
    """A size exceeds its budget: a group order, P^n's coordinates, Hodge pairs, grid cells, or grade lattice bits."""


class DimensionTooSmallError(ValidationError):
    """The requested family needs a higher-dimensional ambient space."""


class OutOfRangeError(ValidationError):
    """A shifted grade left the [0, n] box; the sector data is inconsistent."""


class ParityError(ValidationError):
    """A column sum that Serre duality forces to be even is odd."""


class NonGorensteinOrbifoldError(ValidationError):
    """The operation needs an integer-graded (Gorenstein) orbifold diamond."""


class DimensionMismatchError(OrbikitError):
    """Two diamonds of different complex dimension were compared."""
    exit_code = 4


class InconsistentError(OrbikitError):
    """No diamond with the required symmetries matches the given numeric data."""
    exit_code = 1


class UnsupportedDimensionError(OrbikitError):
    """The closed-form reconstruction only exists in dimension at most three."""
    exit_code = 5
