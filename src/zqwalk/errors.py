"""Exception hierarchy shared by all zqwalk modules.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES), so library
errors stay distinguishable from the command line.
"""


class ZqwalkError(Exception):
    """Base class for all errors raised by zqwalk."""


class SpecFormatError(ZqwalkError):
    """Malformed walk/vector JSON: wrong type, missing field, bad value."""


class UnitarityError(ZqwalkError):
    """A symbol that must be unitary on the circle failed the check."""


class ResolutionError(ZqwalkError):
    """A grid-based computation could not be resolved at the allowed sizes.

    Raised for unstable branch tracking, non-integral winding sums, tracked
    values that miss the spectrum, and uncovered eigenvalue clusters.
    """


class DomainError(ZqwalkError):
    """Inputs outside an operation's domain (dimension mismatch, bad modulus,
    too little data, nonzero winding where zero is required, ...)."""
