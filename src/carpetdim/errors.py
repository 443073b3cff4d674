"""Exceptions shared across the package."""


class CarpetError(Exception):
    """Base class for all package-specific errors."""


class InvalidSystem(CarpetError):
    """The map list cannot be a valid diagonal system (bad ratios, < 2 maps,
    or overlapping interiors where a class requires separation)."""


class EmptyInput(CarpetError):
    """An operation that needs at least one ratio/map received none."""


class WrongClass(CarpetError):
    """The operation needs a system class (GatzourasLalley/Baranski) that the
    given system does not have."""


class WrongShape(CarpetError):
    """Input has the wrong geometry for the requested operation (e.g. a
    pseudo-cylinder shorter along its extension axis than across it, or a
    system that is not the two-group family expected by the 1-D
    reduction)."""


class Unsupported(CarpetError):
    """Input is structurally valid but outside the supported theory (e.g.
    an Omega_0 word, or a pointwise query without projected separation)."""


class RangeError(CarpetError):
    """A numeric argument falls outside its documented interval."""


class InvalidPacking(CarpetError):
    """A claimed disc packing overlaps itself or leaves the reference ball."""


class OptimizerFailure(CarpetError):
    """A solver iteration missed its tolerance within its step cap."""
