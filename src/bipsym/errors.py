"""Exception hierarchy for bipsym.

Every error raised by the library derives from BipsymError so callers can
catch library failures with a single except clause; the CLI maps subclasses
to exit codes.
"""


class BipsymError(Exception):
    """Base class for all bipsym errors."""


class MixedParts(BipsymError):
    """The mapping sends one vertex part partly to itself and partly to the other."""


class SwapOnUnequalParts(BipsymError):
    """The mapping swaps the two parts although n != m."""


class ParseError(BipsymError):
    """Cycle notation could not be parsed."""


class DuplicateVertex(BipsymError):
    """A vertex token appears more than once in cycle notation."""


class ShapeMismatch(BipsymError):
    """Two values refer to different K_{n,m} shapes."""


class TooLarge(BipsymError):
    """An input is past one of the size bounds that keep work and memory in
    check: the vertices ``parse_cycles`` reads (MAX_VERTICES), the n!*m!
    cap of ``enumerate_automorphisms``, the parts ``census`` takes
    (MAX_CENSUS_PART, MAX_REALIZE_ALL_PART), and the claimed order, edges,
    induces distance block, (divisor, edge) pairs and memory that
    ``verify`` allows."""


class OutOfTheoremScope(BipsymError):
    """Classification is only defined for n > 2 and m > 2."""


class OrderMismatch(BipsymError):
    """A supplied order does not equal the computed order of the isometry."""


class NotRealizable(BipsymError):
    """The automorphism admits no realization in the requested orientation class."""


class PlacementFailure(BipsymError):
    """Seeded vertex placement exhausted its resampling budget."""


class PreconditionError(BipsymError):
    """A documented operation precondition does not hold."""
