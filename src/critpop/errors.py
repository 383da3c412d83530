"""Exception types shared across the library."""


class CritpopError(Exception):
    """Base class for all library errors."""


class InvalidInstance(CritpopError):
    """A configuration does not describe a valid problem instance or tuple."""


class NotDivisible(CritpopError):
    """An exact polynomial division left a nonzero remainder."""


class NotGeneric(CritpopError):
    """A tuple failed the genericity conditions where they are required."""


class NotFertile(CritpopError):
    """A Wronskian equation has no polynomial solution in the given direction."""


class NonGenericExhausted(CritpopError):
    """Parameter sampling hit the retry cap without finding a generic member."""


class ConstructionFailed(CritpopError):
    """An internal construction invariant was violated (implementation bug)."""


class NotSelfdual(CritpopError):
    """A space differs from its dual space, so it has no canonical form."""


class NotInImage(CritpopError):
    """A tuple is not in the image of the generating morphism of the space."""


class IdentityViolated(CritpopError):
    """A Wronskian identity failed on concrete data (implementation bug)."""


class NotConstant(CritpopError):
    """A pairing value expected to be a constant polynomial was not."""


class SquareRootMissing(CritpopError):
    """A polynomial expected to be a perfect square was not."""
