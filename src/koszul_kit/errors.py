"""Exception types shared across the toolkit."""


class KoszulKitError(Exception):
    """Base class for all toolkit errors."""


class InputError(KoszulKitError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


class DegreeOverflowError(KoszulKitError):
    """Operation would leave the computed truncation window."""


class WellDefinednessError(KoszulKitError):
    """The candidate derivation does not descend to the quadratic dual."""


class CdgaInvariantError(KoszulKitError):
    """A curved dga axiom (Leibniz, d(c)=0, d^2=[c,-]) fails exactly."""


class CurvedInputError(KoszulKitError):
    """Operation requires curvature c = 0."""


class InconsistentDataError(KoszulKitError):
    """A runtime certificate failed on a computed result: an axiom of a
    built complex, map or homotopy (d^2, a chain map, an SDR identity), a
    count fixed by exactness, or two routes to the same answer that
    disagree.  Also raised when objects built from different fields,
    presentations or deformations are combined."""


class NonFreeComponentError(KoszulKitError):
    """A free-complex operation was given a non-free complex."""


class NotCofreeError(KoszulKitError):
    """A cofree-complex operation was given a module with no cofree decomposition."""


class MissingWeightsError(KoszulKitError):
    """An operation that reads weights was given a complex without them:
    regrading needs integer weights on every basis vector, the position
    null test a merge whose generators all have weight 1."""
