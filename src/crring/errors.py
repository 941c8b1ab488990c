"""Exception hierarchy shared by the whole package.

``DomainError`` is the base of every mathematically meaningful failure; the
command line maps each of these but ``EtaPowerRange`` (a usage error, exit 2)
to exit code 1 and prints the class name, so subclass names are part of the
user-facing contract.
"""


class DomainError(Exception):
    """A request that the underlying geometry does not support."""


class ZeroWeight(DomainError):
    """A circle weight is zero, so the wall fixed locus is noncompact."""


class IneffectiveAction(DomainError):
    """A nontrivial group element acts trivially on every coordinate."""


class EmptySector(DomainError):
    """The label does not name a twisted sector in the requested chamber."""


class EtaPowerRange(DomainError):
    """The eta power of a basis element lies outside [0, dim] of its sector."""


class NonComposable(DomainError):
    """The three sector labels of a 3-point function do not multiply to 1."""


class DatumFormatError(DomainError):
    """A quotient datum document is malformed."""
