"""Exception hierarchy shared by all hypermat modules."""

from __future__ import annotations


class HypermatError(Exception):
    """Base class for all hypermat errors; ``witness`` holds the offending data, if any."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DomainMismatchError(HypermatError):
    """An element or vector does not belong to the hyperfield or ground set at hand."""


class UnsupportedOperationError(HypermatError):
    """Operation requires structure the hyperfield does not have (e.g. stringency)."""


class InvalidHyperfieldError(HypermatError):
    """Hyperfield tables fail the hyperfield axioms."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class InvalidSubgroupError(HypermatError):
    """The given set is not a multiplicative subgroup of the units mod p."""


class InvalidCircuitsError(HypermatError):
    """A set family violates the classical circuit axioms."""


class InvalidSignatureError(HypermatError):
    """A vector family violates (C0), (C1) normalization, or (C2)."""


class NotAnHMatroidError(HypermatError):
    """Cocircuit synthesis failed: the signature admits no 3-orthogonal dual signature."""


class InvalidPairError(HypermatError):
    """Input families fail the painting preconditions (M1)/(M2)."""


class TheoremViolationError(HypermatError):
    """A verified theorem failed on concrete data; treat as an implementation bug signal."""


class InvalidInputError(HypermatError):
    """Operation precondition violated by the caller."""


class ResourceLimitError(HypermatError):
    """A requested enumeration or axiom check exceeds its fixed budget."""


class SpecError(HypermatError):
    """Malformed input file or CLI usage; maps to exit code 2."""
