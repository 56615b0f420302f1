"""Exception types shared across the package.

Domain and validation failures map to CLI exit code 1, I/O failures
(plain OSError) to exit code 2.
"""


class InfluenceOpsError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(InfluenceOpsError):
    """Input document is not well-formed (bad JSON, bad CSV row, bad value)."""


class SchemaError(InfluenceOpsError):
    """Document parsed but violates the documented schema or its invariants."""


class NotFound(InfluenceOpsError):
    """Lookup key matched nothing."""


class AmbiguousName(InfluenceOpsError):
    """Name lookup matched more than one entry."""


class UnknownTechnique(InfluenceOpsError):
    """Referenced technique id does not resolve against the taxonomy."""


class PhaseViolation(InfluenceOpsError):
    """Strategy technique sits in the wrong taxonomy phase."""


class DisjointnessViolation(InfluenceOpsError):
    """A technique appears in more than one strategy pipeline."""


class DuplicateIncidentId(InfluenceOpsError):
    """Two incidents in one corpus share an id."""


class EmptyCorpus(InfluenceOpsError):
    """Operation requires at least one (mapped) incident."""


class InfeasibleSpec(InfluenceOpsError):
    """Generator spec admits no corpus; the message names the violated identity or inequality."""


class ZeroIncidents(InfluenceOpsError):
    """Generator spec describes a corpus with no incidents at all."""


class InvalidRange(InfluenceOpsError):
    """Combinatorial query outside the valid parameter range."""


class NegativeSupport(InfluenceOpsError):
    """min_support must be >= 0."""


class UnknownFormat(InfluenceOpsError):
    """Requested export format is not supported."""
