"""Exception hierarchy shared by every sackit module.

Everything user-facing derives from SackitError so that the CLI can map
domain failures to a single exit code; its message says which check
failed.  A subclass exists only where some caller tells it apart.
"""


class SackitError(Exception):
    """Base class for all domain errors raised by this package."""


class TooLarge(SackitError):
    """An object or a sweep would be above a size cap (MAX_MULTIPLICITY,
    MAX_APERY_EDGES, MAX_DIMENSION, MAX_POWER_STEPS, MAX_RATIO_CHECKS,
    MAX_WALK_BITS, MAX_WALK_COLUMNS, MAX_REALIZATION_COLUMNS); raised before
    anything of that size is allocated or run."""


class MalformedDescriptor(SackitError):
    """A ring descriptor string does not parse under the documented
    mini-grammar."""
