"""kamtori's named failures: one base per exit code of the CLI.

Every failure the method names derives from exactly one of three bases, and
the base alone decides how `kamtori` exits:

- PreconditionError (exit 2): bad problem data or a violated hypothesis,
  found before or while setting up the iteration;
- ConvergenceError (exit 3): a numerical breakdown of a rung or of a check;
- ArtifactIOError (exit 4): an artifact or config file that cannot be read
  or written.

All derive from KamtoriError, itself a ValueError, so existing
``except ValueError`` handlers still catch them; a bare ValueError (a numpy
shape or broadcasting error, say) is none of them, and signals a bug.
"""


class KamtoriError(ValueError):
    """The root of the three bases below; raise one of those instead."""


class PreconditionError(KamtoriError):
    """The problem or a value read for it violates what the method assumes."""


class ConvergenceError(KamtoriError):
    """A rung's numerical work, or a check of its result, broke down."""


class ArtifactIOError(KamtoriError):
    """A file the CLI reads or writes is missing, unreadable or malformed."""
