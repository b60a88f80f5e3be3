"""The base class of kamtori's named failures."""


class KamtoriError(ValueError):
    """A failure the method names: bad problem data, a violated precondition
    or a numerical breakdown.  It derives from ValueError, so existing
    ``except ValueError`` handlers still catch it; a bare ValueError (a numpy
    shape or broadcasting error, say) is not one, and signals a bug."""
