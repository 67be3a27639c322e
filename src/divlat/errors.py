"""Exception taxonomy shared by every divlat module.

Four failure modes are kept distinct so callers (and the CLI exit-code
logic) can react differently:

* bad arguments       -> ValueError (built-in)
* mathematical hypothesis not satisfied -> DomainError
* resource cap exceeded (sieve limit, divisor count, tuple space) -> CapacityError
* a certified comparison that stays undecidable at the precision
  ceiling -> InconclusiveError.  This is *never* silently converted
  into a pass or a fail.
"""


class DomainError(ValueError):
    """A stated mathematical hypothesis of the operation is violated."""


class CapacityError(RuntimeError):
    """Input exceeds a configured resource cap (memory/enumeration bound)."""


class InconclusiveError(RuntimeError):
    """A certified comparison could not be decided at the precision ceiling."""
