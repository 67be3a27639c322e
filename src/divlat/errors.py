"""Exception taxonomy shared by every divlat module.

Four failure modes are kept distinct so callers (and the CLI exit-code
logic) can react differently:

* bad arguments       -> ValueError (built-in)
* mathematical hypothesis not satisfied -> DomainError
* resource cap exceeded (sieve limit, divisor count, tuple space) -> CapacityError
* a certified comparison that stays undecidable at the precision
  ceiling -> InconclusiveError.  This is *never* silently converted
  into a pass or a fail.

Each class names its mode in `kind`, the error_kind of a CLI error
report; a plain ValueError reports as "argument".
"""


class DomainError(ValueError):
    """A stated mathematical hypothesis of the operation is violated."""
    kind = "domain"


class CapacityError(RuntimeError):
    """Input exceeds a configured resource cap (memory/enumeration bound)."""
    kind = "capacity"


class InconclusiveError(RuntimeError):
    """A certified comparison could not be decided at the precision ceiling."""
    kind = "inconclusive"
