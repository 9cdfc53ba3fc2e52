"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Orientation matrix shape disagrees with the declared side sizes."""


class NotAcyclic(ValueError):
    """An operation requiring an acyclic tournament was given a cyclic one."""


class NotMConsistent(ValueError):
    """The tournament is not M-consistent for the given undeletable set."""


class EmptyM(ValueError):
    """The undeletable set M must be nonempty for block-structure operations."""


class GroundSetMismatch(ValueError):
    """Two partitions do not cover the same ground set."""


class InstanceTooLarge(ValueError):
    """The instance exceeds the exhaustive oracle's vertex cap."""


class NotPrimePower(ValueError):
    """Sample space alphabet size must be a prime power."""


def _size_text(n: int) -> str:
    """n in decimal, or as the largest power of two not above it when it has
    too many digits for ``str``."""
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"2**{n.bit_length() - 1}"


class FamilyCapExceeded(RuntimeError):
    """An instance-family enumeration would exceed its configured cap.

    Raised instead of silently truncating the family, so that completeness
    claims stay honest.  ``would_be`` carries the size the enumeration was
    heading for (a lower bound if the count was aborted early).  The message
    writes its numbers with :func:`_size_text`.
    """

    def __init__(self, where: str, would_be: int, cap: int):
        super().__init__(f"{where}: family of size >= {_size_text(would_be)} "
                         f"exceeds cap {_size_text(cap)}")
        self.where = where
        self.would_be = would_be
        self.cap = cap


class CapMeter:
    """The one compare-and-raise of every bounded enumeration: :meth:`spend`
    adds to ``count`` and raises ``FamilyCapExceeded(where, count, cap)``
    once the count passes the cap; a cap of None never raises."""

    __slots__ = ("where", "cap", "count")

    def __init__(self, where: str, cap: int | None):
        self.where, self.cap, self.count = where, cap, 0

    def spend(self, n: int = 1) -> None:
        self.count += n
        if self.cap is not None and self.count > self.cap:
            raise FamilyCapExceeded(self.where, self.count, self.cap)


class PreconditionViolated(ValueError):
    """A pipeline stage was fed an instance failing a required predicate."""

    def __init__(self, predicate: str, detail: str = ""):
        msg = f"precondition failed: {predicate}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.predicate = predicate


class NotAMatching(ValueError):
    """Undirected edges of a disjoint-cover instance must form a matching."""


class ParseError(ValueError):
    """Malformed instance file; carries position information when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
