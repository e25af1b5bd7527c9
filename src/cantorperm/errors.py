"""Exception hierarchy.

Three branches matter to callers (and to the CLI exit codes):

* ``ValidationError`` -- bad input or construction arguments (exit 2),
* ``CheckFalsified``  -- a mathematical check ran and came out false (exit 3),
* everything else under ``CantorPermError`` -- computation errors (exit 1).
"""


class CantorPermError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CantorPermError):
    """Input or construction arguments violate a precondition."""


class ComputationError(CantorPermError):
    """An operation could not produce a result for valid input."""


class CheckFalsified(CantorPermError):
    """A verification ran to completion and the claim it tested is false."""


# --- base sequences and the digit codec ---

class MalformedNumber(ValidationError):
    """Text that should spell an integer or a rational does not."""


class ModulusTooSmall(ValidationError):
    pass


class NotCoprime(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class DepthExceeded(ValidationError):
    pass


class LevelExceeded(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


# --- permutations ---

class NotBijection(ValidationError):
    pass


class NotFullCycle(ValidationError):
    pass


class DigitOutOfRange(ValidationError):
    pass


class ModuliNotCoprime(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


# --- dynamics ---

class DepthMismatch(ValidationError):
    pass


# --- density ---

class NotACovering(CheckFalsified):
    pass


class NotAPartition(CheckFalsified):
    pass


class BoundsExceedOne(CheckFalsified):
    pass


# --- distribution statistics ---

class EquivalenceViolated(CheckFalsified):
    pass


class PointOutOfRange(ValidationError):
    pass


class UnknownSource(ValidationError):
    pass


# --- monotonicity / derivative probes ---

class NoWitnessAtLevel(ComputationError):
    pass


class DegenerateDigit(ValidationError):
    pass
