"""Exception types shared across the package.

Errors fall in two families: usage errors (bad input, cap overruns) and
witness errors (a construction that can legitimately fail, carrying the
reason).  The CLI maps the first family to exit code 2 and the second to
a failed check line and exit code 1.
"""
from __future__ import annotations


class TopolabError(Exception):
    """Base class for every error raised by this package."""


class UsageError(TopolabError):
    """Bad input or a resource cap overrun; not a mathematical failure."""


class GroundMismatch(UsageError):
    """Operands live over different ground sets."""


class OutOfGround(UsageError):
    """A point was queried outside the ground set."""


class PeriodOverflow(UsageError):
    """A combination would need a period beyond the configured cap."""


class AtomCapExceeded(UsageError):
    """A presentation has more generators than the generator cap."""


class SizeCapExceeded(UsageError):
    """A finite-space operation was asked to exceed its point or family cap."""


class FamilyTooLarge(UsageError):
    """A dyad family has too many coordinates to enumerate value vectors."""


class SampleNotInGround(UsageError):
    """A presentation lists a sample point outside its ground set."""


class ParseError(UsageError):
    """Malformed presentation text.  Carries 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.base_message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        elif col is not None:
            where = f"col {col}: "
        super().__init__(where + message)


class UnknownName(UsageError):
    """An expression refers to a set or map name that was never defined."""


class NotInAlgebra(TopolabError):
    """The queried set is not a member of the model's finite algebra."""


class PreimageNotInAlgebra(TopolabError):
    """A map pulls some target generator back to a set outside the source algebra."""

    def __init__(self, generator_index: int, detail: str = ""):
        self.generator_index = generator_index
        msg = f"preimage of target generator {generator_index} is not in the source algebra"
        super().__init__(msg + (f": {detail}" if detail else ""))


class SampleImageNotSample(TopolabError):
    """A map sends a source sample to a point that is not a target sample."""

    def __init__(self, sample: int, image: int):
        self.sample = sample
        self.image = image
        super().__init__(f"sample {sample} maps to {image}, which is not a target sample")


class NoRetraction(TopolabError):
    """Some atom adheres to no sample, so no standard part exists."""

    def __init__(self, atom: int, detail: str = ""):
        self.atom = atom
        msg = f"atom {atom} adheres to no sample"
        super().__init__(msg + (f": {detail}" if detail else ""))
