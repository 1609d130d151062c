"""Decidable Boolean algebra of definable subsets of a ground set.

The ground set is either a finite initial segment {0, ..., n-1} or all of
the naturals.  Over the naturals a definable set is eventually periodic:
membership is given bit-by-bit below a threshold and by a residue pattern
from the threshold on.  The pair (threshold, period) is canonicalized to
the unique minimal description, so structural equality of two DefSets is
extensional equality.

Sets combine under union, intersection, difference and complement without
leaving the class, which is what makes every question about a finitely
generated subalgebra decidable: the atoms below a finite generator list
can be enumerated outright.
"""
from __future__ import annotations

import functools
import math
import re
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    GroundMismatch,
    OutOfGround,
    ParseError,
    PeriodOverflow,
    SizeCapExceeded,
    UnknownName,
)
from ._record import Record, _set

PERIOD_CAP = 1 << 20
GENERATOR_CAP = 16
MAX_ATOMS = 16
MAX_NESTING = 100  # `(` and `!` levels in one set expression, well inside the recursion limit
# digits in one number: the least limit `int()` can be set to, so no setting refuses one
MAX_DIGITS = 640


class Ground(Record):
    """Point universe: Ground(n) is {0,...,n-1}, Ground(None) is the naturals.
    A finite ground has at most PERIOD_CAP points, so a set's bitmask does too."""

    __slots__ = ("size",)
    _defaults = {"size": None}

    def __post_init__(self):
        if self.size is not None and self.size < 0:
            raise ValueError("finite ground needs size >= 0")
        if self.size is not None and self.size > PERIOD_CAP:
            raise SizeCapExceeded(f"finite ground of {self.size} points exceeds cap {PERIOD_CAP}")

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        return self.size is None or n < self.size

    def __repr__(self) -> str:
        return "omega" if self.size is None else f"finite({self.size})"


OMEGA = Ground(None)


@functools.lru_cache(maxsize=1024)
def _primes_of(p: int) -> tuple[int, ...]:
    """The distinct prime factors of p, by trial division (p <= PERIOD_CAP)."""
    out = []
    q = 2
    while q * q <= p:
        if p % q == 0:
            out.append(q)
            while p % q == 0:
                p //= q
        q += 1
    if p > 1:
        out.append(p)
    return tuple(out)


def _replicate(word: int, d: int, n: int) -> int:
    """The first n bits of the d-bit word repeated forever (shift-or doubling)."""
    while d < n:
        word |= word << d
        d <<= 1
    return word & ((1 << n) - 1)


class DefSet(Record):
    """One definable set in canonical form.

    Finite ground: `low` is the membership bitmask on [0, size), with
    threshold == size, period == 1, residues == 0.  Infinite ground:
    membership of m is bit m of `low` for m < threshold and bit
    (m mod period) of `residues` otherwise; (threshold, period) is the
    componentwise minimum over all valid descriptions.  __post_init__
    canonicalizes, so any valid description may be passed in.
    """

    __slots__ = ("ground", "low", "threshold", "period", "residues")
    _defaults = {"period": 1, "residues": 0}

    def __post_init__(self):
        if self.threshold < 0 or self.period < 1:
            raise ValueError("need threshold >= 0 and period >= 1")
        if self.low < 0 or self.low >> self.threshold:
            raise ValueError("low mask has bits at or above the threshold")
        if self.residues < 0 or self.residues >> self.period:
            raise ValueError("residue mask has bits at or above the period")
        if self.period > PERIOD_CAP:
            raise PeriodOverflow(f"period {self.period} exceeds cap {PERIOD_CAP}")
        if self.ground.is_finite:
            if self.threshold != self.ground.size or self.period != 1 or self.residues:
                raise ValueError("finite-ground sets are plain bitmasks over the ground")
            return
        if self.threshold > PERIOD_CAP:
            raise PeriodOverflow(f"threshold {self.threshold} exceeds cap {PERIOD_CAP}")
        low, t, p, res = _canonical(self.low, self.threshold, self.period, self.residues)
        _set(self, "low", low)
        _set(self, "threshold", t)
        _set(self, "period", p)
        _set(self, "residues", res)

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_members(ground: Ground, members: Iterable[int]) -> "DefSet":
        """Finite collection of points, e.g. {1, 3, 7}, set bit by bit in a
        bytearray and read as one int: linear in the points and the width."""
        limit = PERIOD_CAP if ground.size is None else ground.size
        members = list(members)
        buf = bytearray((min(max(members, default=0), limit) >> 3) + 1)
        for m in members:
            if not 0 <= m < limit:
                if m not in ground:
                    raise OutOfGround(f"{m} is not in {ground!r}")
                raise PeriodOverflow(f"threshold {m + 1} of point {m} exceeds cap {PERIOD_CAP}")
            buf[m >> 3] |= 1 << (m & 7)
        mask = int.from_bytes(buf, "little")
        if ground.is_finite:
            return DefSet(ground, mask, ground.size)
        return DefSet(ground, mask, mask.bit_length())

    @staticmethod
    def arithmetic(ground: Ground, start: int, step: int) -> "DefSet":
        """ap(start, step): the progression {start, start+step, ...} in the ground."""
        if start < 0 or step < 1:
            raise ValueError("need start >= 0 and step >= 1")
        if ground.is_finite:
            n = ground.size
            mask = _replicate(1 << start % step, step, n) >> start << start if start < n else 0
            return DefSet(ground, mask, n)
        if step > PERIOD_CAP:
            raise PeriodOverflow(f"period {step} exceeds cap {PERIOD_CAP}")
        return DefSet(ground, 0, start, step, 1 << (start % step))

    @staticmethod
    def tail(ground: Ground, t: int) -> "DefSet":
        """All points >= t."""
        if t < 0:
            raise ValueError("need t >= 0")
        if ground.is_finite:
            return DefSet(ground, ((1 << ground.size) - 1) >> t << t, ground.size)
        return DefSet(ground, 0, t, 1, 1)

    @staticmethod
    def empty(ground: Ground) -> "DefSet":
        if ground.is_finite:
            return DefSet(ground, 0, ground.size)
        return DefSet(ground, 0, 0)

    @staticmethod
    def full(ground: Ground) -> "DefSet":
        if ground.is_finite:
            return DefSet(ground, (1 << ground.size) - 1, ground.size)
        return DefSet(ground, 0, 0, 1, 1)

    @staticmethod
    def from_predicate(ground: Ground, pred: Callable[[int], bool],
                       threshold: int, period: int = 1) -> "DefSet":
        """Sample pred on one full window; pred must be (threshold, period)-described."""
        if ground.is_finite:
            mask = sum(1 << m for m in range(ground.size) if pred(m))
            return DefSet(ground, mask, ground.size)
        if period > PERIOD_CAP:
            raise PeriodOverflow(f"period {period} exceeds cap {PERIOD_CAP}")
        low = sum(1 << m for m in range(threshold) if pred(m))
        res = sum(1 << r for r in range(period)
                  if pred(threshold + ((r - threshold) % period)))
        return DefSet(ground, low, threshold, period, res)

    # -- membership and structure ------------------------------------

    def __contains__(self, n: int) -> bool:
        if n not in self.ground:
            raise OutOfGround(f"{n} is not in {self.ground!r}")
        if n < self.threshold:
            return bool((self.low >> n) & 1)
        return bool((self.residues >> (n % self.period)) & 1)

    @property
    def is_empty(self) -> bool:
        return self.low == 0 and self.residues == 0

    def __and__(self, other: "DefSet") -> "DefSet":
        return ds_combine("inter", self, other)

    def __or__(self, other: "DefSet") -> "DefSet":
        return ds_combine("union", self, other)

    def __sub__(self, other: "DefSet") -> "DefSet":
        return ds_combine("diff", self, other)

    def __invert__(self) -> "DefSet":
        return ds_combine("complement", self)

    def __repr__(self) -> str:
        return f"DefSet({self.describe()!r})"

    def describe(self) -> str:
        """Render as a parseable set expression (round-trips through parse_set_expr)."""
        if self.ground.is_finite:
            return "{" + ",".join(map(str, _bit_positions(self.low))) + "}"
        parts = []
        lows = _bit_positions(self.low)
        if lows:
            parts.append("{" + ",".join(map(str, lows)) + "}")
        if self.residues and self.residues == (1 << self.period) - 1:
            parts.append(f"tail({self.threshold})")
        else:
            t, p = self.threshold, self.period
            parts.extend(f"ap({t + ((r - t) % p)},{p})" for r in _bit_positions(self.residues))
        return "|".join(parts) if parts else "{}"


def _bit_positions(x: int) -> list[int]:
    """Indices of the set bits of x, ascending; `str.find` skips each run of
    zero digits in C, so the Python work is one step per set bit."""
    digits, out = bin(x)[:1:-1], []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _canonical(low: int, t: int, p: int, res: int) -> tuple[int, int, int, int]:
    """Minimize (threshold, period) without changing pointwise membership.

    Eventual periods of a set are closed under gcd, so the minimal one
    divides p, and p/q is a period for a prime q exactly when the
    minimal period divides p/q: dividing out each prime while the
    quotient still reproduces the residue word reaches the minimum.  The
    threshold then drops to just past the highest explicit bit that
    differs from the tail pattern unrolled from 0.
    """
    for q in _primes_of(p):
        while p % q == 0:
            d = p // q
            shrunk = res & ((1 << d) - 1)
            if _replicate(shrunk, d, p) != res:
                break
            res, p = shrunk, d
    t = (low ^ _replicate(res, p, t)).bit_length()
    return low & ((1 << t) - 1), t, p, res


def ds_window(s: DefSet, t: int, p: int) -> int:
    """s redescribed over threshold t and period p, packed as one int
    `low | residues << t`.

    Needs t >= s.threshold and p a multiple of s.period; the residues
    repeat out to p and the tail pattern fills the low bits in
    [s.threshold, t).  A finite-ground set comes back as its low mask.
    """
    res = _replicate(s.residues, s.period, p)
    fill = _replicate(res, p, t) >> s.threshold << s.threshold
    return s.low | fill | res << t


_OPS: dict[str, Callable[[int, int], int]] = {
    "union": lambda a, b: a | b,
    "inter": lambda a, b: a & b,
    "diff": lambda a, b: a & ~b,
}


def ds_combine(op: str, a: DefSet, b: DefSet | None = None) -> DefSet:
    """Boolean combination; op is union, inter, diff or complement."""
    if op == "complement":
        if b is not None:
            raise ValueError("complement takes one operand")
        if a.ground.is_finite:
            full = (1 << a.ground.size) - 1
            return DefSet(a.ground, a.low ^ full, a.threshold)
        return DefSet(a.ground, a.low ^ ((1 << a.threshold) - 1), a.threshold,
                      a.period, a.residues ^ ((1 << a.period) - 1))
    if op not in _OPS:
        raise ValueError(f"unknown operation {op!r}")
    if b is None:
        raise ValueError(f"{op} takes two operands")
    if a.ground != b.ground:
        raise GroundMismatch(f"{a.ground!r} vs {b.ground!r}")
    f = _OPS[op]
    if a.ground.is_finite:
        return DefSet(a.ground, f(a.low, b.low), a.ground.size)
    t = max(a.threshold, b.threshold)
    p = math.lcm(a.period, b.period)
    if p > PERIOD_CAP:
        raise PeriodOverflow(f"lcm({a.period}, {b.period}) = {p} exceeds cap {PERIOD_CAP}")
    word = f(ds_window(a, t, p), ds_window(b, t, p))
    return DefSet(a.ground, word & ((1 << t) - 1), t, p, word >> t)


def atoms_of(gens: Sequence[DefSet], ground: Ground) -> list[DefSet]:
    """Atoms of the algebra the generators generate over the ground, in
    signature order.

    Each atom is the nonempty intersection of every generator or its
    complement.  Each generator is packed once by `ds_window` over the
    common window (T the largest threshold, P the lcm of the periods), and
    each level splits every cell word by it, generator part first, so the
    atoms come out in the lexicographic order of those choice vectors.
    Every kept cell lies above an atom, so a level of more than MAX_ATOMS
    cells is refused at once; only the atoms become DefSets.  The window is
    the atoms' own: each atom meets generators and complements, so it fits
    (T, P); each generator is a union of atoms, so it fits theirs; and a
    canonical window is the componentwise minimum.  So refusing P past
    PERIOD_CAP refuses just the generators whose atoms would overflow.  No
    generators yield the ground as the single atom, or none over an empty
    ground; a generator over another ground raises GroundMismatch.
    """
    for g in gens:
        if g.ground != ground:
            raise GroundMismatch(f"{g.ground!r} vs {ground!r}")
    full = DefSet.full(ground)
    t = max((g.threshold for g in gens), default=full.threshold)
    p = math.lcm(*(g.period for g in gens))
    if p > PERIOD_CAP:
        raise PeriodOverflow(f"the generators' common period {p} exceeds cap {PERIOD_CAP}")
    cells = [c for c in (ds_window(full, t, p),) if c]
    for g in gens:
        w = ds_window(g, t, p)
        cells = [d for c in cells for d in (c & w, c & ~w) if d]
        if len(cells) > MAX_ATOMS:
            raise SizeCapExceeded(
                f"the {len(gens)} generators split the ground into more than "
                f"{MAX_ATOMS} atoms, the point cap of a model")
    return [DefSet(ground, c & (1 << t) - 1, t, p, c >> t) for c in cells]


# -- set expression parser -------------------------------------------


def parse_number(text: str, error: str = "bad number", *, signed: bool = False,
                 line: int | None = None, col: int | None = None) -> int:
    """The value of a numeral of ASCII digits (after a `-` if signed), read
    by `int()` only once it has at most MAX_DIGITS; anything else is a
    ParseError.  `int()` refuses `²`, which `str.isdigit` passes, and reads `٣`."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(error, line=line, col=col)
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"number of {len(digits)} digits exceeds {MAX_DIGITS}",
                         line=line, col=col)
    return int(text)


_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([{}(),&|!]))")
# a literal with a longer number is left to the parser, which refuses it
_LITERAL = re.compile(
    r"\{\s*([0-9]{1,%d}\s*(?:,\s*[0-9]{1,%d}\s*)*)?\}" % (MAX_DIGITS, MAX_DIGITS))


def _tokenize(text: str) -> list[tuple]:
    """(kind, text, col) per token; a well-formed `{...}` literal is one ("lit",
    "{", col, members) token read in C, and the parser words any other's error."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", col=col)
        pos = m.end()
        if m.group(1) is not None:
            toks.append(("num", m.group(1), m.start(1) + 1))
        elif m.group(2) is not None:
            toks.append(("name", m.group(2), m.start(2) + 1))
        elif m.group(3) == "{" and (lit := _LITERAL.match(text, m.start(3))):
            members = list(map(int, lit[1].split(","))) if lit[1] else []
            toks.append(("lit", "{", m.start(3) + 1, members))
            pos = lit.end()
        else:
            toks.append(("punct", m.group(3), m.start(3) + 1))
    return toks


class _ExprParser:
    """Recursive descent over: expr := term ('|' term)*, term := factor ('&' factor)*,
    factor := '!' factor | '{...}' | ap(s,p) | tail(t) | name | '(' expr ')';
    a `!` or `(` nested past MAX_NESTING levels is refused."""

    def __init__(self, text: str, ground: Ground, names: Mapping[str, DefSet]):
        self.toks = _tokenize(text)
        self.i = 0
        self.ground = ground
        self.names = names
        self.end_col = len(text) + 1
        self.depth = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def number(self) -> int:
        tok = self.take("num")
        return parse_number(tok[1], col=tok[2])

    def take(self, kind: str, value: str | None = None):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {value or kind}, found end of expression",
                             col=self.end_col)
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}", col=tok[2])
        self.i += 1
        return tok

    def parse(self) -> DefSet:
        out = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing {tok[1]!r}", col=tok[2])
        return out

    def expr(self) -> DefSet:
        out = self.term()
        while (tok := self.peek()) and tok[:2] == ("punct", "|"):
            self.i += 1
            out = ds_combine("union", out, self.term())
        return out

    def term(self) -> DefSet:
        out = self.factor()
        while (tok := self.peek()) and tok[:2] == ("punct", "&"):
            self.i += 1
            out = ds_combine("inter", out, self.factor())
        return out

    def factor(self) -> DefSet:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a set expression", col=self.end_col)
        if tok[:2] in (("punct", "!"), ("punct", "(")):
            if self.depth == MAX_NESTING:
                raise ParseError(f"nested deeper than {MAX_NESTING} levels", col=tok[2])
            self.i += 1
            self.depth += 1
            out = ds_combine("complement", self.factor()) if tok[1] == "!" else self.expr()
            if tok[1] == "(":
                self.take("punct", ")")
            self.depth -= 1
            return out
        if tok[0] == "lit":
            self.i += 1
            return DefSet.from_members(self.ground, tok[3])
        if tok[:2] == ("punct", "{"):
            self.literal()  # raises the first error of a literal the tokenizer could not read
        if tok[0] == "name":
            self.i += 1
            if tok[1] == "ap":
                self.take("punct", "(")
                s = self.number()
                self.take("punct", ",")
                p = self.number()
                self.take("punct", ")")
                if p < 1:
                    raise ParseError("ap needs step >= 1", col=tok[2])
                return DefSet.arithmetic(self.ground, s, p)
            if tok[1] == "tail":
                self.take("punct", "(")
                t = self.number()
                self.take("punct", ")")
                return DefSet.tail(self.ground, t)
            if tok[1] in self.names:
                named = self.names[tok[1]]
                if named.ground != self.ground:
                    raise GroundMismatch(f"{tok[1]} is over {named.ground!r}")
                return named
            raise UnknownName(f"unknown set name {tok[1]!r}")
        raise ParseError(f"unexpected {tok[1]!r}", col=tok[2])

    def literal(self) -> None:
        open_tok = self.take("punct", "{")
        while True:
            self.number()
            tok = self.peek()
            if tok is None:
                raise ParseError("unterminated set literal", col=open_tok[2])
            if tok[:2] != ("punct", ","):
                raise ParseError(f"expected ',' or '}}', found {tok[1]!r}", col=tok[2])
            self.i += 1


def parse_set_expr(text: str, ground: Ground,
                   names: Mapping[str, DefSet] | None = None) -> DefSet:
    """Parse a set expression such as '{1,3}|ap(0,2)&!tail(9)' over the ground."""
    return _ExprParser(text, ground, names or {}).parse()
