"""Finite topological spaces over points 0..n-1.

A subset of points is an int bitmask; a space is the sorted tuple of its
open masks.  Everything downstream (star models, reflections, dyad
powers) manipulates these spaces, so the checkers here are written
directly from the definitions and every false flag carries a witness.

The enumerator of all topologies on up to 4 points doubles as the
brute-force oracle for the separation equivalences; its hot scan is the
vectorized numpy kernel in _kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _kernels
from .errors import SizeCapExceeded

MAX_POINTS = 16
MAX_FAMILY = 1 << 16
MAX_ISO_POINTS = 10
MAX_ENUM_POINTS = 4

PROPERTY_FLAGS = (
    "t0", "t1", "t2", "regular", "completely_regular", "normal",
    "all_opens_closed", "compact", "locally_compact", "supercompact",
)


@dataclass(frozen=True)
class FinSpace:
    """Finite space: point count and the sorted family of open bitmasks."""

    n: int
    opens: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_POINTS:
            raise SizeCapExceeded(f"point count {self.n} outside [0, {MAX_POINTS}]")
        fam = tuple(sorted(set(self.opens)))
        object.__setattr__(self, "opens", fam)
        if len(fam) > MAX_FAMILY:
            raise SizeCapExceeded(f"{len(fam)} opens exceed the family cap {MAX_FAMILY}")
        full = self.full
        if any(o < 0 or o > full for o in fam):
            raise ValueError("open mask outside the point range")
        if 0 not in fam or full not in fam:
            raise ValueError("opens must contain the empty and the full set")
        members = set(fam)
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                if (a | b) not in members or (a & b) not in members:
                    raise ValueError(f"opens not closed under union/intersection at {a}, {b}")
        object.__setattr__(self, "_members", members)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_open(self, mask: int) -> bool:
        return mask in self._members

    def is_closed(self, mask: int) -> bool:
        return (self.full ^ mask) in self._members

    def __repr__(self) -> str:
        return f"FinSpace(n={self.n}, opens={len(self.opens)})"


@dataclass(frozen=True)
class SpecOrder:
    """Specialization preorder: row x is the mask of {y : x in cl{y}}."""

    n: int
    leq: tuple[int, ...]

    def holds(self, x: int, y: int) -> bool:
        return bool((self.leq[x] >> y) & 1)


def generate_topology(n: int, subbase: Sequence[int]) -> FinSpace:
    """Smallest topology containing the subbase.

    Closing under pairwise intersection and then pairwise union suffices:
    distributivity turns an intersection of two unions into a union of
    intersections already present after the first phase.
    """
    if not 0 <= n <= MAX_POINTS:
        raise SizeCapExceeded(f"point count {n} outside [0, {MAX_POINTS}]")
    full = (1 << n) - 1
    for s in subbase:
        if s < 0 or s > full:
            raise ValueError(f"subbase mask {s} does not fit width {n}")
    fam = {0, full} | set(subbase)
    for close in (lambda a, b: a & b, lambda a, b: a | b):
        grew = True
        while grew:
            grew = False
            for a in list(fam):
                for b in list(fam):
                    c = close(a, b)
                    if c not in fam:
                        fam.add(c)
                        grew = True
            if len(fam) > MAX_FAMILY:
                raise SizeCapExceeded(f"open family exceeds {MAX_FAMILY} sets")
    return FinSpace(n, tuple(fam))


def interior(s: FinSpace, a: int) -> int:
    out = 0
    for o in s.opens:
        if o & ~a == 0:
            out |= o
    return out


def closure(s: FinSpace, a: int) -> int:
    return s.full ^ interior(s, s.full ^ a)


def monad(s: FinSpace, x: int) -> int:
    """Intersection of all opens containing x: the minimal open neighbourhood."""
    if not 0 <= x < s.n:
        raise ValueError(f"point {x} outside the space")
    out = s.full
    for o in s.opens:
        if (o >> x) & 1:
            out &= o
    return out


def specialization(s: FinSpace) -> SpecOrder:
    # x <= y iff x in cl{y} iff y belongs to every open around x, i.e. y in monad(x)
    return SpecOrder(s.n, tuple(monad(s, x) for x in range(s.n)))


@dataclass(frozen=True)
class PropertyReport:
    """Separation and compactness flags with one witness per false flag."""

    t0: bool
    t1: bool
    t2: bool
    regular: bool
    completely_regular: bool
    normal: bool
    all_opens_closed: bool
    compact: bool
    locally_compact: bool
    supercompact: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in PROPERTY_FLAGS}

    def witness(self, flag: str) -> tuple[int, ...] | None:
        for name, payload in self.witnesses:
            if name == flag:
                return payload
        return None


def property_report(s: FinSpace) -> PropertyReport:
    """Evaluate every checker from its definition; witnesses are the first
    counterexample in ascending scan order, so reports are deterministic."""
    n, full = s.n, s.full
    monads = [monad(s, x) for x in range(n)]
    point_cl = [closure(s, 1 << x) for x in range(n)]
    closed = [full ^ o for o in s.opens]
    wit: list[tuple[str, tuple[int, ...]]] = []

    def record(flag: str, payload: tuple[int, ...]) -> bool:
        wit.append((flag, payload))
        return False

    def check_t0() -> bool:
        for x in range(n):
            for y in range(x + 1, n):
                if monads[x] == monads[y]:
                    return record("t0", (x, y))
        return True

    def check_t1() -> bool:
        for x in range(n):
            if point_cl[x] != 1 << x:
                return record("t1", (x, point_cl[x]))
        return True

    def check_t2() -> bool:
        # disjoint open neighbourhoods exist iff the minimal ones are disjoint
        for x in range(n):
            for y in range(x + 1, n):
                if monads[x] & monads[y]:
                    return record("t2", (x, y))
        return True

    open_cl = {o: closure(s, o) for o in s.opens}

    def check_regular() -> bool:
        for x in range(n):
            for v in s.opens:
                if not (v >> x) & 1:
                    continue
                if not any((u >> x) & 1 and open_cl[u] & ~v == 0 for u in s.opens):
                    return record("regular", (x, v))
        return True

    clopens = [o for o in s.opens if s.is_closed(o)]

    def check_completely_regular() -> bool:
        # function separation collapses to clopen separation on finite spaces
        for f in closed:
            for x in range(n):
                if (f >> x) & 1:
                    continue
                if not any((u >> x) & 1 and u & f == 0 for u in clopens):
                    return record("completely_regular", (x, f))
        return True

    int_of_closed = {f: interior(s, f) for f in closed}

    def check_normal() -> bool:
        for f in closed:
            for h in closed:
                if f & h:
                    continue
                if not any(f & ~g == 0 and h & ~int_of_closed[full ^ g] == 0
                           for g in s.opens):
                    return record("normal", (f, h))
        return True

    def check_all_opens_closed() -> bool:
        for o in s.opens:
            if not s.is_closed(o):
                return record("all_opens_closed", (o,))
        return True

    def check_locally_compact() -> bool:
        # reduced form: the minimal open neighbourhood is itself a compact
        # neighbourhood inside every open V around x (reduction checked
        # against the literal subset search in locally_compact_literal)
        for x in range(n):
            for v in s.opens:
                if (v >> x) & 1 and monads[x] & ~v:
                    return record("locally_compact", (x, v))
        return True

    def check_supercompact() -> bool:
        # principal ultrafilter at y: adherence is cl{y}; the matching points
        # must form one monad class ("essentially unique")
        for y in range(n):
            cands = [x for x in range(n) if point_cl[x] == point_cl[y]]
            for x in cands:
                if monads[x] != monads[cands[0]]:
                    return record("supercompact", (y, cands[0], x))
        return True

    return PropertyReport(
        t0=check_t0(),
        t1=check_t1(),
        t2=check_t2(),
        regular=check_regular(),
        completely_regular=check_completely_regular(),
        normal=check_normal(),
        all_opens_closed=check_all_opens_closed(),
        compact=True,  # every open cover of a finite space is its own finite subcover
        locally_compact=check_locally_compact(),
        supercompact=check_supercompact(),
        witnesses=tuple(wit),
    )


def subspace(s: FinSpace, mask: int) -> tuple[FinSpace, list[int]]:
    """Subspace on the points of mask, with the point renumbering."""
    pts = [x for x in range(s.n) if (mask >> x) & 1]
    index = {x: i for i, x in enumerate(pts)}
    opens = set()
    for o in s.opens:
        opens.add(sum(1 << index[x] for x in pts if (o >> x) & 1))
    return FinSpace(len(pts), tuple(opens)), pts


def _covers_have_subcover(sub: FinSpace) -> bool:
    # literal compactness: every open cover contains a finite subcover; with
    # finitely many opens each cover is its own subcover, but evaluate anyway
    import itertools
    full = sub.full
    opens = sub.opens
    for r in range(len(opens) + 1):
        for combo in itertools.combinations(opens, r):
            union = 0
            for o in combo:
                union |= o
            if union == full and not any(
                    _union(c) == full for k in range(len(combo) + 1)
                    for c in itertools.combinations(combo, k)):
                return False
    return True


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def locally_compact_literal(s: FinSpace) -> bool:
    """Neighbourhood form evaluated outright: for every x and open V around x
    there is W ⊆ V, not necessarily open, with x interior to W and the
    subspace on W compact under the literal cover search.  Exponential in
    the subspace open count; only useful on small spaces, where it checks
    the reduced form used by property_report."""
    for x in range(s.n):
        for v in s.opens:
            if not (v >> x) & 1:
                continue
            found = False
            for w in range(1 << s.n):
                if w & ~v or not (interior(s, w) >> x) & 1:
                    continue
                if _covers_have_subcover(subspace(s, w)[0]):
                    found = True
                    break
            if not found:
                return False
    return True


def iso_check(a: FinSpace, b: FinSpace) -> tuple[int, ...] | None:
    """Search for a homeomorphism, returned as the image tuple of 0..n-1.

    Backtracks over assignments compatible with the (monad size, closure
    size) invariants and the partial specialization order, then verifies
    the full open family transfers.  Sound and complete up to the cap.
    """
    if a.n > MAX_ISO_POINTS or b.n > MAX_ISO_POINTS:
        raise SizeCapExceeded(f"iso_check capped at {MAX_ISO_POINTS} points")
    if a.n != b.n or len(a.opens) != len(b.opens):
        return None
    if sorted(o.bit_count() for o in a.opens) != sorted(o.bit_count() for o in b.opens):
        return None
    la = specialization(a).leq
    lb = specialization(b).leq
    ca = [closure(a, 1 << x) for x in range(a.n)]
    cb = [closure(b, 1 << x) for x in range(b.n)]
    key_a = [(la[x].bit_count(), ca[x].bit_count()) for x in range(a.n)]
    key_b = [(lb[y].bit_count(), cb[y].bit_count()) for y in range(b.n)]
    if sorted(key_a) != sorted(key_b):
        return None
    order = sorted(range(a.n), key=lambda x: key_a[x])
    image = [-1] * a.n
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == a.n:
            mapped = {sum(1 << image[x] for x in range(a.n) if (o >> x) & 1)
                      for o in a.opens}
            return mapped == set(b.opens)
        x = order[i]
        for y in range(b.n):
            if used[y] or key_a[x] != key_b[y]:
                continue
            if any(image[z] >= 0 and (
                    ((la[x] >> z) & 1) != ((lb[y] >> image[z]) & 1)
                    or ((la[z] >> x) & 1) != ((lb[image[z]] >> y) & 1))
                   for z in range(a.n)):
                continue
            image[x] = y
            used[y] = True
            if extend(i + 1):
                return True
            image[x] = -1
            used[y] = False
        return False

    return tuple(image) if extend(0) else None


def check_enum_size(n: int) -> None:
    """Refuse a point count outside 0..MAX_ENUM_POINTS."""
    if not 0 <= n <= MAX_ENUM_POINTS:
        raise SizeCapExceeded(f"enumeration takes 0 to {MAX_ENUM_POINTS} points, not {n}")


def enumerate_topologies(n: int) -> Iterator[FinSpace]:
    """Every topology on 0..n-1 exactly once, ascending in the bit encoding
    of the open family (bit s on iff subset-mask s is open)."""
    check_enum_size(n)
    for code in _kernels.topology_codes(n):
        code = int(code)
        yield FinSpace(n, tuple(s for s in range(1 << n) if (code >> s) & 1))


def hasse_dot(order: SpecOrder, labels: Sequence[str] | None = None) -> str:
    """DOT rendering of the Hasse diagram of the T0 quotient of the preorder.

    Nodes are the monad-equality classes in order of first member; an edge
    runs upward for each covering pair.  Output is deterministic.
    """
    classes: list[list[int]] = []
    index: dict[int, int] = {}
    cls_of = [0] * order.n
    for x in range(order.n):
        key = order.leq[x]
        if key not in index:
            index[key] = len(classes)
            classes.append([])
        cls_of[x] = index[key]
        classes[index[key]].append(x)

    def below(c: int, d: int) -> bool:
        return c != d and order.holds(classes[c][0], classes[d][0])

    k = len(classes)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for c, members in enumerate(classes):
        if labels is None:
            text = ",".join(str(x) for x in members)
        else:
            text = " = ".join(labels[x] for x in members)
        lines.append(f'  n{c} [label="{text}"];')
    for c in range(k):
        for d in range(k):
            if not below(c, d):
                continue
            if any(below(c, e) and below(e, d) for e in range(k)):
                continue
            lines.append(f"  n{c} -> n{d};")
    lines.append("}")
    return "\n".join(lines) + "\n"
