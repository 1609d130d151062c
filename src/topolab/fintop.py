"""Finite topological spaces over points 0..n-1.

A subset of points is an int bitmask; a space is the monad of each
point, its least open neighbourhood.  Everything downstream (star
models, reflections, dyad powers) manipulates these spaces.  The
checkers reduce each quantifier over opens to a test on monads, and every
false flag carries the witness the definition would find first; the
definitional forms, and a builder from a family of opens, are kept in
the tests as oracles.

The T0 reflection collapses points with equal minimal neighbourhoods;
the T2 reflection collapses specialization-connected components, which
for finite spaces lands in discrete spaces in one step.  Applied to a
star model these give the fragment versions of the two
compactifications.

The enumerator of all topologies on up to 4 points doubles as the
brute-force oracle for the separation equivalences; the vectorized numpy
kernel in _kernels builds it from the closed tuples of monads.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from ._record import Record, _set
from .errors import SizeCapExceeded

MAX_POINTS = 64
MAX_ISO_POINTS = 10
MAX_ENUM_POINTS = 4

PROPERTY_FLAGS = (
    "t0", "t1", "t2", "regular", "completely_regular", "normal",
    "all_opens_closed", "compact", "locally_compact", "supercompact",
)


class FinSpace(Record):
    """Finite space: point count and the monad of each point.

    A finite topology is determined by its monads, the minimal open
    neighbourhoods of the points: the opens are exactly the unions of
    monads (Alexandroff 1937).  So the space is `FinSpace(n, monads)`, two
    spaces are equal exactly when their topologies are, and every query
    reads the monads.  `opens` lists the unions on each access, up to 2^n
    of them, so the library reads it only to print a count or a witness.
    """

    __slots__ = ("n", "monads")

    def __init__(self, n: int, monads: Sequence[int]):
        _set(self, "n", n)
        _set(self, "monads", tuple(monads))
        self.__post_init__()

    def __post_init__(self):
        if not 0 <= self.n <= MAX_POINTS:
            raise SizeCapExceeded(f"point count {self.n} outside [0, {MAX_POINTS}]")
        monads, full = self.monads, self.full
        if len(monads) != self.n:
            raise ValueError(f"{len(monads)} monads for {self.n} points")
        # the monads of a topology are those of its specialization preorder:
        # x in m(x), and y in m(x) puts m(y) inside m(x), so m(y) is the meet
        # of the monads that hold y.  Given such sets, their unions are a
        # topology whose monad at x is m(x).
        for x, mx in enumerate(monads):
            if mx < 0 or mx > full or not (mx >> x) & 1:
                raise ValueError(f"monad {mx} of point {x} does not hold it")
        for y, (my, meet) in enumerate(zip(monads, _monads_of(self.n, monads))):
            if my != meet:
                raise ValueError(f"monads not from a preorder at point {y}")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @property
    def opens(self) -> tuple[int, ...]:
        """Every open, ascending: every union of the monads."""
        out = {0}
        for mx in set(self.monads):
            out |= {o | mx for o in out}
        return tuple(sorted(out))

    @property
    def is_discrete(self) -> bool:
        """Every monad a singleton, so every set open."""
        return all(mx == 1 << x for x, mx in enumerate(self.monads))

    def is_open(self, mask: int) -> bool:
        """Whether the mask holds the monad of each of its points."""
        return 0 <= mask <= self.full and not any(
            (mask >> x) & 1 and mx & ~mask for x, mx in enumerate(self.monads))

    def is_closed(self, mask: int) -> bool:
        return self.is_open(self.full ^ mask)


def _monads_of(n: int, sets: Sequence[int]) -> tuple[int, ...]:
    """For each point, the intersection of the given sets that contain it
    (the full set when none does)."""
    monads = [(1 << n) - 1] * n
    for s in sets:
        rest = s
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            monads[x] &= s
            rest ^= low
    return tuple(monads)


def generate_topology(n: int, subbase: Sequence[int]) -> FinSpace:
    """Smallest topology containing the subbase.

    The monad of x in that topology is the intersection of the subbase
    sets containing x: O(n * |subbase| + n²) with the check of the monads.
    """
    if not 0 <= n <= MAX_POINTS:
        raise SizeCapExceeded(f"point count {n} outside [0, {MAX_POINTS}]")
    for s in subbase:
        if s < 0 or s >> n:
            raise ValueError(f"subbase mask {s} does not fit width {n}")
    return FinSpace(n, _monads_of(n, subbase))


def closure(s: FinSpace, a: int) -> int:
    """Points whose monad meets a."""
    out = 0
    for x, m in enumerate(s.monads):
        if m & a:
            out |= 1 << x
    return out


def monad(s: FinSpace, x: int) -> int:
    """Intersection of all opens containing x: the minimal open neighbourhood."""
    if not 0 <= x < s.n:
        raise ValueError(f"point {x} outside the space")
    return s.monads[x]


class PropertyReport(Record):
    """Separation and compactness flags with one witness per false flag."""

    __slots__ = PROPERTY_FLAGS + ("witnesses",)

    def __init__(self, witnesses: tuple[tuple[str, tuple[int, ...]], ...], **flags: bool):
        if flags.keys() != set(PROPERTY_FLAGS):
            raise TypeError(f"PropertyReport takes the flags {PROPERTY_FLAGS} by name")
        for name in PROPERTY_FLAGS:
            _set(self, name, flags[name])
        _set(self, "witnesses", witnesses)

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in PROPERTY_FLAGS}

    def witness(self, flag: str) -> tuple[int, ...] | None:
        for name, payload in self.witnesses:
            if name == flag:
                return payload
        return None


def property_report(s: FinSpace) -> PropertyReport:
    """Evaluate every checker; witnesses are the first counterexample in
    ascending scan order, so reports are deterministic.  Regularity,
    complete regularity and normality quantify over opens; each is decided
    on monads, and on failure reduced to a test on the least open (or
    clopen) around a point or set, which finds the same first
    counterexample as the definition.

    An open holds the monad of each of its points, and a superset is at
    least its subset as a number.  So the least open around x is monads[x],
    and the least open that is not closed is the least monad that is not
    closed: an open all of whose monads are closed is a finite union of
    closed sets."""
    n, full, monads = s.n, s.full, s.monads
    point_cl = [closure(s, 1 << x) for x in range(n)]
    monad_cl = [closure(s, mx) for mx in monads]
    not_closed = min((mx for mx, cl in zip(monads, monad_cl) if cl != mx), default=None)
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

    def check_regular() -> bool:
        # an open u around x with cl(u) inside v exists iff cl(monad x) is
        # inside v, and monad x lies inside every open around x; when it
        # fails, the least open v around x, monad x itself, fails too
        for x in range(n):
            if monad_cl[x] != monads[x]:
                return record("regular", (x, monads[x]))
        return True

    def clopen_hull(x: int) -> int:
        # smallest clopen around x: close {x} under monads and point closures
        hull, grown = 0, 1 << x
        while grown != hull:
            hull = grown
            for y in range(n):
                if (hull >> y) & 1:
                    grown |= monads[y] | point_cl[y]
        return hull

    def check_completely_regular() -> bool:
        # function separation collapses to clopen separation on finite spaces:
        # x outside f is separated from f iff the smallest clopen around x
        # misses f.  Those clopens partition the points, so a closed f fails
        # exactly when it is not open, and then some hull meets f without
        # lying inside it.  The closed sets are scanned in the order of their
        # open complements, so the first to fail is the complement of the
        # least open that is not closed.
        if not_closed is None:
            return True
        f = full ^ not_closed
        x = next(x for x in range(n) if not (f >> x) & 1 and clopen_hull(x) & f)
        return record("completely_regular", (x, f))

    def check_normal() -> bool:
        # Disjoint closed f, h are separated iff cl(smallest open around f)
        # misses h.  Some pair fails iff points x, y have meeting monads and
        # cl{x} ∩ cl{y} = ∅.  If so, f = cl{x} and h = cl{y} fail, since y
        # lies in cl(monad x).  Conversely a failing h holds a y whose monad
        # meets the monad of some x in f, and cl{x} ⊆ f misses cl{y} ⊆ h.
        # Only then scan for the first witness: h fails iff some y of the
        # closure has cl{y} missing f, i.e. y outside the open around f.
        if not any(monads[x] & monads[y] and not point_cl[x] & point_cl[y]
                   for x in range(n) for y in range(x + 1, n)):
            return True
        closed = [full ^ o for o in s.opens]
        for f in closed:
            around = 0
            for x in range(n):
                if (f >> x) & 1:
                    around |= monads[x]
            reach = closure(s, around)
            if not reach & ~around:
                continue
            for h in closed:
                if not f & h and reach & h:
                    return record("normal", (f, h))
        return True

    return PropertyReport(
        t0=check_t0(),
        t1=check_t1(),
        t2=check_t2(),
        regular=check_regular(),
        completely_regular=check_completely_regular(),
        normal=check_normal(),
        all_opens_closed=not_closed is None or record("all_opens_closed", (not_closed,)),
        # theorems for finite spaces: every open cover is its own finite
        # subcover; monad(x) is a finite, so compact, open neighbourhood of x
        # inside every open around x; and cl{x} = cl{y} puts y in monad(x)
        # and x in monad(y), so points with one closure share their monad
        compact=True, locally_compact=True, supercompact=True,
        witnesses=tuple(wit),
    )


def is_homeomorphism(a: FinSpace, b: FinSpace, image: Sequence[int]) -> bool:
    """Whether the bijection x ↦ image[x] of a onto b is a homeomorphism:
    it must send each monad onto the monad of the image point.  That is
    necessary, and enough because the opens are the unions of monads.
    O(n²)."""
    return all(sum(1 << image[z] for z in range(a.n) if (monad(a, x) >> z) & 1)
               == monad(b, image[x]) for x in range(a.n))


def iso_check(a: FinSpace, b: FinSpace) -> tuple[int, ...] | None:
    """Search for a homeomorphism, returned as the image tuple of 0..n-1.

    Compares the invariants first: the (monad size, closure size) key of
    each point, so the point count too.  A homeomorphism keeps every key,
    so when the keys are pairwise distinct the only candidate is the map
    that matches them, verified on monads in O(n²).  Otherwise it
    backtracks over key-compatible assignments that respect the partial
    specialization order, and refuses past MAX_ISO_POINTS.
    """
    # the specialization order: x <= y iff x in cl{y} iff y in monad(x)
    la, lb = a.monads, b.monads
    ca = [closure(a, 1 << x) for x in range(a.n)]
    cb = [closure(b, 1 << x) for x in range(b.n)]
    key_a = [(la[x].bit_count(), ca[x].bit_count()) for x in range(a.n)]
    key_b = [(lb[y].bit_count(), cb[y].bit_count()) for y in range(b.n)]
    if sorted(key_a) != sorted(key_b):
        return None

    if len(set(key_a)) == a.n:
        where = {key: y for y, key in enumerate(key_b)}
        forced = tuple(where[key] for key in key_a)
        return forced if is_homeomorphism(a, b, forced) else None
    if a.n > MAX_ISO_POINTS:
        raise SizeCapExceeded(f"iso_check capped at {MAX_ISO_POINTS} points "
                              "when two points share a key")
    order = sorted(range(a.n), key=lambda x: key_a[x])
    image = [-1] * a.n
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == a.n:
            return is_homeomorphism(a, b, image)
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
    from . import _kernels  # numpy loads only for the commands that enumerate
    for code in _kernels.topology_codes(n):
        code = int(code)
        yield FinSpace(n, _monads_of(n, [s for s in range(1 << n) if (code >> s) & 1]))


def _classes_by_key(keys: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The points grouped by equal key, classes in order of first member,
    and the class index of each point."""
    classes: list[list[int]] = []
    index: dict[int, int] = {}
    assign = []
    for x, key in enumerate(keys):
        if key not in index:
            index[key] = len(classes)
            classes.append([])
        classes[index[key]].append(x)
        assign.append(index[key])
    return classes, assign


class QuotientMap(Record):
    """Surjective continuous point map whose target carries the final topology.

    The check runs on monads.  U is final-open iff q⁻¹(U) is open.  As q is
    onto, U ↦ q⁻¹(U) is a bijection onto the saturated source sets (unions
    of classes), so the final opens are the images of the saturated source
    opens.  These are closed under intersection, so the class A = q⁻¹(c)
    has a least one above it, whose image is the final monad at c.  The
    sets A ⊆ sat(⋃ monads of A) ⊆ ... stay inside every saturated open
    above A, and their fixpoint is saturated and a union of monads, hence
    open: it is that least one, reached within n steps.  Topologies on the
    same points are equal iff their monads are.
    """

    __slots__ = ("source", "target", "assign")

    def __init__(self, source: FinSpace, target: FinSpace, assign: tuple[int, ...]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "assign", assign)
        self.__post_init__()

    def __post_init__(self):
        _set(self, "assign", tuple(self.assign))
        if len(self.assign) != self.source.n:
            raise ValueError("assign must cover every source point")
        if set(self.assign) != set(range(self.target.n)):
            raise ValueError("assign must be onto the target points")
        monads = self.source.monads
        final = []
        for c in range(self.target.n):
            held, grown = -1, self.preimage(1 << c)
            while grown != held:
                held, hull = grown, 0
                for x, m in enumerate(monads):
                    if (held >> x) & 1:
                        hull |= m
                grown = self.preimage(self.image(hull))
            final.append(self.image(held))
        if tuple(final) != self.target.monads:
            raise ValueError("target does not carry the final topology")

    def preimage(self, target_mask: int) -> int:
        out = 0
        for x, c in enumerate(self.assign):
            if (target_mask >> c) & 1:
                out |= 1 << x
        return out

    def image(self, source_mask: int) -> int:
        out = 0
        for x, c in enumerate(self.assign):
            if (source_mask >> x) & 1:
                out |= 1 << c
        return out

    @property
    def is_identity(self) -> bool:
        return self.assign == tuple(range(self.source.n))


def t0_reflection(s: FinSpace) -> QuotientMap:
    """Quotient by monad equality.  Opens are unions of monads, hence
    saturated, so the monad of a class is the image of its members' monad."""
    classes, assign = _classes_by_key(s.monads)
    monads = [sum(1 << c for c in {assign[x] for x in range(s.n) if (s.monads[xs[0]] >> x) & 1})
              for xs in classes]
    return QuotientMap(s, FinSpace(len(classes), monads), tuple(assign))


def t2_reflection(s: FinSpace) -> QuotientMap:
    """Quotient by specialization connectivity.  Components are clopen in a
    finite space, so the quotient is discrete and the map continuous."""
    parent = list(range(s.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, mx in enumerate(s.monads):  # y in monad(x) iff x <= y
        for y in range(s.n):
            if (mx >> y) & 1:
                parent[find(x)] = find(y)
    classes, assign = _classes_by_key([find(x) for x in range(s.n)])
    k = len(classes)
    return QuotientMap(s, FinSpace(k, [1 << c for c in range(k)]), tuple(assign))


def hasse_dot(s: FinSpace, labels: Sequence[str] | None = None) -> str:
    """DOT rendering of the Hasse diagram of the T0 quotient of the
    specialization preorder, x <= y iff y lies in monad(x).

    Nodes are the monad-equality classes in order of first member; an edge
    runs upward for each covering pair.  Output is deterministic.
    """
    classes, _ = _classes_by_key(s.monads)

    def below(c: int, d: int) -> bool:
        return c != d and bool((s.monads[classes[c][0]] >> classes[d][0]) & 1)

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
