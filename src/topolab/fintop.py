"""Finite topological spaces over points 0..n-1.

A subset of points is an int bitmask; a space is the sorted tuple of its
open masks together with the monad of each point.  Everything downstream
(star models, reflections, dyad powers) manipulates these spaces.  The
checkers reduce each quantifier over opens to a test on monads, and every
false flag carries the witness the definition would find first; the
definitional forms are kept in the tests as oracles.

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
MAX_FAMILY = 1 << 16
MAX_ISO_POINTS = 10
MAX_ENUM_POINTS = 4

PROPERTY_FLAGS = (
    "t0", "t1", "t2", "regular", "completely_regular", "normal",
    "all_opens_closed", "compact", "locally_compact", "supercompact",
)


class FinSpace(Record):
    """Finite space: point count and the sorted family of open bitmasks.

    A finite topology is determined by its monads, the minimal open
    neighbourhoods of the points: the opens are exactly the unions of
    monads (Alexandroff 1937).  Construction keeps the monads, so every
    query below reads them instead of scanning the opens.  Give either the
    opens, `FinSpace(n, opens)`, or the monads, `FinSpace(n, (), monads)`;
    the library builds every derived space the second way.
    """

    __slots__ = ("n", "opens", "_members", "_monads")

    def __init__(self, n: int, opens: tuple[int, ...], monads: Sequence[int] | None = None):
        _set(self, "n", n)
        _set(self, "opens", opens)
        self.__post_init__(monads)

    def __post_init__(self, monads):
        if not 0 <= self.n <= MAX_POINTS:
            raise SizeCapExceeded(f"point count {self.n} outside [0, {MAX_POINTS}]")
        full = self.full
        if monads is not None:
            if self.opens:
                raise ValueError("give the opens or the monads, not both")
            monads = tuple(monads)
            if len(monads) != self.n:
                raise ValueError(f"{len(monads)} monads for {self.n} points")
            # the monads of a topology are those of its specialization
            # preorder: x in m(x), and y in m(x) puts m(y) inside m(x).  Given
            # such sets, their unions are a topology whose monad at x is m(x).
            for x, mx in enumerate(monads):
                if mx < 0 or mx > full or not (mx >> x) & 1:
                    raise ValueError(f"monad {mx} of point {x} does not hold it")
                if any((mx >> y) & 1 and my & ~mx for y, my in enumerate(monads)):
                    raise ValueError(f"monads not from a preorder at point {x}")
            members = _unions(monads)
            fam = tuple(sorted(members))
        else:
            fam = tuple(sorted(set(self.opens)))
            if len(fam) > MAX_FAMILY:
                raise SizeCapExceeded(f"{len(fam)} opens exceed the family cap {MAX_FAMILY}")
            if fam and (fam[0] < 0 or fam[-1] > full):
                raise ValueError("open mask outside the point range")
            if not fam or fam[0] != 0 or fam[-1] != full:
                raise ValueError("opens must contain the empty and the full set")
            monads = _monads_of(self.n, fam)
            members = set(fam)
            # With every monad open and o | monad(x) open for each open o, every
            # union of monads is open; each open is the union of the monads of
            # its points; and the unions of monads are closed under intersection,
            # because y in monad(x) puts monad(y) inside monad(x).  So the family
            # is a topology exactly when these O(|opens| * n) tests pass.
            for x, mx in enumerate(monads):
                if mx not in members:
                    raise ValueError(f"opens not closed under union/intersection: the "
                                     f"monad {mx} of point {x} is not open")
                for o in fam:
                    if (o | mx) not in members:
                        raise ValueError(f"opens not closed under union/intersection at {o}, {mx}")
        _set(self, "opens", fam)
        _set(self, "_members", members)
        _set(self, "_monads", monads)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_open(self, mask: int) -> bool:
        return mask in self._members

    def is_closed(self, mask: int) -> bool:
        return (self.full ^ mask) in self._members

    def __repr__(self) -> str:
        return f"FinSpace(n={self.n}, opens={len(self.opens)})"


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


def _unions(masks: Sequence[int]) -> set[int]:
    """Every union of the given masks, the empty union included."""
    out = {0}
    for m in set(masks):
        out |= {o | m for o in out}
        if len(out) > MAX_FAMILY:
            raise SizeCapExceeded(f"open family exceeds {MAX_FAMILY} sets")
    return out


def generate_topology(n: int, subbase: Sequence[int]) -> FinSpace:
    """Smallest topology containing the subbase.

    The monad of x in that topology is the intersection of the subbase
    sets containing x, and the opens are the unions of monads: O(n * |opens|).
    """
    if not 0 <= n <= MAX_POINTS:
        raise SizeCapExceeded(f"point count {n} outside [0, {MAX_POINTS}]")
    full = (1 << n) - 1
    for s in subbase:
        if s < 0 or s > full:
            raise ValueError(f"subbase mask {s} does not fit width {n}")
    return FinSpace(n, (), _monads_of(n, subbase))


def closure(s: FinSpace, a: int) -> int:
    """Points whose monad meets a."""
    out = 0
    for x, m in enumerate(s._monads):
        if m & a:
            out |= 1 << x
    return out


def monad(s: FinSpace, x: int) -> int:
    """Intersection of all opens containing x: the minimal open neighbourhood."""
    if not 0 <= x < s.n:
        raise ValueError(f"point {x} outside the space")
    return s._monads[x]


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
    counterexample as the definition."""
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

    def check_regular() -> bool:
        # an open u around x with cl(u) inside v exists iff cl(monad x) is
        # inside v, and monad x lies inside every open around x
        for x in range(n):
            cl_monad = closure(s, monads[x])
            if not cl_monad & ~monads[x]:
                continue
            for v in s.opens:
                if (v >> x) & 1 and cl_monad & ~v:
                    return record("regular", (x, v))
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
        # exactly when it is not open.
        hulls = [clopen_hull(x) for x in range(n)]
        for f in closed:
            if s.is_open(f):
                continue
            for x in range(n):
                if not (f >> x) & 1 and hulls[x] & f:
                    return record("completely_regular", (x, f))
        return True

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

    def check_all_opens_closed() -> bool:
        for o in s.opens:
            if not s.is_closed(o):
                return record("all_opens_closed", (o,))
        return True

    return PropertyReport(
        t0=check_t0(),
        t1=check_t1(),
        t2=check_t2(),
        regular=check_regular(),
        completely_regular=check_completely_regular(),
        normal=check_normal(),
        all_opens_closed=check_all_opens_closed(),
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

    Compares the invariants first: point count, open count, open sizes and
    the (monad size, closure size) key of each point.  A homeomorphism
    keeps every key, so when the keys are pairwise distinct the only
    candidate is the map that matches them, verified on monads in O(n²).
    Otherwise it backtracks over key-compatible assignments that respect
    the partial specialization order, and refuses past MAX_ISO_POINTS.
    """
    if a.n != b.n or len(a.opens) != len(b.opens):
        return None
    if sorted(o.bit_count() for o in a.opens) != sorted(o.bit_count() for o in b.opens):
        return None
    # the specialization order: x <= y iff x in cl{y} iff y in monad(x)
    la, lb = a._monads, b._monads
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
        yield FinSpace(n, tuple(s for s in range(1 << n) if (code >> s) & 1))


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
        monads = self.source._monads
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
        if tuple(final) != self.target._monads:
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
    classes, assign = _classes_by_key(s._monads)
    monads = [sum(1 << c for c in {assign[x] for x in range(s.n) if (s._monads[xs[0]] >> x) & 1})
              for xs in classes]
    return QuotientMap(s, FinSpace(len(classes), (), monads), tuple(assign))


def t2_reflection(s: FinSpace) -> QuotientMap:
    """Quotient by specialization connectivity.  Components are clopen in a
    finite space, so the quotient is discrete and the map continuous."""
    parent = list(range(s.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, mx in enumerate(s._monads):  # y in monad(x) iff x <= y
        for y in range(s.n):
            if (mx >> y) & 1:
                parent[find(x)] = find(y)
    classes, assign = _classes_by_key([find(x) for x in range(s.n)])
    k = len(classes)
    return QuotientMap(s, FinSpace(k, (), [1 << c for c in range(k)]), tuple(assign))


def hasse_dot(s: FinSpace, labels: Sequence[str] | None = None) -> str:
    """DOT rendering of the Hasse diagram of the T0 quotient of the
    specialization preorder, x <= y iff y lies in monad(x).

    Nodes are the monad-equality classes in order of first member; an edge
    runs upward for each covering pair.  Output is deterministic.
    """
    classes, _ = _classes_by_key(s._monads)

    def below(c: int, d: int) -> bool:
        return c != d and bool((s._monads[classes[c][0]] >> classes[d][0]) & 1)

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
