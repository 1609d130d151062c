"""The exhaustive weak-reflection sweep.

Every continuous map from a space on at most max_n points into a T0
(resp. discrete) space on at most max_n points must factor through the
T0 (resp. T2) reflection of its source.  The sweep checks this for every
pair, by homeomorphism class on both sides, with the counting kernel of
`_kernels` over numpy tables.  The reflections themselves live in
`fintop`, and the standard-part retraction in `star`.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import _kernels
from ._record import Record, _set
from .fintop import (
    FinSpace,
    QuotientMap,
    _classes_by_key,
    enumerate_topologies,
    t0_reflection,
    t2_reflection,
)
# unused here, but topobench's tracer looks up reflect.adherence and reflect.retraction
from .star import adherence, retraction  # noqa: F401


class SweepReport(Record):
    """Totals of `weak_reflection_sweep` and its failing (source, target)
    index pairs; `nonunique_pairs` is structurally empty (see there)."""

    __slots__ = ("sources", "targets", "maps", "unfactored_pairs", "nonunique_pairs")

    def __init__(self, sources: int, targets: int, maps: int,
                 unfactored_pairs: tuple[tuple[int, int], ...],
                 nonunique_pairs: tuple[tuple[int, int], ...]):
        _set(self, "sources", sources)
        _set(self, "targets", targets)
        _set(self, "maps", maps)
        _set(self, "unfactored_pairs", unfactored_pairs)
        _set(self, "nonunique_pairs", nonunique_pairs)


def _class_tables(quotients: list[QuotientMap]) -> list[np.ndarray]:
    """The (k, 2**n) tables `_kernels.reflection_counts` takes for k
    quotients of n-point sources, built from their (k, n) assign matrix:
    over the subset masks of each source, its open bitmap, the class
    image, the quotient's open bitmap (padded to the same width) and
    whether the subset is a union of classes."""
    k, n = len(quotients), quotients[0].source.n
    masks = np.arange(1 << n, dtype=np.int64)
    assign = np.array([q.assign for q in quotients], dtype=np.int64)
    image, pre = np.zeros((2, k, 1 << n), dtype=np.int64)
    for x in range(n):
        image |= ((masks >> x) & 1) << assign[:, x, None]
        pre |= ((masks >> assign[:, x, None]) & 1) << x
    src, quo = np.zeros((2, k, 1 << n), dtype=np.bool_)
    for i, q in enumerate(quotients):
        src[i, list(q.source.opens)] = quo[i, list(q.target.opens)] = True
    return [src, image, quo, np.take_along_axis(pre, image, axis=1) == masks]


def _relabelings(n: int) -> np.ndarray:
    """(n!, 2**n) table: row p sends each subset mask of the n points to its
    image under the p-th permutation of the points."""
    masks = np.arange(1 << n, dtype=np.int64)
    rows = np.zeros((math.factorial(n), 1 << n), dtype=np.int64)
    for p, perm in enumerate(itertools.permutations(range(n))):
        for x, y in enumerate(perm):
            rows[p] |= ((masks >> x) & 1) << y
    return rows


def _source_classes(spaces: list[FinSpace]) -> tuple[list[int], np.ndarray]:
    """The homeomorphism classes of spaces on the same n points: the index of
    each class's first member, and the class index of each space.

    A class is keyed by its canonical code word, the least code word (bit s
    on iff subset-mask s is open) of the open family over every relabeling
    of the points, a running minimum over the rows of `_relabelings(n)`.
    The 2**n-bit code words fit in an int64 for n ≤ 5, past the enumeration
    cap.
    """
    n = spaces[0].n
    bits = np.zeros((len(spaces), 1 << n), dtype=np.int64)
    for i, s in enumerate(spaces):
        bits[i, list(s.opens)] = 1
    canon = np.full(len(spaces), np.iinfo(np.int64).max)
    for row in _relabelings(n):
        canon = np.minimum(canon, (bits << row).sum(axis=1))
    _, first, inverse = np.unique(canon, return_index=True, return_inverse=True)
    return first.tolist(), inverse


def _sweep_counts(max_n: int, kind: str) -> tuple[
        list[FinSpace], list[FinSpace], list[tuple[list[int], np.ndarray, np.ndarray]]]:
    """The sweep's labeled sources and targets, and for each homeomorphism
    class of targets: the indices of its labeled members and, per source,
    how many maps into the first member are continuous and how many of
    those factor through the reflection.

    Only the first member of each class of sources is reflected and
    counted (`_source_classes`); every labeled source takes its class's
    counts.  A T0 target's class is its class as a source.
    """
    if kind not in ("t0", "t2"):
        raise ValueError("kind must be 't0' or 't2'")
    if max_n < 0:
        raise ValueError("max_n must be at least 0")
    by_size = [list(enumerate_topologies(n)) for n in range(max_n + 1)]
    sources = [s for spaces in by_size for s in spaces]
    reflection = t0_reflection if kind == "t0" else t2_reflection
    batches, source_class, offset = [], [], 0
    for n, spaces in enumerate(by_size):
        first, inverse = _source_classes(spaces)
        batches.append((n, _class_tables([reflection(spaces[i]) for i in first])))
        source_class.append(inverse + offset)
        offset += len(first)
    source_class = np.concatenate(source_class)
    if kind == "t0":
        # T0 iff distinct points have distinct monads
        t0 = [si for si, s in enumerate(sources) if len(set(s._monads)) == s.n]
        targets = [sources[si] for si in t0]
        classes, _ = _classes_by_key(source_class[t0].tolist())
    else:
        targets = [FinSpace(n, tuple(range(1 << n))) for n in range(max_n + 1)]
        classes, _ = _classes_by_key(range(len(targets)))
    counts = []
    for members in classes:
        t = targets[members[0]]
        monads = np.array(t._monads, dtype=np.int64)
        cont, fact = (np.concatenate(c) for c in zip(*(
            _kernels.reflection_counts(n_s, *tables, t.n, monads)[1:]
            for n_s, tables in batches)))
        counts.append((members, cont[source_class], fact[source_class]))
    return sources, targets, counts


def weak_reflection_sweep(max_n: int = 4, kind: str = "t0") -> SweepReport:
    """Check the weak universal property exhaustively.

    Every continuous map from any space on ≤ max_n points into any T0
    (resp. discrete) space on ≤ max_n points must factor through the T0
    (resp. T2) reflection.  `_kernels.reflection_counts` counts one target
    against all sources of one size at once, and runs once per
    homeomorphism class of targets (25 classes for the 243 T0 targets at
    max_n = 4): each count is weighted by the class size, and a failing
    source is reported against every labeled member of the class.  The
    sources run by class too: only the first member of each of the 47
    classes of the 390 sources at max_n = 4 is reflected and counted, and
    every labeled source takes its class's counts.

    This is exact on the target side.  Let h: T → T′ be a homeomorphism
    and q: S → Q the reflection of a source S.  Composing with h is a
    bijection from the continuous maps S → T onto the continuous maps
    S → T′, with inverse composing with h⁻¹.  If f = F∘q with F: Q → T
    continuous, then h∘f = (h∘F)∘q with h∘F continuous; conversely
    h∘f = G∘q gives f = (h⁻¹∘G)∘q.  So the pair (S, T′) has as many
    continuous and as many factored maps as (S, T).

    It is exact on the source side.  Let σ: S → S′ be a homeomorphism.
    Then f ↦ f∘σ⁻¹ is a bijection from the continuous maps S → T onto the
    continuous maps S′ → T, with inverse f′ ↦ f′∘σ.  Both reflections
    collapse points by a relation that homeomorphisms keep (equal monads,
    specialization connectivity), so the reflection q′: S′ → Q′ is q
    relabeled by σ: q′∘σ = ρ∘q for a homeomorphism ρ: Q → Q′.  Then
    f = F∘q iff f∘σ⁻¹ = (F∘ρ⁻¹)∘q′, and F∘ρ⁻¹ is continuous iff F is, so
    f factors iff f∘σ⁻¹ does, and the pair (S′, T) has as many continuous
    and as many factored maps as (S, T).

    `nonunique_pairs` is always empty: a `QuotientMap` is onto (its
    constructor rejects anything else), so a factoring map is forced on
    every class and there is at most one factorization.  The kernel tests
    pin this against a search over every factor map.
    """
    sources, targets, counts = _sweep_counts(max_n, kind)
    total_maps = 0
    unfactored = []
    for members, cont, fact in counts:
        total_maps += int(cont.sum()) * len(members)
        failing = np.flatnonzero(fact != cont)
        unfactored.extend((int(si), ti) for ti in members for si in failing)
    unfactored.sort(key=lambda pair: (pair[1], pair[0]))
    return SweepReport(len(sources), len(targets), total_maps, tuple(unfactored), ())
