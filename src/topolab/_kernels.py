"""Hot loops behind topology enumeration and the weak-reflection sweep.

Both kernels are vectorized numpy passes over every candidate at once.
The tests pin `topology_codes` against a scan of every code word and
`reflection_counts` against a pure-python search over every factor map
(`topology_codes_by_scan` and `reflection_counts_bruteforce` in
tests/oracles.py).
"""
from __future__ import annotations

import numpy as np


# -- topology enumeration --------------------------------------------
#
# A family of subsets of an n-point set is encoded as a code word whose
# bit s says whether subset-mask s belongs to the family.  A topology on
# a finite set is fixed by its monads, the minimal open neighbourhoods:
# the opens are exactly the unions of monads (Alexandroff 1937).  A tuple
# of masks (m_0, ..., m_{n-1}) is the monad tuple of some topology iff
# x is in m_x and the tuple is closed, y in m_x putting m_y inside m_x;
# the topology is then the unions of the m_x, whose monads are the m_x
# again, so closed tuples and topologies correspond one to one.


def topology_codes(n: int) -> np.ndarray:
    """Code words of every topology on n points, ascending, as uint32."""
    nsub = 1 << n
    # monads[t, x]: candidate monad of point x in tuple t, grown one point
    # at a time and pruned to the tuples closed on the points chosen so far
    monads = np.zeros((1, 0), dtype=np.int64)
    for x in range(n):
        choices = np.array([m for m in range(nsub) if (m >> x) & 1], dtype=np.int64)
        monads = np.hstack([np.repeat(monads, len(choices), axis=0),
                            np.tile(choices, len(monads))[:, None]])
        ok = np.ones(len(monads), dtype=bool)
        for y in range(x):
            for a, b in ((x, y), (y, x)):
                inside = ((monads[:, a] >> b) & 1) == 1
                ok &= ~inside | ((monads[:, b] & ~monads[:, a]) == 0)
        monads = monads[ok]
    # subset s is open iff it holds the monad of each of its points
    codes = np.zeros(len(monads), dtype=np.int64)
    for s in range(nsub):
        is_open = np.ones(len(monads), dtype=bool)
        for x in range(n):
            if (s >> x) & 1:
                is_open &= (monads[:, x] & ~s) == 0
        codes |= is_open.astype(np.int64) << s
    return np.sort(codes).astype(np.uint32)


# -- weak-reflection sweep -------------------------------------------
#
# One call handles every source space on n_s points against one target
# space on n_t points.  Source i comes with its quotient (the reflection,
# a map assign_i onto the quotient's classes) through four tables over
# the 2**n_s subset masks of the source points:
#   src_bitmaps[i, A]   A is open in source i
#   class_image[i, A]   the mask of the classes that meet A
#   q_bitmaps[i, C]     class mask C is open in the quotient (padded)
#   saturated[i, A]     A is a union of classes
# and the target through tgt_basis, sets whose unions are its opens.
# Over all point maps f: source -> target it counts, per source:
#   continuous:  every target open pulls back to a source open
#   factored:    some continuous F: quotient -> target has F(assign(x)) = f(x)
# The quotient map is surjective, so a factoring F is pointwise forced by
# f.  It exists iff every fibre of f is saturated (f is constant on
# classes) and every pullback of F is open in the quotient; the pullback
# of a target open under F is the class image of its pullback under f.
# A factoring is therefore unique.  The exhaustive search over all F
# stays in the tests, so the reduction itself stays under test.
#
# Pulling back the basis alone is exact: preimages under f and F keep
# unions, and source and quotient opens are closed under unions, so the
# basis pulls back to opens iff every target open does.  The sweep passes
# the n_t monads, whose unions are the opens, in place of every open.


def _preimage_table(n_s: int, n_t: int, masks: np.ndarray) -> np.ndarray:
    """(len(masks), n_t**n_s) table: the pullback of each target point mask
    under each point map, map m sending x to digit x of m in base n_t."""
    total = n_t ** n_s
    codes = np.arange(total, dtype=np.int64)
    out = np.zeros((len(masks), total), dtype=np.int64)
    for x in range(n_s):
        digit = codes // n_t ** x % n_t
        out |= ((masks[:, None] >> digit[None, :]) & 1) << x
    return out


def reflection_counts(n_s: int, src_bitmaps: np.ndarray,
                      class_image: np.ndarray, q_bitmaps: np.ndarray,
                      saturated: np.ndarray,
                      n_t: int, tgt_basis: np.ndarray
                      ) -> tuple[int, np.ndarray, np.ndarray]:
    """(maps continuous over all sources, continuous per source, factored
    per source) for the k sources stacked in the (k, 2**n_s) tables."""
    pre = _preimage_table(n_s, n_t, np.asarray(tgt_basis, dtype=np.int64))
    fibres = _preimage_table(n_s, n_t, np.int64(1) << np.arange(n_t, dtype=np.int64))
    cont = np.ones((src_bitmaps.shape[0], pre.shape[1]), dtype=bool)
    for row in pre:
        cont &= src_bitmaps[:, row]
    good = cont.copy()
    for row in fibres:
        good &= saturated[:, row]
    # q_open[i, A]: the class image of A is open in quotient i
    q_open = np.take_along_axis(q_bitmaps, class_image, axis=1)
    for row in pre:
        good &= q_open[:, row]
    ncont = cont.sum(axis=1)
    return int(ncont.sum()), ncont, good.sum(axis=1)
