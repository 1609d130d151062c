"""Hot loops behind topology enumeration and the weak-reflection sweep.

Both kernels are vectorized numpy scans over every candidate at once.
The tests pin `reflection_counts` against a pure-python search over
every factor map (`reflection_counts_bruteforce` in tests/oracles.py).
"""
from __future__ import annotations

import numpy as np


# -- topology enumeration --------------------------------------------
#
# A family of subsets of an n-point set is encoded as a code word whose
# bit s says whether subset-mask s belongs to the family.  A code is a
# topology iff bits 0 (empty set) and 2**n - 1 (whole set) are on and
# the on-bits are closed under union and intersection of masks.


def topology_codes(n: int) -> np.ndarray:
    nsub = 1 << n
    full = nsub - 1
    codes = np.arange(1 << nsub, dtype=np.uint32)
    member = ((codes[:, None] >> np.arange(nsub, dtype=np.uint32)[None, :]) & 1).astype(bool)
    ok = member[:, 0] & member[:, full]
    for s in range(nsub):
        for t in range(s + 1, nsub):
            both = member[:, s] & member[:, t]
            ok &= ~both | (member[:, s | t] & member[:, s & t])
    return codes[ok]


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
# Over all point maps f: source -> target it counts, per source:
#   continuous:  every target open pulls back to a source open
#   factored:    some continuous F: quotient -> target has F(assign(x)) = f(x)
# The quotient map is surjective, so a factoring F is pointwise forced by
# f.  It exists iff every fibre of f is saturated (f is constant on
# classes) and every pullback of F is open in the quotient; the pullback
# of a target open under F is the class image of its pullback under f.
# A factoring is therefore unique.  The exhaustive search over all F
# stays in the tests, so the reduction itself stays under test.


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
                      n_t: int, tgt_opens: np.ndarray
                      ) -> tuple[int, np.ndarray, np.ndarray]:
    """(maps continuous over all sources, continuous per source, factored
    per source) for the k sources stacked in the (k, 2**n_s) tables."""
    pre = _preimage_table(n_s, n_t, np.asarray(tgt_opens, dtype=np.int64))
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
