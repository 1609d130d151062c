"""Hot loops behind topology enumeration and the weak-reflection sweep.

Both kernels are vectorized numpy scans over every candidate at once.
`reflection_counts_bruteforce` is the pure-python reference the tests pin
`reflection_counts` against.
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
# For one (source space, target space) pair and the source's quotient
# (assign: source point -> class, with the quotient space's open-family
# bitmap), count over all point maps f: source -> target:
#   continuous:  every target open pulls back to a source open
#   factored:    some continuous F: quotient -> target has F(assign(x)) = f(x)
# The quotient map is surjective, so a factoring F is pointwise forced by
# f; existence therefore reduces to f being constant on classes with the
# forced F continuous, and a factoring is automatically unique.  The
# exhaustive search over all F is kept, in pure python, as
# `reflection_counts_bruteforce` so the reduction itself stays under test.


def reflection_counts(n_s: int, src_bitmap: np.ndarray,
                      n_q: int, q_bitmap: np.ndarray,
                      assign: np.ndarray,
                      n_t: int, tgt_opens: np.ndarray) -> np.ndarray:
    out = np.zeros(2, dtype=np.int64)
    if n_s == 0:
        # the empty map: continuous, factored through the empty quotient
        out[:] = 1
        return out
    if n_t == 0:
        return out
    total = n_t ** n_s
    codes = np.arange(total, dtype=np.int64)
    digits = np.empty((total, n_s), dtype=np.int64)
    rest = codes
    for x in range(n_s):
        digits[:, x] = rest % n_t
        rest = rest // n_t
    cont = np.ones(total, dtype=bool)
    for j in range(tgt_opens.shape[0]):
        o = int(tgt_opens[j])
        inside = (o >> digits) & 1
        pre = (inside << np.arange(n_s, dtype=np.int64)[None, :]).sum(axis=1)
        cont &= src_bitmap[pre]
    out[0] = int(cont.sum())
    # forced factor map: f must be constant on classes and the induced map continuous
    consistent = np.ones(total, dtype=bool)
    forced = np.zeros((total, n_q), dtype=np.int64)
    seen = np.zeros(n_q, dtype=bool)
    for x in range(n_s):
        c = int(assign[x])
        if not seen[c]:
            forced[:, c] = digits[:, x]
            seen[c] = True
        else:
            consistent &= forced[:, c] == digits[:, x]
    good = cont & consistent
    for j in range(tgt_opens.shape[0]):
        o = int(tgt_opens[j])
        inside = (o >> forced) & 1
        pre = (inside << np.arange(n_q, dtype=np.int64)[None, :]).sum(axis=1)
        good &= q_bitmap[pre]
    out[1] = int(good.sum())
    return out


def reflection_counts_bruteforce(n_s: int, src_bitmap, n_q: int, q_bitmap,
                                 assign, n_t: int, tgt_opens) -> tuple[int, int, int]:
    """Reference implementation: try every factor map outright.

    Returns (continuous, factored, unique): maps that are continuous, that
    have at least one continuous factorization, and that have exactly one.
    """
    import itertools

    def continuous(npts, fmap, bitmap):
        for o in tgt_opens:
            pre = 0
            for x in range(npts):
                if (int(o) >> fmap[x]) & 1:
                    pre |= 1 << x
            if not bitmap[pre]:
                return False
        return True

    ncont = nfact = nuniq = 0
    for f in itertools.product(range(n_t), repeat=n_s):
        if not continuous(n_s, f, src_bitmap):
            continue
        ncont += 1
        hits = 0
        for big in itertools.product(range(n_t), repeat=n_q):
            if all(big[assign[x]] == f[x] for x in range(n_s)):
                if continuous(n_q, big, q_bitmap):
                    hits += 1
        nfact += 1 if hits >= 1 else 0
        nuniq += 1 if hits == 1 else 0
    return ncont, nfact, nuniq
