"""The numpy reflection kernel must match the brute-force search."""
import numpy as np

from topolab import _kernels
from topolab.fintop import enumerate_topologies, property_report
from topolab.reflect import _space_bitmap, t0_reflection


def _pair_args(src, tgt):
    q = t0_reflection(src)
    return (src.n, _space_bitmap(src),
            q.target.n, _space_bitmap(q.target),
            np.asarray(q.assign, dtype=np.int64),
            tgt.n, np.asarray(tgt.opens, dtype=np.int64))


def _check_against_bruteforce(args):
    # the kernel reports (continuous, factored); the search also counts maps
    # with exactly one factorization, which must be every factored one
    ncont, nfact, nuniq = _kernels.reflection_counts_bruteforce(*args)
    got = tuple(int(v) for v in _kernels.reflection_counts(*args))
    assert got == (ncont, nfact)
    assert nfact == nuniq


def test_reflection_counts_all_paths_agree():
    spaces = [s for n in range(3) for s in enumerate_topologies(n)]
    targets = [s for s in spaces if property_report(s).t0]
    for src in spaces:
        for tgt in targets:
            _check_against_bruteforce(_pair_args(src, tgt))


def test_reflection_counts_three_point_sample():
    # spot-check a handful of 3-point pairs against the brute force
    spaces = list(enumerate_topologies(3))
    targets = [s for s in spaces if property_report(s).t0]
    for src in spaces[::7]:
        for tgt in targets[::5]:
            _check_against_bruteforce(_pair_args(src, tgt))
