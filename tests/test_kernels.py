"""The batched reflection kernel must match the brute-force search per source."""
import numpy as np

import oracles
from topolab import _kernels, reflect
from topolab.fintop import FinSpace, enumerate_topologies, property_report
from topolab.reflect import _class_tables, _space_bitmap, t0_reflection, t2_reflection


def _batch(quotients):
    """Kernel tables for quotients of sources that share one size."""
    return [np.stack(rows) for rows in zip(*(_class_tables(q) for q in quotients))]


def _bruteforce(q, tgt):
    # the search also counts maps with exactly one factorization, which must
    # be every factored one
    ncont, nfact, nuniq = oracles.reflection_counts_bruteforce(
        q.source.n, _space_bitmap(q.source), q.target.n, _space_bitmap(q.target),
        q.assign, tgt.n, tgt.opens)
    assert nfact == nuniq
    return ncont, nfact


def _counts(n_s, tables, tgt):
    total, cont, fact = _kernels.reflection_counts(
        n_s, *tables, tgt.n, np.asarray(tgt.opens, dtype=np.int64))
    assert total == int(cont.sum())
    return list(zip(cont.tolist(), fact.tolist()))


def _check_against_bruteforce(sources, targets, reflection):
    quotients = [reflection(s) for s in sources]
    tables = _batch(quotients)
    for tgt in targets:
        assert _counts(sources[0].n, tables, tgt) == [_bruteforce(q, tgt) for q in quotients]


def test_reflection_counts_all_paths_agree():
    # one call per (target, source size) covers every pair on at most 2 points
    targets = [s for n in range(3) for s in enumerate_topologies(n)]
    for reflection in (t0_reflection, t2_reflection):
        for n in range(3):
            _check_against_bruteforce(list(enumerate_topologies(n)), targets, reflection)


def test_reflection_counts_three_point_sample():
    spaces = list(enumerate_topologies(3))
    targets = [s for s in spaces if property_report(s).t0]
    _check_against_bruteforce(spaces[::7], targets[::5], t0_reflection)


def test_empty_source_and_empty_target():
    empty = FinSpace(0, (0,))
    point = FinSpace(1, (0, 1))
    # the empty map is the one map out of the empty space, into any target
    for tgt in (empty, point):
        assert _counts(0, _batch([t0_reflection(empty)]), tgt) == [(1, 1)]
    # a nonempty space has no map into the empty space
    assert _counts(1, _batch([t0_reflection(point)]), empty) == [(0, 0)]


def test_knocked_out_source_open_breaks_agreement():
    spaces = list(enumerate_topologies(2))
    quotients = [t0_reflection(s) for s in spaces]
    tables = _batch(quotients)
    hit = next(i for i, s in enumerate(spaces) if 0b01 in s.opens)
    tables[0][hit, 0b01] = False
    # the identity onto the Sierpinski space pulls {0} back to {0}
    tgt = FinSpace(2, (0, 1, 3))
    got = _counts(2, tables, tgt)
    want = [_bruteforce(q, tgt) for q in quotients]
    assert [i for i in range(len(spaces)) if got[i] != want[i]] == [hit]


def test_knocked_out_quotient_open_shows_as_unfactored(monkeypatch):
    # drop {0} from the quotient of the discrete 2-point space: the identity
    # into the discrete 2-point target no longer factors
    discrete = FinSpace(2, (0, 1, 2, 3))
    real = reflect._class_tables

    def knocked(q):
        sbm, image, q_bitmap, saturated = real(q)
        if q.source == discrete:
            q_bitmap = q_bitmap.copy()
            q_bitmap[0b01] = False
        return sbm, image, q_bitmap, saturated

    monkeypatch.setattr(reflect, "_class_tables", knocked)
    for kind in ("t0", "t2"):
        rep = reflect.weak_reflection_sweep(2, kind)
        sources = [s for n in range(3) for s in enumerate_topologies(n)]
        assert rep.unfactored_pairs
        assert {sources[si] for si, _ in rep.unfactored_pairs} == {discrete}
