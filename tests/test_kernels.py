"""The enumeration kernel must match the scan of every code word, and the
batched reflection kernel the brute-force search per source."""
import numpy as np

import oracles
from oracles import space_from_opens
from topolab import _kernels, reflect
from topolab.fintop import (
    enumerate_topologies, iso_check, property_report, t0_reflection, t2_reflection)
from topolab.reflect import _class_tables


def test_topology_codes_match_the_code_scan():
    for n in range(5):
        codes = _kernels.topology_codes(n)
        assert codes.dtype == np.uint32
        assert np.array_equal(codes, oracles.topology_codes_by_scan(n))


def test_topology_codes_at_five_points():
    # OEIS A000798: 6,942 topologies on 5 labeled points, out of reach of
    # the 2**32-word scan; each code must decode to a valid topology
    codes = _kernels.topology_codes(5).tolist()
    assert len(codes) == 6942 and codes == sorted(set(codes))
    for code in codes:
        space_from_opens(5, tuple(s for s in range(32) if (code >> s) & 1))


def _bruteforce(q, tgt):
    # the search also counts maps with exactly one factorization, which must
    # be every factored one
    ncont, nfact, nuniq = oracles.reflection_counts_bruteforce(
        q.source.n, oracles.space_bitmap(q.source, 1 << q.source.n), q.target.n,
        oracles.space_bitmap(q.target, 1 << q.target.n), q.assign, tgt.n, tgt.opens)
    assert nfact == nuniq
    return ncont, nfact


def _counts(n_s, tables, tgt):
    # the sweep passes the target's monads; every open must give the same
    got = []
    for basis in (tgt.monads, tgt.opens):
        total, cont, fact = _kernels.reflection_counts(
            n_s, *tables, tgt.n, np.asarray(basis, dtype=np.int64))
        assert total == int(cont.sum())
        got.append(list(zip(cont.tolist(), fact.tolist())))
    assert got[0] == got[1]
    return got[0]


def _check_against_bruteforce(sources, targets, reflection):
    quotients = [reflection(s) for s in sources]
    tables = _class_tables(quotients)
    for tgt in targets:
        assert _counts(sources[0].n, tables, tgt) == [_bruteforce(q, tgt) for q in quotients]


def test_class_tables_match_the_tables_by_map():
    for reflection in (t0_reflection, t2_reflection):
        for n in range(5):
            quotients = [reflection(s) for s in enumerate_topologies(n)]
            tables = _class_tables(quotients)
            assert all(t.shape == (len(quotients), 1 << n) for t in tables)
            for i, q in enumerate(quotients):
                for got, want in zip(tables, oracles.class_tables_by_map(q)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got[i], want)


def test_reflection_counts_on_monads_match_every_open():
    # every (target, source size) pair on at most 3 points
    targets = [s for n in range(4) for s in enumerate_topologies(n)]
    for reflection in (t0_reflection, t2_reflection):
        for n in range(4):
            tables = _class_tables([reflection(s) for s in enumerate_topologies(n)])
            for tgt in targets:
                _counts(n, tables, tgt)


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
    empty = space_from_opens(0, (0,))
    point = space_from_opens(1, (0, 1))
    # the empty map is the one map out of the empty space, into any target
    for tgt in (empty, point):
        assert _counts(0, _class_tables([t0_reflection(empty)]), tgt) == [(1, 1)]
    # a nonempty space has no map into the empty space
    assert _counts(1, _class_tables([t0_reflection(point)]), empty) == [(0, 0)]


def test_knocked_out_source_open_breaks_agreement():
    spaces = list(enumerate_topologies(2))
    quotients = [t0_reflection(s) for s in spaces]
    tables = _class_tables(quotients)
    hit = next(i for i, s in enumerate(spaces) if 0b01 in s.opens)
    tables[0][hit, 0b01] = False
    # the identity onto the Sierpinski space pulls {0} back to {0}
    tgt = space_from_opens(2, (0, 1, 3))
    got = _counts(2, tables, tgt)
    want = [_bruteforce(q, tgt) for q in quotients]
    assert [i for i in range(len(spaces)) if got[i] != want[i]] == [hit]


def test_knocked_out_quotient_open_shows_as_unfactored(monkeypatch):
    # drop {0} from the quotient of the discrete 2-point space, in the sweep's
    # batch table and in the oracle's per-quotient rows: the identity into
    # the discrete 2-point target no longer factors
    discrete = space_from_opens(2, (0, 1, 2, 3))
    batch, by_map = reflect._class_tables, oracles.class_tables_by_map

    def knocked_batch(quotients):
        tables = batch(quotients)
        for i, q in enumerate(quotients):
            if q.source == discrete:
                tables[2][i, 0b01] = False
        return tables

    def knocked_by_map(q):
        sbm, image, q_bitmap, saturated = by_map(q)
        if q.source == discrete:
            q_bitmap = q_bitmap.copy()
            q_bitmap[0b01] = False
        return sbm, image, q_bitmap, saturated

    monkeypatch.setattr(reflect, "_class_tables", knocked_batch)
    monkeypatch.setattr(oracles, "class_tables_by_map", knocked_by_map)
    sources = [s for n in range(3) for s in enumerate_topologies(n)]
    for kind in ("t0", "t2"):
        rep = reflect.weak_reflection_sweep(2, kind)
        assert rep.unfactored_pairs
        assert {sources[si] for si, _ in rep.unfactored_pairs} == {discrete}
        # the orbit sweep reports exactly what the labeled sweep reports,
        # every labeled member of a failing target class included
        assert rep.unfactored_pairs == oracles.labeled_sweep(2, kind)[0].unfactored_pairs
        if kind == "t0":
            targets = [s for s in sources if property_report(s).t0]
        else:
            targets = [space_from_opens(n, tuple(range(1 << n))) for n in range(3)]
        failing = set(rep.unfactored_pairs)
        for si, ti in failing:
            for tj, other in enumerate(targets):
                if iso_check(targets[ti], other) is not None:
                    assert (si, tj) in failing
        if kind == "t0":
            # both labelings of the Sierpinski space, one class of two
            sierpinski = {ti for ti, t in enumerate(targets) if len(t.opens) == 3}
            assert len(sierpinski) == 2 and sierpinski <= {ti for _, ti in failing}
