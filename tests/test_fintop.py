"""Finite spaces: generation, closure operators, checkers, enumeration, iso.

The enumeration counts are validated against two independently coded
oracles (a bitmask filter and a frozenset filter) rather than against
the library's own kernel, and iso_check is validated against a plain
permutation search.
"""
import itertools
import random

import pytest

import oracles
from oracles import space_from_opens
from topolab.corpus import chain_space
from topolab.errors import SizeCapExceeded
from topolab.fintop import (
    FinSpace,
    closure,
    enumerate_topologies,
    generate_topology,
    hasse_dot,
    is_homeomorphism,
    iso_check,
    monad,
    property_report,
    t0_reflection,
)

SIERP = FinSpace(2, (0b01, 0b11))
DISCRETE2 = FinSpace(2, (0b01, 0b10))
INDISCRETE2 = FinSpace(2, (0b11, 0b11))
CHAIN4 = FinSpace(4, (0b0001, 0b0011, 0b0111, 0b1111))


def test_finspace_validation():
    # the builder from opens in tests/oracles.py
    with pytest.raises(ValueError):
        space_from_opens(2, (0, 1))           # missing the full set
    with pytest.raises(ValueError):
        space_from_opens(2, (1, 3))           # missing the empty set
    with pytest.raises(ValueError):
        space_from_opens(2, (0, 1, 2, 3, 4))  # mask out of range
    with pytest.raises(ValueError):
        space_from_opens(3, (0, 3, 5, 7))     # 3 & 5 = 1 missing
    with pytest.raises(SizeCapExceeded):
        space_from_opens(65, (0, (1 << 65) - 1))
    assert space_from_opens(64, (0, (1 << 64) - 1)).n == 64
    assert space_from_opens(2, (3, 0, 3, 1)).opens == (0, 1, 3)  # dedup + sort
    assert space_from_opens(2, (0, 1, 3)) == SIERP


def test_finspace_from_monads_matches_finspace_from_opens(enumerations):
    for n in range(5):
        for s in enumerations[n]:
            t = space_from_opens(n, s.opens)
            assert t == s and t.opens == s.opens and t.monads == oracles.monads_by_opens(s)


def test_finspace_accepts_exactly_the_monads_of_a_topology(enumerations):
    for n in range(4):
        monad_tuples = {oracles.monads_by_opens(s) for s in enumerations[n]}
        for monads in itertools.product(range(1 << n), repeat=n):
            if monads in monad_tuples:
                assert FinSpace(n, monads).monads == monads
            else:
                with pytest.raises(ValueError):
                    FinSpace(n, monads)


def test_finspace_from_monads_refusals():
    with pytest.raises(ValueError, match="does not hold it"):
        FinSpace(2, (0b10, 0b11))           # 0 outside its own monad
    with pytest.raises(ValueError, match="preorder"):
        FinSpace(3, (0b011, 0b110, 0b100))  # 1 in m(0), but m(1) not in m(0)
    with pytest.raises(ValueError, match="does not hold it"):
        FinSpace(2, (0b101, 0b10))          # mask out of range
    with pytest.raises(ValueError, match="monads for"):
        FinSpace(2, (0b01,))
    with pytest.raises(SizeCapExceeded):
        FinSpace(65, [1 << x for x in range(65)])
    # no cap on the opens: 2^64 of them, never listed
    discrete = FinSpace(64, [1 << x for x in range(64)])
    assert discrete.is_open((1 << 64) - 1) and discrete.is_open(0b1010)
    assert discrete.is_closed(1 << 63) and not discrete.is_open(1 << 64)


def test_generate_topology_examples():
    assert generate_topology(2, [1]) == SIERP
    assert generate_topology(3, [1, 2]).opens == (0, 1, 2, 3, 7)
    assert generate_topology(4, [1, 3, 7]) == CHAIN4
    assert generate_topology(0, []).opens == (0,)
    with pytest.raises(ValueError):
        generate_topology(2, [4])
    with pytest.raises(SizeCapExceeded):
        generate_topology(65, [])
    assert generate_topology(64, []).opens == (0, (1 << 64) - 1)


def test_closure_and_interior():
    assert closure(SIERP, 0b01) == 0b11   # {0} is dense
    assert closure(SIERP, 0b10) == 0b10   # {1} is closed
    assert closure(SIERP, 0) == 0
    assert oracles.interior_by_opens(SIERP.opens, 0b10) == 0
    assert oracles.interior_by_opens(SIERP.opens, 0b01) == 0b01


def test_monad_examples():
    assert monad(SIERP, 0) == 0b01
    assert monad(SIERP, 1) == 0b11
    d3 = generate_topology(3, [1, 2, 4])
    assert [monad(d3, i) for i in range(3)] == [1, 2, 4]
    assert monad(CHAIN4, 3) == 0b1111
    with pytest.raises(ValueError):
        monad(SIERP, 2)


def test_specialization_examples():
    # the specialization order x <= y (x in cl{y}) is y in monad(x)
    assert SIERP.monads == (0b01, 0b11)
    assert (monad(SIERP, 1) >> 0) & 1 and not (monad(SIERP, 0) >> 1) & 1
    assert INDISCRETE2.monads == (3, 3)
    assert DISCRETE2.monads == (1, 2)


def test_subspace():
    sub, pts = oracles.subspace(CHAIN4, 0b0110)
    assert pts == [1, 2]
    assert sub.opens == (0, 1, 3)


# -- closure-operator laws over the full enumeration --------------------

def test_kuratowski_laws(enumerations):
    for n, spaces in enumerations.items():
        for s in spaces:
            cl = {a: closure(s, a) for a in range(1 << n)}
            assert cl[0] == 0
            for a in range(1 << n):
                assert cl[a] & ~cl[cl[a]] == 0 and cl[cl[a]] == cl[a]
                assert a & ~cl[a] == 0
            for a in range(1 << n):
                for b in range(1 << n):
                    assert cl[a | b] == cl[a] | cl[b]


def test_monad_is_minimum_open(enumerations):
    for spaces in enumerations.values():
        for s in spaces:
            opens = s.opens
            for x in range(s.n):
                m = monad(s, x)
                assert s.is_open(m) and (m >> x) & 1
                for o in opens:
                    if (o >> x) & 1:
                        assert m & ~o == 0


def test_leq_agrees_with_closure(enumerations):
    # the specialization order read off the monads, against point closures
    # taken from the opens
    for spaces in enumerations.values():
        for s in spaces:
            opens = s.opens
            for x in range(s.n):
                for y in range(s.n):
                    in_cl = (oracles.closure_by_opens(s.n, opens, 1 << y) >> x) & 1
                    assert ((monad(s, x) >> y) & 1) == in_cl


# -- property report ------------------------------------------------------

def test_report_sierpinski():
    rep = property_report(SIERP)
    assert rep.flags() == {
        "t0": True, "t1": False, "t2": False, "regular": False,
        "completely_regular": False, "normal": True, "all_opens_closed": False,
        "compact": True, "locally_compact": True, "supercompact": True,
    }
    assert rep.witness("t1") == (0, 0b11)       # cl{0} is not {0}
    assert rep.witness("all_opens_closed") == (1,)
    assert rep.witness("t0") is None


def test_report_discrete_and_indiscrete():
    assert all(property_report(DISCRETE2).flags().values())
    rep = property_report(INDISCRETE2)
    flags = rep.flags()
    assert not flags["t0"] and not flags["t1"] and not flags["t2"]
    assert flags["regular"] and flags["completely_regular"]
    assert flags["normal"] and flags["all_opens_closed"]
    assert rep.witness("t0") == (0, 1)


def test_every_finite_space_compact_lc_supercompact(enumerations):
    for spaces in enumerations.values():
        for s in spaces:
            rep = property_report(s)
            assert rep.compact and rep.locally_compact and rep.supercompact
            assert oracles.locally_compact_witness(s) is None
            assert oracles.supercompact_witness(s) is None


def test_locally_compact_reduction_lemma(enumerations):
    # the reduced loop and the report's theorem must agree with the
    # literal subset search
    for n in range(4):
        for s in enumerations[n]:
            literal = oracles.locally_compact_literal(s)
            assert literal == (oracles.locally_compact_witness(s) is None)
            assert literal == property_report(s).locally_compact


def test_hierarchy_and_discreteness(enumerations):
    for n, spaces in enumerations.items():
        for s in spaces:
            rep = property_report(s)
            if rep.t2:
                assert rep.t1
            if rep.t1:
                assert rep.t0
            assert rep.t2 == (len(s.opens) == 1 << n)


def test_regular_iff_completely_regular_iff_clopen(enumerations):
    for spaces in enumerations.values():
        for s in spaces:
            rep = property_report(s)
            assert rep.regular == rep.completely_regular == rep.all_opens_closed


def test_witnesses_only_for_false_flags(enumerations):
    for spaces in enumerations.values():
        for s in spaces:
            rep = property_report(s)
            for name, ok in rep.flags().items():
                assert (rep.witness(name) is None) == ok


# -- monad fast paths against the definitional oracles ------------------------

def _spaces_under_test(enumerations, corpus_models):
    # every enumerated space, the model spaces of the corpus (up to 9
    # atoms) and random spaces on 5 and 6 points
    out = [s for spaces in enumerations.values() for s in spaces]
    out += [m.space for _, _, m in corpus_models]
    rng = random.Random(5)
    for n in (5, 6):
        out += [generate_topology(n, rng.sample(range(1 << n), rng.randint(1, 4)))
                for _ in range(150)]
    return out


def test_property_report_matches_definitions(enumerations, corpus_models):
    witness_of = {
        "regular": oracles.regular_witness,
        "completely_regular": oracles.completely_regular_witness,
        "normal": oracles.normal_witness,
        "all_opens_closed": oracles.all_opens_closed_witness,
    }
    # random spaces on 7 and 8 points, where the normality certificate
    # must both pass and fail
    rng = random.Random(7)
    wider = [generate_topology(n, rng.sample(range(1 << n), rng.randint(1, 8)))
             for n in (7, 8) for _ in range(100)]
    assert {oracles.normal_witness(s) is None for s in wider} == {True, False}
    for s in _spaces_under_test(enumerations, corpus_models) + wider:
        rep = property_report(s)
        for flag, oracle in witness_of.items():
            want = oracle(s)
            assert getattr(rep, flag) == (want is None), (s.opens, flag)
            assert rep.witness(flag) == want, (s.opens, flag)


def test_closure_and_interior_match_definitions(enumerations, corpus_models):
    for s in _spaces_under_test(enumerations, corpus_models):
        opens = s.opens
        masks = range(1 << s.n) if s.n <= 4 else [1 << x for x in range(s.n)] + list(opens)
        for a in masks:
            assert closure(s, a) == oracles.closure_by_opens(s.n, opens, a)


def test_opens_and_openness_match_definitions(enumerations, corpus_models):
    # each enumerated space against the family its code word names, from
    # the scan of every code word, and each corpus model against the
    # pairwise closure of its subbase masks; every mask, and one past each end
    cases = []
    for n in range(5):
        words = oracles.topology_codes_by_scan(n).tolist()
        cases += [(s, tuple(o for o in range(1 << n) if (w >> o) & 1))
                  for s, w in zip(enumerations[n], words, strict=True)]
    cases += [(m.space, oracles.generate_by_closure(len(m.atoms),
                                                    [m.frame.mask_of(g) for g in p.subbase]))
              for _, p, m in corpus_models]
    for s, family in cases:
        assert s.opens == family
        members = set(family)
        for mask in range(-1, (1 << s.n) + 1):
            assert s.is_open(mask) == (mask in members), (family, mask)
            assert s.is_closed(mask) == (0 <= mask <= s.full and s.full ^ mask in members)
        assert s.is_discrete == (len(family) == 1 << s.n)


def test_generate_topology_matches_pairwise_closure(enumerations, corpus_models):
    rng = random.Random(11)
    cases = [(s.n, s.opens) for spaces in enumerations.values() for s in spaces]
    cases += [(s.n, [monad(s, x) for x in range(s.n)])
              for spaces in enumerations.values() for s in spaces]
    cases += [(len(m.atoms), [m.frame.mask_of(g) for g in p.subbase])
              for _, p, m in corpus_models]
    for n in range(5):
        masks = range(1 << n)
        cases += [(n, pick) for r in (1, 2) for pick in itertools.combinations(masks, r)]
        cases += [(n, rng.sample(masks, rng.randint(0, 1 << n))) for _ in range(200)]
    for n, subbase in cases:
        assert generate_topology(n, subbase).opens == oracles.generate_by_closure(n, subbase)


def _accepts(n, family):
    try:
        space_from_opens(n, tuple(family))
    except ValueError:
        return False
    return True


def test_finspace_accepts_exactly_the_topologies(enumerations):
    for n in range(4):
        masks = range(1 << n)
        for pick in range(1 << (1 << n)):
            family = [o for o in masks if (pick >> o) & 1]
            assert _accepts(n, family) == oracles.is_topology(n, family), (n, family)
    rng = random.Random(7)
    families = [rng.sample(range(16), rng.randint(0, 16)) for _ in range(3000)]
    for s in enumerations[4]:
        # one mask added to or taken from a topology: mostly non-topologies
        for o in range(1, 15):
            families.append(set(s.opens) ^ {o})
    for family in families:
        assert _accepts(4, family) == oracles.is_topology(4, family), family


# -- enumeration oracle ----------------------------------------------------

def family_closed(fam):
    mem = set(fam)
    return all((a | b) in mem and (a & b) in mem for a in fam for b in fam)


def oracle_families_bitmask(n):
    """All open families, by filtering every subset of the nontrivial masks."""
    full = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, full)]
    out = []
    for pick in range(1 << len(middles)):
        fam = [0, full] if n > 0 else [0]
        fam += [m for i, m in enumerate(middles) if (pick >> i) & 1]
        if family_closed(fam):
            out.append(tuple(sorted(set(fam))))
    # promised order: ascending in the family bit-encoding (bit s set iff s open)
    return sorted(set(out), key=lambda fam: sum(1 << o for o in fam))


def oracle_families_frozenset(n):
    """Same count from a set-of-frozensets encoding, no bit arithmetic."""
    points = frozenset(range(n))
    subsets = [frozenset(c) for r in range(n + 1)
               for c in itertools.combinations(range(n), r)]
    middles = [s for s in subsets if s not in (frozenset(), points)]
    count = 0
    for r in range(len(middles) + 1):
        for pick in itertools.combinations(middles, r):
            fam = set(pick) | {frozenset(), points}
            if all((a | b) in fam and (a & b) in fam for a in fam for b in fam):
                count += 1
    return count


def test_enumeration_counts(enumerations):
    assert [len(enumerations[n]) for n in range(5)] == [1, 1, 4, 29, 355]
    for n in range(5):
        assert [s.opens for s in enumerations[n]] == oracle_families_bitmask(n)
    for n in range(4):
        assert len(enumerations[n]) == oracle_families_frozenset(n)


def test_enumeration_order_and_cap(enumerations):
    for n, spaces in enumerations.items():
        codes = [sum(1 << o for o in s.opens) for s in spaces]
        assert codes == sorted(codes) and len(set(codes)) == len(codes)
    with pytest.raises(SizeCapExceeded):
        list(enumerate_topologies(5))


# -- homeomorphism search ----------------------------------------------------

def test_iso_examples():
    relabeled = space_from_opens(2, (0, 2, 3))
    got = iso_check(SIERP, relabeled)
    assert got == (1, 0)
    assert iso_check(SIERP, DISCRETE2) is None
    assert iso_check(CHAIN4, generate_topology(4, [8, 12, 14])) is not None


def test_iso_cap():
    # the cap binds only on a search: here every point has the same key
    big = FinSpace(11, [(1 << 11) - 1] * 11)
    with pytest.raises(SizeCapExceeded):
        iso_check(big, big)
    # keys pairwise distinct: the forced map is checked at any size
    chain16 = chain_space(16)
    reversed_chain = FinSpace(16, [((1 << 16) - 1) ^ ((1 << x) - 1) for x in range(16)])
    assert iso_check(chain16, reversed_chain) == tuple(range(15, -1, -1))
    # equal invariants and pairwise distinct keys, yet the forced map fails
    a = FinSpace(6, (49, 62, 44, 40, 16, 32))
    b = FinSpace(6, (49, 62, 44, 8, 48, 32))
    assert iso_check(a, b) is None and frozenset(b.opens) not in oracles.relabelings(a)
    # invariants that differ answer before any cap
    assert iso_check(big, FinSpace(11, [1 << x for x in range(11)])) is None


def _assert_iso_matches_oracle(spaces):
    orbits = [oracles.relabelings(s) for s in spaces]
    opens = [s.opens for s in spaces]
    for a, orbit, a_opens in zip(spaces, orbits, opens):
        for b, b_opens in zip(spaces, opens):
            got = iso_check(a, b)
            assert (got is None) == (a.n != b.n or frozenset(b_opens) not in orbit)
            if got is not None:
                mapped = {sum(1 << got[x] for x in range(a.n) if (o >> x) & 1)
                          for o in a_opens}
                assert mapped == set(b_opens)


def test_homeomorphism_test_on_monads_matches_the_opens(enumerations):
    # a bijection is a homeomorphism iff it carries the opens onto the opens
    for n in range(4):
        opens = {b: set(b.opens) for b in enumerations[n]}
        for a in enumerations[n]:
            for perm in itertools.permutations(range(n)):
                mapped = {sum(1 << perm[x] for x in range(n) if (o >> x) & 1)
                          for o in opens[a]}
                for b in enumerations[n]:
                    assert is_homeomorphism(a, b, perm) == (mapped == opens[b])


def test_iso_agrees_with_permutation_search(enumerations):
    for n in range(5):
        _assert_iso_matches_oracle(enumerations[n])


def test_iso_agrees_with_permutation_search_on_the_corpus(corpus_models):
    models = [m.space for _, _, m in corpus_models]
    _assert_iso_matches_oracle(models + [t0_reflection(s).target for s in models]
                               + [chain_space(n) for n in sorted({s.n for s in models})])


# -- DOT export ----------------------------------------------------------------

def test_hasse_dot_chain():
    chain3 = generate_topology(3, [1, 3])
    assert hasse_dot(chain3) == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  n0 [label="0"];\n'
        '  n1 [label="1"];\n'
        '  n2 [label="2"];\n'
        "  n1 -> n0;\n"
        "  n2 -> n1;\n"
        "}\n"
    )


def test_hasse_dot_merges_classes_and_skips_transitive_edges():
    out = hasse_dot(INDISCRETE2, labels=["a", "b"])
    assert 'n0 [label="a = b"]' in out and "->" not in out
    out = hasse_dot(CHAIN4)
    assert "n3 -> n2;" in out and "n3 -> n0;" not in out
