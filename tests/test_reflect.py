"""Reflections, fragment compactifications, adherence, and the retraction."""
import time

import pytest

from corpus import presentation_of_space
from oracles import (
    adherence_by_trace,
    continuous_point_maps,
    factorizations_through,
    final_topology_by_scan,
    is_topology,
    labeled_sweep,
    retraction_continuous_by_opens,
    space_from_opens,
)
from topolab.errors import NoRetraction
from topolab.corpus import (
    chain_fragment,
    chain_space,
    discrete_fragment,
    finite_discrete,
    partition_fragment,
    pointed_chain_fragment,
    sierpinski_presentation,
)
from topolab.fintop import (
    QuotientMap,
    closure,
    enumerate_topologies,
    iso_check,
    property_report,
    t0_reflection,
    t2_reflection,
)
from topolab.reflect import _source_classes, _sweep_counts, weak_reflection_sweep
from topolab.setalg import OMEGA, DefSet
from topolab.star import SpacePresentation, adherence, build_star, model_monad, retraction

SIERP = space_from_opens(2, (0, 1, 3))


# -- quotient map validation ------------------------------------------------

def test_quotient_validation():
    with pytest.raises(ValueError):
        QuotientMap(SIERP, space_from_opens(1, (0, 1)), (0,))        # wrong length
    with pytest.raises(ValueError):
        QuotientMap(SIERP, space_from_opens(2, (0, 1, 2, 3)), (0, 0))  # not onto
    with pytest.raises(ValueError):
        # identity onto the discrete refinement is not a final topology
        QuotientMap(SIERP, space_from_opens(2, (0, 1, 2, 3)), (0, 1))
    q = QuotientMap(SIERP, SIERP, (0, 1))
    assert q.is_identity and q.preimage(0b01) == 0b01 and q.image(0b10) == 0b10


def _partitions(n):
    """Every map of 0..n-1 onto some 0..k-1 that numbers classes in order
    of first member."""
    out = [()]
    for _ in range(n):
        out = [a + (c,) for a in out for c in range(max(a, default=-1) + 2)]
    return out


def _quotients(enumerations, corpus_models):
    """(source, assign) for every quotient of a space on at most 4 points
    and for the T0 and T2 reflections of every corpus model."""
    out = [(s, assign) for n in range(5) for s in enumerations[n] for assign in _partitions(n)]
    for _, _, m in corpus_models:
        out += [(m.space, reflect(m.space).assign) for reflect in (t0_reflection, t2_reflection)]
    return out


def test_final_topology_check_matches_the_subset_scan(enumerations, corpus_models):
    spaces = [s for n in range(5) for s in enumerations[n]] + [m.space for _, _, m in corpus_models]
    for s in spaces:
        for q in (t0_reflection(s), t2_reflection(s)):
            assert set(q.target.opens) == final_topology_by_scan(s, q.assign)
    for source, assign in _quotients(enumerations, corpus_models):
        final = final_topology_by_scan(source, assign)
        k = max(assign, default=-1) + 1
        q = QuotientMap(source, space_from_opens(k, tuple(final)), assign)
        assert set(q.target.opens) == final


def test_final_topology_check_rejects_one_open_too_many_or_too_few(enumerations,
                                                                   corpus_models):
    rejected = 0
    for source, assign in _quotients(enumerations, corpus_models):
        k = max(assign, default=-1) + 1
        final = final_topology_by_scan(source, assign)
        for u in range(1 << k):
            family = final ^ {u}
            if not is_topology(k, family):
                continue
            with pytest.raises(ValueError, match="final topology"):
                QuotientMap(source, space_from_opens(k, tuple(family)), assign)
            rejected += 1
    assert rejected > 1000


# -- reflections --------------------------------------------------------------

def test_t0_reflection_examples():
    assert t0_reflection(space_from_opens(2, (0, 3))).target.n == 1
    assert t0_reflection(SIERP).is_identity
    q = t0_reflection(space_from_opens(3, (0, 3, 7)))
    assert q.assign == (0, 0, 1) and q.target == SIERP


def test_t0_reflection_merges_samples_in_identical_generators():
    p = SpacePresentation(OMEGA, (DefSet.from_members(OMEGA, [0, 1]),), (0, 1))
    m = build_star(p)
    assert [a.describe() for a in m.atoms] == ["{0}", "{1}", "tail(2)"]
    q = t0_reflection(m.space)
    assert q.assign[0] == q.assign[1] != q.assign[2]
    assert q.target == SIERP


def test_t2_reflection_examples():
    assert t2_reflection(space_from_opens(3, (0, 1, 2, 3, 4, 5, 6, 7))).is_identity
    assert t2_reflection(SIERP).target.n == 1
    two_components = space_from_opens(3, (0, 1, 3, 4, 5, 7))  # Sierpinski plus a point
    q = t2_reflection(two_components)
    assert q.target.n == 2 and q.assign[0] == q.assign[1] != q.assign[2]


def test_reflections_idempotent(enumerations):
    for n in range(4):
        for s in enumerations[n]:
            q0 = t0_reflection(s)
            assert property_report(q0.target).t0
            assert t0_reflection(q0.target).is_identity
            q2 = t2_reflection(s)
            assert len(q2.target.opens) == 1 << q2.target.n
            assert t2_reflection(q2.target).is_identity


# -- fragment compactifications -----------------------------------------------

def test_beta_examples():
    m = build_star(discrete_fragment(3))
    q = t2_reflection(m.space)
    assert len(m.atoms) == 4 and len(m.space.opens) == 16
    assert q.is_identity

    m = build_star(finite_discrete(3))
    q = t2_reflection(m.space)
    assert q.is_identity and iso_check(q.target, m.space) is not None

    q = t2_reflection(build_star(chain_fragment(3)).space)
    assert q.target.n == 1  # the chain model is order-connected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_beta2_of_chain_is_longer_chain(k):
    q = t0_reflection(build_star(chain_fragment(k)).space)
    assert q.target.n == k + 1
    assert iso_check(q.target, chain_space(k + 1)) is not None


def test_beta2_fixed_points():
    q = t0_reflection(build_star(sierpinski_presentation()).space)
    assert q.is_identity and iso_check(q.target, SIERP) is not None
    q = t0_reflection(build_star(pointed_chain_fragment(3)).space)
    assert q.target.n == 4 and iso_check(q.target, chain_space(4)) is not None


def test_beta2_of_pointed_chain_not_identity():
    # the infinity sample and the tail atom share every neighbourhood
    m = build_star(pointed_chain_fragment(3))
    q = t0_reflection(m.space)
    tail = 4
    assert q.assign[m.labels.index(0)] == q.assign[tail]


def test_beta2_target_flags(corpus_models):
    for name, p, m in corpus_models:
        q = t0_reflection(m.space)
        rep = property_report(q.target)
        assert rep.t0 and rep.compact and rep.locally_compact and rep.supercompact, name


# -- adherence ------------------------------------------------------------------

def test_adherence_examples():
    ninf = build_star(pointed_chain_fragment(3))
    tail = 4
    assert adherence(ninf, tail) == {0}

    disc = build_star(discrete_fragment(3))
    assert adherence(disc, 3) == frozenset()
    with pytest.raises(ValueError):
        adherence(disc, len(disc.atoms))


def test_adherence_matches_the_trace_definition(named_models):
    # the monad reading against every member of the ultrafilter trace
    for name, m in named_models:
        for atom in range(len(m.atoms)):
            assert adherence(m, atom) == adherence_by_trace(m, atom), (name, atom)


def test_equal_sample_closures_mean_equal_monads(named_models):
    # why retraction never meets candidates from two monad classes
    for name, m in named_models:
        for a in m.embedding:
            for b in m.embedding:
                if adherence(m, a) == adherence(m, b):
                    assert model_monad(m, a) == model_monad(m, b), (name, a, b)


def test_adherence_of_standard_atom_is_closure(corpus_models):
    for name, p, m in corpus_models:
        for pos, x in enumerate(p.samples):
            got = adherence(m, m.embedding[pos])
            cl = closure(m.space, 1 << m.embedding[pos])
            want = frozenset(s for qos, s in enumerate(p.samples)
                             if (cl >> m.embedding[qos]) & 1)
            assert got == want, (name, x)


def test_adherence_refines_with_more_samples():
    # same subbase, enlarged sample set: adherence can only shrink on the
    # common samples; match each finer atom to the coarse atom containing it
    pairs = [
        (chain_fragment(3), pointed_chain_fragment(3)),
        (partition_fragment(2),
         SpacePresentation(OMEGA, partition_fragment(2).subbase, (0, 1, 2, 3))),
    ]
    for small_p, big_p in pairs:
        assert set(small_p.samples) <= set(big_p.samples)
        small, big = build_star(small_p), build_star(big_p)
        for j, fine in enumerate(big.atoms):
            coarse = [i for i, a in enumerate(small.atoms) if (fine - a).is_empty]
            assert len(coarse) == 1
            adh_small = adherence(small, coarse[0])
            adh_big = adherence(big, j)
            assert adh_big & set(small_p.samples) <= adh_small


# -- retraction -------------------------------------------------------------------

def test_retraction_on_pointed_chain():
    m = build_star(pointed_chain_fragment(3))
    r = retraction(m)
    assert r.assign == (frozenset({1}), frozenset({2}), frozenset({3}),
                        frozenset({0}), frozenset({0}))
    assert retraction_continuous_by_opens(m, r)


def test_retraction_on_finite_discrete_is_identity():
    m = build_star(finite_discrete(3))
    r = retraction(m)
    for pos, s in enumerate(m.presentation.samples):
        assert r.assign[m.embedding[pos]] == {s}
    assert retraction_continuous_by_opens(m, r)


def test_no_retraction_on_discrete_fragment():
    with pytest.raises(NoRetraction) as e:
        retraction(build_star(discrete_fragment(3)))
    assert e.value.atom == 3


def test_no_retraction_on_bare_chain():
    # without a sample playing infinity the tail adheres to nothing
    with pytest.raises(NoRetraction) as e:
        retraction(build_star(chain_fragment(3)))
    assert e.value.atom == 3


def test_retraction_consistent_with_t0_assignment(corpus_models):
    for name, p, m in corpus_models:
        try:
            r = retraction(m)
        except NoRetraction:
            continue
        q = t0_reflection(m.space)
        for i, cls in enumerate(r.assign):
            for x in cls:
                assert q.assign[i] == q.assign[m.labels.index(x)], (name, i, x)


def test_retraction_fixes_the_standard_part(named_models):
    # a theorem (see `retraction`), so `retract` prints it without a check
    retracted = 0
    for name, m in named_models:
        try:
            r = retraction(m)
        except NoRetraction:
            continue
        for x, a in zip(m.presentation.samples, m.embedding):
            assert x in r.assign[a], (name, x)
        retracted += 1
    assert retracted > 0


def test_retraction_continuity_matches_the_preimage_of_every_open(named_models):
    # continuity is a theorem (see `retraction`), so the oracle must agree
    # on every retraction
    retracted = 0
    for name, m in named_models:
        try:
            r = retraction(m)
        except NoRetraction:
            continue
        assert retraction_continuous_by_opens(m, r), name
        retracted += 1
    assert retracted > 0


# -- universal property ---------------------------------------------------------

def test_factorization_search_examples():
    m = build_star(pointed_chain_fragment(3))
    q = t0_reflection(m.space)
    facts = factorizations_through(q, q.assign, q.target)
    assert facts == [tuple(range(q.target.n))]

    q2 = t2_reflection(m.space)
    const = (0,) * m.space.n
    assert len(factorizations_through(q2, const, space_from_opens(1, (0, 1)))) == 1


def test_weak_reflection_small_spaces_by_search(enumerations):
    # independent of the sweep kernels: exhaustive at two points
    spaces = [s for n in range(3) for s in enumerations[n]]
    t0_targets = [s for s in spaces if property_report(s).t0]
    for src in spaces:
        q = t0_reflection(src)
        for tgt in t0_targets:
            for f in continuous_point_maps(src, tgt):
                assert len(factorizations_through(q, f, tgt)) == 1
        q2 = t2_reflection(src)
        for n_t in range(3):
            tgt = space_from_opens(n_t, tuple(range(1 << n_t)))
            for f in continuous_point_maps(src, tgt):
                assert len(factorizations_through(q2, f, tgt)) >= 1


def test_weak_reflection_sweep_clean():
    rep = weak_reflection_sweep(3, kind="t0")
    assert rep.sources == 35 and rep.targets == 24 and rep.maps == 6134
    assert rep.unfactored_pairs == () and rep.nonunique_pairs == ()
    rep = weak_reflection_sweep(3, kind="t2")
    assert rep.sources == 35 and rep.targets == 4 and rep.maps == 318
    assert rep.unfactored_pairs == () and rep.nonunique_pairs == ()
    with pytest.raises(ValueError):
        weak_reflection_sweep(2, kind="t1")


def _classes_are_homeomorphism_classes(spaces, members):
    reps = [spaces[group[0]] for group in members]
    for group in members:
        assert all(iso_check(spaces[group[0]], spaces[i]) is not None for i in group)
    assert all(iso_check(a, b) is None for i, a in enumerate(reps) for b in reps[i + 1:])


def test_orbit_sweep_matches_labeled_sweep_pair_by_pair(enumerations):
    # every (source, target) pair on at most 3 points: the count for the
    # class representatives stands for each labeled member of their classes
    for n in range(4):
        spaces = enumerations[n]
        first, inverse = _source_classes(spaces)
        assert [inverse[i] for i in first] == list(range(len(first)))
        members = [[i for i, c in enumerate(inverse) if c == k] for k in range(len(first))]
        assert [group[0] for group in members] == first
        _classes_are_homeomorphism_classes(spaces, members)
    for max_n in range(4):
        for kind in ("t0", "t2"):
            _, targets, counts = _sweep_counts(max_n, kind)
            report, want = labeled_sweep(max_n, kind)
            got = {}
            for members, cont, fact in counts:
                for ti in members:
                    for si, pair in enumerate(zip(cont.tolist(), fact.tolist())):
                        got[si, ti] = pair
            assert got == want
            assert weak_reflection_sweep(max_n, kind) == report
            _classes_are_homeomorphism_classes(targets, [m for m, _, _ in counts])


def test_sweeps_at_four_points_within_two_seconds():
    start = time.perf_counter()
    t0 = weak_reflection_sweep(4, kind="t0")
    t2 = weak_reflection_sweep(4, kind="t2")
    elapsed = time.perf_counter() - start
    assert (t0.sources, t0.targets, t0.maps) == (390, 243, 3_045_545)
    assert (t2.sources, t2.targets, t2.maps) == (390, 5, 8_209)
    for rep in (t0, t2):
        assert rep.unfactored_pairs == () and rep.nonunique_pairs == ()
    # 25 classes of T0 targets (partial sums of OEIS A000112), 5 discrete
    assert [len(_sweep_counts(4, kind)[2]) for kind in ("t0", "t2")] == [25, 5]
    # 47 classes of sources (OEIS A001930)
    sizes = [len(_source_classes(list(enumerate_topologies(n)))[0]) for n in range(5)]
    assert sizes == [1, 1, 3, 9, 33]
    assert elapsed < 2.0


def test_sweep_reflects_one_source_per_class(monkeypatch):
    import topolab.reflect as reflect
    calls = []
    for name in ("t0_reflection", "t2_reflection"):
        original = getattr(reflect, name)
        monkeypatch.setattr(reflect, name,
                            lambda s, original=original, name=name: calls.append(name) or original(s))
    for kind in ("t0", "t2"):
        weak_reflection_sweep(4, kind)
    assert calls == ["t0_reflection"] * 47 + ["t2_reflection"] * 47


def test_weak_reflection_sweep_refuses_negative_sizes():
    with pytest.raises(ValueError):
        weak_reflection_sweep(-1)
    with pytest.raises(ValueError):
        weak_reflection_sweep(-1, kind="t2")


# -- model and space checkers agree ----------------------------------------------

def test_model_normality_matches_space_normality(enumerations):
    for n in range(4):
        for s in enumerations[n]:
            m = build_star(presentation_of_space(s))
            assert property_report(m.space).normal == property_report(s).normal


def test_chain_model_not_regular_partition_models_regular():
    rep = property_report(build_star(chain_fragment(3)).space)
    assert not rep.regular and rep.witness("regular") == (0, 1)
    assert not rep.all_opens_closed
    for p in (partition_fragment(2), partition_fragment(3, with_unions=True)):
        rep = property_report(build_star(p).space)
        assert rep.regular and rep.all_opens_closed
