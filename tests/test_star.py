"""Star models: atoms, the star map identities, coverage, traces, functoriality.

Expected atom layouts and masks were worked out by hand from the
presentations (the chain fragment's algebra has exactly the four cells
{1},{2},{3},{0}|tail(4)) and frozen here.
"""

import itertools
from pathlib import Path

import pytest

import oracles
from corpus import corpus_maps, presentation_of_space
import topolab.star
from topolab.errors import (
    AtomCapExceeded,
    GroundMismatch,
    NotInAlgebra,
    PeriodOverflow,
    PreimageNotInAlgebra,
    SampleImageNotSample,
    SampleNotInGround,
)
from topolab.corpus import (
    chain_fragment,
    chain_space,
    discrete_fragment,
    finite_discrete,
    partition_fragment,
    pointed_chain_fragment,
    sierpinski_presentation,
)
from topolab.cli import parse_presentation
from topolab.fintop import FinSpace, iso_check, property_report
from topolab.setalg import OMEGA, DefSet, Ground, ds_combine
from topolab.star import (
    DefMap,
    Frame,
    SpacePresentation,
    StarModel,
    build_star,
    density_violations,
    dm_compose,
    ds_preimage,
    fragment_continuous,
    is_fragment_open,
    model_monad,
    robinson_coverage,
    sample_space,
    sandwich_violations,
    star_identity_violations,
    star_map,
    star_of,
)


@pytest.fixture(scope="module")
def chain3():
    return build_star(chain_fragment(3))


@pytest.fixture(scope="module")
def ninf3():
    return build_star(pointed_chain_fragment(3))


@pytest.fixture(scope="module")
def disc3():
    return build_star(discrete_fragment(3))


# -- presentations -----------------------------------------------------

def test_presentation_validation():
    with pytest.raises(SampleNotInGround):
        SpacePresentation(Ground(3), (), (0, 5))
    with pytest.raises(ValueError):
        SpacePresentation(OMEGA, (), (1, 1))
    with pytest.raises(GroundMismatch):
        SpacePresentation(OMEGA, (DefSet.from_members(Ground(3), [1]),), (1,))


def test_sample_misses():
    p = SpacePresentation(OMEGA, (DefSet.from_members(OMEGA, [1]),
                                  DefSet.from_members(OMEGA, [9]),
                                  DefSet.empty(OMEGA)), (1,))
    assert p.sample_misses() == [1]
    assert chain_fragment(3).sample_misses() == []


# -- model construction -------------------------------------------------

def test_chain_model_layout(chain3):
    assert [a.describe() for a in chain3.atoms] == ["{1}", "{2}", "{3}", "{0}|tail(4)"]
    assert chain3.space.opens == (0, 1, 3, 7, 15)
    assert chain3.labels == (1, 2, 3, None)
    assert chain3.embedding == (0, 1, 2)
    assert chain3.standard_mask == 0b0111
    assert chain3.labels.index(2) == 1
    assert iso_check(chain3.space, chain_space(4)) is not None


def test_pointed_chain_model_layout(ninf3):
    assert [a.describe() for a in ninf3.atoms] == ["{1}", "{2}", "{3}", "{0}", "tail(4)"]
    assert ninf3.labels == (1, 2, 3, 0, None)
    assert model_monad(ninf3, 3) == 0b11111  # the infinity sample sees everything
    assert model_monad(ninf3, 4) == 0b11111


def test_finite_discrete_model_is_the_space_itself():
    m = build_star(finite_discrete(3))
    assert len(m.atoms) == 3
    assert m.space.opens == tuple(range(8))
    assert sorted(m.embedding) == [0, 1, 2]


def test_atom_cap():
    # 16 subbase sets and one sample: 17 generators, one past the cap
    ground = Ground(20)
    subbase = tuple(DefSet.from_members(ground, (i,)) for i in range(16))
    with pytest.raises(AtomCapExceeded, match="17 generators .* exceed cap 16"):
        build_star(SpacePresentation(ground, subbase, (19,)))


def test_model_monads(chain3):
    assert model_monad(chain3, 0) == 0b0001
    assert model_monad(chain3, 3) == 0b1111  # tail atom: whole model


# -- the star map ----------------------------------------------------------

def test_star_of_examples(chain3):
    g2 = chain3.presentation.subbase[1]
    assert star_of(chain3, DefSet.empty(OMEGA)) == 0
    assert star_of(chain3, DefSet.full(OMEGA)) == 0b1111
    assert star_of(chain3, g2) == 0b0011
    with pytest.raises(NotInAlgebra):
        star_of(chain3, DefSet.from_members(OMEGA, [1, 4]))
    with pytest.raises(GroundMismatch):
        star_of(chain3, DefSet.from_members(Ground(3), [1]))


def _union_fold(m, mask):
    out = DefSet.empty(m.presentation.ground)
    for i, atom in enumerate(m.atoms):
        if (mask >> i) & 1:
            out = ds_combine("union", out, atom)
    return out


def _frame_agrees_with_definition(m):
    # the frame's mask tests against the definitions: a union of atoms is
    # the ds_combine fold, and star(a) is every atom whose difference with
    # a is empty
    for mask in range(1 << len(m.atoms)):
        a = _union_fold(m, mask)
        assert m.union_of(mask) == a
        below = sum(1 << i for i, atom in enumerate(m.atoms)
                    if ds_combine("diff", atom, a).is_empty)
        assert star_of(m, a) == below == mask


def test_frame_agrees_with_definition_on_corpus(corpus_models):
    for name, p, m in corpus_models:
        _frame_agrees_with_definition(m)


def test_frame_agrees_with_definition_on_enumerated_models(enumerations):
    for spaces in enumerations.values():
        for s in spaces:
            _frame_agrees_with_definition(build_star(presentation_of_space(s)))


def test_star_of_refuses_sets_outside_the_algebra(chain3):
    frame = chain3.frame
    assert (frame.threshold, frame.period) == (4, 1)
    too_deep = DefSet.from_members(OMEGA, [9])
    assert too_deep.threshold > frame.threshold
    wrong_period = DefSet.arithmetic(OMEGA, 0, 2)
    assert frame.period % wrong_period.period
    # fits the window but is only part of the atom {0}|tail(4)
    splits_an_atom = DefSet.from_members(OMEGA, [0])
    assert splits_an_atom.threshold <= frame.threshold
    assert frame.period % splits_an_atom.period == 0
    for a in (too_deep, wrong_period, splits_an_atom):
        with pytest.raises(NotInAlgebra):
            star_of(chain3, a)


def test_star_identities_on_corpus(corpus_models):
    for name, p, m in corpus_models:
        assert star_identity_violations(m) == [], name


def _shows(check, m, sets):
    try:
        return bool(check(m, sets))
    except NotInAlgebra:
        return True


def _flipped_frames(m):
    """m with one frame word bit flipped: a point of atom 0 dropped, that
    point given to the last atom too, and atom 0 flipped at the top bit."""
    words = m.frame.words
    window = 0
    for w in words:
        window |= w
    out = []
    for i, bit in [(0, words[0] & -words[0]), (len(words) - 1, words[0] & -words[0]),
                   (0, 1 << (window.bit_length() - 1))]:
        broken = list(words)
        broken[i] ^= bit
        frame = Frame(m.frame.threshold, m.frame.period, tuple(broken))
        out.append(StarModel(m.presentation, m.atoms, m.space, m.embedding, m.labels, frame))
    return out


def _partition_messages(violations):
    return [v for v in violations if v.endswith(("is empty", "overlap", "of the ground"))]


def _agrees_with_the_oracle(bad, sets, name):
    """The certificate on a broken model against the atom-by-atom oracle:
    the same verdict over the algebra `sets`, the same partition messages,
    and a violation wherever the oracle finds one on its default sets."""
    got = star_identity_violations(bad)
    expected = oracles.star_identity_by_atoms(bad, sets)
    assert bool(got) == bool(expected), name
    assert _partition_messages(got) == _partition_messages(expected), name
    assert got or not oracles.star_identity_by_atoms(bad), name


BROKEN = ["chain3", "pointed_chain2", "discrete3", "partition3", "finite_discrete3", "sierpinski"]


@pytest.mark.parametrize("name", BROKEN)
def test_flipped_frame_bit_shows_in_certificate_and_oracle(name, corpus_models):
    # the sets come from the atoms by ds_combine, not from the frame, so a
    # broken frame word cannot hide in them
    m = next(m for n, _, m in corpus_models if n == name)
    sets = [_union_fold(m, mask) for mask in range(1 << len(m.atoms))]
    for bad in _flipped_frames(m):
        assert star_identity_violations(bad), name
        assert _shows(oracles.star_identity_pairs, bad, sets), name
        _agrees_with_the_oracle(bad, sets, name)


def _shipped_models():
    pres = Path(__file__).resolve().parent.parent / "presentations"
    return [(path.name, build_star(parse_presentation(path.read_text()).presentation()))
            for path in sorted(pres.glob("*.top"))]


def test_certificate_makes_a_fixed_number_of_calls(named_models, monkeypatch):
    # k(k-1)/2 meets and k unions test the partition, then one star_of per
    # atom, however many opens and algebra members the model has
    calls, stars = [], []

    def counting(*args):
        calls.append(args[0])
        return ds_combine(*args)

    def counting_star(m, a):
        stars.append(a)
        return star_of(m, a)

    monkeypatch.setattr(topolab.star, "ds_combine", counting)
    monkeypatch.setattr(topolab.star, "star_of", counting_star)
    for name, m in named_models + _shipped_models():
        k = len(m.atoms)
        calls.clear()
        stars.clear()
        assert star_identity_violations(m) == [], name
        assert calls.count("inter") == k * (k - 1) // 2, name
        assert calls.count("union") == k == len(calls) - k * (k - 1) // 2, name
        assert stars == list(m.atoms), name


@pytest.mark.parametrize("name", BROKEN)
def test_certificate_matches_the_oracle_on_broken_models(name, corpus_models):
    # flipped frame bits, overlapping atoms, and atoms that miss a point
    m = next(m for n, _, m in corpus_models if n == name)
    atoms = m.atoms
    point = next(x for x in itertools.count() if x in atoms[0])
    first = DefSet.from_members(m.presentation.ground, (point,))
    broken = _flipped_frames(m)
    for changed in ((ds_combine("union", atoms[0], atoms[1]),) + atoms[1:],
                    (ds_combine("diff", atoms[0], first),) + atoms[1:]):
        broken.append(StarModel(m.presentation, changed, m.space, m.embedding, m.labels,
                                m.frame))
    sets = [_union_fold(m, mask) for mask in range(1 << len(atoms))]
    for bad in broken:
        _agrees_with_the_oracle(bad, sets, name)


def test_star_restricts_to_samples(corpus_models):
    # standard atoms inside star(A) correspond exactly to samples inside A
    for name, p, m in corpus_models:
        sets = (oracles.algebra_sets(m) if len(m.atoms) <= 6
                else [m.union_of(o) for o in m.space.opens])
        for a in sets:
            mask = star_of(m, a)
            for pos, s in enumerate(p.samples):
                assert ((mask >> m.embedding[pos]) & 1) == (s in a)


def test_embedding_homeomorphic(named_models):
    for name, m in named_models:
        assert oracles.embedding_is_homeomorphic(m), name


def test_sample_space_is_the_trace_of_the_fragment_opens(corpus_models, enumerations):
    models = [m for _, _, m in corpus_models]
    models += [build_star(presentation_of_space(s))
               for spaces in enumerations.values() for s in spaces]
    for m in models:
        samples = m.presentation.samples
        traces = set()
        for o in m.space.opens:
            gset = m.union_of(o)
            traces.add(sum(1 << j for j, s in enumerate(samples) if s in gset))
        assert set(sample_space(m).opens) == traces


def test_model_always_compact_locally_compact_supercompact(corpus_models):
    for name, p, m in corpus_models:
        rep = property_report(m.space)
        assert rep.compact and rep.locally_compact and rep.supercompact, name


# -- coverage, density, sandwich -----------------------------------------

def test_coverage_examples(chain3, ninf3, disc3):
    cov = robinson_coverage(disc3)
    assert not cov.covered and cov.uncovered == (3,)
    assert disc3.atoms[3].describe() == "{0}|tail(4)"
    assert robinson_coverage(ninf3).covered
    assert robinson_coverage(build_star(finite_discrete(3))).covered
    # the bare chain fragment is the upper topology on the naturals: not compact
    cov = robinson_coverage(chain3)
    assert not cov.covered and cov.uncovered == (3,)


def test_coverage_on_enumerated_presentations(enumerations):
    for spaces in enumerations.values():
        for s in spaces:
            m = build_star(presentation_of_space(s))
            assert robinson_coverage(m).covered


def test_density(chain3, ninf3, disc3):
    assert density_violations(chain3) == []
    assert density_violations(ninf3) == []
    # the derived open {0}|tail(4) holds no sample even though every subbase
    # element does, so density genuinely fails for the discrete fragment
    assert disc3.space.is_open(0b1000)
    assert density_violations(disc3) == [0b1000]
    assert density_violations(build_star(partition_fragment(2))) == []


def test_sandwich_where_coverage_holds(corpus_models):
    for name, p, m in corpus_models:
        if robinson_coverage(m).covered:
            assert list(sandwich_violations(m)) == [], name


def test_sandwich_matches_the_scan_of_nested_opens(named_models):
    for name, m in named_models:
        if robinson_coverage(m).covered:
            assert list(sandwich_violations(m)) == oracles.sandwich_by_opens(m), name
    # three singletons and a wider set, sampled only outside them: the
    # sample's monad is the whole model, and the singleton opens escape it
    ground = Ground(6)
    sets = [DefSet.from_members(ground, pts) for pts in ((0,), (1,), (2,), (1, 3, 4))]
    m = build_star(SpacePresentation(ground, tuple(sets), (5,)))
    viol = list(sandwich_violations(m))
    assert robinson_coverage(m).covered and viol
    assert viol == oracles.sandwich_by_opens(m)


# -- ultrafilter traces ------------------------------------------------------

def test_trace_is_an_ultrafilter(chain3, ninf3):
    for m in (chain3, ninf3):
        n = len(m.atoms)
        full = (1 << n) - 1
        for atom in range(n):
            sets = set(oracles.ultrafilter_trace(m, atom))
            assert 0 not in sets                       # proper
            for a in sets:
                for b in sets:
                    assert (a & b) in sets             # closed under meets
                for c in range(1 << n):
                    if a & ~c == 0:
                        assert c in sets               # upward closed
            for c in range(1 << n):
                assert (c in sets) != ((full ^ c) in sets)  # prime
    with pytest.raises(ValueError):
        oracles.ultrafilter_trace(chain3, 9)


# -- definable maps ----------------------------------------------------------

def test_defmap_evaluation():
    f = DefMap(OMEGA, (5,), (("const", 2), ("shift", 3)))
    assert [f(m) for m in range(6)] == [5, 4, 2, 6, 2, 8]
    assert DefMap.identity(OMEGA)(7) == 7
    assert DefMap.constant(OMEGA, 4)(9) == 4
    assert DefMap.shift(OMEGA, -2)(1) == 0 and DefMap.shift(OMEGA, -2)(5) == 3
    g = Ground(4)
    assert [DefMap.shift(g, 1)(m) for m in range(4)] == [1, 2, 3, 3]


def test_defmap_validation():
    with pytest.raises(ValueError):
        DefMap(OMEGA, (), (("shift", -1),))   # class 0 would go below zero
    with pytest.raises(ValueError):
        DefMap(OMEGA, (1, 2), ())             # infinite ground needs rules
    with pytest.raises(ValueError):
        DefMap(Ground(3), (0, 1), ())         # table must cover the ground
    with pytest.raises(ValueError):
        DefMap(OMEGA, (), (("triple", 0),))


SAMPLE_MAPS = [
    DefMap.identity(OMEGA),
    DefMap.shift(OMEGA, 1),
    DefMap.shift(OMEGA, 2),
    DefMap.shift(OMEGA, -1),
    DefMap.constant(OMEGA, 0),
    DefMap.constant(OMEGA, 5),
    DefMap(OMEGA, (), (("const", 0), ("const", 1))),       # parity
    DefMap(OMEGA, (9, 0, 7), (("shift", 4), ("const", 3), ("shift", 0))),
]

SAMPLE_SETS = [
    DefSet.empty(OMEGA),
    DefSet.full(OMEGA),
    DefSet.from_members(OMEGA, [1, 2]),
    DefSet.tail(OMEGA, 3),
    DefSet.arithmetic(OMEGA, 0, 2),
    DefSet.from_members(OMEGA, [0, 7]) | DefSet.arithmetic(OMEGA, 5, 3),
]


def test_compose_pointwise():
    for f in SAMPLE_MAPS:
        for g in SAMPLE_MAPS:
            h = dm_compose(g, f)
            for m in range(60):
                assert h(m) == g(f(m)), (f, g, m)


def test_preimage_pointwise():
    for f in SAMPLE_MAPS:
        for b in SAMPLE_SETS:
            pre = ds_preimage(f, b)
            for m in range(60):
                assert (m in pre) == (f(m) in b), (f, b, m)


def test_map_period_overflow():
    wide = DefMap(OMEGA, (), (("shift", 0),) * 2048)
    other = DefMap(OMEGA, (), (("shift", 0),) * 2187)
    with pytest.raises(PeriodOverflow):
        dm_compose(wide, other)
    with pytest.raises(PeriodOverflow):
        ds_preimage(wide, DefSet.arithmetic(OMEGA, 0, 2187))


# -- induced atom maps ---------------------------------------------------------

def test_identity_induces_identity():
    for name, f, src, dst in corpus_maps():
        if not name.startswith("id_"):
            continue
        sm = star_map(f, build_star(src), build_star(dst))
        assert sm.atom_map == tuple(range(len(sm.atom_map))), name
        assert sm.continuous


def test_shift_map_on_chained_fragments():
    f = DefMap.shift(OMEGA, 1)
    sm = star_map(f, build_star(chain_fragment(3)), build_star(chain_fragment(3, shift=1)))
    # atoms {1},{2},{3},{0}|tail(4) land on {2},{3},{4},rest
    assert sm.atom_map == (0, 1, 2, 3)
    assert sm.continuous


def test_collapse_map_is_constant_to_infinity():
    f = DefMap.constant(OMEGA, 0)
    dst = build_star(pointed_chain_fragment(3))
    sm = star_map(f, build_star(chain_fragment(3)), dst)
    infinity = dst.labels.index(0)
    assert sm.atom_map == (infinity,) * 4
    assert sm.continuous


def test_functoriality_composition():
    maps = {name: (f, src, dst) for name, f, src, dst in corpus_maps()}
    f, src1, mid1 = maps["shift_chain3"]
    g, mid2, dst2 = maps["shift_chain3_again"]
    assert mid1 == mid2
    src1, mid1, dst2 = build_star(src1), build_star(mid1), build_star(dst2)
    left = star_map(dm_compose(g, f), src1, dst2)
    a = star_map(f, src1, mid1)
    b = star_map(g, mid1, dst2)
    assert left.atom_map == tuple(b(a(i)) for i in range(len(a.atom_map)))

    c = DefMap.constant(OMEGA, 0)
    pointed = build_star(pointed_chain_fragment(3))
    left = star_map(dm_compose(c, f), src1, pointed)
    right_outer = star_map(c, mid1, pointed)
    assert left.atom_map == tuple(right_outer(a(i)) for i in range(len(a.atom_map)))


def test_star_map_preimage_identity():
    # the proof identity: preimage of star(B) equals star of preimage(B)
    for name, f, src, dst in corpus_maps():
        src_model, dst_model = build_star(src), build_star(dst)
        sm = star_map(f, src_model, dst_model)
        for mask in range(1 << len(dst_model.atoms)):
            b = dst_model.union_of(mask)
            pulled = sum(1 << i for i, j in enumerate(sm.atom_map) if (mask >> j) & 1)
            assert pulled == star_of(src_model, ds_preimage(f, b)), name


def test_star_map_error_cases():
    chain2, chain3 = build_star(chain_fragment(2)), build_star(chain_fragment(3))
    with pytest.raises(SampleImageNotSample):
        star_map(DefMap.shift(OMEGA, 1), chain3, chain3)
    parity = DefMap(OMEGA, (), (("const", 0), ("const", 1)))
    with pytest.raises(PreimageNotInAlgebra) as e:
        star_map(parity, chain2, build_star(partition_fragment(2)))
    assert e.value.generator_index == 0
    with pytest.raises(GroundMismatch):
        star_map(DefMap.identity(Ground(3)), chain2, chain2)


def test_star_map_continuity_matches_the_preimage_of_every_open():
    # criterion 9's maps: the corpus maps, the identity into the discrete
    # fragment and the composites
    maps = {name: (f, src, dst) for name, f, src, dst in corpus_maps()}
    cases = list(maps.values())
    cases.append((DefMap.identity(OMEGA), chain_fragment(3), discrete_fragment(3)))
    for gname, fname in (("shift_chain3_again", "shift_chain3"),
                         ("collapse_chain3", "id_chain3")):
        (g, _, dst), (f, src, _) = maps[gname], maps[fname]
        cases.append((dm_compose(g, f), src, dst))
    shifted = maps["shift_chain3"][2]
    cases.append((DefMap.constant(shifted.ground, 0), shifted, pointed_chain_fragment(3)))
    seen = set()
    for f, src, dst in cases:
        sm = star_map(f, build_star(src), build_star(dst))
        assert sm.continuous == oracles.continuous_by_opens(sm.src.space, sm.dst.space,
                                                            sm.atom_map)
        seen.add(sm.continuous)
    assert seen == {True, False}


def test_continuity_equivalence_on_corpus():
    # ground-level fragment continuity must match continuity of the atom map
    cases = list(corpus_maps())
    cases.append(("id_into_discrete", DefMap.identity(OMEGA),
                  chain_fragment(3), discrete_fragment(3)))
    seen_discontinuous = False
    for name, f, src, dst in cases:
        sm = star_map(f, build_star(src), build_star(dst))
        ok = fragment_continuous(f, sm.src, sm.dst)
        assert ok == sm.continuous, name
        seen_discontinuous |= not ok
    assert seen_discontinuous  # the identity into the discrete fragment breaks


def _self_maps(ground):
    """The identity, the shift by one and the constant 0 on a ground."""
    return [DefMap.identity(ground), DefMap.shift(ground, 1), DefMap.constant(ground, 0)]


def test_fragment_continuity_matches_the_preimage_of_every_open(corpus_models,
                                                                   enum_models):
    # pulling back the target monads decides what pulling back every target
    # open decides: on the corpus maps, the identity into the discrete
    # fragment, maps of each corpus and shipped model to itself, and maps
    # between the enumerated models
    cases = [(f, build_star(src), build_star(dst)) for _, f, src, dst in corpus_maps()]
    cases.append((DefMap.identity(OMEGA), build_star(chain_fragment(3)),
                  build_star(discrete_fragment(3))))
    for m in [m for _, _, m in corpus_models] + [m for _, m in _shipped_models()]:
        cases += [(f, m, m) for f in _self_maps(m.presentation.ground)]
    for _, m, s in enum_models:
        ground = m.presentation.ground
        discrete = build_star(presentation_of_space(FinSpace(s.n, tuple(range(1 << s.n)))))
        rotate = DefMap(ground, tuple((x + 1) % s.n for x in range(s.n)))
        cases += [(f, m, m) for f in _self_maps(ground) + [rotate]]
        cases += [(DefMap.identity(ground), m, discrete), (DefMap.identity(ground), discrete, m)]
    seen = set()
    for f, sm, dm in cases:
        ok = fragment_continuous(f, sm, dm)
        assert ok == oracles.fragment_continuous_by_opens(f, sm, dm)
        seen.add(ok)
    assert seen == {True, False}


def test_fragment_open_needs_the_model_ground(chain3):
    assert not is_fragment_open(chain3, DefSet.from_members(Ground(3), [1]))


def test_fragment_open_needs_an_algebra_member(chain3):
    assert not is_fragment_open(chain3, DefSet.from_members(OMEGA, [1, 4]))


def test_fragment_open_needs_an_open_star(chain3):
    a = DefSet.from_members(OMEGA, [2])
    assert chain3.union_of(star_of(chain3, a)) == a
    assert not is_fragment_open(chain3, a)
    assert is_fragment_open(chain3, DefSet.from_members(OMEGA, [1, 2]))
