"""Evaluation into dyad powers and the crosscheck against the T0 target."""
from pathlib import Path

import pytest

from oracles import (
    algebra_sets, dyad_vectors_by_scan, family_continuous_by_opens, space_from_opens, subspace)
from topolab.cli import parse_presentation
from topolab.corpus import (
    chain_fragment,
    discrete_fragment,
    partition_fragment,
    pointed_chain_fragment,
    sierpinski_presentation,
)
from topolab.dcomp import (
    DyadFamily,
    check_family_continuous,
    dcomp_crosscheck,
    dcomp_embed,
    dyad_family_of,
)
from topolab.errors import (
    FamilyTooLarge,
    GroundMismatch,
    NotInAlgebra,
    SizeCapExceeded,
)
from topolab.fintop import MAX_POINTS, closure, generate_topology, iso_check
from topolab.setalg import OMEGA, DefSet, Ground
from topolab.star import SpacePresentation, build_star

PRES = Path(__file__).resolve().parent.parent / "presentations"


def _embed(p):
    """The canonical embedding of p's model."""
    return dcomp_embed(build_star(p), dyad_family_of(p))


def test_family_validation():
    with pytest.raises(GroundMismatch):
        DyadFamily((DefSet.from_members(OMEGA, [0]),
                    DefSet.from_members(Ground(4), [0])))
    fam = DyadFamily(tuple(DefSet.from_members(OMEGA, [i]) for i in range(17)))
    with pytest.raises(FamilyTooLarge):
        dcomp_embed(build_star(sierpinski_presentation()), fam)


def test_canonical_family_continuous(corpus_models):
    for name, p, m in corpus_models:
        assert check_family_continuous(m, dyad_family_of(p)), name


def test_family_continuity_matches_the_ground_set_of_every_open(named_models):
    # the canonical family, and each algebra member as a family of one, on
    # the corpus, the enumerated models and the shipped files
    models = [m for _, m in named_models]
    models += [build_star(parse_presentation(path.read_text()).presentation())
               for path in sorted(PRES.glob("*.top"))]
    seen = set()
    for m in models:
        families = [dyad_family_of(m.presentation)]
        families += [DyadFamily((a,)) for a in algebra_sets(m)]
        for fam in families:
            ok = check_family_continuous(m, fam)
            assert ok == family_continuous_by_opens(m, fam)
            seen.add(ok)
    assert seen == {True, False}


def test_noncontinuous_and_nonalgebra_members():
    m = build_star(chain_fragment(3))
    stray = DyadFamily((DefSet.from_members(OMEGA, [2]),))  # in algebra, not open
    assert not check_family_continuous(m, stray)
    with pytest.raises(NotInAlgebra):
        dcomp_embed(m, DyadFamily((DefSet.from_members(OMEGA, [1, 4]),)))


def test_embed_chain3():
    e = _embed(chain_fragment(3))
    assert e.image_vectors == (0, 1, 3, 7)
    assert e.closure_vectors == tuple(range(8))
    assert e.eval == (0, 1, 2)
    assert e.image.opens == (0, 1, 3, 7, 15)
    assert len(e.closure.opens) == len(generate_topology(
        8, [sum(1 << v for v in range(8) if not (v >> i) & 1) for i in range(3)]).opens)


def test_embed_sierpinski():
    e = _embed(sierpinski_presentation())
    assert e.image_vectors == e.closure_vectors == (0, 1)
    assert e.image == e.closure
    assert iso_check(e.image, space_from_opens(2, (0, 1, 3))) is not None


def test_embed_partition2():
    e = _embed(partition_fragment(2))
    assert e.image_vectors == (1, 2) and e.closure_vectors == (1, 2, 3)
    assert e.eval == (1, 0)
    assert e.image.opens == (0, 1, 2, 3)  # two evaluation classes, separated


def test_embed_empty_family():
    e = _embed(SpacePresentation(OMEGA, (), (0,)))
    assert e.image_vectors == (0,) and e.image == space_from_opens(1, (0, 1))
    assert e.eval == (0,)


@pytest.mark.parametrize("p", [
    chain_fragment(1), chain_fragment(2), chain_fragment(3),
    pointed_chain_fragment(3), partition_fragment(2), sierpinski_presentation(),
])
def test_closure_matches_full_cube_oracle(p):
    # independent oracle: compute the whole dyad power as one finite space
    # and take the ordinary closure of the image points inside it
    e = _embed(p)
    k = len(e.family.maps)
    cube = generate_topology(
        1 << k, [sum(1 << v for v in range(1 << k) if not (v >> i) & 1)
                 for i in range(k)])
    img_mask = sum(1 << v for v in e.image_vectors)
    assert closure(cube, img_mask) == sum(1 << v for v in e.closure_vectors)
    sub, pts = subspace(cube, sum(1 << v for v in e.closure_vectors))
    assert tuple(pts) == e.closure_vectors and sub == e.closure
    sub, pts = subspace(cube, img_mask)
    assert tuple(pts) == e.image_vectors and sub == e.image


def test_image_vectors_inside_closure(corpus_models):
    for name, p, m in corpus_models:
        fam = dyad_family_of(p)
        try:
            e = dcomp_embed(m, fam)
        except SizeCapExceeded:
            continue  # closure too wide for a finite space; capped by contract
        assert set(e.image_vectors) <= set(e.closure_vectors), name
        assert all(0 <= j < len(e.image_vectors) for j in e.eval), name


def test_vectors_match_the_full_scan(corpus_models):
    # signature image, grown closure and sample evaluation against the scan
    # of all 2**k vectors, on every corpus model and every shipped file; a
    # closure past the point cap would be refused, and the scan would confirm
    # it is that wide; every closure here fits, discrete4's 48 points too
    shipped = []
    for path in sorted(PRES.glob("*.top")):
        p = parse_presentation(path.read_text()).presentation()
        shipped.append((path.name, p, build_star(p)))
    refused = []
    for name, p, m in corpus_models + shipped:
        fam = dyad_family_of(p)
        image, closure_vectors, ev = dyad_vectors_by_scan(m, fam)
        if len(closure_vectors) > MAX_POINTS:
            with pytest.raises(SizeCapExceeded, match="dyad closure"):
                dcomp_embed(m, fam)
            refused.append(name)
            continue
        e = dcomp_embed(m, fam)
        assert (e.image_vectors, e.closure_vectors, e.eval) == (image, closure_vectors, ev), name
    assert refused == []


def test_eval_injective_iff_samples_monad_separated():
    from topolab.fintop import monad
    cases = [chain_fragment(3), pointed_chain_fragment(2), partition_fragment(2),
             SpacePresentation(OMEGA, partition_fragment(2).subbase, (0, 1, 2, 3))]
    for p in cases:
        m = build_star(p)
        e = dcomp_embed(m, dyad_family_of(p))
        separated = len({monad(m.space, a) for a in m.embedding}) == len(m.embedding)
        assert (len(set(e.eval)) == len(e.eval)) == separated
    big = _embed(cases[3])
    assert big.eval == (1, 0, 1, 0)  # evens collapse, odds collapse


@pytest.mark.parametrize("p", [
    chain_fragment(1), chain_fragment(2), chain_fragment(3), chain_fragment(4),
    pointed_chain_fragment(3), partition_fragment(2), sierpinski_presentation(),
])
def test_crosscheck_embeds_and_matches(p):
    m = build_star(p)
    rep = dcomp_crosscheck(m, dcomp_embed(m, dyad_family_of(p)))
    assert rep.homeomorphic
    assert rep.iso is not None and sorted(rep.iso) == list(range(rep.target.n))


def test_certificate_agrees_with_the_homeomorphism_search(named_models):
    # on every model whose closure fits: the certificate holds iff the
    # search finds a homeomorphism, and its map sends opens onto opens
    checked = 0
    for name, m in named_models:
        p = m.presentation
        try:
            emb = dcomp_embed(m, dyad_family_of(p))
        except SizeCapExceeded:
            continue
        rep = dcomp_crosscheck(m, emb)
        assert rep.homeomorphic == (iso_check(rep.target, rep.image) is not None), name
        assert rep.homeomorphic, name
        mapped = {sum(1 << rep.iso[x] for x in range(rep.target.n) if (o >> x) & 1)
                  for o in rep.target.opens}
        assert mapped == set(rep.image.opens), name
        checked += 1
    assert checked > 390


@pytest.mark.parametrize("p", [
    chain_fragment(3), pointed_chain_fragment(3), partition_fragment(2),
    sierpinski_presentation(),
])
def test_crosscheck_rejects_a_family_that_drops_a_subbase_set(p):
    m = build_star(p)
    rep = dcomp_crosscheck(m, dcomp_embed(m, DyadFamily(p.subbase[:-1])))
    assert not rep.homeomorphic and rep.iso is None
    assert iso_check(rep.target, rep.image) is None


def test_crosscheck_cap_on_wide_closure():
    # the six generators of discrete3 give a 20-point closure and the eight
    # of discrete4 a 48-point one, both inside the point cap, the only cap
    # on a closure; the crosscheck answers on both
    m = build_star(discrete_fragment(3))
    emb = dcomp_embed(m, dyad_family_of(m.presentation))
    assert len(emb.closure_vectors) == 20 and len(emb.closure.opens) == 1907
    assert dcomp_crosscheck(m, emb).homeomorphic
    m = build_star(discrete_fragment(4))
    emb = dcomp_embed(m, dyad_family_of(m.presentation))
    assert len(emb.closure_vectors) == 48 and emb.closure.n == 48
    assert dcomp_crosscheck(m, emb).homeomorphic
