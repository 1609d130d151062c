"""The named corpus the tests run over: stock presentations, maps between
them, and the full-algebra presentation of any finite space."""
from topolab.corpus import (
    chain_fragment,
    discrete_fragment,
    finite_discrete,
    partition_fragment,
    pointed_chain_fragment,
    sierpinski_presentation,
)
from topolab.fintop import FinSpace, monad
from topolab.setalg import OMEGA, DefSet, Ground
from topolab.star import DefMap, SpacePresentation


def presentation_of_space(s: FinSpace) -> SpacePresentation:
    """Present a finite space with its full algebra: subbase = the distinct
    monads (they generate the topology), samples = every point (their
    singletons force the algebra to be the whole power set)."""
    g = Ground(s.n)
    seen = []
    for x in range(s.n):
        mask = monad(s, x)
        if mask not in seen:
            seen.append(mask)
    subbase = tuple(DefSet(g, mask, s.n) for mask in seen)
    return SpacePresentation(g, subbase, tuple(range(s.n)))


def corpus_presentations() -> list[tuple[str, SpacePresentation]]:
    """The named infinite-ground corpus (finite enumerated presentations are
    generated separately where needed)."""
    out = [(f"chain{k}", chain_fragment(k)) for k in range(1, 5)]
    out += [(f"pointed_chain{k}", pointed_chain_fragment(k)) for k in range(1, 5)]
    out += [("discrete3", discrete_fragment(3)), ("discrete4", discrete_fragment(4))]
    out += [("partition2", partition_fragment(2)),
            ("partition3", partition_fragment(3, with_unions=True))]
    out += [("finite_discrete3", finite_discrete(3)),
            ("sierpinski", sierpinski_presentation())]
    return out


def corpus_maps() -> list[tuple[str, DefMap, SpacePresentation, SpacePresentation]]:
    """Named maps with algebra-compatible source/target presentations:
    identities, shifts between shifted chains, and collapses to the
    infinity point of a pointed chain."""
    out = []
    for k in (2, 3):
        p = chain_fragment(k)
        out.append((f"id_chain{k}", DefMap.identity(OMEGA), p, p))
    out.append(("id_finite3", DefMap.identity(Ground(3)),
                finite_discrete(3), finite_discrete(3)))
    shift1 = DefMap.shift(OMEGA, 1)
    out.append(("shift_chain3", shift1, chain_fragment(3), chain_fragment(3, shift=1)))
    out.append(("shift_chain3_again", shift1,
                chain_fragment(3, shift=1), chain_fragment(3, shift=2)))
    for k in (2, 3):
        out.append((f"collapse_chain{k}", DefMap.constant(OMEGA, 0),
                    chain_fragment(k), pointed_chain_fragment(k)))
    return out
