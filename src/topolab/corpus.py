"""Stock presentations and spaces for the CLI, the README and the tests.

The chain fragments present the upper topology on an initial stretch of
the naturals; the pointed variants adjoin a point (encoded 0) whose only
neighbourhood is everything, the finite approximation of a point at
infinity.  The discrete fragment presents discrete counting with
singleton opens and their complements, and the partition presentations
present periodic decompositions whose subbase is complement-closed.
The named corpus of presentations and maps that the tests run over is
built from these in tests/corpus.py.
"""
from __future__ import annotations

from .fintop import FinSpace, generate_topology
from .setalg import OMEGA, DefSet, Ground, ds_combine
from .star import SpacePresentation


def chain_fragment(k: int, shift: int = 0) -> SpacePresentation:
    """Upper-topology fragment: subbase G_n = {1+shift, ..., n+shift} for
    n = 1..k, samples 1+shift..k+shift.  The shifted variants exist so a
    shift map can stay algebra-compatible between source and target."""
    if k < 1:
        raise ValueError("need k >= 1")
    subbase = tuple(DefSet.from_members(OMEGA, range(1 + shift, n + 1 + shift))
                    for n in range(1, k + 1))
    return SpacePresentation(OMEGA, subbase, tuple(range(1 + shift, k + 1 + shift)))


def pointed_chain_fragment(k: int) -> SpacePresentation:
    """Chain fragment with the extra sample 0 playing the point at infinity:
    0 lies in no subbase set, so its only fragment neighbourhood is the
    whole ground."""
    base = chain_fragment(k)
    return SpacePresentation(OMEGA, base.subbase, (0,) + base.samples)


def discrete_fragment(k: int) -> SpacePresentation:
    """Discrete counting fragment: singletons {1}..{k} and their complements,
    samples 1..k."""
    if k < 1:
        raise ValueError("need k >= 1")
    subbase = []
    for i in range(1, k + 1):
        single = DefSet.from_members(OMEGA, (i,))
        subbase.append(single)
        subbase.append(ds_combine("complement", single))
    return SpacePresentation(OMEGA, tuple(subbase), tuple(range(1, k + 1)))


def partition_fragment(modulus: int, with_unions: bool = False) -> SpacePresentation:
    """Residue classes mod `modulus` as a complement-closed subbase; samples
    are one representative per class.  With `with_unions` the pairwise
    unions are adjoined too (still complement-closed for modulus 3)."""
    if modulus < 2:
        raise ValueError("need modulus >= 2")
    classes = [DefSet.arithmetic(OMEGA, r, modulus) for r in range(modulus)]
    subbase = list(classes)
    if with_unions:
        for i in range(modulus):
            for j in range(i + 1, modulus):
                subbase.append(ds_combine("union", classes[i], classes[j]))
    return SpacePresentation(OMEGA, tuple(subbase), tuple(range(modulus)))


def finite_discrete(n: int) -> SpacePresentation:
    g = Ground(n)
    return SpacePresentation(
        g, tuple(DefSet.from_members(g, (i,)) for i in range(n)), tuple(range(n)))


def sierpinski_presentation() -> SpacePresentation:
    g = Ground(2)
    return SpacePresentation(g, (DefSet.from_members(g, (0,)),), (0, 1))


def chain_space(n: int) -> FinSpace:
    """The n-point chain: opens are the initial segments {0..i}."""
    return generate_topology(n, [(1 << (i + 1)) - 1 for i in range(n)])
