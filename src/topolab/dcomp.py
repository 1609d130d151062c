"""Compactification via evaluation into powers of the two-point dyad.

Each fragment open G gives a continuous characteristic map into the dyad
(0 inside G, 1 outside).  A finite family of such maps evaluates the
ground into the product of dyads; the realized value vectors are decided
exactly through algebra-cell nonemptiness, so tails and other points no
sample sees still contribute their vectors.  Both the image subspace and
its product-closure are returned, and a crosscheck compares the image
against the T0 reflection of the star model.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import FamilyTooLarge, GroundMismatch, SizeCapExceeded
from .fintop import MAX_POINTS, FinSpace, generate_topology, iso_check, subspace
# unused here, but topobench's tracer self-test checks that this binding is patched
from .setalg import DefSet, ds_combine  # noqa: F401
from .star import SpacePresentation, StarModel, build_star, star_of

DYAD = FinSpace(2, (0, 1, 3))

FAMILY_CAP = 16


@dataclass(frozen=True)
class DyadFamily:
    """Characteristic maps into the dyad, one per listed set; the map of G
    sends x to 0 iff x ∈ G, so continuity is exactly G being fragment-open."""

    maps: tuple[DefSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        grounds = {g.ground for g in self.maps}
        if len(grounds) > 1:
            raise GroundMismatch("family members span several grounds")


def dyad_family_of(p: SpacePresentation) -> DyadFamily:
    """The canonical family: one characteristic map per subbase generator."""
    return DyadFamily(p.subbase)


def check_family_continuous(p: SpacePresentation, fam: DyadFamily,
                            model: StarModel | None = None) -> bool:
    """Each member's 0-preimage must be open in the fragment topology."""
    m = model if model is not None else build_star(p)
    opens = {m.union_of(o) for o in m.space.opens}
    return all(g in opens for g in fam.maps)


@dataclass(frozen=True)
class DyadEmbedding:
    """Evaluation result: realized vectors, their subspace of the dyad power,
    the product-closure subspace, and where the samples land."""

    family: DyadFamily
    image_vectors: tuple[int, ...]
    image: FinSpace
    closure_vectors: tuple[int, ...]
    closure: FinSpace
    eval: tuple[int, ...]


def _cylinder_space(vectors: tuple[int, ...], k: int) -> FinSpace:
    """Subspace of the dyad power on the given vectors; opens are generated
    by the coordinate cylinders {v : bit i of v is 0}."""
    subbase = []
    for i in range(k):
        # one binary digit per vector, the last vector first: linear in the
        # vector count, where summing 1 << j is quadratic
        digits = "".join("0" if (v >> i) & 1 else "1" for v in reversed(vectors))
        subbase.append(int(digits or "0", 2))
    return generate_topology(len(vectors), subbase)


def dcomp_embed(p: SpacePresentation, fam: DyadFamily,
                model: StarModel | None = None) -> DyadEmbedding:
    """Evaluate the family over the whole ground.

    A value vector has bit i set iff the point is outside fam.maps[i].
    Every atom lies inside or outside each member, so all points of an
    atom share one vector, its signature, and the realized vectors are
    exactly the distinct atom signatures, never found by scanning sample
    points.  The image carries the cylinder subspace topology; the
    closure adds every vector whose minimal neighbourhood in the dyad
    power meets the image, which is the bitwise-superset test, and
    carries the same kind of subspace topology.  The closure is grown
    one bit at a time and refused as soon as it passes the point cap.
    """
    k = len(fam.maps)
    if k > FAMILY_CAP:
        raise FamilyTooLarge(f"{k} maps exceed the family cap {FAMILY_CAP}")
    m = model if model is not None else build_star(p)
    member_masks = [star_of(m, g) for g in fam.maps]
    image_vectors = tuple(sorted({
        sum(1 << i for i, mask in enumerate(member_masks) if not (mask >> a) & 1)
        for a in range(len(m.atoms))}))
    # a vector w is adherent iff some realized v has ones(v) ⊆ ones(w): the
    # minimal neighbourhood of w in the power is {u : ones(u) ⊆ ones(w)}
    closure = set(image_vectors)
    frontier = list(image_vectors)
    while frontier:
        grown = {v | 1 << i for v in frontier for i in range(k)} - closure
        closure |= grown
        if len(closure) > MAX_POINTS:
            raise SizeCapExceeded(
                f"dyad closure of {k} maps has more than {MAX_POINTS} points, "
                f"outside [0, {MAX_POINTS}]")
        frontier = list(grown)
    closure_vectors = tuple(sorted(closure))
    image = _cylinder_space(image_vectors, k)
    clo = _cylinder_space(closure_vectors, k)
    vec_index = {v: j for j, v in enumerate(image_vectors)}
    ev = []
    for s in p.samples:
        v = sum(1 << i for i, g in enumerate(fam.maps) if s not in g)
        ev.append(vec_index[v])
    return DyadEmbedding(fam, image_vectors, image, closure_vectors, clo, tuple(ev))


@dataclass(frozen=True)
class CrosscheckReport:
    target: FinSpace
    image: FinSpace
    embeds: bool
    embedding: tuple[int, ...] | None
    homeomorphic: bool
    iso: tuple[int, ...] | None


def _embedding_search(small: FinSpace, big: FinSpace) -> tuple[int, ...] | None:
    """Injective map small → big that is a homeomorphism onto its image with
    the subspace topology, by search over injections."""
    if small.n > big.n:
        return None
    for img in permutations(range(big.n), small.n):
        mask = 0
        for y in img:
            mask |= 1 << y
        sub, pts = subspace(big, mask)
        pos = {y: j for j, y in enumerate(pts)}
        mapped = {sum(1 << pos[img[x]] for x in range(small.n) if (o >> x) & 1)
                  for o in small.opens}
        if mapped == set(sub.opens):
            return img
    return None


def dcomp_crosscheck(p: SpacePresentation, cap: int | None = None, *,
                     model: StarModel | None = None,
                     embedding: DyadEmbedding | None = None) -> CrosscheckReport:
    """Compare the T0-reflected model against the canonical dyad image; a
    caller that has the model or the canonical embedding passes it in."""
    from .reflect import t0_reflection  # loads numpy, which dcomp_embed never needs
    m = model if model is not None else build_star(p, cap)
    emb = embedding if embedding is not None else dcomp_embed(p, dyad_family_of(p), m)
    q = t0_reflection(m.space)
    iso = iso_check(q.target, emb.image)
    found = tuple(iso) if iso is not None else _embedding_search(q.target, emb.image)
    return CrosscheckReport(
        target=q.target,
        image=emb.image,
        embeds=found is not None,
        embedding=found,
        homeomorphic=iso is not None,
        iso=iso,
    )
