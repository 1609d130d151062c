"""Compactification via evaluation into powers of the two-point dyad.

Each fragment open G gives a continuous characteristic map into the dyad
(0 inside G, 1 outside).  A finite family of such maps evaluates the
ground into the product of dyads; the realized value vectors are decided
exactly through algebra-cell nonemptiness, so tails and other points no
sample sees still contribute their vectors.  Both the image subspace and
its product-closure are returned, and a crosscheck certifies that the
image is the T0 reflection of the star model.
"""
from __future__ import annotations

from typing import Sequence

from ._record import Record, _set
from .errors import FamilyTooLarge, GroundMismatch, SizeCapExceeded
from .fintop import MAX_POINTS, FinSpace, generate_topology, is_homeomorphism, t0_reflection
# unused here, but topobench's tracer self-test checks that this binding is patched
from .setalg import DefSet, ds_combine  # noqa: F401
from .star import SpacePresentation, StarModel, is_fragment_open, star_of

FAMILY_CAP = 16


class DyadFamily(Record):
    """Characteristic maps into the dyad, one per listed set; the map of G
    sends x to 0 iff x ∈ G, so continuity is exactly G being fragment-open."""

    __slots__ = ("maps",)

    def __init__(self, maps: Sequence[DefSet]):
        _set(self, "maps", tuple(maps))
        self.__post_init__()

    def __post_init__(self):
        grounds = {g.ground for g in self.maps}
        if len(grounds) > 1:
            raise GroundMismatch("family members span several grounds")


def dyad_family_of(p: SpacePresentation) -> DyadFamily:
    """The canonical family: one characteristic map per subbase generator."""
    return DyadFamily(p.subbase)


def check_family_continuous(m: StarModel, fam: DyadFamily) -> bool:
    """Each member's 0-preimage must be open in the fragment topology."""
    return all(is_fragment_open(m, g) for g in fam.maps)


class DyadEmbedding(Record):
    """Evaluation result: realized vectors, their subspace of the dyad power,
    the product-closure subspace, and where the samples land."""

    __slots__ = ("family", "image_vectors", "image", "closure_vectors", "closure", "eval")

    def __init__(self, family: DyadFamily, image_vectors: tuple[int, ...], image: FinSpace,
                 closure_vectors: tuple[int, ...], closure: FinSpace, eval: tuple[int, ...]):
        _set(self, "family", family)
        _set(self, "image_vectors", image_vectors)
        _set(self, "image", image)
        _set(self, "closure_vectors", closure_vectors)
        _set(self, "closure", closure)
        _set(self, "eval", eval)


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


def _atom_signatures(m: StarModel, fam: DyadFamily) -> list[int]:
    """Per atom, its value vector: bit i is set iff it lies outside fam.maps[i]."""
    member_masks = [star_of(m, g) for g in fam.maps]
    return [sum(1 << i for i, mask in enumerate(member_masks) if not (mask >> a) & 1)
            for a in range(len(m.atoms))]


def dcomp_embed(m: StarModel, fam: DyadFamily) -> DyadEmbedding:
    """Evaluate the family over the whole ground of m's presentation.

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
    signatures = _atom_signatures(m, fam)
    image_vectors = tuple(sorted(set(signatures)))
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
    # a sample's singleton is its atom, so its vector is that atom's signature
    ev = tuple(vec_index[signatures[a]] for a in m.embedding)
    return DyadEmbedding(fam, image_vectors, image, closure_vectors, clo, ev)


class CrosscheckReport(Record):
    """The T0 target, the dyad image and, when they are homeomorphic, the
    homeomorphism as the image index of each target point."""

    __slots__ = ("target", "image", "homeomorphic", "iso")

    def __init__(self, target: FinSpace, image: FinSpace, homeomorphic: bool,
                 iso: tuple[int, ...] | None):
        _set(self, "target", target)
        _set(self, "image", image)
        _set(self, "homeomorphic", homeomorphic)
        _set(self, "iso", iso)


def dcomp_crosscheck(m: StarModel, emb: DyadEmbedding) -> CrosscheckReport:
    """Certify that the T0-reflected model m is homeomorphic to the image of
    its embedding emb.

    Each T0 class goes to the value vector of its atoms under the
    embedding's family.  The report is homeomorphic, with that map as
    `iso`, iff the map is well defined, a bijection onto `image_vectors`,
    and sends each monad of the quotient onto the image's monad at the
    image point, which makes it a homeomorphism: O(n²).

    For the canonical family all three hold.  A monad is the intersection
    of the subbase sets around its atom.  So atoms with one vector share
    a monad, and atoms a, b with one monad lie in each other's subbase
    sets, so share a vector.  The map is thus well defined and injective,
    and onto because the image vectors are the atom vectors.  The images
    of the subbase sets generate the quotient's opens (the model's opens
    are saturated), and the image of set i goes onto the cylinder
    {v : bit i of v is 0}; those cylinders generate the image's opens.
    """
    q = t0_reflection(m.space)
    pairs = set(zip(q.assign, _atom_signatures(m, emb.family)))
    vector_of = dict(pairs)
    # one vector per class, and each image vector from exactly one class
    homeomorphic = (len(pairs) == len(vector_of)
                    and sorted(vector_of.values()) == list(emb.image_vectors))
    iso = None
    if homeomorphic:
        index = {v: j for j, v in enumerate(emb.image_vectors)}
        iso = tuple(index[vector_of[c]] for c in range(q.target.n))
        homeomorphic = is_homeomorphism(q.target, emb.image, iso)
    return CrosscheckReport(q.target, emb.image, homeomorphic, iso if homeomorphic else None)
