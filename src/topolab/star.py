"""Fragment model of the extension of a presented space.

A presentation picks a ground set, finitely many definable opens (the
subbase) and finitely many sample points.  The model's points are the
atoms of the algebra generated by the subbase together with the sample
singletons; the model topology is generated by the star sets of the
fragment opens.  Standard points are the singleton atoms of samples, so
the ground embeds where it is sampled, and every Boolean identity of the
star map is machine-checkable by quantifying over atoms.

The adherence of an atom is read off the monads: the samples whose monad
holds it.  The retraction sends each atom to the samples whose closure
matches its adherence; it fails, with the atom as witness, when no
sample closure does.  Those samples always share one monad.

Definable ground-to-ground maps extend to atom maps functorially; the
preimage of every target generator must land in (the algebra of) the
source, which is what replaces measurability at this scale.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

from . import fintop
from ._record import Record, _set
from .errors import (
    AtomCapExceeded,
    GroundMismatch,
    NoRetraction,
    NotInAlgebra,
    PeriodOverflow,
    PreimageNotInAlgebra,
    SampleImageNotSample,
    SampleNotInGround,
)
from .fintop import FinSpace, generate_topology
from .setalg import (
    GENERATOR_CAP,
    PERIOD_CAP,
    DefSet,
    Ground,
    atoms_of,
    ds_combine,
    ds_window,
)


class SpacePresentation(Record):
    """Ground set, subbase of definable opens, and designated sample points."""

    __slots__ = ("ground", "subbase", "samples")

    def __post_init__(self):
        _set(self, "subbase", tuple(self.subbase))
        _set(self, "samples", tuple(self.samples))
        for g in self.subbase:
            if g.ground != self.ground:
                raise GroundMismatch(f"subbase set over {g.ground!r}, not {self.ground!r}")
        seen = set()
        for s in self.samples:
            if s in seen:
                raise ValueError(f"duplicate sample {s}")
            seen.add(s)
            if s not in self.ground:
                raise SampleNotInGround(f"sample {s} outside {self.ground!r}")

    def sample_misses(self) -> list[int]:
        """Indices of nonempty subbase sets containing no sample (warning-level)."""
        return [i for i, g in enumerate(self.subbase)
                if not g.is_empty and not any(s in g for s in self.samples)]


class Frame(Record):
    """The atoms of one model over their common window (threshold, period).

    words[i] is atom i redescribed over that window and packed as one
    int, `low | residues << threshold`.  Every union of atoms fits the
    window, so a set fits it exactly when its canonical threshold is at
    most `threshold` and its period divides `period`, and membership in
    the algebra becomes a mask test on the packed words.
    """

    __slots__ = ("threshold", "period", "words")

    @staticmethod
    def of(atoms: Sequence[DefSet]) -> "Frame":
        """No period check: `atoms_of` held this window, its generators', to PERIOD_CAP."""
        t = max((a.threshold for a in atoms), default=0)
        p = math.lcm(*(a.period for a in atoms))
        return Frame(t, p, tuple(ds_window(a, t, p) for a in atoms))

    def mask_of(self, a: DefSet) -> int:
        """Atoms below a, as a mask; NotInAlgebra unless a is their union."""
        if a.threshold <= self.threshold and self.period % a.period == 0:
            word = ds_window(a, self.threshold, self.period)
            mask = cover = 0
            for i, w in enumerate(self.words):
                if not w & ~word:
                    mask |= 1 << i
                    cover |= w
            if cover == word:
                return mask
        raise NotInAlgebra(f"{a.describe()} is not a union of model atoms")

    def union_of(self, ground: Ground, mask: int) -> DefSet:
        word = 0
        for i, w in enumerate(self.words):
            if (mask >> i) & 1:
                word |= w
        t = self.threshold
        return DefSet(ground, word & ((1 << t) - 1), t, self.period, word >> t)


class StarModel(Record):
    """Atoms, their space under the star topology, and the sample embedding.

    labels[i] is the sample whose singleton is atom i, or None for a
    nonstandard atom; by construction no atom properly contains a sample.
    """

    __slots__ = ("presentation", "atoms", "space", "embedding", "labels", "frame")

    @property
    def standard_mask(self) -> int:
        out = 0
        for i in self.embedding:
            out |= 1 << i
        return out

    def union_of(self, mask: int) -> DefSet:
        """The ground set that a mask of atoms stands for."""
        return self.frame.union_of(self.presentation.ground, mask)


def build_star(p: SpacePresentation) -> StarModel:
    """Construct the fragment model of p.

    Atoms come from the subbase plus one singleton per sample, so each
    sample owns an atom and the embedding is injective.  Model opens are
    the star masks of the fragment topology, i.e. of the closure of the
    subbase under intersection and union with the empty and full sets.
    """
    singles = tuple(DefSet.from_members(p.ground, (s,)) for s in p.samples)
    gens = p.subbase + singles
    if len(gens) > GENERATOR_CAP:
        raise AtomCapExceeded(
            f"{len(gens)} generators (subbase + samples) exceed cap {GENERATOR_CAP}")
    atoms = tuple(atoms_of(gens, p.ground))
    index = {a: i for i, a in enumerate(atoms)}
    n = len(atoms)
    frame = Frame.of(atoms)
    space = generate_topology(n, [frame.mask_of(g) for g in p.subbase])
    embedding = tuple(index[s] for s in singles)
    labels: list[int | None] = [None] * n
    for pos, s in enumerate(p.samples):
        labels[embedding[pos]] = s
    return StarModel(p, atoms, space, embedding, tuple(labels), frame)


def star_of(m: StarModel, a: DefSet) -> int:
    """Atoms below a, as a mask; a must be a union of atoms (algebra member)."""
    if a.ground != m.presentation.ground:
        raise GroundMismatch(f"{a.ground!r} vs {m.presentation.ground!r}")
    return m.frame.mask_of(a)


def model_monad(m: StarModel, atom: int) -> int:
    return fintop.monad(m.space, atom)


def adherence(m: StarModel, atom: int) -> frozenset[int]:
    """Samples adherent to the ultrafilter trace of an atom: every
    fragment-open neighbourhood of the sample meets every algebra member
    holding the atom.

    The atom's singleton is such a member, and a neighbourhood that meets
    it meets them all, so these are the samples whose monad holds the atom.
    """
    if not 0 <= atom < len(m.atoms):
        raise ValueError(f"atom {atom} outside the model")
    return frozenset(s for s, a in zip(m.presentation.samples, m.embedding)
                     if (model_monad(m, a) >> atom) & 1)


class RetractionMap(Record):
    """Atom → class of samples with matching closure; identity on standard
    atoms."""

    __slots__ = ("model", "assign")


def retraction(m: StarModel) -> RetractionMap:
    """Standard-part map on atoms.

    Each atom goes to the samples x whose sample closure cl{x} ∩ samples
    equals the atom's adherence, and NoRetraction names the first atom
    with none.  cl{x} ∩ samples is adherence(m, atom of x), since y lies
    in cl{x} iff the atom of x lies in the monad of the atom of y.

    The samples sent to one atom share a monad.  If x and y have equal
    sample closures, x lies in cl{y} and y in cl{x}.  In a finite space
    x in cl{y} means y in monad(x), so monad(y) ⊆ monad(x), and the
    other way round gives equality.

    The map r into the T0 quotient of the sample space (`sample_space`),
    each atom to the class of its samples, is continuous, so it is not
    checked.  An open is the union of the monads of its points, so it is
    enough that k in monad(i) and r(i) in an open U put r(k) in U.  Write
    adh for adherence.  A sample monad that holds i is open, so it holds
    monad(i) and k: adh(k) ⊇ adh(i).  For y in r(i) and y' in r(k) that
    reads cl{y} ⊆ cl{y'} on the samples, so y lies in cl{y'}, and the
    continuous quotient map keeps this: r(i) lies in the closure of r(k),
    so every open around r(i) holds r(k).  Hence each target monad pulls
    back to an open.

    r fixes the standard part, so that is not checked either: each sample
    x is put in by_closure[adherence(m, η(x))], with η(x) its atom, and
    that is exactly the class that r assigns to η(x) (which is therefore
    never a NoRetraction witness).
    """
    samples = m.presentation.samples
    by_closure: dict[frozenset[int], list[int]] = {}
    for x, a in zip(samples, m.embedding):
        by_closure.setdefault(adherence(m, a), []).append(x)
    assign: list[frozenset[int]] = []
    for i in range(len(m.atoms)):
        adh = adherence(m, i)
        if adh not in by_closure:
            raise NoRetraction(i, f"adherence {sorted(adh)} matches no sample closure")
        assign.append(frozenset(by_closure[adh]))
    return RetractionMap(m, tuple(assign))


def star_identity_violations(m: StarModel) -> list[str]:
    """Certify the star identities over the whole algebra.

    The identities: star of the empty set is empty, star of the ground is
    every atom, and star of a union / intersection / difference /
    complement is the mask union / intersection / difference / complement,
    where star(a) is the set of atoms inside a.

    With k atoms the check makes k(k-1)/2 meets, k unions and k star_of
    calls, whatever the open count.  It tests that
      (1) the atoms are nonempty, pairwise disjoint and cover the ground,
          so each point p lies in exactly one atom, atom(p);
      (2) star_of(atom_i) is {i} for each i.
    Proof that the identities then hold for every pair of unions of atoms:
    by (2), mask_of(atom_i) = {i}, so frame word i is the (threshold,
    period) window of atom i, and by (1) the words are nonempty and
    pairwise disjoint.  The window of a union is the OR of the windows, so
    for every union a of the atoms in s, star_of(a) is s and union_of(s)
    is a.  By (1), p is in a iff atom(p) is in star(a), since p lies in no
    other atom.  So for each Boolean operation o, p is in a o b iff atom(p)
    is in star(a) o star(b); hence a o b is the union of the atoms in
    star(a) o star(b), and star(a o b) is that mask.  The empty set and the
    ground are the unions of no atom and of every atom.
    """
    ground = m.presentation.ground
    out = []
    cover = DefSet.empty(ground)
    for i, atom in enumerate(m.atoms):
        if atom.is_empty:
            out.append(f"atom {i} is empty")
        for j in range(i):
            if not ds_combine("inter", m.atoms[j], atom).is_empty:
                out.append(f"atoms {j} and {i} overlap")
        cover = ds_combine("union", cover, atom)
    if cover != DefSet.full(ground):
        out.append("the atoms miss part of the ground")
    for i, atom in enumerate(m.atoms):
        try:
            alone = star_of(m, atom) == 1 << i
        except NotInAlgebra:
            alone = False
        if not alone:
            out.append(f"star of atom {i} is not atom {i} alone")
    return out


def is_fragment_open(m: StarModel, a: DefSet) -> bool:
    """Whether a is a fragment open: a union of atoms whose star is a model open."""
    try:
        s = star_of(m, a)
    except (NotInAlgebra, GroundMismatch):
        return False
    return m.space.is_open(s) and m.union_of(s) == a


class CoverageReport(Record):
    __slots__ = ("covered", "uncovered")


def robinson_coverage(m: StarModel) -> CoverageReport:
    """Which atoms miss every standard monad.

    An uncovered atom certifies the fragment topology is not compact;
    full coverage is evidence relative to this fragment only.
    """
    hit = 0
    for i in m.embedding:
        hit |= model_monad(m, i)
    uncovered = tuple(i for i in range(len(m.atoms)) if not (hit >> i) & 1)
    return CoverageReport(not uncovered, uncovered)


def sandwich_violations(m: StarModel) -> Iterator[tuple[int, int]]:
    """Nested fragment opens G ⊆ V where star(G) ⊆ ∪{monad(η(x)) : x ∈ G∩samples}
    ⊆ star(V) fails, yielded lazily.  Meaningful when robinson_coverage holds; the caller gates.

    The right inclusion always holds: η(x) for a sample x in G is an atom of
    the open G, so its monad lies in G, and G ⊆ V.  The left one does not
    involve V.  The spread of G, that union of monads, keeps unions, and an
    open is the union of the monads of its points, so every open lies in its
    spread iff every monad does.  Only when a monad does not are the pairs
    listed, in the order of the definition's scan.
    """
    def spread(g: int) -> int:
        out = 0
        for a in m.embedding:
            if (g >> a) & 1:
                out |= model_monad(m, a)
        return out

    monads = [model_monad(m, x) for x in range(len(m.atoms))]
    if any(mx & ~spread(mx) for mx in monads):
        opens = m.space.opens
        yield from ((g, v) for g in opens if g & ~spread(g) for v in opens if not g & ~v)


def density_violations(m: StarModel) -> list[int]:
    """The least nonempty model open with no standard atom, in a list of at
    most one; empty when sample-hitting holds.  Such an open holds the monad
    of each of its points, which misses the standard atoms too and is at
    most the open as a number, so the least one is a monad."""
    std = m.standard_mask
    return sorted(mx for mx in m.space.monads if not mx & std)[:1]


def sample_space(m: StarModel) -> FinSpace:
    """The samples, numbered by position, with their fragment topology.

    Its opens are the traces on the samples of the fragment opens.  Each is
    the image of a union of model monads, so the images of the monads
    generate them."""
    samples = m.presentation.samples
    in_atom = [sum(1 << j for j, s in enumerate(samples) if s in a) for a in m.atoms]
    images = []
    for i in range(len(m.atoms)):
        mask, image = model_monad(m, i), 0
        for k, bits in enumerate(in_atom):
            if (mask >> k) & 1:
                image |= bits
        images.append(image)
    return generate_topology(len(samples), images)


# -- definable maps ---------------------------------------------------

Rule = tuple[str, int]


class DefMap(Record):
    """Total map on the ground: a table on [0, threshold), then per residue
    class r mod len(rules) either ("const", c) or ("shift", d)."""

    __slots__ = ("ground", "table", "rules")
    _defaults = {"rules": ()}

    def __post_init__(self):
        _set(self, "table", tuple(self.table))
        _set(self, "rules", tuple(self.rules))
        if self.ground.is_finite:
            if self.rules:
                raise ValueError("finite-ground maps are plain tables")
            if len(self.table) != self.ground.size:
                raise ValueError("table must cover the whole finite ground")
        else:
            if not self.rules:
                raise ValueError("maps on the infinite ground need residue rules")
            if len(self.rules) > PERIOD_CAP:
                raise PeriodOverflow(f"period {len(self.rules)} exceeds cap {PERIOD_CAP}")
        if any(v < 0 for v in self.table):
            raise ValueError("table values must be natural numbers")
        t, p = self.threshold, self.period
        for r, (kind, arg) in enumerate(self.rules):
            if kind == "const":
                if arg < 0:
                    raise ValueError("constant values must be natural numbers")
            elif kind == "shift":
                first = t + ((r - t) % p)
                if first + arg < 0:
                    raise ValueError(f"shift {arg} drops class {r} below zero")
            else:
                raise ValueError(f"unknown rule kind {kind!r}")

    @property
    def threshold(self) -> int:
        return len(self.table)

    @property
    def period(self) -> int:
        return max(len(self.rules), 1)

    def __call__(self, m: int) -> int:
        if m not in self.ground:
            raise ValueError(f"{m} outside {self.ground!r}")
        if m < len(self.table):
            return self.table[m]
        kind, arg = self.rules[m % len(self.rules)]
        return arg if kind == "const" else m + arg

    @staticmethod
    def identity(ground: Ground) -> "DefMap":
        if ground.is_finite:
            return DefMap(ground, tuple(range(ground.size)))
        return DefMap(ground, (), (("shift", 0),))

    @staticmethod
    def constant(ground: Ground, c: int) -> "DefMap":
        if ground.is_finite:
            return DefMap(ground, (c,) * ground.size)
        return DefMap(ground, (), (("const", c),))

    @staticmethod
    def shift(ground: Ground, d: int) -> "DefMap":
        """m ↦ m + d; for negative d the first -d points map to 0."""
        if ground.is_finite:
            return DefMap(ground, tuple(min(max(m + d, 0), ground.size - 1)
                                        for m in range(ground.size)))
        table = tuple(0 for _ in range(max(0, -d)))
        return DefMap(ground, table, (("shift", d),))


def dm_compose(g: DefMap, f: DefMap) -> DefMap:
    """g after f.  Both maps must live on the same kind of ground."""
    if f.ground.is_finite != g.ground.is_finite:
        raise GroundMismatch("cannot compose across ground kinds")
    if f.ground.is_finite:
        return DefMap(f.ground, tuple(g(f(m)) for m in range(f.ground.size)))
    p = math.lcm(f.period, g.period)
    if p > PERIOD_CAP:
        raise PeriodOverflow(f"composite period {p} exceeds cap {PERIOD_CAP}")
    t = f.threshold
    for r, (kind, arg) in enumerate(f.rules):
        if kind == "shift":
            # beyond t the g-rule must apply to f's output on this class
            t = max(t, g.threshold - arg)
    table = tuple(g(f(m)) for m in range(t))
    rules: list[Rule] = []
    for r in range(p):
        kind, arg = f.rules[r % f.period]
        if kind == "const":
            rules.append(("const", g(arg)))
            continue
        first = t + ((r - t) % p)
        gkind, garg = g.rules[(first + arg) % g.period]
        rules.append(("const", garg) if gkind == "const" else ("shift", arg + garg))
    return DefMap(f.ground, table, tuple(rules))


def ds_preimage(f: DefMap, b: DefSet) -> DefSet:
    """f⁻¹(b) as a definable set over f's ground."""
    src = f.ground
    if src.is_finite:
        return DefSet.from_predicate(src, lambda m: f(m) in b, src.size)
    t = f.threshold
    for r, (kind, arg) in enumerate(f.rules):
        if kind == "shift":
            t = max(t, b.threshold - arg)
    p = math.lcm(f.period, b.period)
    if p > PERIOD_CAP:
        raise PeriodOverflow(f"preimage period {p} exceeds cap {PERIOD_CAP}")
    return DefSet.from_predicate(src, lambda m: f(m) in b, t, p)


class StarMap(Record):
    """Induced atom map between two models, with its continuity verdict."""

    __slots__ = ("src", "dst", "atom_map", "continuous")

    def __call__(self, atom: int) -> int:
        return self.atom_map[atom]


def _check_range(f: DefMap, dst: Ground) -> None:
    if dst.is_finite:
        size = dst.size
        if any(v >= size for v in f.table):
            raise GroundMismatch(f"map value outside {dst!r}")
        for kind, arg in f.rules:
            if kind == "const":
                if arg >= size:
                    raise GroundMismatch(f"map value {arg} outside {dst!r}")
            else:
                raise GroundMismatch(f"a shift rule cannot land inside {dst!r}")


def star_map(f: DefMap, sm: StarModel, dm: StarModel) -> StarMap:
    """Extend f to atoms: each source atom goes to the unique target atom
    with the same membership signature across the target generators'
    preimages.  Verifies sample preservation and that every preimage stays
    inside the source algebra; reports continuity of the induced map.

    The signature lookup cannot fail.  Take a point p of source atom i.
    Each generator's preimage is a union of source atoms (otherwise
    PreimageNotInAlgebra is raised), so f(p) lies in generator j exactly
    when bit j of atom i's signature is set.  The target atoms are the
    nonempty cells of the generators, and f(p) lies in the target ground,
    so the target atom holding f(p) has that signature.
    """
    src, dst = sm.presentation, dm.presentation
    if f.ground != src.ground:
        raise GroundMismatch(f"map over {f.ground!r}, source over {src.ground!r}")
    _check_range(f, dst.ground)
    for s in src.samples:
        if f(s) not in dst.samples:
            raise SampleImageNotSample(s, f(s))
    dst_gens = dst.subbase + tuple(
        DefSet.from_members(dst.ground, (s,)) for s in dst.samples)
    pre_masks = []
    for j, gen in enumerate(dst_gens):
        pre = ds_preimage(f, gen)
        try:
            pre_masks.append(star_of(sm, pre))
        except NotInAlgebra as exc:
            raise PreimageNotInAlgebra(j, str(exc)) from exc
    gen_masks = [dm.frame.mask_of(gen) for gen in dst_gens]
    dst_signature = {}
    for b in range(len(dm.atoms)):
        sig = tuple(bool((mask >> b) & 1) for mask in gen_masks)
        dst_signature[sig] = b
    atom_map = [dst_signature[tuple(bool((mask >> i) & 1) for mask in pre_masks)]
                for i in range(len(sm.atoms))]
    # preimages keep unions and each open is a union of monads
    monads = [model_monad(dm, b) for b in range(len(dm.atoms))]
    continuous = all(
        sm.space.is_open(sum(1 << i for i, j in enumerate(atom_map) if (mb >> j) & 1))
        for mb in monads)
    return StarMap(sm, dm, tuple(atom_map), continuous)


def fragment_continuous(f: DefMap, sm: StarModel, dm: StarModel) -> bool:
    """Ground-level continuity: preimages of target fragment opens are source
    fragment opens (as definable sets).

    Only the target monads are pulled back: preimages keep unions, the
    target fragment opens are the unions of the monads' sets, and the
    source fragment opens are closed under union.
    """
    return all(is_fragment_open(sm, ds_preimage(f, dm.union_of(model_monad(dm, b))))
               for b in range(len(dm.atoms)))
