"""Definitional checkers that pin the fast paths of topolab.

Each function transcribes a definition outright: pairwise closure of an
open family, monads as intersections of opens, the quantifiers of
regularity, complete regularity and normality over every open and closed
set, every Boolean identity of the star map over every pair of sets,
local compactness by a search over subsets and covers, and continuity
and factoring by a search over every point map.  The slower forms of
fifteen fast paths stay here too: the atoms of a generator list by a
depth-first descent that builds every cell with `ds_combine`, the
star-identity certificate that tests every listed set atom by atom, the
fragment-openness of a dyad family and the ground-level continuity of a
definable map, both tested against the ground set of every model open,
the scan of every code word for topology enumeration, the
weak-reflection sweep over every labeled target and every open, its
tables built one subset mask at a time, the scan of every dyad vector,
adherence tested against every member of an ultrafilter trace, the
homeomorphism search over every permutation of the points, the final
topology of a quotient by a scan of every target subset, continuity by
the preimage of every open, the monad sandwich over every pair of nested
opens, and the local compactness and supercompactness loops that the
finite case makes theorems.  The test that the sample space is
homeomorphic to the standard atoms stays as well, though it holds by
construction.  They are quadratic or worse in the number of opens (the
searches are exponential) and run only in the tests, where they are
compared with the packed split in `topolab.setalg`, the monad-based code
in `topolab.fintop` (the final-topology check of a quotient among it),
the per-atom certificate, the frame test of fragment-openness and the
monad adherence in `topolab.star`, the kernels in `topolab._kernels`,
the orbit sweep in `topolab.reflect`, and the signature image in
`topolab.dcomp`.
"""
import itertools
from typing import Sequence

import numpy as np

from topolab import _kernels
from topolab.errors import NotInAlgebra, SizeCapExceeded
from topolab.fintop import (
    FinSpace, QuotientMap, enumerate_topologies, is_homeomorphism, property_report,
    t0_reflection, t2_reflection)
from topolab.reflect import SweepReport
from topolab.setalg import MAX_ATOMS, DefSet, ds_combine
from topolab.star import ds_preimage, model_monad, sample_space, star_of


def is_topology(n, family):
    """Contains the empty and the full set and is closed under pairwise
    union and intersection (enough for a finite family)."""
    full = (1 << n) - 1
    fam = set(family)
    if any(o < 0 or o > full for o in fam) or 0 not in fam or full not in fam:
        return False
    return all((a | b) in fam and (a & b) in fam for a in fam for b in fam)


def generate_by_closure(n, subbase):
    """Smallest topology containing the subbase, by closing the family
    under pairwise intersection and then pairwise union until it is stable."""
    full = (1 << n) - 1
    fam = {0, full} | set(subbase)
    for close in (lambda a, b: a & b, lambda a, b: a | b):
        grew = True
        while grew:
            grew = False
            for a in list(fam):
                for b in list(fam):
                    if close(a, b) not in fam:
                        fam.add(close(a, b))
                        grew = True
    return tuple(sorted(fam))


def monads_by_opens(s):
    """The intersection of the opens around each point."""
    out = []
    for x in range(s.n):
        m = s.full
        for o in s.opens:
            if (o >> x) & 1:
                m &= o
        out.append(m)
    return tuple(out)


def interior_by_opens(opens, a):
    out = 0
    for o in opens:
        if o & ~a == 0:
            out |= o
    return out


def closure_by_opens(n, opens, a):
    full = (1 << n) - 1
    return full ^ interior_by_opens(opens, full ^ a)


def subspace(s: FinSpace, mask: int) -> tuple[FinSpace, list[int]]:
    """Subspace on the points of mask, with the point renumbering.  The
    monad of x there is its monad in s cut down to mask."""
    pts = [x for x in range(s.n) if (mask >> x) & 1]
    monads = [sum(1 << i for i, y in enumerate(pts) if (s._monads[x] >> y) & 1) for x in pts]
    return FinSpace(len(pts), (), monads), pts


def regular_witness(s):
    """First (x, V): V open around x, and no open U around x has cl(U) in V."""
    cl = {u: closure_by_opens(s.n, s.opens, u) for u in s.opens}
    for x in range(s.n):
        for v in s.opens:
            if not (v >> x) & 1:
                continue
            if not any((u >> x) & 1 and cl[u] & ~v == 0 for u in s.opens):
                return (x, v)
    return None


def completely_regular_witness(s):
    """First (x, F): F closed, x outside F, and no clopen around x misses F."""
    full = s.full
    clopens = [o for o in s.opens if (full ^ o) in s.opens]
    for f in (full ^ o for o in s.opens):
        for x in range(s.n):
            if (f >> x) & 1:
                continue
            if not any((u >> x) & 1 and u & f == 0 for u in clopens):
                return (x, f)
    return None


def normal_witness(s):
    """First (F, H): disjoint closed sets with no open G around F whose
    closure misses H."""
    full = s.full
    closed = [full ^ o for o in s.opens]
    cl = {g: closure_by_opens(s.n, s.opens, g) for g in s.opens}
    for f in closed:
        for h in closed:
            if f & h:
                continue
            if not any(f & ~g == 0 and h & cl[g] == 0 for g in s.opens):
                return (f, h)
    return None


def star_identity_pairs(m, sets):
    """Every star identity over every pair of sets: star of the empty set
    and of the ground, and star of each union, intersection, difference and
    complement against the mask operation."""
    ground = m.presentation.ground
    full = (1 << len(m.atoms)) - 1
    out = []
    if star_of(m, DefSet.empty(ground)) != 0:
        out.append("star of the empty set is nonempty")
    if star_of(m, DefSet.full(ground)) != full:
        out.append("star of the ground misses an atom")
    masks = [star_of(m, a) for a in sets]
    for i, a in enumerate(sets):
        if star_of(m, ds_combine("complement", a)) != full ^ masks[i]:
            out.append(f"complement breaks at {a.describe()}")
        for j, b in enumerate(sets):
            if star_of(m, ds_combine("union", a, b)) != masks[i] | masks[j]:
                out.append(f"union breaks at {a.describe()}, {b.describe()}")
            if star_of(m, ds_combine("inter", a, b)) != masks[i] & masks[j]:
                out.append(f"intersection breaks at {a.describe()}, {b.describe()}")
            if star_of(m, ds_combine("diff", a, b)) != masks[i] & ~masks[j] & full:
                out.append(f"difference breaks at {a.describe()}, {b.describe()}")
    return out


def atoms_by_descent(gens, ground):
    """The atoms of the generators, depth first: each cell is split into
    its intersection with the next generator and its difference from it,
    both built as DefSets by `ds_combine`, and empty cells are pruned.
    Refuses the (MAX_ATOMS + 1)-th atom with the same message as
    `atoms_of`."""
    out = []

    def descend(i, cell):
        if cell.is_empty:
            return
        if i == len(gens):
            if len(out) == MAX_ATOMS:
                raise SizeCapExceeded(
                    f"the {len(gens)} generators split the ground into more than "
                    f"{MAX_ATOMS} atoms, the point cap of a model")
            out.append(cell)
            return
        descend(i + 1, ds_combine("inter", cell, gens[i]))
        descend(i + 1, ds_combine("diff", cell, gens[i]))

    descend(0, DefSet.full(ground))
    return out


def algebra_sets(m):
    """Every member of the finite algebra, i.e. every union of atoms."""
    return [m.union_of(mask) for mask in range(1 << len(m.atoms))]


def star_identity_by_atoms(m, sets=None):
    """The star-identity certificate with every listed set tested atom by
    atom: (1) the atoms are nonempty, pairwise disjoint and cover the
    ground, (2) star_of(a) is the set of atoms whose difference with a is
    empty, and (3) a is the ds_combine union of those atoms, for the empty
    set, the ground and each listed a."""
    ground = m.presentation.ground
    if sets is None:
        if len(m.atoms) <= 6:
            sets = algebra_sets(m)
        else:
            sets = [m.union_of(o) for o in m.space.opens]
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
    for a in (DefSet.empty(ground), DefSet.full(ground), *sets):
        below = 0
        union = DefSet.empty(ground)
        for i, atom in enumerate(m.atoms):
            if ds_combine("diff", atom, a).is_empty:
                below |= 1 << i
                union = ds_combine("union", union, atom)
        try:
            star = star_of(m, a)
        except NotInAlgebra:
            star = None
        if star != below:
            out.append(f"star of {a.describe()} is not the set of atoms inside it")
        if union != a:
            out.append(f"{a.describe()} is not the union of the atoms inside it")
    return out


def family_continuous_by_opens(m, fam):
    """Whether every member of a dyad family is the ground set of some
    model open, looked up among the ground sets of all the opens."""
    opens = {m.union_of(o) for o in m.space.opens}
    return all(g in opens for g in fam.maps)


def fragment_continuous_by_opens(f, sm, dm):
    """Whether the preimage under f of the ground set of every target open
    is the ground set of some source open."""
    src_opens = {sm.union_of(o) for o in sm.space.opens}
    for o in dm.space.opens:
        if ds_preimage(f, dm.union_of(o)) not in src_opens:
            return False
    return True


def _covers_have_subcover(sub: FinSpace) -> bool:
    # literal compactness: every open cover contains a finite subcover; with
    # finitely many opens each cover is its own subcover, but evaluate anyway
    full = sub.full
    opens = sub.opens
    for r in range(len(opens) + 1):
        for combo in itertools.combinations(opens, r):
            union = 0
            for o in combo:
                union |= o
            if union == full and not any(
                    _union(c) == full for k in range(len(combo) + 1)
                    for c in itertools.combinations(combo, k)):
                return False
    return True


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def locally_compact_literal(s: FinSpace) -> bool:
    """Neighbourhood form evaluated outright: for every x and open V around x
    there is W ⊆ V, not necessarily open, with x interior to W and the
    subspace on W compact under the literal cover search.  Exponential in
    the subspace open count; only useful on small spaces, where it checks
    the reduced form used by property_report."""
    for x in range(s.n):
        for v in s.opens:
            if not (v >> x) & 1:
                continue
            found = False
            for w in range(1 << s.n):
                if w & ~v or not (interior_by_opens(s.opens, w) >> x) & 1:
                    continue
                if _covers_have_subcover(subspace(s, w)[0]):
                    found = True
                    break
            if not found:
                return False
    return True


def locally_compact_witness(s: FinSpace):
    """First (x, V): V open around x that does not hold the monad of x, so
    the monad is not a compact neighbourhood of x inside V.  The reduced
    form of local compactness that `locally_compact_literal` checks."""
    monads = monads_by_opens(s)
    for x in range(s.n):
        for v in s.opens:
            if (v >> x) & 1 and monads[x] & ~v:
                return (x, v)
    return None


def supercompact_witness(s: FinSpace):
    """First (y, x0, x): the principal ultrafilter at y has adherence cl{y},
    and the points x with that closure must share one monad with the first
    of them, x0 ("essentially unique")."""
    monads = monads_by_opens(s)
    point_cl = [closure_by_opens(s.n, s.opens, 1 << x) for x in range(s.n)]
    for y in range(s.n):
        cands = [x for x in range(s.n) if point_cl[x] == point_cl[y]]
        for x in cands:
            if monads[x] != monads[cands[0]]:
                return (y, cands[0], x)
    return None


def continuous_by_opens(a: FinSpace, b: FinSpace, point_map: Sequence[int]) -> bool:
    """Whether the preimage of every open of b under the point map is open in a."""
    return all(a.is_open(sum(1 << x for x, y in enumerate(point_map) if (o >> y) & 1))
               for o in b.opens)


def retraction_continuous_by_opens(m, r) -> bool:
    """Continuity of a retraction into the T0 quotient of the sample space,
    each atom sent to the class of the first sample it is assigned,
    testing the preimage of every open of that quotient."""
    q = t0_reflection(sample_space(m))
    samples = m.presentation.samples
    cls = [q.assign[samples.index(next(iter(a)))] for a in r.assign]
    return continuous_by_opens(m.space, q.target, cls)


def sandwich_by_opens(m):
    """Every pair of nested opens G ⊆ V of a model with star(G) ⊄ spread or
    spread ⊄ star(V), where spread is the union of the monads of the
    samples in the ground set of G, scanning every pair of opens."""
    out = []
    samples = m.presentation.samples
    monads = {i: model_monad(m, i) for i in m.embedding}
    for g in m.space.opens:
        spread = 0
        gset = m.union_of(g)
        for pos, x in enumerate(samples):
            if x in gset:
                spread |= monads[m.embedding[pos]]
        for v in m.space.opens:
            if g & ~v:
                continue
            if g & ~spread or spread & ~v:
                out.append((g, v))
    return out


def embedding_is_homeomorphic(m) -> bool:
    """The samples with their fragment topology match the standard atoms with
    the subspace topology, under the embedding.

    This holds by construction.  `sample_space` generates its topology from
    the images {s : η(s) ∈ monad(i)} of the model monads.  Its monad at j is
    the least of those holding j: η(j) ∈ monad(i) puts monad(η(j)) inside
    monad(i), so it is {s : η(s) ∈ monad(η(j))}.  That is the subspace
    monad of η(j) on the standard atoms, renamed by the injective η, and
    topologies with the same monads are equal.
    """
    sub, pts = subspace(m.space, m.standard_mask)
    pos_of_atom = {atom: j for j, atom in enumerate(pts)}
    return is_homeomorphism(sample_space(m), sub, [pos_of_atom[a] for a in m.embedding])


def relabelings(s: FinSpace) -> dict[frozenset[int], tuple[int, ...]]:
    """The homeomorphism search by every permutation of the points: each
    open family that some permutation carries the opens of s onto, with the
    first such permutation in lexicographic order."""
    out = {}
    for perm in itertools.permutations(range(s.n)):
        mapped = frozenset(sum(1 << perm[x] for x in range(s.n) if (o >> x) & 1)
                           for o in s.opens)
        out.setdefault(mapped, perm)
    return out


def final_topology_by_scan(source: FinSpace, assign: Sequence[int]) -> set[int]:
    """The final topology of the point map `assign` onto 0..k-1: every
    subset of the k target points whose preimage is open in the source,
    testing all 2**k subsets."""
    k = max(assign, default=-1) + 1
    return {u for u in range(1 << k)
            if source.is_open(sum(1 << x for x, c in enumerate(assign) if (u >> c) & 1))}


def continuous_point_maps(a: FinSpace, b: FinSpace) -> list[tuple[int, ...]]:
    """All continuous maps a → b, by exhaustive search."""
    out = []
    for f in itertools.product(range(b.n), repeat=a.n):
        if all(a.is_open(sum(1 << x for x in range(a.n) if (o >> f[x]) & 1))
               for o in b.opens):
            out.append(f)
    return out


def factorizations_through(q: QuotientMap, f: Sequence[int],
                           target: FinSpace) -> list[tuple[int, ...]]:
    """All continuous F: q.target → target with F ∘ q.assign = f, found by
    trying every point map outright."""
    out = []
    for big in itertools.product(range(target.n), repeat=q.target.n):
        if any(big[q.assign[x]] != f[x] for x in range(q.source.n)):
            continue
        if all(q.target.is_open(sum(1 << c for c in range(q.target.n)
                                    if (o >> big[c]) & 1))
               for o in target.opens):
            out.append(big)
    return out


def reflection_counts_bruteforce(n_s: int, src_bitmap, n_q: int, q_bitmap,
                                 assign, n_t: int, tgt_opens) -> tuple[int, int, int]:
    """Reference implementation: try every factor map outright.

    Returns (continuous, factored, unique): maps that are continuous, that
    have at least one continuous factorization, and that have exactly one.
    """
    def continuous(npts, fmap, bitmap):
        for o in tgt_opens:
            pre = 0
            for x in range(npts):
                if (int(o) >> fmap[x]) & 1:
                    pre |= 1 << x
            if not bitmap[pre]:
                return False
        return True

    ncont = nfact = nuniq = 0
    for f in itertools.product(range(n_t), repeat=n_s):
        if not continuous(n_s, f, src_bitmap):
            continue
        ncont += 1
        hits = 0
        for big in itertools.product(range(n_t), repeat=n_q):
            if all(big[assign[x]] == f[x] for x in range(n_s)):
                if continuous(n_q, big, q_bitmap):
                    hits += 1
        nfact += 1 if hits >= 1 else 0
        nuniq += 1 if hits == 1 else 0
    return ncont, nfact, nuniq


def topology_codes_by_scan(n):
    """Every code word of an n-point family (bit s on iff subset-mask s is
    in it) that contains the empty and the full set and is closed under
    pairwise union and intersection, scanning all 2**(2**n) words."""
    nsub = 1 << n
    full = nsub - 1
    codes = np.arange(1 << nsub, dtype=np.uint32)
    member = ((codes[:, None] >> np.arange(nsub, dtype=np.uint32)[None, :]) & 1).astype(bool)
    ok = member[:, 0] & member[:, full]
    for s in range(nsub):
        for t in range(s + 1, nsub):
            both = member[:, s] & member[:, t]
            ok &= ~both | (member[:, s | t] & member[:, s & t])
    return codes[ok]


def space_bitmap(s: FinSpace, width: int) -> np.ndarray:
    """Whether each of the first `width` subset masks is open in s."""
    out = np.zeros(width, dtype=np.bool_)
    out[list(s.opens)] = True
    return out


def class_tables_by_map(q: QuotientMap) -> tuple[np.ndarray, ...]:
    """One quotient's rows of the tables `reflect._class_tables` stacks,
    subset mask by subset mask through `q.image` and `q.preimage`: the
    source's open bitmap, the class image, the quotient's open bitmap
    (padded to the same width) and whether the subset is a union of
    classes."""
    nsub = 1 << q.source.n
    image = np.array([q.image(a) for a in range(nsub)], dtype=np.int64)
    saturated = np.array([q.preimage(int(c)) == a for a, c in enumerate(image)])
    return (space_bitmap(q.source, nsub), image, space_bitmap(q.target, nsub),
            saturated)


def labeled_sweep(max_n, kind):
    """The weak-reflection sweep with one kernel call per labeled target and
    source size, on tables built by `class_tables_by_map` and every open of
    the target, T0 targets picked by `property_report`.  Returns the report
    and the (continuous, factored) count of every (source, target) index
    pair."""
    by_size = [list(enumerate_topologies(n)) for n in range(max_n + 1)]
    sources = [s for spaces in by_size for s in spaces]
    if kind == "t0":
        targets = [s for s in sources if property_report(s).t0]
        reflection = t0_reflection
    else:
        targets = [FinSpace(n, tuple(range(1 << n))) for n in range(max_n + 1)]
        reflection = t2_reflection
    batches = []
    first = 0
    for n, spaces in enumerate(by_size):
        rows = zip(*(class_tables_by_map(reflection(s)) for s in spaces))
        batches.append((first, n, [np.stack(r) for r in rows]))
        first += len(spaces)
    unfactored = []
    pairs = {}
    total_maps = 0
    for ti, t in enumerate(targets):
        opens = np.array(t.opens, dtype=np.int64)
        for first, n_s, tables in batches:
            ncont, cont, fact = _kernels.reflection_counts(n_s, *tables, t.n, opens)
            total_maps += ncont
            for i, (c, f) in enumerate(zip(cont.tolist(), fact.tolist())):
                pairs[first + i, ti] = (c, f)
            unfactored.extend((first + int(i), ti) for i in np.flatnonzero(fact != cont))
    report = SweepReport(len(sources), len(targets), total_maps, tuple(unfactored), ())
    return report, pairs


def dyad_vectors_by_scan(m, fam):
    """(image, closure, eval) of a dyad family over a model, scanning all
    2**k vectors: v is realized iff the algebra cell it names has an atom,
    and w is in the closure iff it holds the ones of some realized v.  Each
    sample's vector is read off its membership in every member, and eval
    gives its position among the realized vectors."""
    k = len(fam.maps)
    member_masks = [star_of(m, g) for g in fam.maps]
    all_atoms = (1 << len(m.atoms)) - 1
    realized = []
    for v in range(1 << k):
        cell = all_atoms
        for i in range(k):
            cell &= (all_atoms ^ member_masks[i]) if (v >> i) & 1 else member_masks[i]
        if cell:
            realized.append(v)
    closure = [w for w in range(1 << k) if any(v & ~w == 0 for v in realized)]
    ev = [realized.index(sum(1 << i for i, g in enumerate(fam.maps) if s not in g))
          for s in m.presentation.samples]
    return tuple(realized), tuple(closure), tuple(ev)


def ultrafilter_trace(m, atom):
    """The algebra members above one atom, each as an atom mask."""
    n = len(m.atoms)
    if not 0 <= atom < n:
        raise ValueError(f"atom {atom} outside the model")
    return tuple(mask for mask in range(1 << n) if (mask >> atom) & 1)


def adherence_by_trace(m, atom):
    """Samples whose every fragment-open neighbourhood meets every member of
    the atom's ultrafilter trace, tested member by member."""
    trace = ultrafilter_trace(m, atom)
    out = []
    for s, a in zip(m.presentation.samples, m.embedding):
        if all(g & member for g in m.space.opens if (g >> a) & 1 for member in trace):
            out.append(s)
    return frozenset(out)
