"""Set algebra: membership, canonicalization, Boolean laws, atoms, parsing.

The canonicalization tests use a from-scratch reference: membership is
evaluated straight off the raw (low, threshold, period, residues) tuple,
and minimal parameters are re-derived by brute force, so the constructor's
normalization is checked against something that shares none of its code.
"""
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import topolab.setalg
from topolab.cli import parse_presentation
from topolab.errors import (
    GroundMismatch,
    OutOfGround,
    ParseError,
    PeriodOverflow,
    SizeCapExceeded,
    UnknownName,
)
from topolab.setalg import (
    MAX_ATOMS,
    MAX_NESTING,
    OMEGA,
    PERIOD_CAP,
    DefSet,
    Ground,
    atoms_of,
    ds_combine,
    parse_set_expr,
)

EVENS = DefSet.arithmetic(OMEGA, 0, 2)
ODDS = DefSet.arithmetic(OMEGA, 1, 2)


def raw_member(n, low, t, p, res):
    # reference evaluator on the uncanonicalized description
    if n < t:
        return bool((low >> n) & 1)
    return bool((res >> (n % p)) & 1)


def reference_canonical(low, t, p, res):
    """Brute-force minimal description: smallest divisor of p that is an
    eventual period past t, then the smallest threshold for it."""
    def bit(n):
        return raw_member(n, low, t, p, res)

    q = next(d for d in range(1, p + 1)
             if p % d == 0 and all(bit(n) == bit(n + d) for n in range(t, t + 2 * p)))

    def tail_bit(r):
        return bit(t + ((r - t) % q))

    best_t = t
    while best_t > 0 and bit(best_t - 1) == tail_bit((best_t - 1) % q):
        best_t -= 1
    new_low = sum(1 << m for m in range(best_t) if bit(m))
    new_res = sum(1 << r for r in range(q) if tail_bit(r))
    return new_low, best_t, q, new_res


def _divisors(p):
    return [d for d in range(1, p + 1) if p % d == 0]


def _raw_description(raw):
    """(low, threshold, period, residues), often redundant on purpose: the
    residues repeat a word of a divisor of the period, and the low bits
    from a drawn cut upward copy the tail pattern, so canonicalization has
    periods to shrink and thresholds to lower."""
    t, p, low, word, pick, cut = raw
    divisors = _divisors(p)
    d = divisors[pick % len(divisors)]
    res = sum(((word >> (r % d)) & 1) << r for r in range(p))
    cut = min(cut, t)
    tail = sum(((res >> (m % p)) & 1) << m for m in range(cut, t))
    return (low & ((1 << cut) - 1)) | tail, t, p, res


raw_descriptions = st.tuples(
    st.integers(0, 40),
    st.one_of(st.sampled_from((12, 30, 60)), st.integers(1, 64)),
    st.integers(0, 2 ** 40 - 1),
    st.integers(0, 2 ** 64 - 1),
    st.integers(0, 63),
    st.integers(0, 40),
).map(_raw_description)


def defsets():
    return raw_descriptions.map(lambda raw: DefSet(OMEGA, *raw))


# -- membership --------------------------------------------------------

def test_member_examples():
    assert 4 in EVENS
    assert 7 not in EVENS
    s = DefSet(OMEGA, 0b010, 3, 1, 1)  # {1} plus everything from 3 on
    assert 2 not in s
    assert 1 in s and 3 in s and 100 in s


def test_member_finite_ground():
    g = Ground(4)
    s = DefSet.from_members(g, [0, 2])
    assert 2 in s and 1 not in s
    with pytest.raises(OutOfGround):
        4 in s
    with pytest.raises(OutOfGround):
        DefSet.from_members(g, [5])


@given(raw_descriptions)
@settings(max_examples=300)
def test_canonicalization_preserves_membership(raw):
    low, t, p, res = raw
    s = DefSet(OMEGA, low, t, p, res)
    for n in range(t + 3 * p + 8):
        assert (n in s) == raw_member(n, low, t, p, res)


@given(raw_descriptions)
@settings(max_examples=300)
def test_canonical_parameters_are_minimal(raw):
    s = DefSet(OMEGA, *raw)
    assert (s.low, s.threshold, s.period, s.residues) == reference_canonical(*raw)


def test_finite_tail_and_progressions_match_their_members():
    # built in one shift each; pinned to the point-by-point construction
    for n in range(40):
        g = Ground(n)
        for start in range(45):
            assert DefSet.tail(g, start) == DefSet.from_members(g, range(start, n))
            for step in range(1, 45):
                assert (DefSet.arithmetic(g, start, step)
                        == DefSet.from_members(g, range(start, n, step))), (n, start, step)


def test_finite_ground_cap():
    g = Ground(PERIOD_CAP)
    start = time.perf_counter()
    assert DefSet.tail(g, 0) == DefSet.full(g)
    assert DefSet.tail(g, PERIOD_CAP - 1).low == 1 << (PERIOD_CAP - 1)
    assert DefSet.arithmetic(g, 3, 1023).low.bit_count() == len(range(3, PERIOD_CAP, 1023))
    # a start past the ground builds nothing, however far out it lies
    assert DefSet.arithmetic(Ground(8), 2 ** 40, 2 ** 41).is_empty
    assert time.perf_counter() - start < 0.5
    with pytest.raises(SizeCapExceeded, match=f"1048577 points exceeds cap {PERIOD_CAP}"):
        Ground(PERIOD_CAP + 1)


def from_members_by_fold(ground, members):
    """The literal built one `mask |= 1 << m` at a time, with the checks in
    the order `DefSet.from_members` makes them."""
    mask = 0
    for m in members:
        if m not in ground:
            raise OutOfGround(f"{m} is not in {ground!r}")
        if m >= PERIOD_CAP and not ground.is_finite:
            raise PeriodOverflow(f"threshold {m + 1} of point {m} exceeds cap {PERIOD_CAP}")
        mask |= 1 << m
    return DefSet(ground, mask, ground.size if ground.is_finite else mask.bit_length())


def _outcome(build, ground, members):
    try:
        return build(ground, iter(members))
    except (OutOfGround, PeriodOverflow) as exc:
        return type(exc), str(exc)


@given(st.sampled_from([OMEGA, Ground(0), Ground(1), Ground(8), Ground(9), Ground(70),
                        Ground(PERIOD_CAP)]),
       st.lists(st.integers(-3, 80) | st.sampled_from([PERIOD_CAP - 1, PERIOD_CAP, 10 ** 30]),
                max_size=30))
@settings(max_examples=400, deadline=None)
def test_literal_matches_the_fold(ground, members):
    # the same set, or the same error for the same first bad point
    assert _outcome(DefSet.from_members, ground, members) == _outcome(
        from_members_by_fold, ground, members)


def test_literal_on_the_widest_finite_ground_within_half_a_second():
    g = Ground(PERIOD_CAP)
    start = time.perf_counter()
    evens = DefSet.from_members(g, range(0, PERIOD_CAP, 2))
    assert time.perf_counter() - start < 0.5
    assert evens == DefSet.arithmetic(g, 0, 2)


def test_canonical_known_case():
    # a deliberately redundant description of the evens
    s = DefSet(OMEGA, low=0b010101, threshold=6, period=4, residues=0b0101)
    assert (s.low, s.threshold, s.period, s.residues) == (0, 0, 2, 1)
    assert s == EVENS


def test_structural_equality_is_extensional():
    assert ds_combine("complement", ODDS) == EVENS
    assert DefSet.tail(OMEGA, 0) == DefSet.full(OMEGA)
    assert DefSet.arithmetic(OMEGA, 4, 2) == DefSet(OMEGA, 0, 3, 2, 1)


def test_describe_round_trip_examples():
    cases = [
        DefSet.from_members(OMEGA, [1, 3, 7]),
        DefSet.tail(OMEGA, 3),
        DefSet.empty(OMEGA),
        EVENS,
        DefSet.from_members(OMEGA, [0]) | DefSet.arithmetic(OMEGA, 4, 2),
    ]
    for s in cases:
        assert parse_set_expr(s.describe(), OMEGA) == s


@given(defsets() | st.integers(0, 2 ** 9 - 1).map(lambda mask: DefSet(Ground(9), mask, 9)),
       st.sampled_from(["", " ", "  \t"]))
@settings(max_examples=200)
def test_describe_round_trip(s, space):
    # spaces around a literal's commas and after its brace read the same
    text = s.describe()
    spaced = text.replace(",", space + "," + space).replace("{", "{" + space)
    assert parse_set_expr(text, s.ground) == parse_set_expr(spaced, s.ground) == s


def reference_describe(s):
    # the rendering spelled out bit by bit
    if s.ground.is_finite:
        return "{" + ",".join(str(m) for m in range(s.ground.size) if m in s) + "}"
    parts = []
    lows = [m for m in range(s.threshold) if (s.low >> m) & 1]
    if lows:
        parts.append("{" + ",".join(map(str, lows)) + "}")
    t, p = s.threshold, s.period
    if s.residues and s.residues == (1 << p) - 1:
        parts.append(f"tail({t})")
    else:
        parts.extend(f"ap({t + ((r - t) % p)},{p})" for r in range(p) if (s.residues >> r) & 1)
    return "|".join(parts) if parts else "{}"


@given(defsets())
@settings(max_examples=200)
def test_describe_matches_reference(s):
    assert s.describe() == reference_describe(s)


def test_describe_finite_ground_matches_reference():
    g = Ground(7)
    for mask in range(1 << 7):
        s = DefSet(g, mask, 7)
        assert s.describe() == reference_describe(s)


# ap(5, 1024) and ap(7, 1023) combine at period lcm(1024, 1023) = 1,047,552,
# just under PERIOD_CAP; every operation must stay word-parallel there
A_1024 = DefSet.arithmetic(OMEGA, 5, 1024)
B_1023 = DefSet.arithmetic(OMEGA, 7, 1023)
CAP_EDGE_PERIOD = 1024 * 1023
# the one residue class mod the combined period shared by both progressions
SHARED = next(r for r in range(7, CAP_EDGE_PERIOD, 1023) if r % 1024 == 5)


def test_describe_at_the_period_cap_is_linear():
    union = A_1024 | B_1023
    assert union.period == CAP_EDGE_PERIOD and union.threshold == 0
    start = time.perf_counter()
    text = union.describe()
    assert time.perf_counter() - start < 2.0
    starts = sorted(set(range(5, CAP_EDGE_PERIOD, 1024)) | set(range(7, CAP_EDGE_PERIOD, 1023)))
    assert len(starts) == 1023 + 1024 - 1
    assert text == "|".join(f"ap({r},{CAP_EDGE_PERIOD})" for r in starts)


def test_describing_sparse_atoms_at_the_period_cap_is_linear_in_set_bits():
    # one residue class each, spread over the whole period: the rendering
    # steps from set bit to set bit instead of walking all 1,047,552 digits
    step = CAP_EDGE_PERIOD // 50
    atoms = [DefSet.arithmetic(OMEGA, 3 + k * step, CAP_EDGE_PERIOD) for k in range(50)]
    start = time.perf_counter()
    texts = [a.describe() for a in atoms]
    assert time.perf_counter() - start < 0.5
    assert texts == [f"ap({3 + k * step},{CAP_EDGE_PERIOD})" for k in range(50)]
    # the reference walks every residue below the set one, quadratic in its
    # position; the first atom keeps it to one pass over the period
    assert texts[0] == reference_describe(atoms[0])


def test_boolean_operations_at_the_period_cap():
    start = time.perf_counter()
    union = A_1024 | B_1023
    rest = ~union
    only_b = union - A_1024
    only_a = union - B_1023
    assert (union | rest) == DefSet.full(OMEGA) and (union | rest).period == 1
    assert (union & rest).is_empty
    assert (only_b | A_1024) == union and (only_a | B_1023) == union
    assert (only_a & only_b).is_empty
    assert (only_a | only_b | (A_1024 & B_1023)) == union
    assert (A_1024 & B_1023) == DefSet.arithmetic(OMEGA, SHARED, CAP_EDGE_PERIOD)
    elapsed = time.perf_counter() - start
    assert [s.period for s in (union, rest, only_a, only_b)] == [CAP_EDGE_PERIOD] * 4
    for n in (5, 7, 1029, 1030, SHARED, SHARED + CAP_EDGE_PERIOD):
        assert (n in union) and (n not in rest)
        assert (n in only_a) == (n % 1024 == 5 and n % 1023 != 7 % 1023)
        assert (n in only_b) == (n % 1023 == 7 % 1023 and n % 1024 != 5)
    for n in (0, 4, 6, 1028, SHARED + 1):
        assert (n not in union) and (n in rest) and n not in only_a and n not in only_b
    assert elapsed < 2.0


# -- combination --------------------------------------------------------

def test_combine_examples():
    assert ds_combine("union", EVENS, ODDS) == DefSet.full(OMEGA)
    assert ds_combine("complement", EVENS) == ODDS
    onetwo = DefSet.from_members(OMEGA, [1, 2])
    assert ds_combine("inter", onetwo, DefSet.tail(OMEGA, 3)).is_empty


def test_combine_ground_mismatch():
    with pytest.raises(GroundMismatch):
        ds_combine("union", EVENS, DefSet.from_members(Ground(4), [1]))


def test_combine_argument_checks():
    with pytest.raises(ValueError):
        ds_combine("union", EVENS)
    with pytest.raises(ValueError):
        ds_combine("complement", EVENS, ODDS)
    with pytest.raises(ValueError):
        ds_combine("xor", EVENS, ODDS)


def test_period_overflow():
    a = DefSet.arithmetic(OMEGA, 0, 2048)
    b = DefSet.arithmetic(OMEGA, 0, 2187)
    assert math.lcm(2048, 2187) > PERIOD_CAP
    with pytest.raises(PeriodOverflow):
        ds_combine("union", a, b)
    with pytest.raises(PeriodOverflow):
        DefSet.arithmetic(OMEGA, 0, PERIOD_CAP + 1)


def test_threshold_overflow():
    # thresholds up to the cap are kept; one past it is refused before the
    # description is canonicalized (or a literal's bitmask is built)
    assert DefSet.from_members(OMEGA, [PERIOD_CAP - 1]).threshold == PERIOD_CAP
    assert DefSet.tail(OMEGA, PERIOD_CAP).threshold == PERIOD_CAP
    assert DefSet.arithmetic(OMEGA, PERIOD_CAP, 2).threshold <= PERIOD_CAP
    with pytest.raises(PeriodOverflow, match=f"threshold {PERIOD_CAP + 1} of point {PERIOD_CAP}"):
        DefSet.from_members(OMEGA, [3, PERIOD_CAP])
    for made in (lambda: DefSet.tail(OMEGA, PERIOD_CAP + 1),
                 lambda: DefSet.arithmetic(OMEGA, PERIOD_CAP + 1, 2),
                 lambda: DefSet(OMEGA, 0, PERIOD_CAP + 1, 1, 0)):
        with pytest.raises(PeriodOverflow, match=f"threshold {PERIOD_CAP + 1} exceeds"):
            made()


OPS_POINTWISE = {
    "union": lambda x, y: x or y,
    "inter": lambda x, y: x and y,
    "diff": lambda x, y: x and not y,
}


@given(defsets(), defsets(), st.sampled_from(sorted(OPS_POINTWISE)))
@settings(max_examples=400)
def test_combine_agrees_pointwise(a, b, op):
    c = ds_combine(op, a, b)
    assert c.period % 1 == 0 and math.lcm(a.period, b.period) % c.period == 0
    window = max(a.threshold, b.threshold) + 3 * math.lcm(a.period, b.period)
    for n in range(window):
        assert (n in c) == OPS_POINTWISE[op](n in a, n in b)


@given(defsets())
@settings(max_examples=200)
def test_complement_agrees_pointwise(a):
    c = ds_combine("complement", a)
    for n in range(a.threshold + 3 * a.period):
        assert (n in c) != (n in a)


# -- Boolean laws (the identities the star map must commute with) -------
# canonical forms make == extensional equality, so == decides each law

@given(defsets(), defsets())
@settings(max_examples=1000, deadline=None)
def test_de_morgan(a, b):
    assert ~(a | b) == ~a & ~b
    assert ~(a & b) == ~a | ~b


@given(defsets(), defsets(), defsets())
@settings(max_examples=1000, deadline=None)
def test_distributivity(a, b, c):
    assert a & (b | c) == (a & b) | (a & c)
    assert a | (b & c) == (a | b) & (a | c)


@given(defsets(), defsets())
@settings(max_examples=1000, deadline=None)
def test_double_complement_and_absorption(a, b):
    assert ~~a == a
    assert a | (a & b) == a
    assert a & (a | b) == a


@given(defsets(), defsets())
@settings(max_examples=1000, deadline=None)
def test_difference_as_intersection_with_complement(a, b):
    assert a - b == a & ~b


# -- atoms ----------------------------------------------------------------

def test_atoms_two_generators():
    gens = (DefSet.from_members(OMEGA, [1]), DefSet.from_members(OMEGA, [1, 2]))
    atoms = atoms_of(gens, OMEGA)
    assert [[m for m in range(8) if m in a] for a in atoms] == [[1], [2], [0, 3, 4, 5, 6, 7]]


def test_atoms_chain_generators():
    gens = tuple(DefSet.from_members(OMEGA, range(1, n + 1)) for n in range(1, 4))
    atoms = atoms_of(gens, OMEGA)
    assert [a.describe() for a in atoms] == ["{1}", "{2}", "{3}", "{0}|tail(4)"]


def test_atoms_empty_basis():
    assert atoms_of((), Ground(3)) == [DefSet.full(Ground(3))]
    assert atoms_of((), Ground(0)) == []


def test_basis_caps_and_grounds():
    # the generator cap is build_star's (test_star.py::test_atom_cap)
    single = DefSet.from_members(OMEGA, [1])
    with pytest.raises(GroundMismatch):
        atoms_of((single, DefSet.from_members(Ground(4), [1])), OMEGA)
    with pytest.raises(GroundMismatch):
        atoms_of((single,), Ground(4))
    with pytest.raises(GroundMismatch):  # even where the ground has no point to split
        atoms_of((single,), Ground(0))


@given(st.lists(defsets(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_atom_partition(gens):
    atoms = atoms_of(gens, OMEGA)
    for i, a in enumerate(atoms):
        assert not a.is_empty
        for b in atoms[i + 1:]:
            assert (a & b).is_empty
    union = DefSet.empty(OMEGA)
    for a in atoms:
        union = union | a
    assert union == DefSet.full(OMEGA)
    for g in gens:
        below = DefSet.empty(OMEGA)
        for a in atoms:
            if (a - g).is_empty:
                below = below | a
        assert below == g


def generators_of(p):
    """The generators `build_star` splits: the subbase, then one singleton
    per sample."""
    return p.subbase + tuple(DefSet.from_members(p.ground, (s,)) for s in p.samples)


def atoms_or_refusal(split, gens, ground):
    try:
        return split(gens, ground)
    except SizeCapExceeded as exc:
        return str(exc)


PRESENTATIONS = sorted((Path(__file__).parent.parent / "presentations").glob("*.top"))


def test_atoms_match_the_descent_on_every_named_model(named_models):
    # the corpus and every topology on 0..4 points, presented with its full algebra
    for name, m in named_models:
        p = m.presentation
        assert atoms_of(generators_of(p), p.ground) == oracles.atoms_by_descent(
            generators_of(p), p.ground), name


@pytest.mark.parametrize("path", PRESENTATIONS, ids=lambda p: p.name)
def test_atoms_match_the_descent_on_the_shipped_files(path):
    p = parse_presentation(path.read_text()).presentation()
    assert atoms_of(generators_of(p), p.ground) == oracles.atoms_by_descent(
        generators_of(p), p.ground)


# pairwise co-prime prime powers: the lcm of any choice stays under PERIOD_CAP
COPRIME_PERIODS = (1, 2, 3, 4, 5, 7, 9, 11, 13, 16)
omega_parts = st.one_of(
    st.builds(lambda s, p: DefSet.arithmetic(OMEGA, s, p),
              st.integers(0, 40), st.sampled_from(COPRIME_PERIODS)),
    st.builds(lambda t: DefSet.tail(OMEGA, t), st.integers(0, 40)),
    st.builds(lambda ms: DefSet.from_members(OMEGA, ms), st.lists(st.integers(0, 39), max_size=4)),
)
omega_generators = st.one_of(
    omega_parts, omega_parts.map(lambda s: ~s),
    st.tuples(omega_parts, omega_parts).map(lambda ab: ab[0] | ab[1]))


@st.composite
def finite_generator_lists(draw):
    n = draw(st.integers(0, 10))
    g = Ground(n)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return [DefSet(g, mask, n) for mask in masks], g


@given(st.one_of(st.lists(omega_generators, max_size=6).map(lambda gens: (gens, OMEGA)),
                 finite_generator_lists()))
@settings(max_examples=300, deadline=None)
def test_atoms_match_the_descent(case):
    gens, ground = case
    assert atoms_or_refusal(atoms_of, gens, ground) == atoms_or_refusal(
        oracles.atoms_by_descent, gens, ground)


def test_atom_refusals():
    singles = [DefSet.from_members(OMEGA, [i]) for i in range(16)]
    assert len(atoms_of(singles[:15], OMEGA)) == MAX_ATOMS
    with pytest.raises(SizeCapExceeded, match="the 16 generators split the ground into more "
                                              "than 16 atoms, the point cap of a model"):
        atoms_of(singles, OMEGA)
    # lcm(1024, 1023, 1021) = 1,069,550,592; refused before any split, so
    # before the atom cap when both bind
    three = [DefSet.arithmetic(OMEGA, 0, p) for p in (1024, 1023, 1021)]
    for gens in (three, singles[:13] + three):
        with pytest.raises(PeriodOverflow, match="the generators' common period 1069550592 "
                                                 "exceeds cap 1048576"):
            atoms_of(gens, OMEGA)


def test_atoms_build_one_set_per_atom_and_combine_none(named_models, monkeypatch):
    cases = [(generators_of(m.presentation), m.presentation.ground) for _, m in named_models]
    calls = {"ds_combine": 0, "DefSet": 0}
    post_init = DefSet.__post_init__

    def counted_post_init(self):
        calls["DefSet"] += 1
        post_init(self)

    def counted_combine(*args):
        calls["ds_combine"] += 1
        return ds_combine(*args)

    monkeypatch.setattr(topolab.setalg, "ds_combine", counted_combine)
    monkeypatch.setattr(DefSet, "__post_init__", counted_post_init)
    for gens, ground in cases:
        calls["DefSet"] = 0
        atoms = atoms_of(gens, ground)
        assert calls["DefSet"] <= len(atoms) + 1
    assert calls["ds_combine"] == 0


def test_sixteen_generators_at_the_period_cap_within_two_seconds():
    # period lcm(1024, 1023) = 1,047,552 for every word: 16 generators
    # with 16 atoms, and 16 that split the ground into 18 and are refused
    a, b = A_1024, B_1023
    singles = [DefSet.from_members(OMEGA, [i]) for i in range(1, 14)]
    gens = [a, b, a | b, a & b] + singles[:12]
    start = time.perf_counter()
    atoms = atoms_of(gens, OMEGA)
    with pytest.raises(SizeCapExceeded):
        atoms_of([a, b] + singles + [DefSet.from_members(OMEGA, [20])], OMEGA)
    assert time.perf_counter() - start < 2.0
    assert len(gens) == 16 and len(atoms) == 16
    assert {x.period for x in atoms} == {CAP_EDGE_PERIOD, 1}
    assert atoms == oracles.atoms_by_descent(gens, OMEGA)


# -- expression parser -----------------------------------------------------

def test_parse_examples():
    assert parse_set_expr("{1,3,7}", OMEGA) == DefSet.from_members(OMEGA, [1, 3, 7])
    assert parse_set_expr("ap(0,2) | ap(1,2)", OMEGA) == DefSet.full(OMEGA)
    assert parse_set_expr("!tail(5) & tail(3)", OMEGA) == DefSet.from_members(OMEGA, [3, 4])
    assert parse_set_expr("{}", OMEGA).is_empty
    assert parse_set_expr("( {1} | {2} ) & {2,3}", OMEGA) == DefSet.from_members(OMEGA, [2])


def test_parse_precedence():
    # & binds tighter than |
    got = parse_set_expr("{1}|{2}&{3}", OMEGA)
    assert got == DefSet.from_members(OMEGA, [1])


def test_parse_names():
    names = {"A": DefSet.from_members(OMEGA, [1]), "B": DefSet.from_members(OMEGA, [2])}
    assert parse_set_expr("A|B", OMEGA, names) == DefSet.from_members(OMEGA, [1, 2])
    with pytest.raises(UnknownName):
        parse_set_expr("A|C", OMEGA, names)
    with pytest.raises(GroundMismatch):
        parse_set_expr("F", OMEGA, {"F": DefSet.from_members(Ground(4), [1])})


def test_parse_error_columns():
    with pytest.raises(ParseError) as e:
        parse_set_expr("{1 2}", OMEGA)
    assert e.value.col == 4
    with pytest.raises(ParseError) as e:
        parse_set_expr("{1,2} | ", OMEGA)
    assert e.value.col == 9
    with pytest.raises(ParseError) as e:
        parse_set_expr("{1,2} $", OMEGA)
    assert e.value.col == 7
    with pytest.raises(ParseError):
        parse_set_expr("ap(1)", OMEGA)
    with pytest.raises(ParseError):
        parse_set_expr("{1,2} {3}", OMEGA)


@pytest.mark.parametrize("text, message, col", [
    ("{1,,2}", "expected num, found ','", 4),
    ("{1 2}", "expected ',' or '}', found '2'", 4),
    ("{1,", "expected num, found end of expression", 4),
    ("{a}", "expected num, found 'a'", 2),
    ("{1", "unterminated set literal", 1),
    ("{1 {2}}", "expected ',' or '}', found '{'", 4),
    ("{1,2} {3}", "trailing '{'", 7),
])
def test_literal_errors_keep_their_text_and_column(text, message, col):
    with pytest.raises(ParseError) as e:
        parse_set_expr(text, OMEGA)
    assert (e.value.base_message, e.value.col) == (message, col)


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("!", ""), ("!(", ")")])
def test_nesting_past_its_cap_is_a_parse_error(opener, closer):
    depth = MAX_NESTING // len(opener)
    deepest = opener * depth + "{1}" + closer * depth
    assert parse_set_expr(" | ".join([deepest] * 3), OMEGA) == parse_set_expr(deepest, OMEGA)
    with pytest.raises(ParseError) as e:
        parse_set_expr(opener * (depth + 1) + "{1}" + closer * (depth + 1), OMEGA)
    # the column of the first `(` or `!` past the cap
    assert (e.value.base_message, e.value.col) == (
        f"nested deeper than {MAX_NESTING} levels", MAX_NESTING + 1)


def test_literals_with_spaces_and_empty_literals():
    assert parse_set_expr("{ 1 , 2 }", OMEGA) == DefSet.from_members(OMEGA, [1, 2])
    assert parse_set_expr("{}", OMEGA) == parse_set_expr("{ \t}", OMEGA) == DefSet.empty(OMEGA)


_TOKEN_KIND = {1: "num", 2: "name", 3: "punct"}


def literal_by_tokens(text):
    """One literal read token by token, as the grammar states it: the
    members, or the ParseError's message and column."""
    toks = [(_TOKEN_KIND[m.lastindex], m.group(m.lastindex), m.start(m.lastindex) + 1)
            for m in re.finditer(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([{}(),&|!]))", text)]
    toks.append(("end", "end of expression", len(text) + 1))
    members, i = [], 1
    if toks[1][:2] == ("punct", "}"):
        i = 2
    else:
        while True:
            if toks[i][0] != "num":
                found = toks[i][1] if toks[i][0] == "end" else repr(toks[i][1])
                return "expected num, found " + found, toks[i][2]
            members.append(int(toks[i][1]))
            if toks[i + 1][0] == "end":
                return "unterminated set literal", 1
            i += 2
            if toks[i - 1][:2] == ("punct", "}"):
                break
            if toks[i - 1][:2] != ("punct", ","):
                return f"expected ',' or '}}', found {toks[i - 1][1]!r}", toks[i - 1][2]
    out = DefSet.from_members(OMEGA, members)
    if toks[i][0] != "end":
        return f"trailing {toks[i][1]!r}", toks[i][2]
    return out


@given(st.text(st.sampled_from("0123456789,, ,{}a"), max_size=20))
@settings(max_examples=600, deadline=None)
def test_literal_matches_the_token_grammar(body):
    text = "{" + body
    try:
        got = parse_set_expr(text, OMEGA)
    except ParseError as exc:
        got = exc.base_message, exc.col
    except PeriodOverflow as exc:
        got = str(exc)
    try:
        expected = literal_by_tokens(text)
    except PeriodOverflow as exc:
        expected = str(exc)
    assert got == expected


def test_widest_literal_parses_within_one_second():
    # every 2nd point of the widest finite ground, a 3.6 MB literal
    g = Ground(PERIOD_CAP)
    text = "{" + ",".join(map(str, range(0, PERIOD_CAP, 2))) + "}"
    start = time.perf_counter()
    evens = parse_set_expr(text, g)
    assert time.perf_counter() - start < 1.0
    assert evens == DefSet.arithmetic(g, 0, 2)
