"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail verdict line (past pytest's capture)
so a plain `pytest tests/test_acceptance.py` run shows the scorecard.
All comparisons are exact; nothing here is tolerance-based.
"""
import oracles
from corpus import corpus_maps, corpus_presentations
from topolab.corpus import (
    chain_fragment,
    chain_space,
    discrete_fragment,
    pointed_chain_fragment,
)
from topolab.dcomp import dcomp_crosscheck, dcomp_embed, dyad_family_of
from topolab.errors import NoRetraction
from topolab.fintop import iso_check, property_report, t0_reflection
from topolab.reflect import weak_reflection_sweep
from topolab.star import (
    build_star,
    dm_compose,
    fragment_continuous,
    model_monad,
    retraction,
    robinson_coverage,
    sandwich_violations,
    star_identity_violations,
    star_map,
    DefMap,
)


def _verdict(capsys, num, name, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance] {num:>2}  {name:<44} {status}"
    if failures:
        line += f"  ({failures[0]})"
    with capsys.disabled():
        print(line)
    assert not failures, f"criterion {num} ({name}): {failures[:3]}"


def test_c01_star_commutes_with_boolean_ops(capsys, corpus_models, enum_models):
    failures = []
    models = [(n, m) for n, _, m in corpus_models] + [(n, m) for n, m, _ in enum_models]
    for name, m in models:
        # the all-pairs definition, and the per-atom certificate `check` runs
        bad = oracles.star_identity_pairs(m, oracles.algebra_sets(m)) + star_identity_violations(m)
        if bad:
            failures.append(f"{name}: {bad[0]}")
    _verdict(capsys, 1, "star map preserves union/meet/complement", failures)


def test_c02_models_compact_lc_supercompact(capsys, corpus_models, enum_models):
    failures = []
    models = [(n, m) for n, _, m in corpus_models] + [(n, m) for n, m, _ in enum_models]
    for name, m in models:
        rep = property_report(m.space)
        for flag in ("compact", "locally_compact", "supercompact"):
            if not getattr(rep, flag):
                failures.append(f"{name} fails {flag}: {rep.witness(flag)}")
        # the report states the last two as theorems; the definitional
        # loops search for a counterexample on every model
        for flag, oracle in (("locally_compact", oracles.locally_compact_witness),
                             ("supercompact", oracles.supercompact_witness)):
            if oracle(m.space) is not None:
                failures.append(f"{name} fails {flag} by definition: {oracle(m.space)}")
        if robinson_coverage(m).covered:
            viol = list(sandwich_violations(m))
            if viol:
                failures.append(f"{name} sandwich gap at opens {viol[0]}")
            if viol != oracles.sandwich_by_opens(m):
                failures.append(f"{name} sandwich pairs differ from the scan of nested opens")
    _verdict(capsys, 2, "models compact, locally compact, supercompact", failures)


def test_c03_coverage_criterion(capsys, corpus_models, enum_models):
    failures = []
    for k in (3, 4):
        m = build_star(discrete_fragment(k))
        cov = robinson_coverage(m)
        if cov.covered or cov.uncovered != (k,):
            failures.append(f"discrete{k}: covered={cov.covered} uncovered={cov.uncovered}")
    for k in range(1, 5):
        if not robinson_coverage(build_star(pointed_chain_fragment(k))).covered:
            failures.append(f"pointed chain {k} not covered")
    finite = [(n, m) for n, p, m in corpus_models if p.ground.is_finite]
    for name, m, _ in enum_models:
        finite.append((name, m))
    for name, m in finite:
        if not robinson_coverage(m).covered:
            failures.append(f"{name} not covered")
    _verdict(capsys, 3, "coverage: tail escapes discrete, others covered", failures)


def test_c04_chain_tail_has_one_neighbourhood(capsys):
    failures = []
    m = build_star(chain_fragment(3))
    whole = (1 << len(m.atoms)) - 1
    if model_monad(m, 3) != whole:
        failures.append(f"tail monad {model_monad(m, 3):b} is not the whole model")
    if iso_check(m.space, chain_space(4)) is None:
        failures.append("model is not the 4-point chain")
    _verdict(capsys, 4, "chain tail monad is the whole model", failures)


def test_c05_beta2_of_chains(capsys):
    failures = []
    for k in range(1, 5):
        q = t0_reflection(build_star(chain_fragment(k)).space)
        if iso_check(q.target, chain_space(k + 1)) is None:
            failures.append(f"k={k}: target has opens {q.target.opens}")
    _verdict(capsys, 5, "beta2 of k-chain is the (k+1)-chain", failures)


def test_c06_retraction(capsys):
    failures = []
    for k in range(1, 5):
        p = pointed_chain_fragment(k)
        m = build_star(p)
        try:
            r = retraction(m)
        except Exception as exc:  # the retraction must exist here
            failures.append(f"pointed {k}: {exc!r}")
            continue
        if r.assign[k + 1] != frozenset({0}):
            failures.append(f"pointed {k}: tail sent to {set(r.assign[k + 1])}")
        if not oracles.retraction_continuous_by_opens(m, r):
            failures.append(f"pointed {k}: not continuous")
        for j, s in enumerate(p.samples):
            if r.assign[m.embedding[j]] != frozenset({s}):
                failures.append(f"pointed {k}: sample {s} moved")
    try:
        retraction(build_star(discrete_fragment(3)))
        failures.append("discrete fragment unexpectedly retracts")
    except NoRetraction as exc:
        if exc.atom != 3:
            failures.append(f"discrete witness atom {exc.atom}, want the tail 3")
    _verdict(capsys, 6, "retraction fixes samples, sends tail to infinity", failures)


def _count_topologies_by_closure(n):
    # independent recount: every closed subset family over n points
    full = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, full)]
    count = 0
    for pick in range(1 << len(middles)):
        fam = {0, full}
        p, i = pick, 0
        while p:
            if p & 1:
                fam.add(middles[i])
            p >>= 1
            i += 1
        lst = sorted(fam)
        ok = True
        for ai, a in enumerate(lst):
            for b in lst[ai + 1:]:
                if (a | b) not in fam or (a & b) not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_c07_regularity_is_clopenness(capsys, enumerations):
    failures = []
    for n, want in ((3, 29), (4, 355)):
        got_oracle = _count_topologies_by_closure(n)
        got_lib = len(enumerations[n])
        if not (got_oracle == got_lib == want):
            failures.append(f"n={n}: oracle {got_oracle}, library {got_lib}, want {want}")
    for n in (3, 4):
        for s in enumerations[n]:
            rep = property_report(s)
            if not (rep.regular == rep.completely_regular == rep.all_opens_closed):
                failures.append(f"opens {s.opens}: {rep.flags()}")
                break
    rep = property_report(build_star(chain_fragment(3)).space)
    if rep.regular or rep.witness("regular") != (0, 1):
        failures.append(f"chain model regular={rep.regular} witness={rep.witness('regular')}")
    _verdict(capsys, 7, "regular = completely regular = all opens closed", failures)


def test_c08_normality_transfers(capsys, enum_models):
    failures = []
    for name, m, s in enum_models:
        if property_report(m.space).normal != property_report(s).normal:
            failures.append(f"opens {s.opens}")
    _verdict(capsys, 8, "model normality equals space normality (all n<=4)", failures)


def test_c09_functoriality(capsys):
    failures = []
    maps = {name: (f, src, dst) for name, f, src, dst in corpus_maps()}

    for name in ("id_chain2", "id_chain3", "id_finite3"):
        f, src, dst = maps[name]
        sm = star_map(f, build_star(src), build_star(dst))
        if sm.atom_map != tuple(range(len(sm.atom_map))):
            failures.append(f"{name} induces {sm.atom_map}")

    def composed(gname, fname, g=None, gsrc=None, gdst=None):
        f, fsrc, fdst = maps[fname]
        if g is None:
            g, gsrc, gdst = maps[gname]
        if gsrc != fdst:
            failures.append(f"{gname} after {fname}: presentations do not chain")
            return
        fsrc, fdst, gdst = build_star(fsrc), build_star(fdst), build_star(gdst)
        sf = star_map(f, fsrc, fdst)
        sg = star_map(g, fdst, gdst)
        sgf = star_map(dm_compose(g, f), fsrc, gdst)
        if sgf.atom_map != tuple(sg.atom_map[i] for i in sf.atom_map):
            failures.append(f"{gname} after {fname}: {sgf.atom_map}")

    composed("shift_chain3_again", "shift_chain3")
    composed("collapse_chain3", "id_chain3")
    composed("const_infinity", "shift_chain3",
             g=DefMap.constant(maps["shift_chain3"][2].ground, 0),
             gsrc=maps["shift_chain3"][2], gdst=pointed_chain_fragment(3))

    cases = list(corpus_maps())
    cases.append(("id_into_discrete", DefMap.identity(chain_fragment(3).ground),
                  chain_fragment(3), discrete_fragment(3)))
    seen = set()
    for name, f, src, dst in cases:
        sm, dm = build_star(src), build_star(dst)
        frag = fragment_continuous(f, sm, dm)
        induced = star_map(f, sm, dm).continuous
        seen.add(frag)
        if frag != induced:
            failures.append(f"{name}: fragment {frag}, induced {induced}")
    if seen != {True, False}:
        failures.append(f"continuity cases exercised: {seen}")
    _verdict(capsys, 9, "induced maps respect identity and composition", failures)


def test_c10_weak_reflections_exhaustive(capsys):
    failures = []
    # sources and t0 targets are partial sums of OEIS A000798 and A001035
    expected = {"t0": (390, 243, 3_045_545), "t2": (390, 5, 8_209)}
    for kind, unique in (("t0", True), ("t2", False)):
        rep = weak_reflection_sweep(4, kind=kind)
        if (rep.sources, rep.targets, rep.maps) != expected[kind]:
            failures.append(f"{kind}: sources, targets, maps = "
                            f"{(rep.sources, rep.targets, rep.maps)}, want {expected[kind]}")
        if rep.unfactored_pairs:
            failures.append(f"{kind}: no factorization at {rep.unfactored_pairs[0]}")
        if unique and rep.nonunique_pairs:
            failures.append(f"{kind}: several factorizations at {rep.nonunique_pairs[0]}")
        if rep.maps == 0:
            failures.append(f"{kind}: sweep saw no maps")
    _verdict(capsys, 10, "every continuous map factors through reflection", failures)


def test_c11_dcomp_image_is_beta2_target(capsys):
    failures = []
    for k in range(1, 5):
        m = build_star(chain_fragment(k))
        rep = dcomp_crosscheck(m, dcomp_embed(m, dyad_family_of(m.presentation)))
        if not rep.homeomorphic:
            failures.append(f"k={k}: image opens {rep.image.opens}")
    _verdict(capsys, 11, "dyad-evaluation image matches beta2 target", failures)
