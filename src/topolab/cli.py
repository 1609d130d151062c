"""Batch front end: presentation files in, reports out.

Exit codes: 0 when every asserted check passes, 1 when a check fails or
a retraction does not exist, 2 on usage, parse, or cap errors.  Text
output is for people; `--format structured` emits one JSON document with
sorted keys and no timing, so identical inputs give identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import time

from . import fintop
from ._record import Record, _set
from .corpus import chain_space
from .dcomp import check_family_continuous, dcomp_crosscheck, dcomp_embed, dyad_family_of
from .errors import (
    NoRetraction,
    ParseError,
    PeriodOverflow,
    SizeCapExceeded,
    TopolabError,
    UnknownName,
    UsageError,
)
from .fintop import (
    check_enum_size,
    enumerate_topologies,
    hasse_dot,
    iso_check,
    property_report,
    t0_reflection,
    t2_reflection,
)
from .setalg import OMEGA, PERIOD_CAP, DefSet, Ground, parse_set_expr
from .star import (
    DefMap,
    SpacePresentation,
    StarModel,
    build_star,
    density_violations,
    model_monad,
    retraction,
    robinson_coverage,
    sample_space,
    sandwich_violations,
    star_identity_violations,
)

PASS, FAIL, WARN, INFO = "pass", "fail", "warn", "info"

# Reports name a nonstandard atom by its set expression, one term per
# explicit point or residue class.  Near PERIOD_CAP one atom can need a
# million terms, which no report can print in bounded time.
MAX_LABEL_TERMS = 1 << 12


# -- presentation files ------------------------------------------------


class PresentationFile(Record):
    """Parsed presentation: named sets, subbase and sample selections, maps."""

    __slots__ = ("ground", "sets", "subbase", "samples", "maps")

    def __init__(self, ground: Ground, sets: tuple[tuple[str, DefSet], ...],
                 subbase: tuple[str, ...], samples: tuple[int, ...],
                 maps: tuple[tuple[str, DefMap], ...] = ()):
        _set(self, "ground", ground)
        _set(self, "sets", sets)
        _set(self, "subbase", subbase)
        _set(self, "samples", samples)
        _set(self, "maps", maps)

    def presentation(self) -> SpacePresentation:
        named = dict(self.sets)
        return SpacePresentation(
            self.ground, tuple(named[n] for n in self.subbase), self.samples)


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _parse_map_body(body: str, ground: Ground, lineno: int) -> DefMap:
    table_part, semi, rule_part = body.partition(";")
    toks = table_part.split()
    if not toks or toks[0] != "table":
        raise ParseError("map body must start with 'table'", line=lineno)
    pairs = {}
    for tok in toks[1:]:
        m, colon, v = tok.partition(":")
        if not colon or not m.isdigit() or not v.isdigit():
            raise ParseError(f"bad table entry {tok!r}", line=lineno)
        if int(m) in pairs:
            raise ParseError(f"duplicate table entry for {m}", line=lineno)
        pairs[int(m)] = int(v)
    if ground.is_finite:
        if semi:
            raise ParseError("finite-ground maps take no periodic part", line=lineno)
        table = []
        for m in range(ground.size):
            if m not in pairs:
                raise ParseError(f"table misses point {m}", line=lineno)
            table.append(pairs[m])
        if len(pairs) != ground.size:
            raise ParseError("table lists points outside the ground", line=lineno)
        return DefMap(ground, tuple(table))
    if not semi:
        raise ParseError("maps on omega need '; periodic t p ...'", line=lineno)
    rtoks = rule_part.split()
    if len(rtoks) < 3 or rtoks[0] != "periodic":
        raise ParseError("expected 'periodic t p' after ';'", line=lineno)
    if not rtoks[1].isdigit() or not rtoks[2].isdigit():
        raise ParseError("periodic needs numeric t and p", line=lineno)
    t, p = int(rtoks[1]), int(rtoks[2])
    if p < 1:
        raise ParseError("period must be at least 1", line=lineno)
    table = []
    for m in range(t):
        if m not in pairs:
            raise ParseError(f"table misses point {m} below threshold {t}", line=lineno)
        table.append(pairs[m])
    if len(pairs) != t:
        raise ParseError(f"table lists points at or above threshold {t}", line=lineno)
    rules: list[tuple[str, int] | None] = [None] * p
    rest = rtoks[3:]
    if len(rest) != 3 * p:
        raise ParseError(f"expected {p} residue clauses 'r: const c | shift d'",
                         line=lineno)
    for i in range(p):
        rtok, kind, val = rest[3 * i: 3 * i + 3]
        if not rtok.endswith(":") or not rtok[:-1].isdigit():
            raise ParseError(f"bad residue tag {rtok!r}", line=lineno)
        r = int(rtok[:-1])
        if not 0 <= r < p or rules[r] is not None:
            raise ParseError(f"residue {r} out of range or repeated", line=lineno)
        if kind not in ("const", "shift"):
            raise ParseError(f"unknown rule kind {kind!r}", line=lineno)
        try:
            arg = int(val)
        except ValueError:
            raise ParseError(f"bad rule argument {val!r}", line=lineno) from None
        rules[r] = (kind, arg)
    try:
        return DefMap(ground, tuple(table), tuple(rules))  # type: ignore[arg-type]
    except (ValueError, TopolabError) as exc:
        raise ParseError(str(exc), line=lineno) from exc


def parse_presentation(text: str) -> PresentationFile:
    """Line-oriented grammar: `ground omega|finite N`, `set NAME = EXPR`,
    `subbase NAME...`, `samples N...`, `map NAME = ...`; `#` comments."""
    ground: Ground | None = None
    sets: list[tuple[str, DefSet]] = []
    names: dict[str, DefSet] = {}
    subbase: tuple[str, ...] | None = None
    samples: tuple[int, ...] | None = None
    maps: list[tuple[str, DefMap]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "ground":
            if ground is not None:
                raise ParseError("duplicate ground declaration", line=lineno)
            if rest == "omega":
                ground = OMEGA
            else:
                kind, _, num = rest.partition(" ")
                if kind != "finite" or not num.strip().isdigit():
                    raise ParseError(f"bad ground {rest!r}", line=lineno)
                ground = Ground(int(num))
        elif head == "set":
            if ground is None:
                raise ParseError("ground must be declared before sets", line=lineno)
            name, eq, expr = rest.partition("=")
            name = name.strip()
            if not eq or not _NAME.match(name):
                raise ParseError("expected 'set NAME = EXPR'", line=lineno)
            if name in ("ap", "tail"):  # expressions read these as functions
                raise ParseError(f"{name!r} is reserved", line=lineno)
            if name in names:
                raise ParseError(f"duplicate set name {name!r}", line=lineno)
            offset = raw.index("=") + 1
            try:
                value = parse_set_expr(expr, ground, names)
            except ParseError as exc:
                col = (exc.col or 1) + offset
                raise ParseError(exc.base_message, line=lineno, col=col) from None
            except UsageError as exc:  # a cap or name error keeps its type
                raise type(exc)(f"line {lineno}: {exc}") from None
            sets.append((name, value))
            names[name] = value
        elif head == "subbase":
            if subbase is not None:
                raise ParseError("duplicate subbase line", line=lineno)
            chosen = tuple(rest.split())
            for n in chosen:
                if n not in names:
                    raise UnknownName(f"line {lineno}: unknown set name {n!r}")
            subbase = chosen
        elif head == "samples":
            if samples is not None:
                raise ParseError("duplicate samples line", line=lineno)
            vals = rest.split()
            if not all(v.isdigit() for v in vals):
                raise ParseError("samples must be natural numbers", line=lineno)
            samples = tuple(int(v) for v in vals)
            seen: set[int] = set()
            for s in samples:
                if s in seen:
                    raise ParseError(f"duplicate sample {s}", line=lineno)
                if s >= PERIOD_CAP:
                    raise PeriodOverflow(
                        f"line {lineno}: threshold {s + 1} of point {s} exceeds cap {PERIOD_CAP}")
                seen.add(s)
        elif head == "map":
            if ground is None:
                raise ParseError("ground must be declared before maps", line=lineno)
            name, eq, body = rest.partition("=")
            name = name.strip()
            if not eq or not _NAME.match(name):
                raise ParseError("expected 'map NAME = ...'", line=lineno)
            if any(n == name for n, _ in maps):
                raise ParseError(f"duplicate map name {name!r}", line=lineno)
            maps.append((name, _parse_map_body(body.strip(), ground, lineno)))
        else:
            raise ParseError(f"unknown directive {head!r}", line=lineno)
    if ground is None:
        raise ParseError("missing ground declaration")
    if subbase is None:
        raise ParseError("missing subbase line (use a bare 'subbase' for none)")
    if samples is None:
        raise ParseError("missing samples line (use a bare 'samples' for none)")
    return PresentationFile(ground, tuple(sets), subbase, samples, tuple(maps))


# -- reports -----------------------------------------------------------


class ReportItem(Record):
    __slots__ = ("name", "status", "detail", "witness")

    def __init__(self, name: str, status: str, detail: str = "", witness: str = ""):
        _set(self, "name", name)
        _set(self, "status", status)
        _set(self, "detail", detail)
        _set(self, "witness", witness)


class Report:
    __slots__ = ("command", "source", "items", "summary", "elapsed_ms")

    def __init__(self, command: str, source: str):
        self.command = command
        self.source = source
        self.items: list[ReportItem] = []
        self.summary: dict = {}
        self.elapsed_ms = 0.0

    def add(self, name: str, status: str, detail: str = "", witness: str = "") -> None:
        self.items.append(ReportItem(name, status, detail, witness))

    def check(self, name: str, ok: bool, detail: str = "", witness: str = "") -> None:
        self.add(name, PASS if ok else FAIL, detail, "" if ok else witness)

    @property
    def failed(self) -> bool:
        return any(item.status == FAIL for item in self.items)


def render_text(report: Report) -> str:
    lines = [f"topolab {report.command} {report.source}".rstrip()]
    for item in report.items:
        line = f"  {item.status:<4}  {item.name:<28} {item.detail}".rstrip()
        if item.witness:
            line += f"  [witness: {item.witness}]"
        lines.append(line)
    if report.summary:
        parts = " ".join(f"{k}={report.summary[k]}" for k in report.summary)
        lines.append(f"summary: {parts}")
    lines.append(f"time: {report.elapsed_ms:.1f}ms")
    return "\n".join(lines) + "\n"


def render_structured(report: Report) -> str:
    doc = {
        "command": report.command,
        "source": report.source,
        "items": [
            {"name": i.name, "status": i.status, "detail": i.detail, "witness": i.witness}
            for i in report.items
        ],
        "summary": report.summary,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- command implementations -------------------------------------------


def _load(path: str) -> SpacePresentation:
    with open(path, "rb") as fh:
        try:
            return parse_presentation(fh.read().decode("utf-8")).presentation()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _atom_label(m: StarModel, i: int) -> str:
    s = m.labels[i]
    if s is not None:
        return f"x{s}"
    atom = m.atoms[i]
    # canonical residues are all ones only at period 1, so this is the term count
    terms = atom.low.bit_count() + atom.residues.bit_count()
    if terms > MAX_LABEL_TERMS:
        raise SizeCapExceeded(
            f"atom {i} takes {terms} terms to write out, over the label cap of "
            f"{MAX_LABEL_TERMS}")
    return atom.describe()


def _mask_text(m: StarModel, mask: int) -> str:
    names = [_atom_label(m, i) for i in range(len(m.atoms)) if (mask >> i) & 1]
    return "{" + ",".join(names) + "}"


def _summarize(report: Report, m: StarModel) -> None:
    report.summary.update(
        atoms=len(m.atoms),
        opens=len(m.space.opens),
        standard=len(m.embedding),
        labels=[_atom_label(m, i) for i in range(len(m.atoms))],
    )


def _add_coverage(report: Report, m: StarModel) -> bool:
    """Add the coverage item; return whether every atom is covered."""
    cov = robinson_coverage(m)
    detail = "covered" if cov.covered else (
        "uncovered atoms: " + ", ".join(_atom_label(m, i) for i in cov.uncovered))
    report.add("coverage", INFO, detail)
    return cov.covered


def _report_flags(report: Report, prefix: str, rep: fintop.PropertyReport) -> None:
    flags = rep.flags()
    text = " ".join(f"{name}={'y' if flags[name] else 'n'}" for name in flags)
    witnesses = "; ".join(f"{name}: {payload}" for name, payload in rep.witnesses)
    report.add(prefix, INFO, text, witnesses)


def _write_dot(m: StarModel, path: str) -> None:
    labels = [_atom_label(m, i) for i in range(len(m.atoms))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hasse_dot(m.space, labels))


def cmd_check(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    _summarize(report, m)  # refuses an atom past the label cap before any work
    misses = m.presentation.sample_misses()
    if misses:
        report.add("sample-hitting", WARN, f"subbase sets without samples: {misses}")
    else:
        report.add("sample-hitting", PASS, "every nonempty subbase set holds a sample")
    bad = star_identity_violations(m)
    report.check("star-identities", not bad, "pairs over the algebra", "; ".join(bad[:3]))
    rep = property_report(m.space)
    for flag in ("compact", "locally_compact", "supercompact"):
        report.check(f"model-{flag}", getattr(rep, flag), witness=str(rep.witness(flag)))
    if misses:
        report.add("density", INFO, "skipped: sample-hitting fails")
    else:
        gaps = density_violations(m)
        report.check("density", not gaps, "every nonempty model open meets the samples",
                     f"open without standard atom: {gaps[:1]}")
    if _add_coverage(report, m):
        viol = list(itertools.islice(sandwich_violations(m), 2))
        report.check("monad-sandwich", not viol,
                     "star(G) within standard monads within star(V) for nested opens",
                     "; ".join(f"G={_mask_text(m, g)} V={_mask_text(m, v)}"
                               for g, v in viol))
    else:
        report.add("monad-sandwich", INFO, "skipped: coverage fails")
    _report_flags(report, "sample-space-report", property_report(sample_space(m)))
    _report_flags(report, "model-report", rep)


def cmd_star(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    for i in range(len(m.atoms)):
        report.add(f"monad({_atom_label(m, i)})", INFO,
                   _mask_text(m, model_monad(m, i)))
    _add_coverage(report, m)
    _summarize(report, m)


def cmd_reflect(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    kind = args.kind
    q = t0_reflection(m.space) if kind == "t0" else t2_reflection(m.space)
    rep = property_report(q.target)
    if kind == "t0":
        report.check("target-t0", rep.t0, witness=str(rep.witness("t0")))
    else:
        report.check("target-discrete", len(q.target.opens) == 1 << q.target.n,
                     witness=f"opens={len(q.target.opens)}")
    again = t0_reflection(q.target) if kind == "t0" else t2_reflection(q.target)
    report.check("idempotent", again.is_identity)
    report.summary.update(atoms=m.space.n, classes=q.target.n, assign=list(q.assign))


def cmd_beta(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    q = t2_reflection(m.space)
    report.check("target-discrete", len(q.target.opens) == 1 << q.target.n)
    report.check("idempotent", t2_reflection(q.target).is_identity)
    std_classes = {q.assign[i] for i in m.embedding}
    report.add("samples-embedded", INFO,
               f"{len(std_classes)} classes over {len(m.embedding)} samples")
    report.summary.update(atoms=m.space.n, classes=q.target.n, assign=list(q.assign))


def cmd_beta2(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    q = t0_reflection(m.space)
    rep = property_report(q.target)
    for flag in ("t0", "compact", "locally_compact", "supercompact"):
        report.check(f"target-{flag}", getattr(rep, flag),
                     witness=str(rep.witness(flag)))
    report.check("idempotent", t0_reflection(q.target).is_identity)
    iso = iso_check(q.target, chain_space(q.target.n))
    report.add("target-iso-upper-chain", INFO, "yes" if iso else "no")
    report.summary.update(atoms=m.space.n, classes=q.target.n, assign=list(q.assign))


def cmd_retract(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    try:
        r = retraction(m)
    except NoRetraction as exc:
        report.add("retraction-exists", FAIL,
                   witness=f"{type(exc).__name__}({_atom_label(m, exc.atom)}): {exc}")
        _summarize(report, m)
        return
    report.add("retraction-exists", PASS)
    report.add("continuous", PASS)  # a theorem: see `retraction`
    report.add("fixes-standard-part", PASS)  # by construction: see `retraction`
    for i in range(len(m.atoms)):
        report.add(f"r({_atom_label(m, i)})", INFO,
                   "{" + ",".join(str(s) for s in sorted(r.assign[i])) + "}")
    _summarize(report, m)


def cmd_dcomp(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    fam = dyad_family_of(m.presentation)
    report.check("family-continuous", check_family_continuous(m, fam),
                 f"{len(fam.maps)} characteristic maps")
    emb = dcomp_embed(m, fam)
    report.add("image-vectors", INFO,
               " ".join(format(v, f"0{max(len(fam.maps), 1)}b") for v in emb.image_vectors))
    report.add("closure-size", INFO, str(len(emb.closure_vectors)))
    cc = dcomp_crosscheck(m, emb)
    # the certificate is a homeomorphism onto the whole image, so it is
    # also the embedding
    verdict = "yes" if cc.homeomorphic else "no"
    report.add("beta2-embeds-in-image", INFO, verdict)
    report.add("beta2-homeomorphic-to-image", INFO, verdict)
    report.summary.update(family=len(fam.maps), image=len(emb.image_vectors),
                          closure=len(emb.closure_vectors))


def cmd_enumerate(n: int, report: Report) -> None:
    check_enum_size(n)
    counts = []
    witness_equiv = witness_mono = witness_t2 = ""
    for k in range(n + 1):
        spaces = list(enumerate_topologies(k))
        counts.append(len(spaces))
        for s in spaces:
            rep = property_report(s)
            if not (rep.regular == rep.completely_regular == rep.all_opens_closed):
                witness_equiv = witness_equiv or repr(s.opens)
            if (rep.t2 and not rep.t1) or (rep.t1 and not rep.t0):
                witness_mono = witness_mono or repr(s.opens)
            if rep.t2 != (len(s.opens) == 1 << s.n):
                witness_t2 = witness_t2 or repr(s.opens)
    report.check("regular-eq-completely-regular-eq-clopen", not witness_equiv,
                 witness=witness_equiv)
    report.check("t2-implies-t1-implies-t0", not witness_mono, witness=witness_mono)
    report.check("t2-iff-discrete", not witness_t2, witness=witness_t2)
    report.summary.update(counts=counts, total=sum(counts))


def cmd_dot(m: StarModel, args: argparse.Namespace, report: Report) -> None:
    _write_dot(m, args.out)
    report.add("dot-written", INFO, args.out)
    _summarize(report, m)


_HANDLERS = {
    "check": cmd_check,
    "star": cmd_star,
    "reflect": cmd_reflect,
    "beta": cmd_beta,
    "beta2": cmd_beta2,
    "retract": cmd_retract,
    "dcomp": cmd_dcomp,
    "dot": cmd_dot,
}


# -- entry point --------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was, so in-process calls share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="fragment models, reflections and compactifications "
                    "of presented spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, with_file: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name)
        if with_file:
            sp.add_argument("file", help="presentation file")
        sp.add_argument("--format", choices=("text", "structured"), default="text")
        if with_file and name != "dot":  # the side diagram of a file command
            sp.add_argument("--dot", metavar="PATH", help="also write a DOT diagram")
        return sp

    for name in ("check", "star", "beta", "beta2", "retract", "dcomp"):
        add(name)
    reflect_p = add("reflect")
    reflect_p.add_argument("--kind", choices=("t0", "t2"), default="t0")
    enum_p = add("enumerate", with_file=False)
    enum_p.add_argument("--n", type=int, required=True, metavar="N")
    dot_p = add("dot")
    dot_p.add_argument("--out", required=True, metavar="PATH")
    return parser


def run(args: argparse.Namespace) -> Report:
    started = time.perf_counter()
    if args.command == "enumerate":
        report = Report(args.command, f"n={args.n}")
        cmd_enumerate(args.n, report)
    else:
        report = Report(args.command, args.file)
        m = build_star(_load(args.file))
        _HANDLERS[args.command](m, args, report)
        if getattr(args, "dot", None):
            _write_dot(m, args.dot)
            report.add("dot-written", INFO, args.dot)
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return report


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TopolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = render_structured(report) if args.format == "structured" else render_text(report)
    sys.stdout.write(out)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
