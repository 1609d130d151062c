"""Independent oracles for topolab outputs.

Nothing here imports topolab.  Set expressions are evaluated by a parser
of our own into membership bitmasks over a finite window of the ground;
atoms are recomputed by grouping window points on their membership
signature, model opens by closing the subbase atom masks as unions of
minimal neighbourhoods, and the sweep totals by counting order-preserving
maps between specialization preorders.

Each `check_*` function returns a list of mismatch strings; an empty
list means the output agrees with the oracle.
"""
from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np

# -- set expressions ------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([{}(),&|!]))")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"oracle cannot tokenize {text!r} at {pos}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def parse_expr(text: str):
    """Parse into a tuple tree: ('lit', pts) ('tail', t) ('ap', s, p)
    ('name', n) ('not', x) ('or', a, b) ('and', a, b)."""
    toks = _tokens(text)
    pos = 0

    def take(want=None):
        nonlocal pos
        tok = toks[pos]
        if want is not None and tok != want:
            raise ValueError(f"oracle expected {want!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def expr():
        node = term()
        while pos < len(toks) and toks[pos] == "|":
            take()
            node = ("or", node, term())
        return node

    def term():
        node = factor()
        while pos < len(toks) and toks[pos] == "&":
            take()
            node = ("and", node, factor())
        return node

    def factor():
        tok = take()
        if tok == "!":
            return ("not", factor())
        if tok == "(":
            node = expr()
            take(")")
            return node
        if tok == "{":
            pts = []
            while toks[pos] != "}":
                pts.append(int(take()))
                if toks[pos] == ",":
                    take()
            take("}")
            return ("lit", tuple(pts))
        if tok in ("ap", "tail"):
            take("(")
            a = int(take())
            if tok == "tail":
                take(")")
                return ("tail", a)
            take(",")
            b = int(take())
            take(")")
            return ("ap", a, b)
        return ("name", tok)

    node = expr()
    if pos != len(toks):
        raise ValueError(f"oracle found trailing tokens in {text!r}")
    return node


def bounds(node, env: dict) -> tuple[int, int]:
    """(threshold, period) such that membership is periodic from the threshold."""
    kind = node[0]
    if kind == "lit":
        return (max(node[1]) + 1 if node[1] else 0), 1
    if kind == "tail":
        return node[1], 1
    if kind == "ap":
        return node[1], node[2]
    if kind == "name":
        return env[node[1]][1]
    if kind == "not":
        return bounds(node[1], env)
    (ta, pa), (tb, pb) = bounds(node[1], env), bounds(node[2], env)
    return max(ta, tb), math.lcm(pa, pb)


def evaluate(node, env: dict, width: int) -> int:
    """Membership bitmask of the expression over the points [0, width)."""
    full = (1 << width) - 1
    kind = node[0]
    if kind == "lit":
        return sum(1 << m for m in node[1] if m < width)
    if kind == "tail":
        return full ^ ((1 << min(node[1], width)) - 1)
    if kind == "ap":
        return sum(1 << m for m in range(node[1], width, node[2]))
    if kind == "name":
        return env[node[1]][0]
    if kind == "not":
        return full ^ evaluate(node[1], env, width)
    a, b = evaluate(node[1], env, width), evaluate(node[2], env, width)
    return a | b if kind == "or" else a & b


# -- presentations and their models ----------------------------------------


class Model:
    """A presentation file's model, recomputed from its text.

    Over a finite ground the window is the ground itself.  Over omega it
    is [0, T + 2L) with T the largest threshold and L the lcm of the
    periods of every set in the file: every membership signature that
    occurs on omega occurs below T + L, so the window's signature classes
    are exactly the atoms, restricted to the window.
    """

    def __init__(self, text: str):
        finite = None
        exprs: list[tuple[str, object]] = []
        subbase: list[str] = []
        samples: list[int] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head == "ground":
                finite = None if rest.strip() == "omega" else int(rest.split()[1])
            elif head == "set":
                name, _, body = rest.partition("=")
                exprs.append((name.strip(), parse_expr(body)))
            elif head == "subbase":
                subbase = rest.split()
            elif head == "samples":
                samples = [int(v) for v in rest.split()]
        benv: dict = {}
        t_max, period = 0, 1
        for name, node in exprs:
            b = bounds(node, benv)
            benv[name] = (None, b)
            t_max, period = max(t_max, b[0]), math.lcm(period, b[1])
        for s in samples:
            t_max = max(t_max, s + 1)
        self.period_bound = period
        self.width = finite if finite is not None else t_max + 2 * period
        env: dict = {}
        for name, node in exprs:
            env[name] = (evaluate(node, env, self.width), benv[name][1])
        self.samples = samples
        self.subbase = [env[n][0] for n in subbase]
        gens = self.subbase + [1 << s for s in samples]
        classes: dict[tuple[int, ...], int] = {}
        for x in range(self.width):
            key = tuple(0 if (g >> x) & 1 else 1 for g in gens)
            classes[key] = classes.get(key, 0) | (1 << x)
        self.atoms = [classes[k] for k in sorted(classes)]
        n = len(self.atoms)
        self.n = n
        self.full = (1 << n) - 1
        self.sample_atom = [next(i for i, a in enumerate(self.atoms) if (a >> s) & 1)
                            for s in samples]
        self.star = [sum(1 << i for i, a in enumerate(self.atoms) if a & ~g == 0)
                     for g in self.subbase]
        self.monads = []
        for i in range(n):
            m = self.full
            for st in self.star:
                if (st >> i) & 1:
                    m &= st
            self.monads.append(m)
        opens = {0}
        for m in self.monads:
            opens |= {o | m for o in opens}
        self.opens = opens
        self.std_mask = sum(1 << a for a in self.sample_atom)
        self.period = 1
        if finite is None:
            for mask in self.subbase:
                self.period = math.lcm(self.period, _min_period(mask, t_max, period))

    # -- derived structure --------------------------------------------

    def label(self, i: int) -> str | None:
        """'x<s>' for a sample atom; None for a nonstandard one."""
        if i in self.sample_atom:
            return f"x{self.samples[self.sample_atom.index(i)]}"
        return None

    def t0_assign(self) -> list[int]:
        return _first_occurrence(self.monads)

    def t2_assign(self) -> list[int]:
        # components of the specialization graph x -- y when y in monad(x)
        comp = list(range(self.n))

        def root(x):
            while comp[x] != x:
                x = comp[x]
            return x

        for x in range(self.n):
            for y in range(self.n):
                if (self.monads[x] >> y) & 1:
                    comp[root(x)] = root(y)
        return _first_occurrence([root(x) for x in range(self.n)])

    def t0_is_chain(self) -> bool:
        classes = sorted(set(self.monads), key=lambda m: m.bit_count())
        return all(a & ~b == 0 for a, b in zip(classes, classes[1:]))

    def mask_text(self, labels: list[str], mask: int) -> str:
        return "{" + ",".join(labels[i] for i in range(self.n) if (mask >> i) & 1) + "}"

    def uncovered(self) -> list[int]:
        hit = 0
        for a in self.sample_atom:
            hit |= self.monads[a]
        return [i for i in range(self.n) if not (hit >> i) & 1]

    def retraction(self) -> list[list[int]] | None:
        """Sample class of each atom, or None when some atom has no candidate.

        The adherence of atom i is {s : i in monad(atom(s))}, since every
        trace member contains {i}; candidates are the samples whose
        closure among the samples equals it."""
        k = len(self.samples)
        closure = [frozenset(self.samples[j] for j in range(k)
                             if (self.monads[self.sample_atom[j]] >> self.sample_atom[x]) & 1)
                   for x in range(k)]
        out = []
        for i in range(self.n):
            adh = frozenset(self.samples[j] for j in range(k)
                            if (self.monads[self.sample_atom[j]] >> i) & 1)
            cands = [j for j in range(k) if closure[j] == adh]
            if not cands:
                return None
            out.append(sorted(self.samples[j] for j in cands))
        return out

    def retraction_continuous(self, assign: list[list[int]]) -> bool:
        k = len(self.samples)
        sample_opens = {sum(1 << j for j in range(k) if (o >> self.sample_atom[j]) & 1)
                        for o in self.opens}
        sample_monads = []
        for j in range(k):
            m = (1 << k) - 1
            for o in sample_opens:
                if (o >> j) & 1:
                    m &= o
            sample_monads.append(m)
        cls = _first_occurrence(sample_monads)
        q_opens = {sum(1 << cls[j] for j in range(k) if (o >> j) & 1) for o in sample_opens}
        for qo in q_opens:
            pre = sum(1 << i for i in range(self.n)
                      if (qo >> cls[self.samples.index(assign[i][0])]) & 1)
            if pre not in self.opens:
                return False
        return True

    def atom_shapes(self) -> list[tuple[int, int]]:
        """(threshold, period) of each atom's canonical eventually periodic form."""
        out = []
        t_max = self.width - 2 * self.period_bound
        for mask in self.atoms:
            p = _min_period(mask, t_max, self.period_bound)
            t = t_max
            while t > 0 and ((mask >> (t - 1)) & 1) == ((mask >> (t - 1 + p)) & 1):
                t -= 1
            out.append((t, p))
        return out

    def dyad_vectors(self) -> tuple[list[int], list[int]]:
        k = len(self.star)
        image = sorted({sum(1 << g for g in range(k) if not (self.star[g] >> i) & 1)
                        for i in range(self.n)})
        closure = [w for w in range(1 << k) if any(v & ~w == 0 for v in image)]
        return image, closure


def _min_period(mask: int, start: int, period: int) -> int:
    """Least d dividing period with bit x == bit x + d from start on."""
    bits = [(mask >> x) & 1 for x in range(start, start + 2 * period)]
    for d in range(1, period + 1):
        if period % d == 0 and all(bits[x] == bits[x + d] for x in range(period)):
            return d
    return period


def _first_occurrence(keys) -> list[int]:
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in keys]


# -- per-command output checks ----------------------------------------------

ISO_POINTS_CAP = 10
POINT_CAP = 16
GENERATOR_CAP = 16


def predicted_refusal(model: Model, command: str) -> bool:
    """Whether the command exceeds an internal size cap on this input."""
    classes = len(set(model.monads))
    if model.n > POINT_CAP or len(model.subbase) + len(model.samples) > GENERATOR_CAP:
        return True
    if command == "beta2":
        return classes > ISO_POINTS_CAP
    if command == "dcomp":
        image, closure = model.dyad_vectors()
        return (len(closure) > POINT_CAP or classes > ISO_POINTS_CAP
                or len(image) > ISO_POINTS_CAP)
    return False


def _items(doc: dict) -> dict[str, dict]:
    return {item["name"]: item for item in doc["items"]}


def _labels(model: Model, labels: list[str], out: list[str]) -> None:
    if len(labels) != model.n:
        out.append(f"{len(labels)} atoms, oracle has {model.n}")
        return
    seen = 0
    for i, text in enumerate(labels):
        want = model.label(i)
        if want is not None:
            if text != want:
                out.append(f"atom {i} labelled {text!r}, oracle has {want!r}")
            continue
        try:
            mask = evaluate(parse_expr(text), {}, model.width)
        except (ValueError, IndexError) as exc:
            out.append(f"atom {i} label {text!r} does not parse: {exc}")
            continue
        if mask == 0:
            out.append(f"atom {i} {text!r} is empty on the window")
        if mask & seen:
            out.append(f"atom {i} {text!r} overlaps an earlier atom")
        if mask != model.atoms[i]:
            out.append(f"atom {i} {text!r} is not the oracle's signature class")
        seen |= mask


def _summary(model: Model, doc: dict, out: list[str]) -> None:
    s = doc["summary"]
    if s.get("atoms") != model.n:
        out.append(f"summary atoms {s.get('atoms')} != {model.n}")
    if s.get("opens") != len(model.opens):
        out.append(f"summary opens {s.get('opens')} != {len(model.opens)}")
    if s.get("standard") != len(model.samples):
        out.append(f"summary standard {s.get('standard')} != {len(model.samples)}")
    _labels(model, s.get("labels", []), out)


def _status(items: dict, name: str, want: str, out: list[str]) -> None:
    got = items.get(name, {}).get("status")
    if got != want:
        out.append(f"item {name}: status {got!r}, oracle wants {want!r}")


def _detail(items: dict, name: str, want: str, out: list[str]) -> None:
    got = items.get(name, {}).get("detail")
    if got != want:
        out.append(f"item {name}: detail {got!r}, oracle wants {want!r}")


def _coverage_text(model: Model, labels: list[str], prefix: str) -> str:
    unc = model.uncovered()
    return prefix if not unc else "uncovered atoms: " + ", ".join(labels[i] for i in unc)


def check_file_command(model: Model, command: str, rc: int, stdout: str) -> list[str]:
    """Check one `--format structured` output of a file command."""
    out: list[str] = []
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"output is not one JSON document: {stdout[:80]!r}"]
    items = _items(doc)
    summary = doc.get("summary", {})
    labels = summary.get("labels", [])
    kind = command.split()[-1]
    if command in ("check", "star", "retract"):
        _summary(model, doc, out)
        if out:
            return out
    if command == "star":
        for i in range(model.n):
            _detail(items, f"monad({labels[i]})", model.mask_text(labels, model.monads[i]), out)
        _detail(items, "coverage", _coverage_text(model, labels, "covered"), out)
    elif command == "check":
        for flag in ("compact", "locally_compact", "supercompact"):
            _status(items, f"model-{flag}", "pass", out)
        _status(items, "star-identities", "pass", out)
        misses = [g for g in model.subbase
                  if g and not any((g >> s) & 1 for s in model.samples)]
        _status(items, "sample-hitting", "warn" if misses else "pass", out)
        if not misses:
            gaps = [o for o in model.opens if o and not o & model.std_mask]
            _status(items, "density", "fail" if gaps else "pass", out)
        _detail(items, "coverage", _coverage_text(model, labels, "covered"), out)
    elif kind in ("t0", "t2", "beta", "beta2"):
        assign = model.t2_assign() if kind in ("t2", "beta") else model.t0_assign()
        if summary.get("atoms") != model.n:
            out.append(f"summary atoms {summary.get('atoms')} != {model.n}")
        if summary.get("assign") != assign:
            out.append(f"assign {summary.get('assign')} != oracle {assign}")
        if summary.get("classes") != max(assign, default=-1) + 1:
            out.append(f"classes {summary.get('classes')} != {max(assign, default=-1) + 1}")
        _status(items, "idempotent", "pass", out)
        if kind == "t0":
            _status(items, "target-t0", "pass", out)
        elif kind in ("t2", "beta"):
            _status(items, "target-discrete", "pass", out)
        else:
            for flag in ("t0", "compact", "locally_compact", "supercompact"):
                _status(items, f"target-{flag}", "pass", out)
            _detail(items, "target-iso-upper-chain", "yes" if model.t0_is_chain() else "no", out)
    elif command == "retract":
        assign = model.retraction()
        _status(items, "retraction-exists", "fail" if assign is None else "pass", out)
        if assign is not None:
            _status(items, "fixes-standard-part", "pass", out)
            cont = model.retraction_continuous(assign)
            _status(items, "continuous", "pass" if cont else "fail", out)
            for i in range(model.n):
                _detail(items, f"r({labels[i]})",
                        "{" + ",".join(str(s) for s in assign[i]) + "}", out)
    elif command == "dcomp":
        image, closure = model.dyad_vectors()
        k = len(model.star)
        _status(items, "family-continuous", "pass", out)
        _detail(items, "image-vectors",
                " ".join(format(v, f"0{max(k, 1)}b") for v in image), out)
        _detail(items, "closure-size", str(len(closure)), out)
        want = {"family": k, "image": len(image), "closure": len(closure)}
        got = {key: summary.get(key) for key in want}
        if got != want:
            out.append(f"dcomp summary {got} != oracle {want}")
    failed = any(item["status"] == "fail" for item in doc["items"])
    if rc != (1 if failed else 0):
        out.append(f"exit code {rc} does not match the report (fail items: {failed})")
    return out


# -- the exhaustive sweep ------------------------------------------------------

TOPOLOGY_COUNTS = (1, 1, 4, 29, 355)   # OEIS A000798
T0_COUNTS = (1, 1, 3, 19, 219)         # OEIS A001035


def preorders(n: int) -> list[np.ndarray]:
    """Every preorder on n points as a boolean leq matrix."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in range(1 << len(pairs)):
        leq = np.eye(n, dtype=bool)
        for k, (x, y) in enumerate(pairs):
            if (bits >> k) & 1:
                leq[x, y] = True
        composed = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        if not (composed & ~leq).any():
            out.append(leq)
    return out


def sweep_expectations(max_n: int = 4) -> dict:
    """Counts of continuous maps for both sweeps, by counting order-preserving
    maps between specialization preorders (continuous = monotone there)."""
    pre = {n: preorders(n) for n in range(max_n + 1)}
    orders = {n: [p for p in pre[n] if not (p & p.T & ~np.eye(n, dtype=bool)).any()]
              for n in pre}
    t0_maps = 0
    t2_maps = 0
    for n_s, sources in pre.items():
        maps = {}
        for n_t in pre:
            rows = list(itertools.product(range(n_t), repeat=n_s))
            maps[n_t] = np.array(rows, dtype=np.int64).reshape(len(rows), n_s)
        for src in sources:
            rel = [(x, y) for x in range(n_s) for y in range(n_s) if src[x, y] and x != y]
            comps = _components(src)
            for n_t, targets in orders.items():
                t2_maps += n_t ** comps
                if not targets:
                    continue
                stack = np.stack(targets)             # (targets, n_t, n_t)
                fm = maps[n_t]                        # (maps, n_s)
                ok = np.ones((len(targets), len(fm)), dtype=bool)
                for x, y in rel:
                    ok &= stack[:, fm[:, x], fm[:, y]]
                t0_maps += int(ok.sum())
    return {
        "topologies": [len(pre[n]) for n in pre],
        "t0_spaces": [len(orders[n]) for n in orders],
        "t0_maps": t0_maps,
        "t2_maps": t2_maps,
    }


def _components(leq: np.ndarray) -> int:
    n = leq.shape[0]
    comp = list(range(n))

    def root(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for x in range(n):
        for y in range(n):
            if leq[x, y]:
                comp[root(x)] = root(y)
    return len({root(x) for x in range(n)})


def check_sweep(kind: str, report: dict, expect: dict) -> list[str]:
    out = []
    if report["sources"] != sum(TOPOLOGY_COUNTS):
        out.append(f"{kind} sweep: {report['sources']} sources, want {sum(TOPOLOGY_COUNTS)}")
    want_targets = sum(T0_COUNTS) if kind == "t0" else len(TOPOLOGY_COUNTS)
    if report["targets"] != want_targets:
        out.append(f"{kind} sweep: {report['targets']} targets, want {want_targets}")
    if report["maps"] != expect[f"{kind}_maps"]:
        out.append(f"{kind} sweep: {report['maps']} maps, oracle counts {expect[f'{kind}_maps']}")
    if report["unfactored_pairs"] or report["nonunique_pairs"]:
        out.append(f"{kind} sweep: unfactored or nonunique pairs reported")
    return out


def check_enumerate(rc: int, stdout: str) -> list[str]:
    doc = json.loads(stdout)
    out = []
    if doc["summary"].get("counts") != list(TOPOLOGY_COUNTS):
        out.append(f"enumerate counts {doc['summary'].get('counts')} != A000798")
    if doc["summary"].get("total") != sum(TOPOLOGY_COUNTS):
        out.append("enumerate total is wrong")
    if rc != 0 or any(item["status"] != "pass" for item in doc["items"]):
        out.append("enumerate law checks did not all pass")
    return out
