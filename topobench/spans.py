"""In-memory span recorder and the wrappers that feed it.

The tracer patches topolab's public functions from the outside: each
function is replaced in every topolab module that binds it (modules copy
names with `from .x import y`, so patching only the defining module would
miss most calls), and the class hooks are patched on their classes.
Spans live in flat arrays until `dump` writes them out; `aggregate`
turns them into the per-layer metrics.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("setalg", "fintop", "star", "reflect", "dcomp", "_kernels", "cli", "corpus")

# (defining module, public name); the span is named "<module>.<name>"
FUNCTIONS = (
    ("setalg", "ds_combine"), ("setalg", "atoms_of"), ("setalg", "parse_set_expr"),
    ("fintop", "generate_topology"), ("fintop", "property_report"),
    ("fintop", "iso_check"), ("fintop", "enumerate_topologies"),
    ("star", "build_star"), ("star", "star_of"), ("star", "star_identity_violations"),
    ("reflect", "t0_reflection"), ("reflect", "retraction"), ("reflect", "adherence"),
    ("reflect", "weak_reflection_sweep"),
    ("_kernels", "reflection_counts"), ("_kernels", "topology_codes"),
    ("dcomp", "dcomp_embed"), ("dcomp", "dcomp_crosscheck"),
    ("cli", "main"), ("cli", "run"), ("cli", "parse_presentation"),
    ("cli", "render_structured"),
)

# (module, class, method); the span is named "<module>.<class>" for
# __post_init__ (construction and validation) and "<module>.<class>.<method>"
# otherwise
CLASS_HOOKS = (
    ("setalg", "DefSet", "__post_init__"),
    ("fintop", "FinSpace", "__post_init__"),
    ("reflect", "QuotientMap", "__post_init__"),
    ("star", "StarModel", "union_of"),
)

REFUSAL_TYPES = ("SizeCapExceeded", "PeriodOverflow", "AtomCapExceeded", "FamilyTooLarge")
LAYERS = ("setalg", "fintop", "star", "reflect", "dcomp", "_kernels", "cli")


class Tracer:
    """Span arrays, named counters and maxima for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    def open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -- patching --------------------------------------------------------

    def wrap(self, span: str, fn, before=None, after=None, on_error=None):
        nid = self.name(span)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.counts[span + ".created"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = tracer.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer, args, result)
            return result
        return traced

    def install(self) -> None:
        """Patch every binding of every traced function and the class hooks."""
        mods = {m: importlib.import_module(f"topolab.{m}") for m in MODULES}
        for home, fname in FUNCTIONS:
            original = getattr(mods[home], fname)
            hooks = HOOKS.get(f"{home}.{fname}", {})
            wrapped = self.wrap(f"{home}.{fname}", original, **hooks)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        for home, cname, meth in CLASS_HOOKS:
            cls = getattr(mods[home], cname)
            original = cls.__dict__[meth]
            span = f"{home}.{cname}" if meth == "__post_init__" else f"{home}.{cname}.{meth}"
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(span, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(name id, self seconds) per span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return ids, dur - child

    def aggregate(self) -> dict:
        """Per-name calls and self time, plus the counters and maxima."""
        ids, self_s = self.self_times()
        calls = np.bincount(ids, minlength=len(self.names))
        selfs = np.bincount(ids, weights=self_s, minlength=len(self.names))
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(selfs[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64))


# -- hooks: counts and maxima taken at the call boundary -----------------


def _combine_before(tr: Tracer, args) -> None:
    a = args[1]
    b = args[2] if len(args) > 2 else None
    tr.peak("setalg.max_period", a.period if b is None else math.lcm(a.period, b.period))


def _combine_after(tr: Tracer, args, result) -> None:
    if result.is_empty:
        tr.counts["setalg.ds_combine.empty"] += 1


def _atoms_after(tr: Tracer, args, result) -> None:
    tr.counts["setalg.atoms_of.atoms"] += len(result)


def _parse_after(tr: Tracer, args, result) -> None:
    tr.peak("setalg.max_period", result.period)


def _generate_before(tr: Tracer, args) -> None:
    if tr.current() == "dcomp.dcomp_embed":
        tr.peak("dcomp.max_closure_points", args[0])


def _generate_after(tr: Tracer, args, result) -> None:
    tr.peak("fintop.generate_topology.max_opens", len(result.opens))


def _build_after(tr: Tracer, args, result) -> None:
    tr.peak("star.build_star.max_atoms", len(result.atoms))


def _counts_before(tr: Tracer, args) -> None:
    tr.counts["_kernels.reflection_counts.maps_scanned"] += int(args[5]) ** int(args[0])


def _counts_after(tr: Tracer, args, result) -> None:
    tr.counts["_kernels.reflection_counts.continuous"] += int(result[0])


def _codes_before(tr: Tracer, args) -> None:
    tr.counts["_kernels.topology_codes.codes_scanned"] += 2 ** (2 ** int(args[0]))


def _codes_after(tr: Tracer, args, result) -> None:
    tr.counts["_kernels.topology_codes.topologies"] += len(result)


def _run_error(tr: Tracer, exc: Exception) -> None:
    from topolab.errors import UsageError
    if isinstance(exc, (UsageError, OSError)):
        kind = type(exc).__name__
        tr.counts["cli.refusals." + (kind if kind in REFUSAL_TYPES else "other")] += 1


HOOKS = {
    "setalg.ds_combine": {"before": _combine_before, "after": _combine_after},
    "setalg.atoms_of": {"after": _atoms_after},
    "setalg.parse_set_expr": {"after": _parse_after},
    "fintop.generate_topology": {"before": _generate_before, "after": _generate_after},
    "star.build_star": {"after": _build_after},
    "_kernels.reflection_counts": {"before": _counts_before, "after": _counts_after},
    "_kernels.topology_codes": {"before": _codes_before, "after": _codes_after},
    "cli.run": {"on_error": _run_error},
}


def merge(aggs: list[dict]) -> dict:
    """Sum calls, self time and counts over several processes; max the maxima."""
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter(), "maxima": {}}
    for agg in aggs:
        for key in ("calls", "self_s", "counts"):
            out[key].update(agg[key])
        for key, value in agg["maxima"].items():
            out["maxima"][key] = max(value, out["maxima"].get(key, 0))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, ops: int) -> dict[str, float]:
    """The per-layer metric values from one pass's aggregate."""
    calls, self_s = agg["calls"], agg["self_s"]
    counts, maxima = agg["counts"], agg["maxima"]
    out: dict[str, float] = {}
    for name in ("setalg.ds_combine", "setalg.DefSet", "fintop.generate_topology",
                 "fintop.FinSpace", "star.build_star", "star.star_of",
                 "star.StarModel.union_of", "_kernels.reflection_counts", "cli.main"):
        out[name + ".calls"] = calls.get(name, 0)
    for name in ("setalg.ds_combine", "setalg.DefSet", "setalg.atoms_of",
                 "setalg.parse_set_expr", "fintop.generate_topology", "fintop.FinSpace",
                 "fintop.property_report", "fintop.iso_check", "fintop.enumerate_topologies",
                 "star.build_star", "star.star_of", "star.star_identity_violations",
                 "star.StarModel.union_of", "reflect.QuotientMap", "reflect.t0_reflection",
                 "reflect.retraction", "reflect.weak_reflection_sweep",
                 "_kernels.reflection_counts", "_kernels.topology_codes", "dcomp.dcomp_embed",
                 "dcomp.dcomp_crosscheck", "cli.main", "cli.parse_presentation",
                 "cli.render_structured"):
        out[name + ".self_s"] = self_s.get(name, 0.0)
    out["setalg.ds_combine.empty_share"] = _ratio(counts.get("setalg.ds_combine.empty", 0),
                                                  calls.get("setalg.ds_combine", 0))
    out["setalg.atoms_of.atoms"] = counts.get("setalg.atoms_of.atoms", 0)
    out["setalg.max_period"] = maxima.get("setalg.max_period", 0)
    out["fintop.generate_topology.max_opens"] = maxima.get("fintop.generate_topology.max_opens", 0)
    out["star.build_star.calls_per_op"] = _ratio(calls.get("star.build_star", 0), ops)
    out["star.build_star.max_atoms"] = maxima.get("star.build_star.max_atoms", 0)
    out["reflect.adherence.calls"] = calls.get("reflect.adherence", 0)
    scanned = counts.get("_kernels.reflection_counts.maps_scanned", 0)
    out["_kernels.reflection_counts.maps_scanned"] = scanned
    out["_kernels.reflection_counts.useful_ratio"] = _ratio(
        counts.get("_kernels.reflection_counts.continuous", 0), scanned)
    codes = counts.get("_kernels.topology_codes.codes_scanned", 0)
    out["_kernels.topology_codes.codes_scanned"] = codes
    out["_kernels.topology_codes.useful_ratio"] = _ratio(
        counts.get("_kernels.topology_codes.topologies", 0), codes)
    out["dcomp.max_closure_points"] = maxima.get("dcomp.max_closure_points", 0)
    for kind in REFUSAL_TYPES + ("other",):
        out["cli.refusals." + kind] = counts.get("cli.refusals." + kind, 0)
    total = sum(self_s.values())
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = _ratio(
            sum(v for k, v in self_s.items() if k.split(".")[0] == layer), total)
    # metric names start with a letter, so the _kernels layer reports as "kernels"
    return {name.replace("_kernels", "kernels"): value for name, value in out.items()}
