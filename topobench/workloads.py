"""Seeded inputs for the four workloads.

Every input is a function of the seed alone.  Generated presentations
are drawn slot by slot: each slot fixes a shape (period, set count,
sample count, atom count, and for finite files the open count and the
dyad-closure size) and the seed picks a presentation of that shape,
redrawing until the oracle finds the shape.  Fixing the shapes keeps
the cost of a pass close across seeds while the seed still changes
every set, sample and residue topolab sees.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import Model

FILE_COMMANDS = ("check", "star", "reflect --kind t0", "reflect --kind t2",
                 "beta", "beta2", "retract", "dcomp")
WIDE_COMMANDS = FILE_COMMANDS[1:]

SHIPPED = ("discrete_n.top", "n_inf.top", "partition_mod2.top", "sierpinski.top",
           "upper_n.top")

# omega slots: (lcm period, subbase sets, samples, atoms[, opens]).  The
# six- and five-atom slots make the slowest checks, so the tail (p94 of
# 152 operations) falls among five-atom checks of steady cost; periods up
# to 210 come with three atoms, where a check stays cheap.
OMEGA_SLOTS = (
    (3, 2, 2, 6), (3, 3, 1, 6), (4, 2, 2, 6), (4, 3, 1, 6), (6, 2, 2, 6),
    (6, 2, 1, 5), (6, 3, 1, 5), (10, 2, 1, 5), (15, 2, 1, 5), (24, 3, 1, 5), (30, 2, 2, 5),
    (120, 2, 1, 3), (210, 2, 1, 3), (12, 3, 2, 7, 8),
)

# finite_wide slots: (ground size, singletons, extra random sets, samples,
#                      atoms, opens, dyad-closure points)
WIDE_SLOTS = (
    (12, 7, 1, 1, 9, 161, 11), (12, 7, 1, 1, 9, 193, 10), (13, 8, 1, 1, 10, 321, 12),
    (13, 8, 1, 1, 10, 289, 13), (16, 9, 1, 2, 11, 769, 12), (16, 9, 1, 2, 12, 577, 14),
    (16, 10, 1, 1, 12, 1281, 14),
)


# every in-process operation is stopped at this deadline; no known input
# comes near it, so a miss means a regression
OP_DEADLINE_S = 30.0
# each cap-edge probe gets this long in its own process: four times the
# slowest probe that finishes today, and under the 4 s that the
# 8,193-open file takes
CAP_DEADLINE_S = 2.0


@dataclass(frozen=True)
class Op:
    """One operation.  mode "cli" calls topolab.cli.main in the pass's
    process, "sweep" calls weak_reflection_sweep(4, argv[0]) there, and
    "fresh" runs `python -m topolab.cli ARGV` as its own process."""

    name: str
    argv: tuple[str, ...]
    path: str = ""
    mode: str = "cli"
    deadline: float = OP_DEADLINE_S


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _omega_set(rng: random.Random, period: int, force_period: bool) -> str:
    pieces = []
    steps = [d for d in _divisors(period) if d > 1]
    for _ in range(rng.randint(1, 2)):
        step = period if force_period else rng.choice(steps)
        force_period = False
        residues = rng.sample(range(step), min(step, rng.randint(1, 2)))
        pieces += [f"ap({r},{step})" for r in residues]
    extra = rng.random()
    if extra < 0.4:
        pts = sorted(rng.sample(range(10), rng.randint(1, 3)))
        pieces.append("{" + ",".join(map(str, pts)) + "}")
    elif extra < 0.7:
        pieces.append(f"tail({rng.randint(3, 9)})")
    body = " | ".join(pieces)
    return f"!({body})" if rng.random() < 0.3 else body


def check_cost(model: Model) -> int:
    """Proxy for the cost of `check`: the star-identity pass combines every
    pair of algebra sets (fragment opens beyond six atoms), and a combine
    walks the threshold plus the lcm period of its operands."""
    shapes = model.atom_shapes()
    masks = range(1, 1 << model.n) if model.n <= 6 else model.opens - {0}
    cost = 0
    for mask in masks:
        members = [shapes[i] for i in range(model.n) if (mask >> i) & 1]
        cost += max(t for t, _ in members) + math.lcm(*(p for _, p in members))
    return cost * len(masks)


def omega_file(rng: random.Random, period: int, nsets: int, nsamples: int,
               atoms: int, opens: int | None = None) -> str:
    """A presentation over omega of the given shape: the median-cost one of
    nine draws that match it (the closest draws if fewer match).  Taking
    the median steadies the cost of a slot across seeds: one draw's
    thresholds and intermediate periods vary more."""
    draws = []
    for _ in range(2000):
        names = [f"S{i}" for i in range(nsets)]
        lines = ["ground omega"]
        for i, name in enumerate(names):
            lines.append(f"set {name} = {_omega_set(rng, period, i == 0)}")
        lines.append("subbase " + " ".join(names))
        samples = sorted(rng.sample(range(10), nsamples))
        lines.append("samples " + " ".join(map(str, samples)))
        text = "\n".join(lines) + "\n"
        model = Model(text)
        miss = abs(model.n - atoms) + (model.period != period)
        if opens is not None:
            miss += abs(len(model.opens) - opens)
        draws.append((miss, text, model))
        if sum(1 for d in draws if d[0] == 0) == 9:
            break
    draws.sort(key=lambda d: d[0])
    chosen = sorted(draws[:9], key=lambda d: check_cost(d[2]))
    return chosen[len(chosen) // 2][1]


def wide_file(rng: random.Random, size: int, singles: int, extra: int,
              nsamples: int, atoms: int, opens: int, closure: int) -> str:
    """A near-discrete presentation over a finite ground, drawn until its
    atom count, open count and dyad-closure size match (closest draw wins)."""
    best = None
    for _ in range(1000):
        points = rng.sample(range(size), singles)
        lines = [f"ground finite {size}"]
        names = []
        for p in points:
            names.append(f"P{p}")
            lines.append(f"set P{p} = {{{p}}}")
        for i in range(extra):
            members = sorted(rng.sample(range(size), rng.randint(2, size // 2)))
            names.append(f"R{i}")
            lines.append(f"set R{i} = {{{','.join(map(str, members))}}}")
        lines.append("subbase " + " ".join(names))
        samples = sorted(rng.sample(range(size), nsamples))
        lines.append("samples " + " ".join(map(str, samples)))
        text = "\n".join(lines) + "\n"
        model = Model(text)
        miss = (abs(model.n - atoms) * 1000 + abs(len(model.opens) - opens)
                + abs(len(model.dyad_vectors()[1]) - closure) * 10)
        if best is None or miss < best[0]:
            best = (miss, text)
        if miss == 0:
            break
    return best[1]


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _file_ops(paths: list[str], commands) -> list[Op]:
    ops = []
    for path in paths:
        for command in commands:
            head, *flags = command.split()
            ops.append(Op(f"{Path(path).name}:{command}",
                          (head, path, *flags, "--format", "structured"), path))
    return ops


def omega_fragments(seed: int, directory: Path, root: Path) -> list[Op]:
    rng = random.Random(f"omega_fragments:{seed}")
    paths = [str(root / "presentations" / name) for name in SHIPPED]
    for slot, shape in enumerate(OMEGA_SLOTS):
        paths.append(_write(directory, f"omega{slot:02d}.top", omega_file(rng, *shape)))
    return _file_ops(paths, FILE_COMMANDS)


def finite_wide(seed: int, directory: Path, root: Path) -> list[Op]:
    rng = random.Random(f"finite_wide:{seed}")
    paths = [_write(directory, f"wide{slot:02d}.top", wide_file(rng, *shape))
             for slot, shape in enumerate(WIDE_SLOTS)]
    return _file_ops(paths, WIDE_COMMANDS)


def sweep(seed: int, directory: Path, root: Path) -> list[Op]:
    """The inputs are fixed (n <= 4), so every seed gives the same operations."""
    return [Op("sweep:t0", ("t0",), mode="sweep"), Op("sweep:t2", ("t2",), mode="sweep"),
            Op("enumerate:4", ("enumerate", "--n", "4", "--format", "structured"))]


def cap_edge(seed: int, directory: Path, root: Path) -> list[Op]:
    """One input at or just under each cap, each in a fresh process."""
    rng = random.Random(f"cap_edge:{seed}")
    probes = []

    def probe(name: str, command: str, text: str) -> None:
        path = _write(directory, f"{name}.top", text)
        probes.append((name, command, path))

    # PERIOD_CAP 2^20: lcm(1024, 1023) = 1,047,552
    a, b = rng.randrange(1024), rng.randrange(1023)
    probe("period_cap", "star", f"ground omega\nset A = ap({a},1024) | ap({b},1023)\n"
                                f"subbase A\nsamples {rng.randrange(40)}\n")
    # GENERATOR_CAP 16: 15 singletons and one sample
    points = rng.sample(range(40), 16)
    probe("generator_cap", "star",
          "ground omega\n" + "".join(f"set P{p} = {{{p}}}\n" for p in points[:15])
          + "subbase " + " ".join(f"P{p}" for p in points[:15])
          + f"\nsamples {points[15]}\n")
    # MAX_FAMILY: 16 atoms, 2^13 + 1 = 8,193 opens
    points = rng.sample(range(16), 16)
    probe("family_opens", "star",
          "ground finite 16\n" + "".join(f"set P{p} = {{{p}}}\n" for p in points[:13])
          + "subbase " + " ".join(f"P{p}" for p in points[:13])
          + "\nsamples " + " ".join(map(str, sorted(points[13:]))) + "\n")
    # MAX_ISO_POINTS 10: beta2 on a T0 model with 11 classes
    points = rng.sample(range(11), 11)
    probe("iso_points", "beta2",
          "ground finite 11\n" + "".join(f"set P{p} = {{{p}}}\n" for p in points[:10])
          + "subbase " + " ".join(f"P{p}" for p in points[:10])
          + f"\nsamples {points[10]}\n")
    # FAMILY_CAP 16: dcomp over a 16-set chain
    points = rng.sample(range(16), 16)
    probe("family_cap", "dcomp",
          "ground finite 16\n" + "".join(
              f"set G{i} = {{{','.join(map(str, sorted(points[:i + 1])))}}}\n" for i in range(16))
          + "subbase " + " ".join(f"G{i}" for i in range(16)) + "\nsamples\n")
    # the dyad closure of the shipped discrete fragment has 20 > 16 points
    probes.append(("dyad_closure", "dcomp", str(root / "presentations" / "discrete_n.top")))
    # check on a finite_wide-sized file: an all-pairs pass over > 1,000 opens
    probe("check_wide", "check", wide_file(rng, *WIDE_SLOTS[-1]))
    return [Op(f"{name}:{command}", (command, path, "--format", "structured"), path,
               "fresh", CAP_DEADLINE_S) for name, command, path in probes]


WORKLOADS = {
    "omega_fragments": omega_fragments,
    "finite_wide": finite_wide,
    "sweep": sweep,
    "cap_edge": cap_edge,
}
