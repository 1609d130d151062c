"""Grammar fuzzer: presentation files written from the README's grammar,
with numbers at and just past each cap, deep nesting, repeated and reserved
names and stray bytes, run through every file command in-process.  Every
run must end in exit 0, 1 or 2 within the deadline: never a traceback,
which also exits 1 and so would read as a failed check."""
import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from topolab.cli import main
from topolab.setalg import GENERATOR_CAP, MAX_DIGITS, MAX_NESTING, PERIOD_CAP

COMMANDS = (["check"], ["star"], ["beta"], ["beta2"], ["retract"], ["dcomp"],
            ["reflect", "--kind", "t0"], ["reflect", "--kind", "t2"], ["dot"])
DEADLINE_S = 2.0  # per run, as the cap guards in test_cli.py

# numbers at and just past each cap, and numerals `int()` reads differently
# or not at all; most numbers are small, so most files reach a model
EDGE_NUMBERS = [str(n) for n in (PERIOD_CAP - 1, PERIOD_CAP, PERIOD_CAP + 1,
                                 GENERATOR_CAP, GENERATOR_CAP + 1, 63, 64, 65)] + [
    "0" * (MAX_DIGITS - 1) + "1", "0" * MAX_DIGITS + "1"]
BAD_NUMBERS = ["1" * 5000, "²", "٣", "-1", "+1", "1_0", "", "x"]


def once_in(odds):
    """True about once in `odds` draws (on a middle value, since hypothesis
    draws the ends of a range more often)."""
    return st.integers(1, odds).map(lambda k: k == odds // 2)


def rarely(common, rare, odds=8):
    return once_in(odds).flatmap(lambda hit: rare if hit else common)


numbers = rarely(st.integers(0, 12).map(str),
                 rarely(st.sampled_from(EDGE_NUMBERS), st.sampled_from(BAD_NUMBERS), 3))
# repeated, reserved and malformed names
ODD_NAMES = ["A", "ap", "tail", "1A", "_"]


def expressions(names):
    leaf = st.one_of(
        st.lists(numbers, min_size=1, max_size=4).map(lambda xs: "{" + ",".join(xs) + "}"),
        st.builds("ap({},{})".format, numbers, numbers.map(lambda p: p if p != "0" else "2")),
        st.builds("tail({})".format, numbers),
        st.sampled_from(names) if names else st.just("{0}"),
    )
    deep = st.integers(MAX_NESTING - 1, MAX_NESTING + 1).flatmap(
        lambda d: st.sampled_from(["(" * d + "{1}" + ")" * d, "!" * d + "{1}"]))
    return st.recursive(rarely(leaf, deep, 40), lambda inner: st.one_of(
        inner.map("!{}".format),
        inner.map("({})".format),
        st.builds("{} {} {}".format, inner, st.sampled_from("|&"), inner),
    ), max_leaves=4)


@st.composite
def map_lines(draw, omega: bool, i: int):
    name = draw(rarely(st.just(f"f{i}"), st.sampled_from(ODD_NAMES), 16))
    if not omega:
        entries = [f"{m}:{draw(numbers)}" for m in range(draw(st.integers(0, 6)))]
        return f"map {name} = table {' '.join(entries)}"
    t, p = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    entries = [f"{m}:{draw(numbers)}" for m in range(t)]
    clauses = [f"{r}: {draw(st.sampled_from(['shift', 'const']))} "
               f"{draw(numbers | st.sampled_from(['-1', '-3']))}" for r in range(p)]
    return f"map {name} = table {' '.join(entries)} ; periodic {t} {p} {' '.join(clauses)}"


@st.composite
def presentation_files(draw) -> bytes:
    # the small numbers, 0 to 12, all lie in the finite ground
    ground = draw(rarely(st.sampled_from(["omega", "finite 13"]),
                         numbers.map("finite {}".format) | st.just("bogus"), 10))
    lines = [f"ground {ground}"]
    names: list[str] = []
    if draw(once_in(10)):
        # one generator short of, at, or past the cap, each a singleton
        names = [f"G{i}" for i in range(draw(st.integers(GENERATOR_CAP - 1, GENERATOR_CAP + 1)))]
        lines += [f"set {name} = {{{i}}}" for i, name in enumerate(names)]
    for i in range(draw(st.integers(1, 4))):
        name = draw(rarely(st.just(f"S{i}"), st.sampled_from(ODD_NAMES + names[:1]), 16))
        lines.append(f"set {name} = {draw(expressions(names))}")
        names.append(name)
    lines.append(" ".join(["subbase", *draw(rarely(
        st.lists(st.sampled_from(names), unique=True, max_size=GENERATOR_CAP + 1) | st.just(names),
        st.lists(st.sampled_from(ODD_NAMES), max_size=2)))]))
    lines.append(" ".join(["samples", *draw(st.lists(numbers, max_size=3))]))
    lines += [draw(map_lines(ground == "omega", i)) for i in range(draw(st.integers(0, 2)))]
    # now and then repeat or move a line, or put in a stray byte
    if draw(once_in(8)):
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(draw(st.integers(0, len(lines))), lines[i] if draw(st.booleans())
                     else lines.pop(i))
    text = "\n".join(lines).encode()
    if draw(once_in(8)):
        stray = draw(st.sampled_from([b"\xff", b"\x00", b"\xc3", b"\r", b"\x0b", b"#", b"{"]))
        at = draw(st.integers(0, len(text)))
        text = text[:at] + stray + text[at:]
    return text


def run_everywhere(data: bytes, fmt: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.top")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in COMMANDS:
            argv = [command[0], path, *command[1:], "--format", fmt]
            if command[0] == "dot":
                argv += ["--out", os.path.join(tmp, "out.dot")]
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            elapsed = time.perf_counter() - start
            assert code in (0, 1, 2), (argv, code)
            assert elapsed < DEADLINE_S, (argv, elapsed)
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
            if code == 1:
                if fmt == "structured":
                    items = json.loads(out.getvalue())["items"]
                    assert any(item["status"] == "fail" for item in items), argv
                else:
                    assert "\n  fail  " in out.getvalue(), argv


@given(presentation_files(), st.sampled_from(["text", "structured"]))
# numbers `str.isdigit` accepts but `int()` refuses or misreads, and numbers
# longer than `int()` reads, each once escaped `main` as a ValueError
@example(b"ground finite \xc2\xb2\nsubbase\nsamples\n", "text")
@example("ground finite ٣\nset A = {٣}\nsubbase A\nsamples\n".encode(), "text")
@example(b"ground omega\nsubbase\nsamples \xc2\xb2\n", "text")
@example("ground omega\nsubbase\nsamples\nmap f = table ²:0\n".encode(), "text")
@example("ground omega\nsubbase\nsamples\nmap f = table ; periodic ² 1 0: shift 0\n".encode(),
         "text")
@example("ground omega\nsubbase\nsamples\nmap f = table ; periodic 0 1 ²: shift 0\n".encode(),
         "structured")
@example(f"ground finite {'1' * 5000}\nsubbase\nsamples\n".encode(), "text")
@example(f"ground omega\nsubbase\nsamples {'1' * 5000}\n".encode(), "text")
@example(f"ground omega\nset A = {{{'1' * 5000}}}\nsubbase A\nsamples\n".encode(), "text")
@example(f"ground omega\nset A = ap(0,{'1' * 5000})\nsubbase A\nsamples\n".encode(), "text")
@example(f"ground omega\nset A = tail({'1' * 5000})\nsubbase A\nsamples\n".encode(), "text")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_file_command_ends_in_an_exit_code(data, fmt):
    run_everywhere(data, fmt)
