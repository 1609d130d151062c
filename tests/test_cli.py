"""Presentation-file grammar, report rendering, exit codes, wall-clock guards,
the import boundary of a cold process and the benchmark tracer's view of the
CLI."""
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import topolab.cli
from topolab.cli import main, parse_presentation
from topolab.dcomp import dcomp_embed, dyad_family_of
from topolab.errors import (
    GroundMismatch,
    OutOfGround,
    ParseError,
    PeriodOverflow,
    SampleNotInGround,
    SizeCapExceeded,
    UnknownName,
)
from topolab.fintop import FinSpace, iso_check
from topolab.star import build_star

ROOT = Path(__file__).resolve().parent.parent
PRES = ROOT / "presentations"

SIERP_TEXT = """\
ground finite 2
set A = {0}
subbase A
samples 0 1
"""


# -- grammar ------------------------------------------------------------

def test_parse_and_build_from_file():
    pf = parse_presentation((PRES / "upper_n.top").read_text())
    m = build_star(pf.presentation())
    assert len(m.atoms) == 4


def test_parse_finite_ground_presentation():
    pf = parse_presentation(SIERP_TEXT)
    m = build_star(pf.presentation())
    assert iso_check(m.space, FinSpace(2, (0b01, 0b11))) is not None


def test_parse_maps_both_grounds():
    pf = parse_presentation(
        "ground omega\n"
        "set A = tail(1)\n"
        "subbase A\n"
        "samples 1 2\n"
        "map bump = table 0:0 ; periodic 1 1 0: shift 1\n"
        "map flat = table 0:7 ; periodic 1 1 0: const 7\n"
        "map mixed = table 0:0 1:3 ; periodic 2 2 0: shift 2 1: const 5\n")
    maps = dict(pf.maps)
    assert [maps["bump"](n) for n in range(4)] == [0, 2, 3, 4]
    assert [maps["flat"](n) for n in range(4)] == [7, 7, 7, 7]
    assert [maps["mixed"](n) for n in range(8)] == [0, 3, 4, 5, 6, 5, 8, 5]

    pf = parse_presentation(
        "ground finite 3\nset A = {0}\nsubbase A\nsamples 0 1 2\n"
        "map swap = table 0:1 1:0 2:2\n")
    assert [dict(pf.maps)["swap"](n) for n in range(3)] == [1, 0, 2]


@pytest.mark.parametrize("text,line,col,fragment", [
    ("ground omega\nset A = \nsubbase A\nsamples 0\n", 2, 8, "expected a set"),
    ("ground omega\nset A = {1 2}\nsubbase A\nsamples 1\n", 2, 12, None),
    ("ground omega\nset = {0}\nsubbase\nsamples\n", 2, None, "set NAME = EXPR"),
    ("ground omega\nground omega\nsubbase\nsamples\n", 2, None, "duplicate ground"),
    ("set A = {0}\nsubbase A\nsamples 0\n", 1, None, "ground must be declared"),
    ("ground omega\nfrobnicate\nsubbase\nsamples\n", 2, None, "unknown directive"),
    ("ground omega\nsamples 0\n", None, None, "missing subbase"),
    ("ground omega\nsubbase\n", None, None, "missing samples"),
    ("ground omega\nsubbase\nsamples x\n", 3, None, "natural numbers"),
    ("ground bogus\nsubbase\nsamples\n", 1, None, "bad ground"),
    ("ground omega\nsubbase\nsamples 1 1\n", 3, None, "duplicate sample 1"),
    ("ground omega\nset ap = {1}\nsubbase ap\nsamples 1\n", 2, None, "'ap' is reserved"),
    ("ground omega\nset tail = {1}\nset B = tail | {2}\nsubbase B\nsamples 1\n", 2, None,
     "'tail' is reserved"),
])
def test_parse_errors_carry_position(text, line, col, fragment):
    with pytest.raises(ParseError) as e:
        parse_presentation(text)
    assert e.value.line == line and e.value.col == col
    if fragment:
        assert fragment in str(e.value)


@pytest.mark.parametrize("body,fragment", [
    ("0:0 ; periodic 1 1 0: shift 0", "must start with 'table'"),
    ("table 0-0 ; periodic 1 1 0: shift 0", "bad table entry"),
    ("table 0:0 0:1 ; periodic 2 1 0: shift 0", "duplicate table entry"),
    ("table 0:0", "need '; periodic"),
    ("table 0:0 ; periodic 2 1 0: shift 0", "misses point 1"),
    ("table 0:0 1:1 ; periodic 1 1 0: shift 0", "at or above threshold"),
    ("table 0:0 ; periodic 1 2 0: shift 0", "expected 2 residue clauses"),
    ("table 0:0 ; periodic 1 1 0: wobble 3", "unknown rule kind"),
    ("table 0:0 ; periodic 1 1 7: shift 0", "out of range"),
    ("table 0:0 ; periodic 1 0", "period must be at least 1"),
])
def test_map_parse_errors(body, fragment):
    text = f"ground omega\nsubbase\nsamples\nmap f = {body}\n"
    with pytest.raises(ParseError) as e:
        parse_presentation(text)
    assert fragment in str(e.value)


def test_finite_map_rejects_periodic_part():
    with pytest.raises(ParseError) as e:
        parse_presentation("ground finite 2\nsubbase\nsamples\n"
                           "map f = table 0:0 1:1 ; periodic 1 1 0: shift 0\n")
    assert "no periodic part" in str(e.value)


def test_unknown_set_name_reports_line():
    with pytest.raises(UnknownName) as e:
        parse_presentation("ground omega\nsubbase B\nsamples\n")
    assert "line 2" in str(e.value) and "'B'" in str(e.value)


@pytest.mark.parametrize("ground, expr, error, text", [
    ("omega", "{1048576}", PeriodOverflow,
     "threshold 1048577 of point 1048576 exceeds cap 1048576"),
    ("omega", "{0}|ap(0,1048577)", PeriodOverflow, "period 1048577 exceeds cap 1048576"),
    ("finite 3", "{1,5}", OutOfGround, "5 is not in finite(3)"),
])
def test_cap_errors_in_set_lines_name_the_line(ground, expr, error, text):
    with pytest.raises(error) as e:
        parse_presentation(f"ground {ground}\n# a comment\nset A = {expr}\nsubbase A\n")
    assert str(e.value) == f"line 3: {text}"


@pytest.mark.parametrize("error", [SizeCapExceeded, GroundMismatch])
def test_unreached_cap_errors_of_a_set_line_keep_their_type(error, monkeypatch, tmp_path,
                                                            capsys):
    # no file reaches these inside a set expression today; the line is
    # named whichever cap error the expression raises
    def refuse(text, ground, names):
        raise error("over the cap")

    monkeypatch.setattr(topolab.cli, "parse_set_expr", refuse)
    with pytest.raises(error) as e:
        parse_presentation("ground omega\nset A = {1}\n")
    assert type(e.value) is error and str(e.value) == "line 2: over the cap"
    path = tmp_path / "capped.top"
    path.write_text("ground omega\nset A = {1}\nsubbase A\nsamples\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: over the cap\n"


# -- exit codes and rendering --------------------------------------------

def test_exit_zero_on_clean_model(capsys):
    assert main(["beta2", str(PRES / "upper_n.top"), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "target-t0" in out and "fail" not in out and out.startswith("topolab beta2")


def test_exit_one_on_failed_check(capsys):
    assert main(["retract", str(PRES / "discrete_n.top")]) == 1
    assert "NoRetraction" in capsys.readouterr().out


def test_exit_one_on_density_gap(capsys):
    assert main(["check", str(PRES / "discrete_n.top")]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "density" in out


def test_exit_two_on_missing_file(capsys):
    assert main(["check", str(PRES / "no_such_file.top")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_duplicate_samples(tmp_path, capsys):
    path = tmp_path / "twice.top"
    path.write_text("ground omega\nsubbase\nsamples 1 1\n")
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: line 3: duplicate sample 1\n"


def test_exit_two_on_a_sample_past_the_threshold_cap(tmp_path, capsys):
    path = tmp_path / "far.top"
    path.write_text("ground omega\nset A = {1}\nsubbase A\n\nsamples 3 99999999999999999999\n")
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "error: line 5: threshold 100000000000000000000 of point 99999999999999999999 "
        "exceeds cap 1048576\n")
    # the last point under the cap is a sample
    assert parse_presentation("ground omega\nsubbase\nsamples 1048575\n").samples == (1048575,)


def test_exit_two_on_a_sample_outside_a_finite_ground(tmp_path, capsys):
    # checked once the ground is known, wherever the samples line stands
    path = tmp_path / "outside.top"
    for text in ("ground finite 4\nset A = {1}\nsubbase A\n  samples 0  5 4 # c\n",
                 "  samples 0  5 4 # c\nground finite 4\nset A = {1}\nsubbase A\n"):
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr()
        line = 4 if text.startswith("ground") else 1
        assert out.out == "" and out.err == (
            f"error: line {line}, col 14: sample 5 outside finite(4)\n")
    with pytest.raises(SampleNotInGround):
        parse_presentation("ground finite 0\nsubbase\nsamples 0\n")
    assert parse_presentation("ground finite 4\nsubbase\nsamples 3\n").samples == (3,)


def test_exit_two_on_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.top"
    path.write_bytes(b"ground omega\nset A = {1}\xff\nsubbase A\nsamples\n")
    assert main(["star", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"error: {path} is not UTF-8: invalid start byte at byte 24\n")


@pytest.mark.parametrize("expr", ["(" * 10000 + "{1}" + ")" * 10000, "!" * 10000 + "{1}"],
                         ids=["parens", "bangs"])
def test_deep_nesting_exits_two_within_two_seconds(tmp_path, expr):
    # the parser recurses once per level, so past its cap of 100 levels it
    # refuses instead of running out of stack; a fresh process each time
    path = tmp_path / "deep.top"
    path.write_text(f"ground omega\nset A = {expr}\nsubbase A\nsamples\n")
    start = time.perf_counter()
    proc = _fresh("-m", "topolab.cli", "check", str(path))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: line 2, col 109: nested deeper than 100 levels\n"
    assert elapsed < 2.0


def test_exit_two_on_atom_cap(tmp_path, capsys):
    # 16 subbase sets and one sample: one generator past the cap
    path = tmp_path / "wide.top"
    path.write_text("ground omega\n"
                    + "".join(f"set S{i} = {{{i}}}\n" for i in range(16))
                    + "subbase " + " ".join(f"S{i}" for i in range(16)) + "\nsamples 20\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: 17 generators (subbase + samples) exceed cap 16\n")


def test_exit_two_on_wide_dyad_closure(tmp_path, capsys):
    # seven nested tails: the atom tail(7) lies in every set, so its vector
    # is 0 and the closure is all 128 vectors, past the 64-point cap
    path = tmp_path / "nested.top"
    path.write_text("ground omega\n" + "".join(f"set T{i} = tail({i})\n" for i in range(1, 8))
                    + "subbase " + " ".join(f"T{i}" for i in range(1, 8)) + "\nsamples 0\n")
    assert main(["dcomp", str(path)]) == 2
    err = capsys.readouterr().err
    assert "more than 64 points, outside [0, 64]" in err and "dyad closure" in err


def test_dcomp_and_beta2_answer_past_the_iso_cap(tmp_path, capsys):
    # ten singletons open and an eleventh sample point: a T0 model with 11
    # classes, one more than the homeomorphism search takes
    path = tmp_path / "iso_points.top"
    path.write_text("ground finite 11\n" + "".join(f"set P{p} = {{{p}}}\n" for p in range(10))
                    + "subbase " + " ".join(f"P{p}" for p in range(10)) + "\nsamples 10\n")
    assert main(["dcomp", str(path), "--format", "structured"]) == 0
    items = {i["name"]: i["detail"] for i in json.loads(capsys.readouterr().out)["items"]}
    assert items["beta2-embeds-in-image"] == items["beta2-homeomorphic-to-image"] == "yes"
    # the chain's points have pairwise distinct keys, so beta2 never searches
    assert main(["beta2", str(path), "--format", "structured"]) == 0
    items = {i["name"]: i["detail"] for i in json.loads(capsys.readouterr().out)["items"]}
    assert items["target-iso-upper-chain"] == "no"
    chain = tmp_path / "chain11.top"
    chain.write_text("ground finite 11\n" + "".join(
        f"set G{i} = {{{','.join(map(str, range(i + 1)))}}}\n" for i in range(10))
        + "subbase " + " ".join(f"G{i}" for i in range(10)) + "\nsamples 10\n")
    assert main(["beta2", str(chain), "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    items = {i["name"]: i["detail"] for i in out["items"]}
    assert out["summary"]["classes"] == 11 and items["target-iso-upper-chain"] == "yes"


def test_exit_two_when_generators_split_past_the_point_cap(tmp_path, capsys):
    # set Gi is bit i of m mod 4096: twelve independent generators within
    # every cap whose atoms are the 4096 residue classes
    lines = ["ground omega"]
    for i in range(12):
        terms = "|".join(f"ap({r},4096)" for r in range(4096) if (r >> i) & 1)
        lines.append(f"set G{i} = {terms}")
    lines += ["subbase " + " ".join(f"G{i}" for i in range(12)), "samples 0"]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "bits4096.top"
    path.write_text(text)
    with pytest.raises(SizeCapExceeded):
        build_star(parse_presentation(text).presentation())
    assert main(["star", str(path)]) == 2
    assert "more than 16 atoms" in capsys.readouterr().err


def test_exit_two_on_an_atom_label_past_the_term_cap(tmp_path, capsys):
    # at period lcm(1024, 1023) the complement atom has over a million
    # residue classes; the report refuses it instead of printing them
    path = tmp_path / "period_cap.top"
    path.write_text("ground omega\nset A = ap(5,1024) | ap(7,1023)\nsubbase A\nsamples 3\n")
    for command in ("star", "check"):
        assert main([command, str(path), "--format", "structured"]) == 2
        assert "over the label cap of 4096" in capsys.readouterr().err


def test_exit_two_on_bad_usage():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_shared_parser_gives_the_same_answers(capsys):
    # the parser is built once per process; a usage error must leave it as
    # it was for the next call
    assert topolab.cli._build_parser() is topolab.cli._build_parser()
    argv = ["reflect", str(PRES / "upper_n.top"), "--kind", "t2", "--format", "structured"]
    assert main(argv) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["reflect", str(PRES / "upper_n.top"), "--kind", "t9"])
    assert e.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    second = capsys.readouterr()
    assert (first.out, first.err) == (second.out, second.err)


def test_reflect_kinds(capsys):
    assert main(["reflect", str(PRES / "upper_n.top"), "--kind", "t2"]) == 0
    assert "target-discrete" in capsys.readouterr().out
    assert main(["reflect", str(PRES / "upper_n.top")]) == 0
    assert "target-t0" in capsys.readouterr().out


def test_enumerate_counts(capsys):
    assert main(["enumerate", "--n", "3", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["counts"] == [1, 1, 4, 29]
    assert doc["summary"]["total"] == 35
    assert all(i["status"] == "pass" for i in doc["items"])


@pytest.mark.parametrize("n", ["-1", "5"])
def test_enumerate_refuses_sizes_outside_the_cap(n, capsys):
    assert main(["enumerate", "--n", n, "--format", "structured"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "enumeration takes 0 to 4 points" in out.err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "2"],
    ["dot", str(PRES / "sierpinski.top"), "--out", "never-written.dot"],
])
def test_dot_side_flag_rejected_where_it_would_be_ignored(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dot", str(tmp_path / "side.dot")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err


def test_structured_output_is_deterministic(capsys):
    argv = ["check", str(PRES / "n_inf.top"), "--format", "structured"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert set(doc) == {"command", "items", "source", "summary"}
    assert "time" not in first and "elapsed" not in first


def test_text_output_carries_timing(capsys):
    assert main(["star", str(PRES / "sierpinski.top")]) == 0
    assert "time:" in capsys.readouterr().out


def test_dot_output(tmp_path, capsys):
    out = tmp_path / "m.dot"
    assert main(["dot", str(PRES / "n_inf.top"), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph") and "rankdir=BT" in text
    assert "x0 = tail(4)" in text


def test_dot_side_flag(tmp_path, capsys):
    out = tmp_path / "side.dot"
    assert main(["check", str(PRES / "upper_n.top"), "--dot", str(out)]) == 0
    assert out.exists() and "dot-written" in capsys.readouterr().out


# -- wall-clock guards on wide models -------------------------------------

def _singletons_file(size, points, extra=None, samples=()):
    lines = [f"ground finite {size}"]
    names = []
    for p in points:
        names.append(f"P{p}")
        lines.append(f"set P{p} = {{{p}}}")
    if extra is not None:
        names.append("R")
        lines.append("set R = {" + ",".join(map(str, extra)) + "}")
    lines += ["subbase " + " ".join(names), "samples " + " ".join(map(str, samples))]
    return "\n".join(lines) + "\n"


def _timed_main(argv):
    start = time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - start


def test_star_on_a_wide_family_within_two_seconds(tmp_path, capsys):
    # 13 singleton opens on 16 points: 16 atoms, 2^13 + 1 = 8,193 opens
    path = tmp_path / "family.top"
    path.write_text(_singletons_file(16, range(13), samples=(13, 14, 15)))
    rc, elapsed = _timed_main(["star", str(path), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["summary"]["opens"] == 8193 and doc["summary"]["atoms"] == 16
    assert elapsed < 2.0


@pytest.mark.parametrize("argv", [["reflect", "--kind", "t0"], ["beta2"], ["retract"]])
def test_reflections_at_the_family_cap_within_two_seconds(tmp_path, capsys, argv):
    # the 16-atom, 8,193-open file above; its T0 target keeps all 8,193
    # opens on 14 points, since the three samples share one monad
    path = tmp_path / "family.top"
    path.write_text(_singletons_file(16, range(13), samples=(13, 14, 15)))
    rc, elapsed = _timed_main([argv[0], str(path), *argv[1:], "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["summary"]["atoms"] == 16
    assert elapsed < 2.0


# 13 singleton opens beside three sets of period 1024, 1,047,552 and 1024:
# 16 atoms, 24,579 opens and a common period of 1,047,552
WIDE_OMEGA = "".join(["ground omega\n", *(f"set P{i} = {{{100 + i}}}\n" for i in range(13)),
                      "set A = ap(0,1024)\nset B = ap(0,1024) & ap(0,1023)\n",
                      "set C = !ap(0,1024)\n",
                      "subbase " + " ".join(f"P{i}" for i in range(13)) + " A B C\n",
                      "samples\n"])


@pytest.mark.parametrize("command,code,out", [("check", 0, ""), ("dcomp", 0, "closure=31")])
def test_certificates_on_a_wide_period_within_two_seconds(tmp_path, command, code, out):
    # the star identities and the family's openness go through the frame,
    # never through one definable set per open, and the dyad spaces are
    # their monads; each run is a fresh process
    path = tmp_path / "wide.top"
    path.write_text(WIDE_OMEGA)
    start = time.perf_counter()
    proc = _fresh("-m", "topolab.cli", command, str(path))
    elapsed = time.perf_counter() - start
    assert proc.returncode == code and proc.stderr == "" and out in proc.stdout, proc.stderr
    assert elapsed < 2.0


@pytest.mark.parametrize("argv,code", [
    (["star"], 0), (["reflect", "--kind", "t0"], 0), (["reflect", "--kind", "t2"], 0),
    (["beta"], 0), (["beta2"], 0), (["retract"], 1)])  # no sample, so no retraction
def test_model_commands_on_a_wide_period_within_two_seconds(tmp_path, capsys, argv, code):
    path = tmp_path / "wide.top"
    path.write_text(WIDE_OMEGA)
    rc, elapsed = _timed_main([argv[0], str(path), *argv[1:], "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == code and doc["summary"]["atoms"] == 16
    assert elapsed < 2.0


def test_thresholds_at_the_period_cap_within_two_seconds(tmp_path, capsys):
    # a threshold is bounded as a period is: the last point under the cap
    # answers, and a point, tail or progression start past it is refused
    # at once, before its bitmask is built
    path = tmp_path / "far.top"
    path.write_text("ground omega\nset A = {1048575}\nsubbase A\nsamples 0\n")
    rc, elapsed = _timed_main(["beta2", str(path), "--format", "structured"])
    assert rc == 0 and json.loads(capsys.readouterr().out)["summary"]["atoms"] == 3
    assert elapsed < 2.0
    for expr in ("{1048576}", "tail(1048577)", "ap(1048577,2)"):
        path.write_text(f"ground omega\nset A = {expr}\nsubbase A\nsamples 0\n")
        rc, elapsed = _timed_main(["check", str(path)])
        err = capsys.readouterr().err
        assert rc == 2 and "threshold 1048577" in err and "exceeds cap 1048576" in err
        assert elapsed < 2.0


def test_file_commands_on_the_widest_finite_ground_within_two_seconds(tmp_path, capsys):
    # tails and progressions on a finite ground are one shift each, not one
    # point at a time; the sets with a million-term atom refuse at the label
    # cap, and a ground one point past the cap is refused at once
    path = tmp_path / "wide.top"
    path.write_text("ground finite 1048576\nset A = tail(0)\nset B = ap(3,1023)|{7}\n"
                    "set C = tail(500000)\nsubbase A B C\nsamples 0\n")
    expected = {"check": 2, "star": 2, "reflect": 0, "beta": 0, "beta2": 0, "retract": 2,
                "dcomp": 0}
    for command, code in expected.items():
        rc, elapsed = _timed_main([command, str(path), "--format", "structured"])
        assert rc == code, command
        assert elapsed < 2.0, command
    capsys.readouterr()
    path.write_text("ground finite 1048577\nset A = tail(0)\nsubbase A\nsamples 0\n")
    rc, elapsed = _timed_main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and "finite ground of 1048577 points exceeds cap 1048576" in err
    assert elapsed < 2.0


def test_check_at_the_family_cap_within_two_seconds(tmp_path, capsys):
    # the 16-atom, 8,193-open file above: 8,191 opens escape their spread,
    # so over a million nested pairs fail the sandwich; two are printed
    path = tmp_path / "family.top"
    path.write_text(_singletons_file(16, range(13), samples=(13, 14, 15)))
    rc, elapsed = _timed_main(["check", str(path), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["summary"]["opens"] == 8193
    sandwich = next(item for item in doc["items"] if item["name"] == "monad-sandwich")
    assert sandwich["status"] == "fail"
    assert sandwich["witness"] == "G={{0}} V={{0}}; G={{0}} V={{0},{1}}"
    assert elapsed < 2.0


def test_check_on_a_near_discrete_model_within_two_seconds(tmp_path, capsys):
    # ten singletons and one wider set: 12 atoms and 1,024 + 256 + 1 = 1,281
    # opens; the sample's atom has the whole model as its monad, so coverage
    # holds and the nested-open sandwich runs too
    path = tmp_path / "wide.top"
    path.write_text(_singletons_file(16, range(10), extra=(2, 3, 10, 11, 12, 13, 14),
                                     samples=(15,)))
    rc, elapsed = _timed_main(["check", str(path), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["opens"] == 1281 and doc["summary"]["atoms"] == 12
    status = {item["name"]: item["status"] for item in doc["items"]}
    assert status["star-identities"] == "pass" and status["coverage"] == "info"
    assert rc == 1 and status["monad-sandwich"] == "fail"
    assert elapsed < 2.0


def test_check_on_the_discrete_sixteen_point_model_within_two_seconds(tmp_path, capsys):
    # 16 singleton opens and no samples: 65,536 opens, listed only for the
    # summary's count, while the certificate tests only the 16 atoms
    path = tmp_path / "discrete.top"
    path.write_text(_singletons_file(16, range(16)))
    rc, elapsed = _timed_main(["check", str(path), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["summary"]["opens"] == 65536 and doc["summary"]["atoms"] == 16
    status = {item["name"]: item["status"] for item in doc["items"]}
    assert status["star-identities"] == "pass"
    assert elapsed < 2.0


@pytest.mark.parametrize("argv,code,summary", [
    (["star"], 0, {"atoms": 16, "opens": 65536}), (["check"], 0, {"atoms": 16, "opens": 65536}),
    (["reflect", "--kind", "t0"], 0, {"classes": 16}),
    (["reflect", "--kind", "t2"], 0, {"classes": 16}), (["beta"], 0, {"classes": 16}),
    (["beta2"], 0, {"classes": 16}),
    (["retract"], 1, {"atoms": 16, "opens": 65536}),  # no sample, so no retraction
    (["dcomp"], 0, {"family": 16, "image": 16, "closure": 17})])
def test_commands_on_the_discrete_sixteen_point_model_in_fresh_processes(tmp_path, argv, code,
                                                                         summary):
    # the file above: every command answers, dcomp included, whose image
    # has 2^16 opens and whose closure has 17 points
    path = tmp_path / "discrete.top"
    path.write_text(_singletons_file(16, range(16)))
    start = time.perf_counter()
    proc = _fresh("-m", "topolab.cli", argv[0], str(path), *argv[1:], "--format", "structured")
    elapsed = time.perf_counter() - start
    assert proc.returncode == code and proc.stderr == "", proc.stderr
    doc = json.loads(proc.stdout)
    assert summary.items() <= doc["summary"].items()
    status = {item["name"]: (item["status"], item["detail"]) for item in doc["items"]}
    failed = [name for name, (state, _) in status.items() if state == "fail"]
    assert failed == (["retraction-exists"] if code else [])
    if argv[0] == "dcomp":
        assert (status["beta2-embeds-in-image"] == status["beta2-homeomorphic-to-image"]
                == ("info", "yes"))
    assert elapsed < 2.0


def test_check_refuses_at_the_label_cap_before_any_work(tmp_path, capsys):
    # 16 atoms; the complement of A has over a million residue classes at
    # period lcm(1024, 1023), so the labels refuse the model before the
    # star identities are certified over its opens
    lines = ["ground omega"] + [f"set P{i} = {{{i}}}" for i in range(14)]
    lines += ["set A = ap(0,1024) | ap(1,1023)", "set B = !A",
              "subbase " + " ".join(f"P{i}" for i in range(14)) + " A B", "samples"]
    path = tmp_path / "labels.top"
    path.write_text("\n".join(lines) + "\n")
    rc, elapsed = _timed_main(["check", str(path)])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err == ("error: atom 15 takes 1045506 terms to write out, over the label "
                       "cap of 4096\n")
    assert elapsed < 2.0


def test_dcomp_on_the_widest_admitted_closure_within_two_seconds(tmp_path, capsys):
    # points 1, 2 and 3 take these value vectors under 12 maps, and the rest
    # of omega lies outside every map: the closure has 36 points and 60,140
    # opens, the widest a search of families found under a former 2^16-open
    # cap; with no cap on the opens, only the 64-point cap bounds a closure
    vectors = (2951, 3455, 3951)
    lines = ["ground omega"]
    for i in range(12):
        inside = [str(p) for p, v in enumerate(vectors, 1) if not (v >> i) & 1]
        lines.append(f"set G{i} = {{{','.join(inside)}}}")
    lines += ["subbase " + " ".join(f"G{i}" for i in range(12)), "samples 1 2 3"]
    path = tmp_path / "closure.top"
    path.write_text("\n".join(lines) + "\n")
    rc, elapsed = _timed_main(["dcomp", str(path), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["summary"] == {"family": 12, "image": 4, "closure": 36}
    assert {item["detail"] for item in doc["items"] if "beta2" in item["name"]} == {"yes"}
    assert elapsed < 2.0
    m = build_star(parse_presentation(path.read_text()).presentation())
    assert len(dcomp_embed(m, dyad_family_of(m.presentation)).closure.opens) == 60140


# -- the benchmark's tracer ---------------------------------------------------

def _load_spans():
    spec = importlib.util.spec_from_file_location("topobench_spans",
                                                  ROOT / "topobench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _every_command(out_dir):
    argvs = [["enumerate", "--n", "3"]]
    for path in sorted(PRES.glob("*.top")):
        for command in ("check", "star", "beta", "beta2", "retract", "dcomp"):
            argvs.append([command, str(path)])
        for kind in ("t0", "t2"):
            argvs.append(["reflect", str(path), "--kind", kind])
        argvs.append(["dot", str(path), "--out", str(out_dir / f"{path.stem}.dot")])
    return [argv + ["--format", "structured"] for argv in argvs]


def test_traced_runs_match_untraced_runs(tmp_path, capsys):
    # the benchmark wraps topolab's functions by name and reads their
    # arguments and results; a renamed function or a changed result shape
    # breaks install() or a hook, and tracing must not change any output
    argvs = _every_command(tmp_path)
    untraced = []
    for argv in argvs:
        rc = main(argv)
        untraced.append((rc, capsys.readouterr().out))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        traced = []
        for argv in argvs:
            rc = topolab.cli.main(argv)  # the patched binding
            traced.append((rc, capsys.readouterr().out))
    finally:
        tracer.uninstall()
    assert traced == untraced
    agg = tracer.aggregate()
    assert agg["calls"]["cli.main"] == len(argvs)
    assert agg["calls"]["fintop.FinSpace"] > 0 and agg["calls"]["setalg.ds_combine"] > 0


def test_one_model_and_one_embedding_per_dcomp_command(tmp_path, capsys):
    # every file command builds one model, which also serves the side
    # diagram; dcomp's embedding serves the crosscheck; and retract runs no
    # reflection, as its continuity is a theorem
    path = str(PRES / "n_inf.top")
    side = tmp_path / "side.dot"
    argvs = {command: [command, path]
             for command in ("check", "star", "reflect", "beta", "beta2", "retract", "dcomp")}
    argvs["dot"] = ["dot", path, "--out", str(tmp_path / "m.dot")]
    argvs["dcomp --dot"] = ["dcomp", path, "--dot", str(side)]
    spans = _load_spans()
    calls, docs = {}, {}
    for name, argv in argvs.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            rc = topolab.cli.main(argv + ["--format", "structured"])  # the patched binding
        finally:
            tracer.uninstall()
        assert rc == 0, name
        calls[name] = tracer.aggregate()["calls"]
        docs[name] = json.loads(capsys.readouterr().out)
        assert calls[name].get("star.build_star", 0) == 1, name
    assert calls["retract"].get("reflect.retraction", 0) == 1
    assert calls["retract"].get("reflect.t0_reflection", 0) == 0
    assert calls["dcomp"].get("dcomp.dcomp_embed", 0) == 1
    assert calls["dcomp --dot"].get("dcomp.dcomp_embed", 0) == 1
    doc, doc_dot = docs["dcomp"], docs["dcomp --dot"]
    assert doc_dot["items"] == doc["items"] + [
        {"name": "dot-written", "status": "info", "detail": str(side), "witness": ""}]
    assert doc_dot["summary"] == doc["summary"]
    assert side.read_text() == (tmp_path / "m.dot").read_text()


# -- what a cold process loads -------------------------------------------------

def _fresh(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports topolab from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def _loads_numpy_after(argvs: list[list[str]]) -> tuple[list[int], dict[str, bool]]:
    """Exit codes of the commands run in one cold process, and which of the
    numpy-backed modules, and of the slow-to-import `dataclasses` and
    `inspect`, it then holds."""
    code = f"""
import contextlib, io, json, sys
import topolab.cli
rcs = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rcs.append(topolab.cli.main(argv))
print(json.dumps([rcs, {{m: m in sys.modules
                        for m in ("numpy", "topolab._kernels", "topolab.reflect",
                                  "dataclasses", "inspect")}}]))
"""
    proc = _fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def test_commands_without_reflections_never_load_numpy(tmp_path):
    sierp = str(PRES / "sierpinski.top")
    rcs, loaded = _loads_numpy_after([
        ["star", sierp], ["check", sierp], ["dot", sierp, "--out", str(tmp_path / "s.dot")],
        ["dcomp", str(PRES / "discrete_n.top")],
    ])
    assert rcs == [0, 0, 0, 0]
    assert loaded == {"numpy": False, "topolab._kernels": False, "topolab.reflect": False,
                      "dataclasses": False, "inspect": False}


def test_reflection_commands_never_load_numpy():
    sierp, upper = str(PRES / "sierpinski.top"), str(PRES / "upper_n.top")
    rcs, loaded = _loads_numpy_after([
        ["reflect", upper, "--kind", "t0"], ["reflect", upper, "--kind", "t2"],
        ["beta", upper], ["beta2", upper], ["retract", sierp],
        ["dcomp", upper],  # runs the crosscheck
    ])
    assert rcs == [0] * 6
    assert loaded == {"numpy": False, "topolab._kernels": False, "topolab.reflect": False,
                      "dataclasses": False, "inspect": False}


# the weak-reflection sweep is the one reflection that needs numpy, and
# enumerate the one command; enumerate does not load topolab.reflect
@pytest.mark.parametrize("argv", [
    ["import topolab.cli", "assert topolab.cli.main(['enumerate', '--n', '2']) == 0"],
    ["import topolab.reflect", "topolab.reflect.weak_reflection_sweep(2, 't0')"],
])
def test_enumeration_and_reflections_load_numpy(argv):
    proc = _fresh("-c", "; ".join(argv + [
        "import json, sys",
        "print(json.dumps({m: m in sys.modules for m in "
        "('numpy', 'topolab._kernels', 'topolab.reflect')}))"]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "numpy": True, "topolab._kernels": True, "topolab.reflect": "reflect" in argv[0]}


def test_reflection_names_are_one_object_in_every_module():
    # topobench's tracer looks these up in reflect and patches every binding
    # of the same object, so the package, the home module and reflect share it
    import topolab.reflect
    homes = {"QuotientMap": topolab.fintop, "t0_reflection": topolab.fintop,
             "t2_reflection": topolab.fintop, "adherence": topolab.star,
             "retraction": topolab.star}
    for name, home in homes.items():
        assert getattr(topolab, name) is getattr(home, name) is getattr(topolab.reflect, name)
    for name in ("SweepReport", "weak_reflection_sweep", "no_such_name"):
        assert not hasattr(topolab, name)
    # the benchmark worker imports reflect in its set-up to load numpy there
    proc = _fresh("-c", "import sys, topolab, topolab.cli, topolab.fintop, topolab.star, "
                        "topolab.dcomp, topolab.corpus; before = 'numpy' in sys.modules; "
                        "import topolab.reflect; print(before, 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_fresh_processes_match_in_process_runs(tmp_path, capsys):
    # a cold process imports modules in another order than the test process,
    # so a lazy import that only breaks there shows up as a difference
    path = str(PRES / "upper_n.top")
    argvs = [[command, path] for command in
             ("check", "star", "beta", "beta2", "retract", "dcomp")]
    argvs += [["reflect", path, "--kind", kind] for kind in ("t0", "t2")]
    argvs += [["dot", path, "--out", str(tmp_path / "m.dot")],
              ["dcomp", path, "--dot", str(tmp_path / "side.dot")],
              ["enumerate", "--n", "2"]]
    for argv in argvs:
        argv = argv + ["--format", "structured"]
        proc = _fresh("-m", "topolab.cli", *argv)
        rc = main(argv)
        out = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.out, out.err), argv
