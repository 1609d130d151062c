"""Self-tests of the benchmark: oracles, tracing wrappers, tail percentile.

    PYTHONPATH=src python3 -m pytest topobench/test_topobench.py -q

The wrapper-coverage tests run one traced pass of every workload (about
half a minute in all) and fail when a function the benchmark reports on
records no call on the workload that is meant to exercise it, which is
what a missed rebinding would look like.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SHIPPED = sorted((ROOT / "presentations").glob("*.top"))

# span names that must record calls on each workload (the layers the
# workload is chosen to exercise, and the CLI glue around them)
EXPECTED = {
    "omega_fragments": (
        "setalg.ds_combine", "setalg.DefSet", "setalg.atoms_of", "setalg.parse_set_expr",
        "star.build_star", "star.star_of", "star.star_identity_violations",
        "star.StarModel.union_of", "fintop.generate_topology", "fintop.FinSpace",
        "fintop.property_report", "fintop.iso_check", "reflect.t0_reflection",
        "reflect.QuotientMap", "reflect.retraction", "reflect.adherence",
        "dcomp.dcomp_embed", "dcomp.dcomp_crosscheck", "cli.main", "cli.run",
        "cli.parse_presentation", "cli.render_structured"),
    "finite_wide": (
        "fintop.generate_topology", "fintop.FinSpace", "fintop.property_report",
        "fintop.iso_check", "star.build_star", "star.StarModel.union_of",
        "reflect.t0_reflection", "reflect.QuotientMap", "reflect.retraction",
        "reflect.adherence", "dcomp.dcomp_embed", "dcomp.dcomp_crosscheck",
        "setalg.atoms_of", "cli.main", "cli.run", "cli.parse_presentation"),
    "sweep": (
        "reflect.weak_reflection_sweep", "_kernels.reflection_counts",
        "_kernels.topology_codes", "fintop.enumerate_topologies", "fintop.FinSpace",
        "fintop.property_report", "reflect.t0_reflection", "reflect.QuotientMap",
        "cli.main", "cli.run"),
    "cap_edge": (
        "setalg.ds_combine", "setalg.parse_set_expr", "setalg.atoms_of",
        "fintop.generate_topology", "star.build_star", "dcomp.dcomp_embed",
        "cli.main", "cli.run", "cli.parse_presentation"),
}


def run_cli(argv):
    import topolab.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = topolab.cli.main(argv)
    return rc, out.getvalue()


# -- oracles ---------------------------------------------------------------


def test_sweep_oracle_matches_the_oeis_counts():
    expect = oracle.sweep_expectations(4)
    assert expect["topologies"] == list(oracle.TOPOLOGY_COUNTS)
    assert expect["t0_spaces"] == list(oracle.T0_COUNTS)
    assert expect["t0_maps"] == 3_045_545
    assert expect["t2_maps"] == 8_209


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_oracle_accepts_topolab_on_shipped_files(path):
    model = oracle.Model(path.read_text())
    for command in workloads.FILE_COMMANDS:
        head, *flags = command.split()
        rc, out = run_cli([head, str(path), *flags, "--format", "structured"])
        if rc == 2:
            assert oracle.predicted_refusal(model, head), command
            continue
        assert oracle.check_file_command(model, command, rc, out) == [], command


def test_oracle_rejects_altered_outputs():
    path = ROOT / "presentations" / "n_inf.top"
    model = oracle.Model(path.read_text())
    rc, out = run_cli(["star", str(path), "--format", "structured"])
    doc = json.loads(out)
    doc["summary"]["opens"] += 1
    assert oracle.check_file_command(model, "star", rc, json.dumps(doc))
    doc = json.loads(out)
    doc["summary"]["labels"][-1] = "tail(9)"
    assert oracle.check_file_command(model, "star", rc, json.dumps(doc))
    doc = json.loads(out)
    doc["items"][0]["detail"] = "{}"
    assert oracle.check_file_command(model, "star", rc, json.dumps(doc))
    rc, out = run_cli(["reflect", str(path), "--kind", "t0", "--format", "structured"])
    doc = json.loads(out)
    doc["summary"]["assign"] = [0] * len(doc["summary"]["assign"])
    assert oracle.check_file_command(model, "reflect --kind t0", rc, json.dumps(doc))


def test_generated_inputs_depend_on_the_seed_only():
    a = ROOT / ".topobench" / "test-seed-a"
    b = ROOT / ".topobench" / "test-seed-b"
    try:
        for d in (a, b):
            d.mkdir(parents=True, exist_ok=True)
        ops_a = workloads.omega_fragments(5, a, ROOT)
        ops_b = workloads.omega_fragments(5, b, ROOT)
        texts_a = sorted(p.read_text() for p in a.iterdir())
        assert texts_a == sorted(p.read_text() for p in b.iterdir())
        assert len(ops_a) == len(ops_b) == 19 * len(workloads.FILE_COMMANDS)
        workloads.omega_fragments(6, b, ROOT)
        assert texts_a != sorted(p.read_text() for p in b.iterdir())
    finally:
        shutil.rmtree(a, ignore_errors=True)
        shutil.rmtree(b, ignore_errors=True)


# -- metrics ---------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (11, 35, 49, 128, 1000):
        q = run.tail_percentile(n)
        pos = (n - 1) * q / 100.0
        assert sum(1 for i in range(n) if i > pos) >= 10
        assert sum(1 for i in range(n) if i > (n - 1) * (q + 1) / 100.0) < 10 or q == 99
    assert run.tail_percentile(128) == 92
    assert run.tail_percentile(3) == 100


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)


# -- tracing ---------------------------------------------------------------


def test_install_rebinds_every_use_and_uninstall_restores():
    mods = {m: importlib.import_module(f"topolab.{m}") for m in spans.MODULES}
    originals = {f"{home}.{name}": getattr(mods[home], name) for home, name in spans.FUNCTIONS}
    hooks = {(home, cls, meth): getattr(mods[home], cls).__dict__[meth]
             for home, cls, meth in spans.CLASS_HOOKS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in mods.values():
            for attr, value in vars(mod).items():
                for key, fn in originals.items():
                    assert value is not fn, f"{mod.__name__}.{attr} still binds {key}"
        for (home, cls, meth), fn in hooks.items():
            assert getattr(mods[home], cls).__dict__[meth] is not fn
        # names copied with `from .x import y` are patched where they are used
        assert mods["star"].generate_topology is not originals["fintop.generate_topology"]
        assert mods["dcomp"].ds_combine is not originals["setalg.ds_combine"]
        assert mods["cli"].build_star is not originals["star.build_star"]
    finally:
        tracer.uninstall()
    for key, fn in originals.items():
        home, name = key.split(".")
        assert getattr(mods[home], name) is fn
    for (home, cls, meth), fn in hooks.items():
        assert getattr(mods[home], cls).__dict__[meth] is fn


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    outer, inner = tracer.name("outer"), tracer.name("inner")
    a = tracer.open(outer)
    b = tracer.open(inner)
    tracer.close(b)
    tracer.close(a)
    tracer.start[0], tracer.end[0] = 0.0, 3.0
    tracer.start[1], tracer.end[1] = 1.0, 2.0
    agg = tracer.aggregate()
    assert agg["self_s"] == {"outer": 2.0, "inner": 1.0}
    assert agg["calls"] == {"outer": 1, "inner": 1}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_every_wrapped_function_records_calls_on_its_workload(workload):
    work = ROOT / ".topobench" / f"test-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[workload](1, work, ROOT)
        (work / "ops.json").write_text(json.dumps([dataclasses.asdict(op) for op in ops]))
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "ops.json"),
                        str(work / "result.json"), "--spans", str(work / "spans.npz")],
                       cwd=ROOT, env=run.child_env(), check=True, timeout=170)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calls = result["agg"]["calls"]
    counts = result["agg"]["counts"]
    missing = [name for name in EXPECTED[workload]
               if calls.get(name, 0) == 0 and counts.get(name + ".created", 0) == 0]
    assert not missing, f"no calls recorded on {workload}: {missing}"
    if workload == "cap_edge":
        assert counts.get("cli.refusals.SizeCapExceeded", 0) >= 1
