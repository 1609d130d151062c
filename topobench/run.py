"""topolab benchmark: one workload, one seed, end-to-end or traced.

    python3 topobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a topolab checkout.  The seed generates the
workload's inputs under .topobench/ (removed afterwards).  Each pass
runs every operation once, one after the other, in a fresh process, and
passes repeat until S seconds have gone (at least two, so the structured
outputs of two passes can be compared byte for byte).  Every output is
checked against the independent oracles in oracle.py; a rejected output
makes the command exit 1 after printing its result.

With --trace 0 the result holds the end-to-end metrics; with --trace 1
untraced and traced passes alternate and the result holds the per-layer
metrics of the traced passes.  The last line of standard output is the
JSON result; the lines before it print every metric with its unit and
the run's provenance.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_FIRST = 6       # cold starts before the first pass
SETUP_BETWEEN = 3     # and after each pass
SETUP_DEADLINE_S = 10.0
SETUP_FILE = "presentations/sierpinski.top"
MIN_PASSES = 2
RUN_LIMIT_S = 150.0   # passes stop being started after this; the run must end by 180 s

END_TO_END = {"wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    names = spans.layer_metrics(spans.merge([]), 1)
    units = {}
    for name in names:
        if name.endswith("self_s"):
            units[name] = "s"
        elif name.endswith(("_share", "_ratio")):
            units[name] = "ratio"
        elif name.endswith("calls_per_op"):
            units[name] = "calls/op"
        else:
            units[name] = "count"
    units["error_rate"] = "ratio"
    units["tracing_overhead_s"] = "s"
    return units


# -- running -----------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(count: int, times: list[float], failures: list[str]) -> None:
    """Cold starts: a fresh interpreter imports topolab.cli and completes
    `star presentations/sierpinski.top`; appends `count` times."""
    model = oracle.Model((ROOT / SETUP_FILE).read_text())
    for _ in range(count):
        started = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "topolab.cli", "star", SETUP_FILE,
                                   "--format", "structured"], cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True, timeout=SETUP_DEADLINE_S)
        except subprocess.TimeoutExpired:
            failures.append(f"setup star {SETUP_FILE}: no result in {SETUP_DEADLINE_S} s")
            times.append(SETUP_DEADLINE_S)
            continue
        times.append(time.perf_counter() - started)
        bad = oracle.check_file_command(model, "star", proc.returncode, proc.stdout)
        if bad:
            failures.append(f"setup star {SETUP_FILE}: {bad[0]}")


def run_pass(ops: list[workloads.Op], work: Path, index: int, traced: bool,
             budget: float) -> dict:
    ops_path = work / "ops.json"
    ops_path.write_text(json.dumps([dataclasses.asdict(op) for op in ops]))
    result_path = work / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(ops_path), str(result_path)]
    if traced:
        cmd += ["--spans", str(work / "spans.npz")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True)
    started = time.perf_counter()
    status = "crash"
    try:
        proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        status = "deadline"
    if proc.returncode != 0 or not result_path.exists():
        # the pass process died or ran out of time: no operation has a result
        return {"wall_s": time.perf_counter() - started, "rss_kb": 0, "agg": None,
                "ops": [{"name": op.name, "status": status, "rc": None, "stdout": "",
                         "stderr": f"pass process ended with {proc.returncode}", "ms": 0.0}
                        for op in ops]}
    return json.loads(result_path.read_text())


# -- checking ------------------------------------------------------------------


class Checker:
    """Classifies each operation result and collects oracle rejections."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = {op.name: op for op in ops}
        self.models: dict[str, oracle.Model] = {}
        self.sweep_expect = None
        self.first_output: dict[str, str] = {}
        self.rejections: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures_by_kind: dict[str, int] = {}

    def model(self, path: str) -> oracle.Model:
        if path not in self.models:
            self.models[path] = oracle.Model(Path(path).read_text())
        return self.models[path]

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1

    def reject(self, name: str, why: str) -> None:
        self.rejections.append(f"{name}: {why}")
        self.fail("wrong")

    def add(self, rec: dict) -> None:
        self.attempted += 1
        op = self.ops[rec["name"]]
        if rec["status"] == "deadline":
            self.fail("deadline")
            return
        if rec["status"] == "crash":
            self.reject(op.name, "crashed: " + rec["stderr"])
            return
        rc, out = rec["rc"], rec["stdout"]
        if rc == 2:
            if not rec["stderr"].startswith("error:"):
                self.reject(op.name, "exit 2 without a typed error: " + rec["stderr"][:200])
            elif op.mode != "fresh":
                # a refusal of an input inside every documented input cap
                self.fail("refused")
                if not op.path or not oracle.predicted_refusal(self.model(op.path), op.argv[0]):
                    self.rejections.append(f"{op.name}: refused an input no size cap excludes")
            return
        previous = self.first_output.setdefault(op.name, out)
        if previous != out:
            self.reject(op.name, "structured output differs between passes")
            return
        if op.mode == "sweep":
            if self.sweep_expect is None:
                self.sweep_expect = oracle.sweep_expectations(4)
            bad = oracle.check_sweep(op.argv[0], json.loads(out), self.sweep_expect)
        elif op.argv[0] == "enumerate":
            bad = oracle.check_enumerate(rc, out)
        else:
            command = " ".join(op.argv[:1] + op.argv[2:-2])
            bad = oracle.check_file_command(self.model(op.path), command, rc, out)
        if bad:
            self.reject(op.name, "; ".join(bad[:3]))


# -- metrics -------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it; 100
    (the maximum) when there are fewer than eleven samples."""
    for q in range(99, 0, -1):
        if n - 1 - int((n - 1) * q / 100.0) >= 10:
            return q
    return 100


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's median latency over the passes it completed in."""
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["ops"]:
            if rec["status"] == "done":
                per_op.setdefault(rec["name"], []).append(rec["ms"])
    return sorted(statistics.median(v) for v in per_op.values())


def provenance(args, passes: int, extra: dict) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": args.nproc,
        "pinned_to_cpu": args.cpu,
        "passes": passes,
        "load": "closed loop, one client, one process per pass",
        **extra,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "topolab" / "cli.py").is_file() or not (ROOT / SETUP_FILE).is_file():
        print(f"error: no topolab sources under {ROOT}; run from a topolab checkout",
              file=sys.stderr)
        return 2

    # one core for the whole run: the passes and cold starts run one at a
    # time, and staying on one core keeps migrations out of the timings
    args.nproc = len(os.sched_getaffinity(0))
    args.cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {args.cpu})
    scratch = ROOT / ".topobench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        return run(args, work, scratch)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, scratch: Path) -> int:
    run_started = time.perf_counter()
    ops = workloads.WORKLOADS[args.workload](args.seed, work, ROOT)
    checker = Checker(ops)
    setup_failures: list[str] = []
    setup_times: list[float] = []
    if not args.trace:
        measure_setup(SETUP_FIRST, setup_times, setup_failures)

    plain, traced = [], []
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        enough = len(plain) + len(traced) >= MIN_PASSES and (not args.trace or traced)
        if enough and elapsed >= args.seconds:
            break
        over = time.perf_counter() - run_started > RUN_LIMIT_S
        if over and plain and (traced or not args.trace):
            break
        trace_this = bool(args.trace) and index % 2 == 1
        budget = max(10.0, RUN_LIMIT_S + 20.0 - (time.perf_counter() - run_started))
        result = run_pass(ops, work, index, trace_this, budget)
        (traced if trace_this else plain).append(result)
        for rec in result["ops"]:
            checker.add(rec)
        if not args.trace:
            # spread the cold starts over the run, so a burst of load moves few of them
            measure_setup(SETUP_BETWEEN, setup_times, setup_failures)
        index += 1

    all_passes = plain + traced
    error_rate = checker.failed / checker.attempted
    correct = not checker.rejections and not setup_failures
    extra = {"failures": checker.failures_by_kind,
             "pass_wall_s": [round(p["wall_s"], 4) for p in all_passes],
             "deadline_s": workloads.CAP_DEADLINE_S if args.workload == "cap_edge"
             else workloads.OP_DEADLINE_S}

    if args.trace:
        if (work / "spans.npz").exists():
            shutil.copy(work / "spans.npz", scratch / f"spans-{args.workload}.npz")
        wall_plain = statistics.median(p["wall_s"] for p in plain)
        wall_traced = statistics.median(p["wall_s"] for p in traced)
        layer_runs = [spans.layer_metrics(p["agg"] or spans.merge([]), len(ops)) for p in traced]
        values = {name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]}
        values["error_rate"] = error_rate
        values["tracing_overhead_s"] = wall_traced - wall_plain
        units = per_layer_units()
        extra["tracing_overhead_s"] = wall_traced - wall_plain
        extra["spans_file"] = f".topobench/spans-{args.workload}.npz"
    else:
        lat = op_latencies(all_passes)
        q = tail_percentile(len(lat))
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in all_passes),
            "op_ms_p50": statistics.median(lat) if lat else 0.0,
            "op_ms_tail": percentile(lat, q) if lat else 0.0,
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in all_passes) / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
        extra.update(tail_percentile=q, tail_samples=len(lat), error_rate=error_rate,
                     tracing_overhead_s="measured by --trace 1 runs")

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted {checker.attempted} failed {checker.failed} error_rate {error_rate:.4f}")
    print("provenance " + json.dumps(provenance(args, len(all_passes), extra), sort_keys=True))
    for line in setup_failures + checker.rejections[:20]:
        print("oracle rejected " + line)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
