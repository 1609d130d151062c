"""One pass over a workload's operations, in a fresh process.

    python topobench/worker.py OPS_JSON RESULT_JSON [--spans PATH]
    python topobench/worker.py --probe AGG_JSON DEADLINE_S -- CLI_ARGS...

The first form runs the operations listed in OPS_JSON one after the
other (a closed loop with one client) and writes their exit codes,
outputs and latencies, with the process's peak resident memory, to
RESULT_JSON.  With --spans it traces the pass and writes the spans to
PATH.  The second form is one traced `topolab` command for the cap-edge
probes: it stops itself at the deadline and writes its trace aggregate
to AGG_JSON before exiting.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

DEADLINE_EXIT = 124


class DeadlineExceeded(BaseException):
    """Raised by the alarm inside an operation that ran past its deadline."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    import topolab.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = topolab.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_sweep(kind: str) -> tuple[int, str, str]:
    import topolab.reflect
    rep = topolab.reflect.weak_reflection_sweep(4, kind)
    doc = {"sources": rep.sources, "targets": rep.targets, "maps": rep.maps,
           "unfactored_pairs": list(rep.unfactored_pairs),
           "nonunique_pairs": list(rep.nonunique_pairs)}
    return 0, json.dumps(doc, sort_keys=True), ""


def run_fresh(op: dict, traced: bool, agg_path: str) -> dict:
    """One topolab command in its own process group, killed at the deadline."""
    if traced:
        cmd = [sys.executable, str(HERE / "worker.py"), "--probe", agg_path,
               str(op["deadline"]), "--", *op["argv"]]
    else:
        cmd = [sys.executable, "-m", "topolab.cli", *op["argv"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    # a traced probe stops itself at the deadline; allow it time to write its trace
    limit = op["deadline"] + (5.0 if traced else 0.0)
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"status": "deadline", "rc": None, "stdout": "", "stderr": "",
                "ms": (time.perf_counter() - started) * 1000.0}
    ms = (time.perf_counter() - started) * 1000.0
    if proc.returncode == DEADLINE_EXIT and traced:
        return {"status": "deadline", "rc": None, "stdout": "", "stderr": "", "ms": ms}
    return {"status": "done", "rc": proc.returncode, "stdout": out, "stderr": err, "ms": ms}


def run_pass(ops: list[dict], spans_path: str | None) -> dict:
    tracer = None
    if spans_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import topolab.cli  # noqa: F401  (imports are set-up, measured by setup_s)
    import topolab.reflect  # noqa: F401
    probe_aggs = []
    records = []
    for k, op in enumerate(ops):
        if op["mode"] == "fresh":
            agg_path = f"{spans_path}.probe{k}.json" if spans_path else ""
            rec = run_fresh(op, tracer is not None, agg_path)
            if agg_path and os.path.exists(agg_path):
                probe_aggs.append(json.loads(Path(agg_path).read_text()))
                os.remove(agg_path)
        else:
            # start each operation from a collected heap, as a fresh CLI process would
            gc.collect()
            t0 = time.perf_counter()
            try:
                with deadline(op["deadline"]):
                    rc, out, err = (run_sweep(op["argv"][0]) if op["mode"] == "sweep"
                                    else run_cli(op["argv"]))
                rec = {"status": "done", "rc": rc, "stdout": out, "stderr": err}
            except DeadlineExceeded:
                rec = {"status": "deadline", "rc": None, "stdout": "", "stderr": ""}
            except Exception as exc:  # a crash is a result to report, not to stop on
                rec = {"status": "crash", "rc": None, "stdout": "",
                       "stderr": f"{type(exc).__name__}: {exc}"}
            rec["ms"] = (time.perf_counter() - t0) * 1000.0
        rec["name"] = op["name"]
        records.append(rec)
    # the pass's wall time is its operations' wall times; the collections
    # between operations are left out
    wall_s = sum(rec["ms"] for rec in records) / 1000.0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"ops": records, "wall_s": wall_s, "rss_kb": rss_kb, "agg": None}
    if tracer is not None:
        tracer.uninstall()
        from spans import merge
        result["agg"] = merge([tracer.aggregate()] + probe_aggs)
        tracer.dump(spans_path)
    return result


def probe(agg_path: str, seconds: float, argv: list[str]) -> int:
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        with deadline(seconds):
            import topolab.cli
            rc = topolab.cli.main(argv)
    except DeadlineExceeded:
        rc = DEADLINE_EXIT
    finally:
        Path(agg_path).write_text(json.dumps(tracer.aggregate()))
    return rc


def main(argv: list[str]) -> int:
    if argv[0] == "--probe":
        return probe(argv[1], float(argv[2]), argv[4:])
    ops = json.loads(Path(argv[0]).read_text())
    spans = argv[3] if len(argv) > 3 and argv[2] == "--spans" else None
    Path(argv[1]).write_text(json.dumps(run_pass(ops, spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
