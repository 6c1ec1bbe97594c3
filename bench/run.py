"""Benchmark: exact Hilbert-Kunz series through the CLI, end to end.

  python3 bench/run.py --workload det-colength --seed 0 --seconds 25 --trace 0

One closed-loop client: passes run one at a time, each in a process
forked from a warm interpreter, so every pass builds fresh problem
objects and has its own peak memory.  A pass runs the workload's CLI
commands through hilbertkunz.cli.run_command and checks every integer
they report.  Set-up is timed separately in cold processes.  The last
line of stdout is one JSON object with the metrics; see README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED = 2


def _import_program():
    """Import the package from this checkout's src/, nowhere else."""
    if not (SRC / "hilbertkunz" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {SRC / 'hilbertkunz'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import hilbertkunz
    if Path(hilbertkunz.__file__).resolve().parent != SRC / "hilbertkunz":
        sys.exit(f"imported hilbertkunz from {hilbertkunz.__file__}, "
                 f"not from {SRC}")


def setup_times(path: Path, ideal: str) -> list:
    """Wall time of each cold process that brings the problem to ready."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(BENCH / "ready.py"),
                               str(path), ideal],
                              cwd=ROOT, capture_output=True, timeout=120)
        out.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit("set-up probe failed:\n"
                     + done.stderr.decode(errors="replace"))
    return out


def _run_ops(ops) -> dict:
    from hilbertkunz import cli
    from workloads import check_report
    failures = []
    start = time.perf_counter()
    for argv, expected in ops:
        try:
            report, code = cli.run_command(argv)
            problems = check_report(report, code, expected)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failures.append({"command": argv[0], "problems": problems})
    return {"wall": time.perf_counter() - start, "failures": failures}


def run_pass(ops, pass_id: int, traced: bool) -> dict:
    """One pass in a forked child; returns its result and peak RSS."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            if traced:
                from spans import Recorder
                recorder = Recorder()
                recorder.pass_id = pass_id
                with recorder:
                    result = _run_ops(ops)
                result["spans"] = recorder.spans
                result["counts"] = recorder.counts.get(pass_id, {})
            else:
                result = _run_ops(ops)
            with os.fdopen(write_end, "w") as fh:
                json.dump(result, fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        result = {"wall": None, "failures": [
            {"command": "pass", "problems": [f"child exit status {status}"]}]}
    else:
        result = json.loads(data)
    result["rss_mb"] = usage.ru_maxrss / 1024.0     # ru_maxrss is in KiB
    result["traced"] = traced
    return result


def measure(ops, seconds: float, trace: bool) -> list:
    """Passes until `seconds` have elapsed and the minimum counts are met.

    In a traced run, traced and untraced passes alternate so that the
    tracing overhead is measured in the same run.
    """
    passes = []
    start = time.perf_counter()
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        if time.perf_counter() - start >= seconds and (
                (n_traced >= MIN_TRACED and n_plain >= 1) if trace
                else n_plain >= MIN_PASSES):
            return passes
        traced = trace and n_traced <= n_plain
        passes.append(run_pass(ops, len(passes), traced))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {workloads.WORKLOADS}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    WORK.mkdir(exist_ok=True)
    path = WORK / f"{args.workload}-{args.seed}.hk"
    path.write_text(workloads.problem_text(args.workload, args.seed),
                    encoding="utf-8")
    ideal = workloads.ready_ideal(args.workload)
    setup = setup_times(path, ideal)

    from hilbertkunz import cli
    # warm the interpreter once; every pass forks from this state
    cli.run_command(["check", str(path), "--ideal", ideal])
    ops = workloads.operations(args.workload, str(path))
    passes = measure(ops, args.seconds, bool(args.trace))

    attempted = len(passes) * len(ops)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure['command']}: "
                  + "; ".join(failure["problems"]), file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    good = [p["wall"] for p in plain if not p["failures"]]
    walls = good or [p["wall"] for p in plain if p["wall"] is not None]
    if not walls:
        sys.exit("no untraced pass completed")
    wall = median(walls)
    correct = failed == 0
    if args.trace:
        from spans import summarise
        spans = []
        for p in passes:
            if p["traced"] and "spans" in p:
                base = len(spans)
                spans += [[name, start, end,
                           None if parent is None else parent + base, pid]
                          for name, start, end, parent, pid in p["spans"]]
        counts = {i: p.get("counts", {}) for i, p in enumerate(passes)
                  if p["traced"]}
        layer, unstable = summarise(spans, counts)
        traced_walls = [p["wall"] for p in passes
                        if p["traced"] and p["wall"] is not None]
        layer["trace.overhead_s"] = \
            median(traced_walls) - wall if traced_walls else 0.0
        if unstable:
            correct = False
            print("counts differ between passes: " + ", ".join(unstable),
                  file=sys.stderr)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in layer.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": median(p["rss_mb"] for p in plain),
                            "unit": "MB"},
            "success_frac": {"value": 1 - failed / attempted,
                             "unit": "ratio"},
        }
    print(f"{args.workload} seed={args.seed}: {len(good)} wall samples "
          f"(untraced passes without failures), wall median {wall:.3f} s, "
          "passes [" + ", ".join(
              f"{p['wall']:.3f}{'T' if p['traced'] else ''}"
              for p in passes if p["wall"] is not None) + "] s, "
          f"setup median {median(setup):.3f} s over {len(setup)} cold "
          f"probes, {failed} of {attempted} commands failed")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name == "asymptotics.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
