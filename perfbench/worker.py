"""One workload run in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --workload W --seed N
        (--seconds S | --cases N | --setup-only) [--trace] [--spans FILE]

A closed loop with one caller: the next case starts when the last has
returned.  ``--seconds`` runs until the cases have taken S seconds at the
reference speed of speed.py (workloads with ``min_rounds`` stop only at
a round boundary, after at least that many rounds); ``--cases`` runs
exactly the first N cases, so that call counts repeat between runs.
Each case has a time limit; a case that raises an untyped exception,
answers wrongly or overruns counts as failed and the loop goes on.
Between cases a SpeedMeter times its probe (see speed.py); each case's
``speed_factors`` entry scales its wall time to the reference speed.
"""

import argparse
import hashlib
import json
import resource
import shutil
import signal
import subprocess
import sys
import time

from speed import SpeedMeter
from workloads import BENCH_DIR, SRC, WORKLOADS


# A run stops after S seconds of case time at the reference speed, so
# that a slow phase of the host does not change how much work, and which
# mix of cold and cached cases, a run measures; but never later than
# WALL_LIMIT * S seconds of wall time.
WALL_LIMIT = 2


class CaseTimeout(BaseException):
    """Raised into a case that overruns its limit; BaseException so that
    no ``except Exception`` inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def run_loop(wl, seconds, n_cases, tracer):
    latencies = []
    intervals = []
    meter = SpeedMeter()
    failures = []
    digest = hashlib.sha256()
    whole_rounds = hasattr(wl, "min_rounds")
    rounds_done = 0
    current_round = 0
    elapsed = 0.0  # case time so far, at the reference speed
    loop_start = time.perf_counter()
    for case in wl.cases():
        done = n_cases is None and (
            elapsed >= seconds or time.perf_counter() - loop_start >= WALL_LIMIT * seconds
        )
        if n_cases is not None:
            if case.id >= n_cases:
                break
        elif whole_rounds:
            if case.round != current_round:
                rounds_done += 1
                current_round = case.round
                if rounds_done >= wl.min_rounds and done:
                    break
        elif done:
            break
        if tracer is not None:
            tracer.case = case.id
        problem = None
        meter.maybe_probe()
        start = time.perf_counter_ns()
        try:
            if wl.in_process:
                signal.setitimer(signal.ITIMER_REAL, wl.time_limit_s)
            try:
                answer = wl.run(case)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (CaseTimeout, subprocess.TimeoutExpired):
            problem = ("timeout", f"over the {wl.time_limit_s:g} s limit")
        except Exception as exc:  # one failed case must not abort the run
            problem = ("error", f"{type(exc).__name__}: {exc}"[:300])
        end = time.perf_counter_ns()
        elapsed += (end - start) / 1e9 * meter.current()
        latencies.append(end - start)
        intervals.append((start, end))
        if problem is None:
            wrong = wl.check(case, answer)
            if wrong is None:
                digest.update(repr((case.id, wl.answer_key(answer))).encode())
            else:
                problem = ("wrong", wrong)
        if problem is not None:
            failures.append({"case": case.id, "input": case.label, "kind": problem[0], "detail": problem[1]})
    meter.probe()
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "latencies_ns": latencies,
        "speed_factors": [meter.factor(start, end) for start, end in intervals],
        "digest": digest.hexdigest(),
    }


def _write_spans(path, records):
    with open(path, "w") as handle:
        handle.write("process,name,start_ns,end_ns,parent,case\n")
        for proc, rec in enumerate(records):
            for name, start, end, parent, case in rec["spans"]:
                handle.write(f"{proc},{name},{start},{end},{parent},{case}\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--cases", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans to this CSV file")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import orefactor  # noqa: F401

    import_ms = (time.perf_counter() - start) * 1e3
    wl = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    child_dir = None
    if args.trace and wl.in_process:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif args.trace:
        child_dir = BENCH_DIR / "out" / f"children-{args.workload}-{args.seed}"
        shutil.rmtree(child_dir, ignore_errors=True)
        child_dir.mkdir(parents=True)
        wl.spans_dir = child_dir

    signal.signal(signal.SIGALRM, _on_alarm)
    result = run_loop(wl, args.seconds, args.cases, tracer)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["import_ms"] = import_ms

    if args.trace:
        from tracer import summarize

        if tracer is not None:
            tracer.uninstall()
            records = [tracer.record(import_ms)]
        else:
            records = []
            for case_id in range(result["attempted"]):
                path = child_dir / f"case{case_id}.json"
                if path.exists():
                    rec = json.loads(path.read_text())
                    for span in rec["spans"]:
                        span[4] = case_id
                    records.append(rec)
            shutil.rmtree(child_dir)
        result["per_layer"] = summarize(records)
        if args.spans:
            _write_spans(args.spans, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
