"""orefactor benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree; the library is loaded from ``src/``.
Workloads (see workloads.py): sweep12, fuzz_corpus, large_p, cli_cold.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in
SETUP_REPEATS fresh interpreters (median); the workload then runs for S
seconds in one more fresh interpreter, so the library's process-global
caches start cold, as in every user's process, and fill during the run.
Every time in these metrics is scaled to the reference speed of the
host (speed.py), so that the host's drift does not read as a change of
the program; the unscaled wall times are printed beside them.

``--trace 1`` runs a fixed slice of the workload (TRACE_CASES, about one
run's worth of work at the seed commit, so call counts repeat exactly)
twice, each in a fresh interpreter: untraced, then with spans around
the library's layer entry points.  It reports the per-layer metrics and
the tracing overhead, and checks that both runs gave identical answers.
Spans are written to perfbench/out/.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Workloads run one process at a time, single-threaded.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from speed import SpeedMeter
from tracer import TRACED
from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS

SETUP_REPEATS = 11
TRACE_CASES = {"sweep12": 2428, "fuzz_corpus": 600, "large_p": 7, "cli_cold": 10}
DEADLINE_S = 170  # every run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(args, deadline):
    """Run worker.py in a fresh interpreter; return (parsed JSON, start time)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    started = time.monotonic()
    # A session of its own, so that an overrun kills the CLI children too.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # overrun, SIGTERM or interrupt: stop them all
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker overran the run deadline: {' '.join(args)}")
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), started


def source_info():
    digest = hashlib.sha256()
    for path in sorted((SRC / "orefactor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return commit, digest.hexdigest()[:16]


def percentile(sorted_ms, pct):
    """Nearest-rank percentile, so each value is one measured sample."""
    return sorted_ms[max(0, math.ceil(pct / 100 * len(sorted_ms)) - 1)]


def end_to_end(name, seed, seconds, deadline):
    wl = WORKLOADS[name]
    meter = SpeedMeter()
    setups = []
    # One untimed start first, so that the timed ones find the interpreter
    # and the sources in the page cache, as a user's repeated calls do.
    run_worker(["--workload", name, "--seed", str(seed), "--setup-only"], deadline)
    for _ in range(SETUP_REPEATS):
        meter.probe()
        start = time.perf_counter_ns()
        out, started = run_worker(["--workload", name, "--seed", str(seed), "--setup-only"], deadline)
        end = time.perf_counter_ns()
        meter.probe()
        setups.append((out["ready"] - started, meter.factor(start, end)))
    res, _ = run_worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds)], deadline)
    # Timings are of answered cases; a failed case counts as slower than
    # every percentile, and its time is left out of the throughput.
    failed_ids = {f["case"] for f in res["failures"]}
    answered = [
        (ns / 1e6, factor)
        for i, (ns, factor) in enumerate(zip(res["latencies_ns"], res["speed_factors"]))
        if i not in failed_ids
    ]
    answered_ms = [ms * factor for ms, factor in answered]
    wall_ms = sorted(ms for ms, _ in answered) + [math.inf] * len(failed_ids)
    if len(answered_ms) < 2:
        raise BenchError(f"only {len(answered_ms)} case(s) answered")
    lat_ms = sorted(answered_ms) + [math.inf] * len(failed_ids)
    tail_ms = percentile(lat_ms, wl.tail_percentile)
    beyond = sum(1 for x in lat_ms if x > tail_ms)
    busy_s = sum(answered_ms) / 1e3
    metrics = {
        "setup_s": (statistics.median(s * factor for s, factor in setups), "s"),
        "cases_per_s": (len(answered_ms) / busy_s, "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "answered_frac": (len(answered_ms) / res["attempted"], "frac"),
    }
    speed = statistics.median(factor for _, factor in answered)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh interpreters; "
        f"wall {statistics.median(s for s, _ in setups):.4f} s",
        "cases_per_s": f"{len(answered_ms)} answered cases / {busy_s:.2f} s spent on them; "
        f"wall {len(answered) / sum(ms for ms, _ in answered) * 1e3:.2f}/s, median speed factor {speed:.3f}",
        "latency_p50_ms": f"n={len(lat_ms)}; wall {percentile(wall_ms, 50):.2f} ms",
        "latency_tail_ms": f"p{wl.tail_percentile}, {beyond} of n={len(lat_ms)} samples beyond; "
        f"wall {percentile(wall_ms, wl.tail_percentile):.2f} ms",
        "peak_rss_mb": "max RSS of the workload process" + ("" if wl.in_process else "es"),
        "answered_frac": f"failed_frac = {res['failed']}/{res['attempted']}",
    }
    return res, not any(f["kind"] == "wrong" for f in res["failures"]), metrics, notes


def per_layer(name, seed, deadline, spans_path):
    n = str(TRACE_CASES[name])
    base, _ = run_worker(["--workload", name, "--seed", str(seed), "--cases", n], deadline)
    traced, _ = run_worker(
        ["--workload", name, "--seed", str(seed), "--cases", n, "--trace", "--spans", str(spans_path)],
        deadline,
    )
    layer = traced["per_layer"]
    wall_ms = sum(traced["latencies_ns"]) / 1e6
    base_ms = sum(base["latencies_ns"]) / 1e6
    metrics = {}
    for key, value in layer.items():
        metrics[key] = (value, "ms" if key.endswith("_ms") else "count")
    metrics["trace.wall_ms"] = (wall_ms, "ms")
    metrics["trace.overhead_ms"] = (wall_ms - base_ms, "ms")
    self_total = sum(layer[f"{m}.{f}.self_ms"] for m, f in TRACED)
    notes = {
        "trace.wall_ms": f"{traced['attempted']} cases traced; untraced {base_ms:.1f} ms",
        "trace.overhead_ms": f"{100 * (wall_ms - base_ms) / base_ms:+.1f}% of untraced",
    }
    correct = (
        not any(f["kind"] == "wrong" for f in base["failures"] + traced["failures"])
        and base["digest"] == traced["digest"]
        and self_total <= wall_ms
    )
    if base["digest"] != traced["digest"]:
        print("FAILED: traced and untraced runs gave different answers")
    if self_total > wall_ms:
        print(f"FAILED: summed self time {self_total:.1f} ms exceeds traced wall {wall_ms:.1f} ms")
    return traced, correct, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "orefactor" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'orefactor'}; run from a source tree", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics the result line carries.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit, src_hash = source_info()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"# python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"commit={commit} src_sha256={src_hash}"
    )
    try:
        if args.trace:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
            res, correct, metrics, notes = per_layer(args.workload, args.seed, deadline, spans)
            print(f"# spans written to {spans.relative_to(ROOT)}")
        else:
            res, correct, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        print(f"{key:44} {value:14.4f} {unit:6} {note}")
    for fail in res["failures"][:20]:
        print(f"FAILED case {fail['case']} ({fail['input']}): {fail['kind']}: {fail['detail']}")
    if len(res["failures"]) > 20:
        print(f"FAILED ... and {len(res['failures']) - 20} more")
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
