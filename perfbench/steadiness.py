"""Steadiness evidence: run each workload repeatedly in two sets of runs,
alternating which set goes first, and report every end-to-end metric's
spread.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --workloads serve_query --runs 5 --trace-runs 5

For each workload, set and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (interquartile
distance over the median).  It flags a spread above a third of the
metric's bound (WIDE) or above the bound itself (OVER-BOUND), and a
metric whose runs split into two clusters.  It also prints how far the
second set's median moved from the first's, in the metric's worse
direction, against the bound (MOVED), and whether the share of failed
ops is the same in both sets.  ``--trace-runs N`` puts a traced run
between the two untraced runs of each of the first N seeds and reports
the tracing overhead on ``ops_per_s`` against those seeds' untraced runs.

Each run is ``run.py`` in its own process, exactly as the benchmark is
driven; a run that fails or prints no result stops the command.  On a
timeout, SIGINT or SIGTERM the running ``run.py`` gets SIGTERM and is
waited for, so it stops its own children and removes its temp dir.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_TIMEOUT_S = 900  # the first run in a checkout may be slow
CLEANUP_TIMEOUT_S = 120  # run.py's own stop-and-reap after SIGTERM


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:  # timeout, KeyboardInterrupt, SystemExit from SIGTERM
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=CLEANUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()  # its children see their lifeline pipe close and exit
            proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out + err)
        raise SystemExit(f"run failed: {' '.join(argv)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(out)
        raise SystemExit(f"incorrect outputs: {' '.join(argv)}")
    return result


def two_clusters(values: list[float]) -> bool:
    """True when the sorted values split at one gap wider than three times
    the larger cluster's own range, with at least three runs each side."""
    v = sorted(values)
    if len(v) < 6:
        return False
    gaps = [(v[i + 1] - v[i], i + 1) for i in range(len(v) - 1)]
    gap, cut = max(gaps)
    low, high = v[:cut], v[cut:]
    if len(low) < 3 or len(high) < 3:
        return False
    return gap > 3 * max(low[-1] - low[0], high[-1] - high[0], 1e-12)


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "clustered": two_clusters(values),
    }


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description="Steadiness evidence for the benchmark.")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args()

    def _term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _term)

    metrics = spec["end_to_end"]
    ok = True  # every spread within its bound, no median moved past it
    wide = False  # some spread above a third of its bound
    for workload in args.workloads.split(","):
        sets: list[list[dict]] = [[], []]
        traced: list[dict] = []
        walls: list[float] = []  # seconds per run, set-up and checks included
        for i in range(args.runs):
            seed = args.first_seed + i
            order = [0, 1] if i % 2 == 0 else [1, 0]
            if i < args.trace_runs:
                order.insert(1, "traced")
            for s in order:
                t0 = time.monotonic()
                if s == "traced":
                    traced.append(run_once(workload, seed, args.seconds, 1))
                else:
                    sets[s].append(run_once(workload, seed, args.seconds, 0))
                walls.append(time.monotonic() - t0)
                print(f"{workload} {s} seed {seed}: done", file=sys.stderr, flush=True)

        print(f"\n== {workload}: {args.runs} runs per set, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
        print(f"  wall time per run: median {statistics.median(walls):.1f} s, "
              f"longest {max(walls):.1f} s")
        shares = [[r["failed"] / r["attempted"] for r in runs] for runs in sets]
        same = shares[0] == shares[1]
        ok &= same
        print(f"  failed shares: set 0 {sorted(set(shares[0]))}, set 1 {sorted(set(shares[1]))}, "
              f"equal between sets: {same}")
        print(f"  {'metric':14s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound/3':>7s} {'moved':>7s}  flags")
        for m in metrics:
            firsts = None
            for s, runs in enumerate(sets):
                summary = summarize([r["metrics"][m["name"]]["value"] for r in runs])
                flags = []
                limit = m["bound"] / 3
                if summary["spread"] > m["bound"]:
                    flags.append("OVER-BOUND")
                    ok = False
                elif summary["spread"] > limit:
                    flags.append("WIDE")
                    wide = True
                if summary["clustered"]:
                    flags.append("TWO-CLUSTERS")
                moved = ""
                if firsts is None:
                    firsts = summary
                else:
                    worse = worse_by(firsts["median"], summary["median"], m["better"])
                    moved = f"{100 * worse:+6.1f}%"
                    if worse > m["bound"]:
                        flags.append("MOVED")
                        ok = False
                print(f"  {m['name']:14s} {s:3d} {summary['median']:12.4f} {summary['q1']:12.4f} "
                      f"{summary['q3']:12.4f} {100 * summary['spread']:6.2f}% "
                      f"{100 * limit:6.2f}% {moved:>7s}  {' '.join(flags)}")
        if traced:
            untraced = statistics.median(
                r["metrics"]["ops_per_s"]["value"]
                for runs in sets for r in runs[: len(traced)]
            )
            with_trace = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in traced)
            print(f"  tracing overhead on ops_per_s: untraced median {untraced:.3f} "
                  f"({2 * len(traced)} runs), traced median {with_trace:.3f} ({len(traced)} runs, "
                  f"the same seeds, interleaved), overhead {100 * (untraced / with_trace - 1):+.1f}%")
    if not ok:
        print("\nNOT within bounds")
    elif wide:
        print("\nwithin bounds; spreads flagged WIDE exceed a third of their bound")
    else:
        print("\nsteady: every spread within a third of its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
