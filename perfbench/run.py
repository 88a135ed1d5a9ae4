"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Prints a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` untraced (``--trace 0``), every
per-layer metric traced (``--trace 1``).  Exits 1 without a result if a
child, temp dir or ``/dev/shm`` segment outlives the run, and with 1
after the result if a check failed, an op failed or nothing was judged.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import procs

# Every child gets the same pinned BLAS thread count; so does this process.
os.environ.update(procs.BLAS_ENV)
sys.path.insert(0, os.path.join(procs.ROOT, "src"))

WORKLOADS = ("represent", "serve_query", "serve_churn")


def _spec() -> dict:
    with open(os.path.join(procs.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict | None]:
    from represent import represent
    from serving import serve_churn, serve_query

    runner = {"represent": represent, "serve_query": serve_query, "serve_churn": serve_churn}
    sb = procs.Sandbox()
    try:
        result = runner[workload](sb, seed, seconds, trace)
        trace_data = None
        if trace:
            with open(sb.path("spans.json")) as fh:
                trace_data = json.load(fh)
    finally:
        # Every exit path, SIGINT and SIGTERM included, ends here: kill and
        # reap every child group, remove the temp dir, then look for leftovers.
        sb.close()
        leftovers = sb.leftovers()
        if leftovers:
            print(f"error: {leftovers}", file=sys.stderr)
    if leftovers:
        raise procs.HygieneError(leftovers)
    return result, trace_data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(procs.ROOT, "src", "repro")):
        print("error: src/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    spec = _spec()
    procs.pin_to_one_cpu()
    procs.install_signal_handlers()
    try:
        result, trace_data = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    except procs.HygieneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1

    if trace_data is not None:
        import layers

        values = layers.per_layer(args.workload, result, trace_data)
        wanted = spec["per_layer"]
    else:
        values = {m["name"]: result[m["name"]] for m in spec["end_to_end"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    _report(args, result, trace_data, metrics)
    # No op is expected to fail on these workloads, and a failed op has no
    # response to judge: a run with a failed op, or with nothing judged,
    # is not correct.
    correct = not result["mismatches"] and result["failed"] == 0 and result["judged"] > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _report(args, result: dict, trace_data, metrics: dict) -> None:
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}  trace {args.trace}"
    )
    print(
        f"  ops attempted {result['attempted']}, failed {result['failed']}; "
        f"oracle decisions judged {result['judged']}, unverifiable {result['unverifiable']}"
    )
    if result.get("first_error"):
        print(f"  first failed op: {result['first_error']}")
    for line in result["mismatches"]:
        print(f"  MISMATCH: {line}")
    print("  set-up samples (s): " + ", ".join(f"{s:.3f}" for s in result["setups"]))
    print(f"  {result['windows']}")
    if "write_p50_ms" in result:
        print(
            f"  writes {result['writes']}: p50 {result['write_p50_ms']:.3f} ms, "
            f"p99 {result['write_p99_ms']:.3f} ms (acknowledged keyed mutations)"
        )
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    if trace_data is not None:
        import layers

        print("  self time by layer (spans in the timed window):")
        for line in layers.self_time_report(result, trace_data):
            print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
