"""The ``represent`` workload's worker process.

Run by ``run.py``; not meant to be started by hand.  It imports the
program, runs one untimed warm-up op, reports ``READY`` on stderr (the
end of set-up), then runs whole rounds over the corpus until the time
is up and writes every output and timing to ``--out`` as JSON.  With
``--setup-only`` it exits after ``READY``.

One op builds a :class:`repro.Session` over the next dataset, computes
the MDRC and the MDRRR representative at a fixed k, and the program's
sampled rank-regret of both.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

import inputs
import procs

STAT_KEYS = (
    "gemm_columns",
    "verified_columns",
    "quant_columns",
    "quant_resolved",
    "rank_prefix_rows",
)


def run_op(repro, values: np.ndarray, rrr_seed: int, est_seed: int) -> dict:
    k = inputs.REPRESENT_K
    with repro.Session(values, jobs=1, backend="serial") as session:
        mdrc = session.mdrc(k)
        mdrrr = session.md_rrr(k, rng=rrr_seed)
        estimates = [
            session.rank_regret(
                subset,
                num_functions=inputs.ESTIMATOR_FUNCTIONS,
                rng=est_seed,
                return_distribution=True,
            )
            for subset in (mdrc.indices, mdrrr.indices)
        ]
        stats = {key: int(session.stats[key]) for key in STAT_KEYS}
    return {
        "mdrc": [int(i) for i in mdrc.indices],
        "mdrrr": [int(i) for i in mdrrr.indices],
        "ksets": [sorted(int(i) for i in s) for s in mdrrr.ksets],
        "estimates": [[int(r) for r in dist] for dist in estimates],
        "corner_evaluations": int(mdrc.corner_evaluations),
        "draws": int(mdrrr.sample_draws),
        "stats": stats,
    }


def main() -> int:
    procs.watch_parent()
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import repro

    if args.trace:
        import spans

        spans.install(serving=False)
    corpus = inputs.represent_corpus()
    kind, d, n = inputs.WARMUP
    run_op(repro, inputs.dataset(kind, n, d, inputs.CORPUS_SEED - 1), 0, 0)
    print("READY", file=sys.stderr, flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        spans.RECORDER.reset()  # the warm-up op is set-up, not measured
    order = inputs.represent_order(args.seed)
    first_round: dict[int, dict] = {}
    ops = []
    repeats_differ = 0
    started = time.perf_counter()
    window_start = time.perf_counter_ns()
    rounds = 0
    while True:
        rounds += 1
        for idx in order:
            t0 = time.perf_counter()
            result = run_op(
                repro,
                corpus[idx]["values"],
                inputs.rrr_seed(idx),
                inputs.estimator_seed(args.seed, idx),
            )
            ops.append(
                {
                    "dataset": idx,
                    "round": rounds,
                    "start": t0,
                    "ms": (time.perf_counter() - t0) * 1e3,
                    "stats": result["stats"],
                }
            )
            if idx not in first_round:
                first_round[idx] = result
            elif result != first_round[idx]:
                repeats_differ += 1
        if time.perf_counter() - started >= args.seconds:
            break
    window_end = time.perf_counter_ns()
    out = {
        "ops": ops,
        "results": {str(i): r for i, r in first_round.items()},
        "repeats_differ": repeats_differ,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "window": [window_start, window_end],
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    if args.trace:
        spans.RECORDER.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
