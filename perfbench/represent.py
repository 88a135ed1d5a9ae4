"""The ``represent`` workload, parent side: launch the worker, then check
its outputs against the oracle and against properties the methods must
have.

* MDRC (Theorem 6): rank-regret at most ``d·k`` on the held-out panel.
* MDRRR: every k-set in the collection it returns has k members, and
  its output hits every one of them.
* The program's sampled rank-regret equals numpy's on the same panel.
* Every later round reproduces the first round's outputs exactly.
"""

from __future__ import annotations

import json
import time

import numpy as np

import inputs
import oracle
import procs
from procs import Sandbox
from stats import median

SETUPS = 5  # set-ups per run (four probes and the measured worker)


def represent(sb: Sandbox, seed: int, seconds: float, trace: bool) -> dict:
    common = ["--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUPS - 1):
        child = sb.spawn("represent_worker.py", common + ["--setup-only"])
        child.wait_for_stderr("READY", timeout=170)
        setups.append(time.perf_counter() - child.launched)
        if child.proc.wait(timeout=60) != 0:
            raise RuntimeError("set-up probe failed:\n" + "\n".join(child.stderr_lines))
        child.reap_group()
    out_path = sb.path("represent.json")
    args = common + ["--out", out_path, "--trace", str(int(trace))]
    if trace:
        args += ["--spans-out", sb.path("spans.json")]
    child = sb.spawn("represent_worker.py", args)
    child.wait_for_stderr("READY", timeout=170)
    setups.append(time.perf_counter() - child.launched)
    monitor = procs.StealMonitor().start()
    try:
        code = child.proc.wait(timeout=seconds + 120)
    finally:
        monitor.stop()
    if code != 0:
        raise RuntimeError("worker failed:\n" + "\n".join(child.stderr_lines[-30:]))
    child.reap_group()
    with open(out_path) as fh:
        out = json.load(fh)

    tally = oracle.Tally()
    tally.check(out["repeats_differ"] == 0, f"{out['repeats_differ']} repeated ops differed")
    corpus = inputs.represent_corpus()
    k = inputs.REPRESENT_K
    sizes, regrets = [], []
    from repro.ranking.sampling import sample_functions  # the estimator's documented panel

    for key, result in sorted(out["results"].items()):
        idx = int(key)
        entry = corpus[idx]
        values, d, name = entry["values"], entry["d"], entry["name"]
        panel = inputs.held_out_panel(d)
        for method in ("mdrc", "mdrrr"):
            regret, unverifiable = oracle.rank_regret(values, result[method], panel)
            tally.unverifiable += unverifiable
            sizes.append(len(result[method]))
            regrets.append(regret)
            if method == "mdrc":
                tally.check(regret <= d * k, f"{name}: MDRC rank-regret {regret} > d*k")
        chosen = set(result["mdrrr"])
        tally.check(all(len(s) == k for s in result["ksets"]), f"{name}: a k-set without k members")
        tally.check(
            all(chosen.intersection(s) for s in result["ksets"]),
            f"{name}: MDRRR misses a k-set of its own collection",
        )
        est_seed = inputs.estimator_seed(seed, idx)
        est_panel = sample_functions(d, inputs.ESTIMATOR_FUNCTIONS, est_seed)
        for method, got in zip(("mdrc", "mdrrr"), result["estimates"]):
            want, near = oracle.rank_of_best(values, est_panel, result[method])
            tally.unverifiable += int(near.sum())
            tally.check(
                np.array_equal(np.asarray(got)[~near], want[~near]),
                f"{name}: sampled rank-regret of {method} differs from numpy",
            )

    # About 25 ops a run, in rounds over the same six datasets whose op
    # times differ several-fold: a median or a tail over all ops lands on
    # one noisy sample at a group boundary.  Each statistic is taken per
    # round (one pass over the corpus), then the median across the quiet
    # rounds (see procs.StealMonitor).
    rounds: dict[int, list[dict]] = {}
    for op in out["ops"]:
        rounds.setdefault(op["round"], []).append(op)
    spans = [(r[0]["start"], r[-1]["start"] + r[-1]["ms"] / 1e3) for r in rounds.values()]
    chosen = procs.quiet(spans, monitor, least=2)
    per_round = [[op["ms"] for op in list(rounds.values())[i]] for i in chosen]
    return {
        "setup_s": median(setups),
        "setups": setups,
        "peak_rss_mb": out["peak_rss_mb"],
        "ops_per_s": median([len(r) / (sum(r) / 1e3) for r in per_round]),
        "op_p50_ms": median([median(r) for r in per_round]),
        "op_p99_ms": median([max(r) for r in per_round]),
        "rep_size": float(np.mean(sizes)),
        "rank_regret": float(np.mean(regrets)),
        "attempted": len(out["ops"]),
        "failed": 0,
        "unverifiable": tally.unverifiable,
        "judged": tally.judged,
        "mismatches": tally.mismatches,
        "ops": out["ops"],
        "results": out["results"],
        "window": out["window"],
        "windows": f"{len(chosen)} of {len(spans)} rounds used; steal "
        + " ".join(f"{100 * monitor.share(a, b):.0f}%" for a, b in spans),
    }
