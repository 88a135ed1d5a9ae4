"""Per-layer metrics of a traced run, and the self-time breakdown.

Timed layers are means per call over the spans that started inside the
timed window (``wal.replay`` runs at boot and is taken whole).  Counts
that depend on how many ops fit in a run are given per op.  A layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

import numpy as np

import spans as spanlib
from stats import median

BOOT_SPANS = {"wal.replay"}


def _in_window(window):
    lo, hi = window
    return lambda span: span[0] in BOOT_SPANS or lo <= span[1] <= hi


def _windowed(trace: dict, window) -> list:
    return [s for s in trace["spans"] if _in_window(window)(s)]


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _share(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(workload: str, result: dict, trace: dict) -> dict[str, float]:
    closed = _windowed(trace, result["window"])
    dur = spanlib.durations(closed)
    samples = trace["samples"]
    counters = trace["counters"]
    ops = result["attempted"]

    def ms(name: str) -> float:
        return _mean(dur.get(name, []))

    def calls_per_op(name: str) -> float:
        return _share(len(dur.get(name, [])), ops)

    if workload == "represent":
        engine = {}
        for op in result["ops"]:
            for key, value in op["stats"].items():
                engine[key] = engine.get(key, 0) + value
        firsts = list(result["results"].values())
        corner_evals = _mean([r["corner_evaluations"] for r in firsts])
        draws = _mean([r["draws"] for r in firsts])
        items_per_call = 0.0
    else:
        delta = result["engine_delta"]
        engine = delta["engine"]
        corner_evals = draws = 0.0
        items_per_call = _share(delta["requests"], delta["batches"])

    return {
        "serve.http_rtt_ms": median(result["http_rtt_ms"]) if "http_rtt_ms" in result else 0.0,
        "serve.queue_wait_ms": _mean(samples.get("serve.queue_wait", [])),
        "serve.dispatch_ms": _mean(samples.get("serve.dispatch", [])),
        "serve.items_per_engine_call": items_per_call,
        "engine.topk_batch_ms": ms("engine.topk_batch"),
        "engine.topk_batch_calls": calls_per_op("engine.topk_batch"),
        "engine.rank_of_best_batch_ms": ms("engine.rank_of_best_batch"),
        "engine.rank_of_best_batch_calls": calls_per_op("engine.rank_of_best_batch"),
        "engine.verified_share": _share(
            engine.get("verified_columns", 0), engine.get("gemm_columns", 0)
        ),
        "engine.quant_resolved_share": _share(
            engine.get("quant_resolved", 0), engine.get("quant_columns", 0)
        ),
        "engine.rank_prefix_rows_per_fn": _share(
            engine.get("rank_prefix_rows", 0), counters.get("engine.rank_functions", 0)
        ),
        "core.mdrc_ms": ms("core.mdrc"),
        "core.mdrc_corner_evaluations": corner_evals,
        "core.md_rrr_ms": ms("core.md_rrr"),
        "ksets.sample_ksets_ms": ms("ksets.sample_ksets"),
        "ksets.draws": draws,
        "setcover.hitting_set_ms": ms("setcover.hitting_set"),
        "evaluation.rank_regret_sampled_ms": ms("evaluation.rank_regret_sampled"),
        "delta.insert_rows_ms": ms("delta.insert_rows"),
        "delta.delete_rows_ms": ms("delta.delete_rows"),
        "delta.compact_ms": ms("delta.compact"),
        "views.refresh_ms": ms("views.refresh"),
        "views.maintain_ms": ms("views.maintain"),
        "wal.commit_ms": ms("wal.commit"),
        "wal.bytes_per_mutation": _share(
            counters.get("wal.appended_bytes", 0), counters.get("wal.appends", 0)
        ),
        "wal.snapshot_ms": ms("wal.snapshot"),
        "wal.snapshots": float(len(dur.get("wal.snapshot", []))),
        "wal.replay_ms": ms("wal.replay"),
        "wal.replayed_commits": float(result.get("replayed_commits", 0)),
        "trace.ops_per_s": result["ops_per_s"],
    }


def self_time_report(result: dict, trace: dict) -> list[str]:
    """One line per traced layer: calls, total and self time in the window."""
    dur = spanlib.durations(_windowed(trace, result["window"]))
    own = spanlib.self_times(trace["spans"], _in_window(result["window"]))
    lo, hi = result["window"]
    window_ms = (hi - lo) / 1e6
    lines = [f"  {'layer':34s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} {'self %':>7s}"]
    for name in sorted(dur, key=lambda n: -own.get(n, 0.0)):
        total = sum(dur[name])
        lines.append(
            f"  {name:34s} {len(dur[name]):8d} {total:11.1f} {own.get(name, 0.0):11.1f} "
            f"{100.0 * own.get(name, 0.0) / window_ms:6.1f}%"
        )
    lines.append(f"  (timed window {window_ms:.0f} ms; self % is of the window, per thread)")
    return lines
