"""The serving workloads: ``serve_query`` (read-only) and ``serve_churn``
(durable, keyed writes beside reads).

The server runs in a child process started through ``repro.serve.serve``
(see ``serve_launcher.py``).  The client side is this process: closed-loop
keep-alive connections, one thread each, using ``repro.serve.ServiceClient``
with retries off, so every failure is counted.  Responses are kept and
checked against the numpy oracle after the timed phase, so checking
never competes with the server for the CPU while it is measured.
"""

from __future__ import annotations

import shutil
import threading
import time

import numpy as np

import inputs
import oracle
import procs
from procs import Sandbox
from stats import median, percentile

BOOTS = 5  # set-ups per run; setup_s is their median
# The timed phase is cut into this many equal windows (1.25 s at 25 s).
# Slow reads on serve_churn come in spells of a few slow writes in a
# row; with more windows a spell touches a smaller share of them, so the
# median over windows moves less.  On the same nine serve_churn runs,
# op_p99_ms spread 7.4% between runs at ten windows and 4.7% at twenty.
WINDOWS = 20
# The WAL size at which the server snapshots: small enough that snapshot
# cycles happen inside a run, so they show in the write tail.  The
# history server never snapshots, so its whole history is the WAL suffix
# every boot replays.
SNAPSHOT_WAL_BYTES = 32 * 1024


class Server:
    """One server child and a client factory for it."""

    def __init__(self, sb: Sandbox, values_path: str, profile: str, *,
                 data_dir: str | None = None, snapshot_wal_bytes: int = SNAPSHOT_WAL_BYTES,
                 spans_out: str | None = None) -> None:
        args = ["--values", values_path, "--profile", profile]
        if data_dir is not None:
            args += ["--data-dir", data_dir, "--snapshot-wal-bytes", str(snapshot_wal_bytes)]
        if spans_out is not None:
            args += ["--spans-out", spans_out]
        self.child = sb.spawn("serve_launcher.py", args)
        line = self.child.wait_for_stderr("listening on http://", timeout=120)
        self.url = line.split("listening on ", 1)[1].split()[0]
        with self.client() as client:
            self.health = client.health()
        self.setup_s = time.perf_counter() - self.child.launched

    def client(self):
        from repro.serve import ServiceClient

        return ServiceClient(self.url, max_retries=0)

    def stop(self) -> int:
        return self.child.stop()


def write_profile(sb: Sandbox) -> str:
    """The pinned tuning profile: ``TuningProfile()`` defaults."""
    from repro.engine import TuningProfile

    path = sb.path("profile.json")
    TuningProfile().save(path)
    return path


def _read(client, request: dict) -> dict:
    kind = request["kind"]
    if kind == "topk":
        out = client.topk(request["weights"], request["k"])
        return {"order": out["order"], "revision": out["revision"]}
    if kind == "rank":
        out = client.rank(request["weights"], request["subset"])
        return {"ranks": out["ranks"], "revision": out["revision"]}
    out = client.representative(request["k"], "mdrc")
    return {"indices": out["indices"], "revision": out["revision"]}


def _write(client, mutation: dict, key: str) -> dict:
    if mutation["kind"] == "insert":
        out = client.insert(mutation["rows"], idempotency_key=key)
        return {"indices": out["indices"].tolist(), "revision": out["revision"]}
    return dict(client.delete(mutation["indices"], idempotency_key=key))


class Op:
    __slots__ = ("kind", "request", "ms", "response", "error", "end")

    def __init__(self, kind, request, ms, response, error) -> None:
        self.kind, self.request, self.ms = kind, request, ms
        self.response, self.error = response, error
        self.end = time.perf_counter()


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        response, error = fn(*args), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        response, error = None, repr(exc)
    return (time.perf_counter() - t0) * 1e3, response, error


def _run_threads(targets, timeout: float) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            raise RuntimeError("client thread did not finish")


class Checker:
    """Judges responses against the oracle; shares a tally per run."""

    def __init__(self, panel: np.ndarray, *, static: bool) -> None:
        self.tally = oracle.Tally()
        self.panel = panel
        # On a matrix that never changes, a representative is judged once.
        self._regrets: dict[tuple, int] | None = {} if static else None

    def reads(self, values: np.ndarray, ops: list[Op]) -> None:
        """Judge read ops that were all answered on ``values``.

        The oracle scores each kind of request (and each rank subset) in
        one batch; the decisions are then judged op by op."""
        groups: dict[tuple, list[Op]] = {}
        for op in ops:
            req = op.request
            if req["kind"] == "representative":
                self.representative(values, op.response["indices"], f"r{op.response['revision']}")
            else:
                key = (req["kind"], req["k"] if req["kind"] == "topk" else tuple(req["subset"]))
                groups.setdefault(key, []).append(op)
        for (kind, arg), group in groups.items():
            weights = np.vstack([op.request["weights"] for op in group])
            if kind == "topk":
                expect, near = oracle.topk(values, weights, arg)
            else:
                expect, near = oracle.rank_of_best(values, weights, list(arg))
            row = 0
            for op in group:
                m = len(op.request["weights"])
                got = op.response["order"] if kind == "topk" else op.response["ranks"]
                self.tally.check(len(got) == m, f"{kind} at r{op.response['revision']}: "
                                 f"{len(got)} answers for {m} functions")
                for want, answer, skip in zip(expect[row : row + m], got, near[row : row + m]):
                    if skip:
                        self.tally.unverifiable += 1
                    else:
                        self.tally.check(
                            np.array_equal(want, answer), f"{kind} at r{op.response['revision']}"
                        )
                row += m

    def representative(self, values: np.ndarray, indices, where: str) -> int:
        """Judge the d·k bound; return the representative's rank-regret."""
        key = tuple(indices)
        if self._regrets is not None and key in self._regrets:
            regret = self._regrets[key]
        else:
            regret, unverifiable = oracle.rank_regret(values, indices, self.panel)
            self.tally.unverifiable += unverifiable
            bound = values.shape[1] * inputs.SERVE_REP_K
            self.tally.check(
                regret <= bound, f"representative rank-regret {regret} > {bound} at {where}"
            )
            if self._regrets is not None:
                self._regrets[key] = regret
        return regret


def _engine_delta(before: dict, after: dict) -> dict:
    eb, ea = before["engine"], after["engine"]
    cb, ca = before["coalescing"], after["coalescing"]
    return {
        "engine": {key: ea[key] - eb.get(key, 0) for key in ea if isinstance(ea[key], int)},
        "requests": ca["requests"] - cb["requests"],
        "batches": ca["batches"] - cb["batches"],
    }


def _windowed(reads: list[Op], writes: list[Op], started: float, elapsed: float,
              monitor: procs.StealMonitor) -> dict:
    """Throughput and read latency per window, then the median across the
    quiet windows.

    The timed phase is cut into equal windows.  Windows in which the
    hypervisor stole more than ``procs.QUIET_STEAL`` of the CPU are left
    out (unless fewer than three are quiet), and a slow spell covering
    less than half of the rest moves no median."""
    width = elapsed / WINDOWS
    done = [0] * WINDOWS
    latency: list[list[float]] = [[] for _ in range(WINDOWS)]
    for op in list(reads) + list(writes):
        if op.error is None:
            w = min(int((op.end - started) / width), WINDOWS - 1)
            done[w] += 1
            if op.kind == "read":
                latency[w].append(op.ms)
    spans = [(started + w * width, started + (w + 1) * width) for w in range(WINDOWS)]
    chosen = [w for w in procs.quiet(spans, monitor, least=WINDOWS // 3) if latency[w]]
    return {
        "ops_per_s": median([done[w] / width for w in chosen]),
        "op_p50_ms": median([median(latency[w]) for w in chosen]),
        "op_p99_ms": median([percentile(latency[w], 99) for w in chosen]),
        "windows": f"{len(chosen)} of {WINDOWS} windows used; steal "
        + " ".join(f"{100 * monitor.share(a, b):.0f}%" for a, b in spans),
    }


def _finish(result: dict, checker: Checker, reads: list[Op], started: float, elapsed: float,
            monitor: procs.StealMonitor, writes: list[Op] = ()) -> dict:
    result.update(_windowed(reads, writes, started, elapsed, monitor))
    result.update(
        attempted=len(reads) + len(writes),
        failed=sum(op.error is not None for op in list(reads) + list(writes)),
        unverifiable=checker.tally.unverifiable,
        judged=checker.tally.judged,
        mismatches=checker.tally.mismatches,
        reads=len(reads),
    )
    errors = [op.error for op in list(reads) + list(writes) if op.error]
    if errors:
        result["first_error"] = errors[0]
    return result


def _serve_panel() -> np.ndarray:
    return inputs.functions(inputs.SERVE_D, 500, inputs.PANEL_SEED + 100)


def _spans_path(sb: Sandbox, trace: bool) -> str | None:
    return sb.path("spans.json") if trace else None


def serve_query(sb: Sandbox, seed: int, seconds: float, trace: bool) -> dict:
    values = inputs.serve_matrix()
    values_path = sb.path("values.npy")
    np.save(values_path, values)
    profile = write_profile(sb)

    setups = []
    for boot in range(BOOTS):
        last = boot == BOOTS - 1
        spans_out = _spans_path(sb, trace) if last else None
        server = Server(sb, values_path, profile, spans_out=spans_out)
        setups.append(server.setup_s)
        if not last:
            if server.stop() != 0:
                raise RuntimeError("set-up probe server did not exit cleanly")

    result = {"setup_s": median(setups), "setups": setups}
    checker = Checker(_serve_panel(), static=True)
    blocks = [inputs.read_block(seed, stream) for stream in (0, 1)]
    with server.client() as client:
        _warm_up(client, blocks[0], checker, values, result)
        stats_before = client.stats()
    deadline = time.perf_counter() + seconds
    per_conn: list[list[Op]] = [[], []]

    def loop(stream: int) -> None:
        with server.client() as client:
            while True:
                for request in blocks[stream]:
                    ms, response, error = _timed(_read, client, request)
                    per_conn[stream].append(Op("read", request, ms, response, error))
                if time.perf_counter() >= deadline:
                    return

    monitor = procs.StealMonitor().start()
    window_start = time.perf_counter_ns()
    started = time.perf_counter()
    try:
        _run_threads([lambda: loop(0), lambda: loop(1)], seconds + 60)
    finally:
        monitor.stop()
    elapsed = time.perf_counter() - started
    window_end = time.perf_counter_ns()

    with server.client() as client:
        result["engine_delta"] = _engine_delta(stats_before, client.stats())
        if trace:
            result["http_rtt_ms"] = _health_rtts(client)
    result["peak_rss_mb"] = server.child.peak_rss_mb()
    checker.tally.check(server.stop() == 0, "server did not exit 0 on SIGTERM")

    reads = per_conn[0] + per_conn[1]
    answered = [op for op in reads if op.error is None]
    for op in answered:
        checker.tally.check(op.response["revision"] == 0, "read-only server changed revision")
    checker.reads(values, answered)
    result["window"] = [window_start, window_end]
    return _finish(result, checker, reads, started, elapsed, monitor)


def _warm_up(client, block: list[dict], checker: Checker, values: np.ndarray,
             result: dict) -> None:
    """Untimed: compute the representative view once and touch the read
    paths, as a serving process that has been up for a while has.

    The quality metrics are this representative's, of the boot state:
    the boot state is the same in every run, so they repeat exactly."""
    indices = _read(client, {"kind": "representative", "k": inputs.SERVE_REP_K})["indices"]
    result["rep_size"] = float(len(indices))
    result["rank_regret"] = float(checker.representative(values, indices, "boot"))
    for request in block[:10]:
        _read(client, request)


def _health_rtts(client, count: int = 300) -> list[float]:
    rtts = []
    for _ in range(count):
        t0 = time.perf_counter()
        client.health()
        rtts.append((time.perf_counter() - t0) * 1e3)
    return rtts


def serve_churn(sb: Sandbox, seed: int, seconds: float, trace: bool) -> dict:
    base = inputs.serve_matrix()
    values_path = sb.path("values.npy")
    np.save(values_path, base)
    profile = write_profile(sb)
    protected = inputs.SERVE_N // 2
    checker = Checker(_serve_panel(), static=False)
    mirror = oracle.Mirror(base)

    # The history: a base snapshot plus a WAL suffix, left exactly as a
    # crash leaves it, so every boot below is a recovery.  Its seed is
    # fixed, so every run recovers the same state.
    pristine = sb.path("pristine")
    history = Server(sb, values_path, profile, data_dir=pristine, snapshot_wal_bytes=2**30)
    history_rng = np.random.default_rng(inputs.HISTORY_SEED)
    with history.client() as client:
        for i in range(inputs.HISTORY_MUTATIONS):
            mutation = inputs.churn_mutation(history_rng, mirror.n, protected)
            response = _write(client, mutation, f"h-{i}")
            _apply(mirror, mutation, response, checker.tally, i + 1)
    history.child.kill()

    setups = []
    for boot in range(BOOTS):
        last = boot == BOOTS - 1
        data_dir = sb.path(f"data-{boot}")
        shutil.copytree(pristine, data_dir)
        server = Server(
            sb, values_path, profile, data_dir=data_dir,
            spans_out=_spans_path(sb, trace) if last else None,
        )
        setups.append(server.setup_s)
        checker.tally.check(
            server.health["revision"] == inputs.HISTORY_MUTATIONS
            and server.health["n"] == mirror.n,
            f"recovered state {server.health} != mirror (n={mirror.n})",
        )
        if not last:
            if server.stop() != 0:
                raise RuntimeError("set-up probe server did not exit cleanly")
    base_revision = server.health["revision"]
    reader_block = inputs.read_block(seed, 0)
    rng = np.random.default_rng([seed, 3])

    result = {"setup_s": median(setups), "setups": setups}
    with server.client() as client:
        _warm_up(client, reader_block, checker, mirror.values, result)
        stats_before = client.stats()
    replayed = stats_before["durability"]["recovery"]["replayed_commits"]
    deadline = time.perf_counter() + seconds
    writes: list[Op] = []
    reads: list[Op] = []
    mutations: list[dict] = []
    reader_done = threading.Event()

    # Two independent closed loops: the writer's keyed mutations and the
    # reader's requests share the server only through its queue, so the
    # mix follows from what each costs, and write cost shows in the reads
    # that wait behind a write.  The reader ends at a whole block; the
    # writer keeps writing until then.
    def writer() -> None:
        n = mirror.n
        with server.client() as client:
            while not reader_done.is_set():
                mutation = inputs.churn_mutation(rng, n, protected)
                mutations.append(mutation)
                key = f"w{seed}-{len(writes)}"
                ms, response, error = _timed(_write, client, mutation, key)
                writes.append(Op("write", mutation, ms, response, error))
                n += len(mutation.get("rows", ())) - len(mutation.get("indices", ()))

    def reader() -> None:
        try:
            with server.client() as client:
                while time.perf_counter() < deadline:
                    for request in reader_block:
                        ms, response, error = _timed(_read, client, request)
                        reads.append(Op("read", request, ms, response, error))
        finally:
            reader_done.set()

    monitor = procs.StealMonitor().start()
    window_start = time.perf_counter_ns()
    started = time.perf_counter()
    try:
        _run_threads([writer, reader], seconds + 60)
    finally:
        monitor.stop()
    elapsed = time.perf_counter() - started
    window_end = time.perf_counter_ns()

    result["replayed_commits"] = replayed
    write_ms = [op.ms for op in writes if op.error is None]
    result["write_p50_ms"] = median(write_ms)
    result["write_p99_ms"] = percentile(write_ms, 99)
    result["writes"] = len(writes)
    with server.client() as client:
        result["engine_delta"] = _engine_delta(stats_before, client.stats())
        if trace:
            result["http_rtt_ms"] = _health_rtts(client)
        # A resent keyed write returns the stored response and changes nothing.
        revision = client.health()["revision"]
        for i in range(max(0, len(writes) - 3), len(writes)):
            if writes[i].error is None:
                again = _write(client, mutations[i], f"w{seed}-{i}")
                checker.tally.check(
                    again == writes[i].response, f"resent write {i} answered differently"
                )
        checker.tally.check(
            client.health()["revision"] == revision, "a resent keyed write changed the revision"
        )
    result["peak_rss_mb"] = server.child.peak_rss_mb()
    checker.tally.check(server.stop() == 0, "durable server did not exit 0 on SIGTERM")

    # Replay the acknowledged writes on the mirror, judging every read at
    # the revision its response reports.
    by_revision: dict[int, list[Op]] = {}
    for op in reads:
        if op.error is None:
            by_revision.setdefault(op.response["revision"], []).append(op)
    revision = base_revision
    for op in [None] + writes:
        if op is not None:
            if op.error is not None:
                break
            revision += 1
            _apply(mirror, op.request, op.response, checker.tally, revision)
        checker.reads(mirror.values, by_revision.pop(revision, []))
    for stray in by_revision:
        checker.tally.check(False, f"reads at revision {stray}, which no write acknowledged")

    # After a graceful stop, a reboot on the same data dir answers as the
    # mirror does.
    reboot = Server(sb, values_path, profile, data_dir=data_dir)
    checker.tally.check(
        reboot.health["revision"] == revision and reboot.health["n"] == mirror.n,
        f"reboot state {reboot.health} != mirror (n={mirror.n}, revision={revision})",
    )
    with reboot.client() as client:
        checker.reads(
            mirror.values,
            [Op("read", request, 0.0, _read(client, request), None) for request in reader_block[:20]],
        )
    checker.tally.check(reboot.stop() == 0, "rebooted server did not exit 0 on SIGTERM")

    result["window"] = [window_start, window_end]
    return _finish(result, checker, reads, started, elapsed, monitor, writes)


def _apply(mirror: oracle.Mirror, mutation: dict, response: dict, tally: oracle.Tally,
           revision: int) -> None:
    """Apply one acknowledged write to the mirror and judge its response."""
    tally.check(
        response["revision"] == revision,
        f"write acknowledged revision {response['revision']}, expected {revision}",
    )
    if mutation["kind"] == "insert":
        expected = mirror.insert(mutation["rows"])
        tally.check(response["indices"] == expected, "insert returned other indices")
    else:
        expected = mirror.delete(mutation["indices"])
        tally.check(response["deleted"] == expected, "delete count differs")

