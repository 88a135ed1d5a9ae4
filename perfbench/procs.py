"""Process hygiene and run conditions for the benchmark.

Every child runs in its own session (and so its own process group), is
terminated and reaped on every exit path, and is checked for survivors
(its own process group) when the benchmark ends.  Each child also holds
the read end of a pipe from the benchmark (its stdin): when the
benchmark dies without cleaning up, even by SIGKILL, the pipe reads EOF
and the child removes the run's temp dir and kills its own group (see
:func:`watch_parent`).  Temporary data lives in one directory under the
checkout, removed on exit.  Segments that appear in ``/dev/shm`` while
the benchmark runs are reported as leaks.

Run conditions: one BLAS thread, one CPU for the whole process tree,
and a steal-time monitor that lets the workloads leave out the windows
in which the hypervisor took the CPU away.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")

# Every child inherits one BLAS/OpenMP thread: the benchmark measures the
# serial engine, and a thread count left to the library would change
# with the machine.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU.

    On a shared host, a server and its client spread over two vCPUs saw
    27-31% of the CPU time stolen by the hypervisor and served throughput
    swing threefold between runs; on one vCPU steal stayed at 3-7% and
    throughput within about 10%."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class StealMonitor:
    """Samples the machine's steal time (``/proc/stat``: CPU time the
    hypervisor gave to other guests) from a background thread.

    On a shared host, served throughput halved in spells where steal
    reached a quarter of the CPU time and held within 2% while it stayed
    under 1%.  The workloads use :meth:`share` to leave such spells out.
    """

    PERIOD_S = 0.25

    def __init__(self) -> None:
        self._samples: list[tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _read() -> tuple[int, int] | None:
        try:
            with open("/proc/stat") as fh:
                fields = [int(x) for x in fh.readline().split()[1:9]]
        except (OSError, ValueError):
            return None
        if len(fields) < 8:
            return None
        return fields[7], sum(fields)

    def _run(self) -> None:
        while True:
            sample = self._read()
            if sample is not None:
                self._samples.append((time.perf_counter(), *sample))
            if self._stop.wait(self.PERIOD_S):
                return

    def start(self) -> "StealMonitor":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def share(self, t0: float, t1: float) -> float:
        """Steal share of all CPU time between ``t0`` and ``t1``
        (perf_counter seconds), from the samples around that interval."""
        inside = [s for s in self._samples if t0 - self.PERIOD_S <= s[0] <= t1 + self.PERIOD_S]
        if len(inside) < 2:
            return 0.0
        total = inside[-1][2] - inside[0][2]
        return (inside[-1][1] - inside[0][1]) / total if total else 0.0


QUIET_STEAL = 0.03  # a window is quiet when steal took at most this share


def quiet(spans: list[tuple[float, float]], monitor: StealMonitor, least: int) -> list[int]:
    """Indices of the quiet ``(start, end)`` spans, or of all of them when
    fewer than ``least`` are quiet (a run on a busy host still reports)."""
    chosen = [i for i, (a, b) in enumerate(spans) if monitor.share(a, b) <= QUIET_STEAL]
    return chosen if len(chosen) >= least else list(range(len(spans)))


class HygieneError(RuntimeError):
    """A child, temp dir or shared-memory segment outlived the benchmark."""


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def watch_parent() -> None:
    """Called first thing in every child: tie the child's life to the
    benchmark's.

    A daemon thread reads stdin, a pipe whose write end only the
    benchmark holds.  It reads EOF only when the benchmark is gone
    without having stopped this child (a normal stop ends the child
    first).  The thread then removes the run's temp dir (the child's
    ``TMPDIR``) and SIGKILLs the child's own process group."""

    # A private fd, read unbuffered: a daemon thread blocked in
    # sys.stdin's buffered reader would abort interpreter shutdown.
    fd = os.dup(0)

    def _watch() -> None:
        try:
            while os.read(fd, 4096):
                pass
        except OSError:
            return
        tmp = os.environ.get("TMPDIR", "")
        if os.path.basename(os.path.dirname(tmp)) == os.path.basename(TMP_PARENT):
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(tmp))
            except OSError:
                pass
        os.killpg(os.getpgid(0), signal.SIGKILL)

    threading.Thread(target=_watch, daemon=True).start()


class Child:
    """One child process in its own process group, with its stderr
    drained into memory by a reader thread (so a chatty child can never
    block on a full pipe), and its stdin a lifeline pipe that is closed
    only once the child has exited (see :func:`watch_parent`)."""

    def __init__(self, argv: list[str], env: dict) -> None:
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env=env,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.pgid = self.proc.pid  # session leader: pgid == pid
        self.stderr_lines: list[str] = []
        self._lines_cv = threading.Condition()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for raw in self.proc.stderr:
            with self._lines_cv:
                self.stderr_lines.append(raw.decode(errors="replace").rstrip("\n"))
                self._lines_cv.notify_all()
        with self._lines_cv:
            self._lines_cv.notify_all()

    def wait_for_stderr(self, needle: str, timeout: float) -> str:
        """Block until a stderr line contains ``needle``; return it."""
        deadline = time.monotonic() + timeout
        seen = 0
        with self._lines_cv:
            while True:
                for line in self.stderr_lines[seen:]:
                    if needle in line:
                        return line
                seen = len(self.stderr_lines)
                remaining = deadline - time.monotonic()
                if self.proc.poll() is not None and not self._reader.is_alive():
                    raise RuntimeError(
                        f"child exited ({self.proc.returncode}) before {needle!r}:\n"
                        + "\n".join(self.stderr_lines[-20:])
                    )
                if remaining <= 0:
                    raise TimeoutError(f"no {needle!r} from child within {timeout}s")
                self._lines_cv.wait(min(remaining, 0.2))

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (VmHWM), read while it runs."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM the group, wait; SIGKILL if it does not exit in time.
        Returns the leader's exit code."""
        if self.proc.poll() is None:
            self._signal_group(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._signal_group(signal.SIGKILL)
                self.proc.wait(timeout=10)
        self.reap_group()
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL the group and reap the leader."""
        if self.proc.poll() is None:
            self._signal_group(signal.SIGKILL)
            self.proc.wait(timeout=10)
        self.reap_group()

    def reap_group(self) -> None:
        """Kill whatever is left of the group and wait for it to be gone."""
        self._signal_group(signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while self.group_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._reader.join(timeout=5.0)
        for pipe in (self.proc.stdin, self.proc.stderr):
            if pipe is not None:
                pipe.close()

    def group_alive(self) -> bool:
        try:
            os.killpg(self.pgid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - pgid reused by another user
            return False
        return True

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.pgid, sig)
        except ProcessLookupError:
            pass


def _remove_stale_runs() -> None:
    """Remove the temp dirs of runs whose process is gone (a run killed
    before it started any child leaves its dir behind)."""
    for name in os.listdir(TMP_PARENT):
        parts = name.split("-")
        if len(parts) < 3 or parts[0] != "run" or not parts[1].isdigit():
            continue
        try:
            os.kill(int(parts[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(TMP_PARENT, name), ignore_errors=True)
        except PermissionError:
            pass


class Sandbox:
    """Owns every child and the temp dir of one benchmark run.

    :meth:`close` runs on every exit — normal, failed check, exception,
    or SIGINT/SIGTERM (turned into ``KeyboardInterrupt``/``SystemExit``
    by :func:`install_signal_handlers`): every child group is killed
    and reaped and the temp dir removed.  :meth:`leftovers` then names
    anything that survived.
    """

    def __init__(self) -> None:
        self.children: list[Child] = []
        self._shm_before = _shm_entries()
        os.makedirs(TMP_PARENT, exist_ok=True)
        _remove_stale_runs()
        self.tmp = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=TMP_PARENT)
        self.env = dict(os.environ)
        self.env.update(BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), BENCH_DIR]
        )
        self.env["TMPDIR"] = self.tmp  # anything a child writes stays here

    def spawn(self, script: str, args: list[str]) -> Child:
        argv = [sys.executable, os.path.join(BENCH_DIR, script), *args]
        child = Child(argv, self.env)
        self.children.append(child)
        return child

    def path(self, *parts: str) -> str:
        return os.path.join(self.tmp, *parts)

    def close(self) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)  # only if no other run is using it
        except OSError:
            pass

    def leftovers(self) -> str:
        """What outlived :meth:`close`, or "" when nothing did."""
        alive = [c.proc.pid for c in self.children if c.group_alive()]
        leaked = sorted(_shm_entries() - self._shm_before)
        problems = []
        if alive:
            problems.append(f"child process groups still alive: {alive}")
        if os.path.exists(self.tmp):
            problems.append(f"temp dir not removed: {self.tmp}")
        if leaked:
            problems.append(f"/dev/shm segments left behind: {leaked}")
        return "; ".join(problems)


def install_signal_handlers() -> None:
    """SIGTERM raises SystemExit so ``finally`` blocks clean up; SIGINT
    keeps Python's KeyboardInterrupt."""

    def _term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _term)
    signal.signal(signal.SIGINT, signal.default_int_handler)
