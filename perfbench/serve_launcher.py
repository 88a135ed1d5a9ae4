"""Server child for the serving workloads: ``repro.serve.serve`` on a
matrix file, with the pinned tuning profile and, when asked, span
tracing installed first.

Run by ``run.py``; not meant to be started by hand.  SIGTERM takes the
server's graceful path (drain, final snapshot, exit 0); the spans are
written after it returns.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import procs


def main() -> int:
    procs.watch_parent()
    parser = argparse.ArgumentParser()
    parser.add_argument("--values", required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--data-dir")
    parser.add_argument("--snapshot-wal-bytes", type=int)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    if args.spans_out:
        import spans

        spans.install(serving=True)
    from repro.serve import ServerConfig, serve

    config = ServerConfig(
        host="127.0.0.1",
        port=0,
        jobs=1,
        backend="serial",
        tuning_profile=args.profile,
        data_dir=args.data_dir,
    )
    if args.snapshot_wal_bytes:
        config.snapshot_wal_bytes = args.snapshot_wal_bytes
    serve(np.load(args.values), config)
    if args.spans_out:
        spans.RECORDER.dump(args.spans_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
