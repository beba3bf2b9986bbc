#!/usr/bin/env python3
"""The repository benchmark: simulator speed and modeled latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 30 --trace 0

Workloads: ``fig3``, ``mesh_relay``, ``room_churn`` (see
``BENCHMARK.json`` for why each exists).  A run repeats *trials* -- build
the system, subscribe, settle, publish for a fixed virtual time, drain --
until ``--seconds`` have passed.  Trial ``k`` uses input seed ``k mod K``
derived from ``--seed``, with ``K`` fixed per workload, so the modeled
metrics pool a fixed, seed-determined sample while timings are medians
over however many trials fit.  Every trial after the first ``K`` repeats
an earlier input and must reproduce its delivered-stream fingerprint.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
untraced trials once more for the correctness checks and the untraced
CPU baseline, then one traced trial (``cProfile`` plus the system's own
``Tracer``/``TraceCollector``) for the per-layer metrics.

Lines before the last are a human-readable report and one JSON line with
provenance and sample sizes; the last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Distinct input seeds per run; modeled metrics pool these trials.
SEEDS_PER_RUN = {"fig3": 10, "mesh_relay": 2, "room_churn": 3}

#: A run stops starting trials after this many wall seconds whatever
#: ``--seconds`` says, so it always ends well inside three minutes.
MAX_RUN_S = 120.0

CALIBRATION_LOOPS = 15


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def trial_seed(seed: int, k: int) -> int:
    """The ``k``-th input seed of a run (stable, spread out)."""
    digest = hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"none"`` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_sha256() -> str:
    """Digest of every ``.py`` file under ``src/``: identifies the code
    measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def provenance() -> Dict[str, object]:
    from perfbench.clock import calibration_loop

    return {
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_s": statistics.median(
            calibration_loop() for _ in range(CALIBRATION_LOOPS)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in SEEDS_PER_RUN:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(SEEDS_PER_RUN)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program to measure: {SRC}/repro is missing")
    sys.path[:0] = [SRC, ROOT]

    from perfbench.metrics import Run

    run = Run(args.workload, [
        trial_seed(args.seed, k) for k in range(SEEDS_PER_RUN[args.workload])
    ])
    info = {"workload": args.workload, "seed": args.seed,
            "provenance": provenance()}
    deadline = time.perf_counter() + min(args.seconds, MAX_RUN_S)
    # Untraced trials: always every input once, plus one repeat for the
    # fingerprint check, then more until the time is up.
    while run.trial_count <= len(run.plans) or (
        args.trace == 0 and time.perf_counter() < deadline
    ):
        gc.collect()
        run.untraced_trial()
    if args.trace:
        gc.collect()
        run.traced_trial()
        metrics = run.per_layer_metrics()
    else:
        metrics = run.end_to_end_metrics(peak_rss_mb())
    info.update(run.report())
    print(run.summary_table(metrics))
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    for error in run.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
