"""The workload generators are pure functions of the seed, and a seed not
used while tuning runs cleanly through every check."""

import os
import subprocess
import sys

import pytest

from perfbench.metrics import Run
from perfbench.workloads import (
    CHURN_FIRST_MOVE_S,
    CHURN_QUIET_TAIL_S,
    CHURN_ROOMS,
    WORKLOADS,
    make_plan,
    room_topic,
)

#: Never used while the benchmark was tuned.
FRESH_SEED = 90210

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_plan(workload, 7) == make_plan(workload, 7)
    assert make_plan(workload, 7) != make_plan(workload, 8)


def test_mesh_relay_inputs():
    plan = make_plan("mesh_relay", 3)
    brokers = sum(plan.cluster_sizes)
    assert brokers == 48 and len(plan.publishers) == 8
    assert len(plan.receiver_brokers) == 2 * brokers
    for topics in plan.receiver_topics:
        assert len(set(topics)) == 2


def test_room_churn_moves_change_room():
    plan = make_plan("room_churn", 3)
    room = {m: plan.receiver_topics[m][0]
            for m in range(len(plan.receiver_brokers))}
    assert plan.moves == tuple(sorted(plan.moves,
                                      key=lambda m: (m.at_s, m.member)))
    for move in plan.moves:
        assert 0 <= move.room < CHURN_ROOMS
        assert CHURN_FIRST_MOVE_S <= move.at_s
        assert move.at_s < plan.run_s - CHURN_QUIET_TAIL_S
        assert room_topic(move.room) != room[move.member]
        room[move.member] = room_topic(move.room)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_seed_passes_every_check(workload):
    run = Run(workload, [FRESH_SEED])
    run.untraced_trial()
    run.untraced_trial()  # same input again: the fingerprint must repeat
    assert run.errors == []
    assert run.fingerprints and run.attempted > 0
    metrics = run.end_to_end_metrics(peak_rss_mb=1.0)
    assert all(m["value"] > 0 for m in metrics.values()), metrics


_FINGERPRINT = """
import dataclasses, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.workloads import analyse, make_plan, run_trial
plan = dataclasses.replace(make_plan({workload!r}, 5), run_s=1.0)
print(analyse(run_trial(plan)).fingerprint)
"""


@pytest.mark.parametrize("workload", ["fig3", "room_churn"])
def test_fingerprint_ignores_hash_seed(workload):
    """Same inputs, different ``PYTHONHASHSEED``: same delivered stream."""
    code = _FINGERPRINT.format(src=os.path.join(ROOT, "src"), root=ROOT,
                               workload=workload)
    prints = set()
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed}, timeout=120, check=True,
        )
        prints.add(out.stdout.strip())
    assert len(prints) == 1

