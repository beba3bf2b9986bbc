"""Determinism checked against recorded truth.

Each canonical scenario must reproduce its recorded fingerprint exactly
(``fingerprints.json``, printed by ``python -m tests.golden.regenerate``).
The robustness tests keep the fingerprints honest: every scenario
delivers something, a one-off seed moves every digest (so none is
vacuous), and the digest does not depend on ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.golden.scenarios import SCENARIOS, run_scenario

RECORDED = json.loads(
    Path(__file__).with_name("fingerprints.json").read_text()
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_recorded_file_covers_every_scenario():
    assert sorted(RECORDED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_recorded(name):
    fingerprint = run_scenario(name)
    assert fingerprint.deliveries > 0, f"{name} delivered nothing"
    assert fingerprint.digest == RECORDED[name], (
        f"{name} drifted from its recorded fingerprint; if the behaviour "
        "change is intended, regenerate with `python -m "
        "tests.golden.regenerate` and explain the move in CHANGES.md"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seed_bump_moves_fingerprint(name):
    fingerprint = run_scenario(name, seed_offset=1)
    assert fingerprint.deliveries > 0
    assert fingerprint.digest != RECORDED[name]


def _digest_under_other_hash_seed(name):
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(REPO_ROOT / "src")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, str(REPO_ROOT), os.environ.get("PYTHONPATH")])
        ),
    )
    result = subprocess.run(
        [
            sys.executable, "-c",
            "from tests.golden.scenarios import run_scenario;"
            f"print(run_scenario({name!r}).digest)",
        ],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout.strip()


def test_fingerprint_independent_of_hash_seed():
    """Set and dict iteration order must never leak into the digest."""
    assert _digest_under_other_hash_seed("clustered") == RECORDED["clustered"]


def test_churn_fingerprint_independent_of_hash_seed():
    """A restarted gateway re-peers with a member holding many patterns:
    the subscription offers must not follow set order."""
    name = "cluster_churn_takeover"
    assert _digest_under_other_hash_seed(name) == RECORDED[name]
