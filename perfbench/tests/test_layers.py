"""The layer map covers every ``repro`` module the workloads execute, and
the traced run leaves a negligible share of self time unattributed."""

import dataclasses

import pytest

from perfbench.layers import LAYERS, PhaseProfiler, layer_of, module_of
from perfbench.workloads import WORKLOADS, make_plan, run_trial

#: The layers the benchmark reports, by name.
EXPECTED_LAYERS = {
    "simnet.kernel", "simnet.cpu", "simnet.nic", "simnet.network",
    "broker.links", "broker.broker", "broker.route_cache", "broker.topic",
    "broker.client", "broker.overload", "broker.reliable", "obs", "rtp",
    "bench",
}


def test_layer_names():
    assert set(LAYERS) == EXPECTED_LAYERS


def test_module_resolution():
    assert layer_of("repro.simnet.kernel") == "simnet.kernel"
    assert layer_of("repro.simnet.udp") == "simnet.network"
    assert layer_of("repro.broker.event") == "broker.broker"
    assert layer_of("repro.obs.collector") == "obs"
    assert layer_of("perfbench.workloads") == "bench"
    assert layer_of("networkx") is None
    assert module_of(__file__) == "perfbench.tests.test_layers"
    assert module_of(dataclasses.__file__) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_trial_is_fully_attributed(workload):
    plan = dataclasses.replace(make_plan(workload, 11), run_s=1.0)
    profiler = PhaseProfiler()
    run_trial(plan, traced=True, phase_hook=profiler.hook)
    for phase, profile in profiler.profiles.items():
        unmapped = sorted(m for m in profile.modules
                          if layer_of(m) is None)
        assert unmapped == [], (phase, unmapped)
        assert profile.total_s > 0
        attributed = sum(profile.self_s.values())
        assert profile.unattributed_s <= 0.01 * profile.total_s, phase
        assert attributed == pytest.approx(
            profile.total_s - profile.unattributed_s, rel=1e-6)
