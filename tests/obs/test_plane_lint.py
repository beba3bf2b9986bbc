"""Anti-drift lint: opt-in modes stay out of ``Broker``.

The cluster tier (:mod:`repro.broker.cluster`) and geo federation
(:mod:`repro.broker.geo`) are planes a broker builds only when it is
configured with a cluster id or a region.  This lint fails when their
state or constants creep back into ``broker.py``, when a flat topology
builder hands out a broker carrying either plane, or when the
statistics surface starts to depend on the mode.
"""

import inspect

import pytest

import repro.broker.broker as broker_module
from repro.broker import BrokerNetwork

#: Names that belong to the cluster or geo plane only.
PLANE_ONLY = (
    "_gw_",
    "_cluster_interest",
    "_installed_foreign",
    "_sequencer_pins",
    "_parked_",
    "_wan_",
    "_stable_",
    "COST_CLASS",
    "SUMMARY_",
    "PARK_QUEUE_MAX",
)


def test_broker_module_has_no_plane_state_or_constants():
    source = inspect.getsource(broker_module)
    found = {
        name: [
            number
            for number, line in enumerate(source.splitlines(), 1)
            if name in line
        ]
        for name in PLANE_ONLY
    }
    leaked = {name: lines for name, lines in found.items() if lines}
    assert not leaked, (
        f"cluster/geo state or constants in broker.py (lines): {leaked}; "
        "move them to repro.broker.cluster or repro.broker.geo"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda net: BrokerNetwork.single(net),
        lambda net: BrokerNetwork.ring(net, 4),
        lambda net: BrokerNetwork.ring(net, 4, autonomous=True),
        lambda net: BrokerNetwork.hierarchical(net, [3, 3]),
    ],
    ids=["single", "ring", "ring-autonomous", "hierarchical"],
)
def test_flat_builders_build_no_plane(sim, net, build):
    for broker in build(net).brokers():
        assert broker.cluster is None and broker.geo is None


def test_statistics_keys_are_mode_independent(sim, net):
    """Same names, in the same registration order, in every mode; a
    plane's counters read 0 when the plane is absent."""
    fabrics = [
        BrokerNetwork.ring(net, 3, name_prefix="flat", autonomous=True),
        BrokerNetwork.clustered(net, [2, 2], name_prefix="cl"),
        BrokerNetwork.ring(
            net, 3, name_prefix="geo", autonomous=True,
            regions={"us": ["geo-0", "geo-1"], "eu": ["geo-2"]},
        ),
        BrokerNetwork.clustered(
            net, [2, 2], name_prefix="both", regions=["us", "eu"]
        ),
    ]
    flat = fabrics[0].brokers()[0]
    reference = list(flat.statistics())
    assert "gateway_takeovers" in reference and "wan_parked" in reference
    assert flat.statistics()["gateway_takeovers"] == 0
    assert flat.statistics()["wan_parked"] == 0
    for fabric in fabrics:
        for broker in fabric.brokers():
            assert list(broker.statistics()) == reference
