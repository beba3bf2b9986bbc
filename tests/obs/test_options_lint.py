"""Anti-drift lint: the broker's configuration surface is committed.

Every broker runs one configuration; a knob kept only so a test can diff
one code path against another is dead weight.  The parameter names of
the broker and network constructors are pinned here, so adding (or
removing) a knob is a deliberate edit to this file, not a side effect.
"""

import inspect

import pytest

from repro.broker import Broker, BrokerNetwork

BROKER_OPTIONS = (
    "host",
    "broker_id",
    "profile",
    "udp_port",
    "tcp_port",
    "ssl_port",
    "peer_port",
    "reap_timeout_s",
    "link_state_enabled",
    "peer_heartbeat_interval_s",
    "peer_miss_limit",
    "tracer",
    "cluster_id",
    "cluster_gateways",
    "shed_watermarks",
    "region",
)

NETWORK_OPTIONS = (
    "network",
    "profile",
    "autonomous",
    "peer_heartbeat_interval_s",
    "peer_miss_limit",
    "tracer",
    "clusters",
    "shed_watermarks",
    "regions",
)

CLUSTERED_OPTIONS = (
    "network",
    "cluster_sizes",
    "name_prefix",
    "profile",
    "link",
    "regions",
    "options",
)


def parameter_names(function):
    return tuple(
        name for name in inspect.signature(function).parameters
        if name != "self"
    )


@pytest.mark.parametrize(
    "function, expected",
    [
        (Broker.__init__, BROKER_OPTIONS),
        (BrokerNetwork.__init__, NETWORK_OPTIONS),
        (BrokerNetwork.clustered, CLUSTERED_OPTIONS),
    ],
    ids=["Broker", "BrokerNetwork", "BrokerNetwork.clustered"],
)
def test_constructor_options_are_committed(function, expected):
    assert parameter_names(function) == expected
