"""Anti-drift lint: every counter the broker mutates is registered.

Walks the AST of ``class Broker`` and of every plane and table class
that keeps broker counters (the cluster tier, geo federation and the
shared versioned-flood table) for ``self.<name> += ...`` and
``self.broker.<name> += ...`` statements, and fails if any mutated
public attribute is missing from the broker's metrics registry.  This is
the enforcement half of the single-source-of-truth design:
``Broker.statistics()`` and ``BrokerSample`` are generated from the
registry, so an unregistered counter would silently vanish from the
whole monitoring surface.
"""

import ast
import inspect

import repro.broker.broker as broker_module
import repro.broker.cluster as cluster_module
import repro.broker.flood as flood_module
import repro.broker.geo as geo_module
from repro.broker import BrokerNetwork
from repro.broker.broker import Broker
from repro.broker.cluster import ClusterPlane
from repro.broker.geo import GeoPlane

#: (module, class name, whether its own ``self.<name>`` are counters) of
#: every class whose counter mutations count.  A VersionedTable's own
#: attributes are protocol state (its epoch); only the broker counters
#: it bumps through ``self.broker`` are checked.
COUNTER_OWNERS = (
    (broker_module, "Broker", True),
    (cluster_module, "ClusterPlane", True),
    (geo_module, "GeoPlane", True),
    (flood_module, "VersionedTable", False),
)


def _counter_target(target, own_counters):
    """The public counter an augmented assignment mutates, if any."""
    if not isinstance(target, ast.Attribute) or target.attr.startswith("_"):
        return None  # private bookkeeping
    owner = target.value
    if isinstance(owner, ast.Name) and owner.id == "self":
        return target.attr if own_counters else None
    if (
        isinstance(owner, ast.Attribute)
        and owner.attr == "broker"
        and isinstance(owner.value, ast.Name)
        and owner.value.id == "self"
    ):
        return target.attr
    return None


def mutated_counter_names():
    names = set()
    for module, class_name, own_counters in COUNTER_OWNERS:
        tree = ast.parse(inspect.getsource(module))
        owner_class = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == class_name
        )
        for node in ast.walk(owner_class):
            if isinstance(node, ast.AugAssign):
                name = _counter_target(node.target, own_counters)
                if name is not None:
                    names.add(name)
    return names


def test_every_mutated_broker_counter_is_registered(net):
    names = mutated_counter_names()
    # The walk found the real counters in every owner (guards against a
    # silent no-op lint if the AST shape ever changes).
    assert {
        "events_routed", "events_delivered", "lsas_deduped",  # Broker
        "gateway_takeovers", "intercluster_hops",  # ClusterPlane
        "wan_parked", "cost_reoriginations",  # GeoPlane
        "lsas_stale",  # VersionedTable, via self.broker
    } <= names

    broker = Broker(net.create_host("lint-host"), broker_id="lint")
    missing = sorted(
        name for name in names if not broker.metrics.has(name)
    )
    assert not missing, (
        f"counters mutated in the broker or its planes but never "
        f"registered in the metrics registry (add them to the owner's "
        f"COUNTERS): {missing}"
    )


def test_statistics_is_registry_generated(net):
    broker = Broker(net.create_host("lint2-host"), broker_id="lint2")
    statistics = broker.statistics()
    assert statistics == broker.metrics.counters_snapshot()
    for name in mutated_counter_names():
        assert name in statistics


def test_plane_counters_reach_statistics(sim, net):
    """A plane's counters are read from the plane (not a stale copy)."""
    fabric = BrokerNetwork.clustered(net, [2], regions=["us"])
    broker = fabric.broker("broker-c0-0")
    for plane, names in (
        (broker.cluster, ClusterPlane.COUNTERS),
        (broker.geo, GeoPlane.COUNTERS),
    ):
        for offset, name in enumerate(names):
            setattr(plane, name, 1000 + offset)
            assert broker.statistics()[name] == 1000 + offset
