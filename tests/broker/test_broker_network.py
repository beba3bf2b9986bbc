"""Multi-broker routing: adverts, shortest paths, duplicate-free delivery."""

import pytest

from repro.broker import BrokerClient, BrokerNetwork
from repro.broker.links import SubAdvert

from tests.broker.conftest import make_client


def connected_client(net, sim, broker, name):
    return make_client(net, sim, broker, name)


def test_two_broker_delivery(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-1"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    publisher.publish("/t", "across", 100)
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["across"]


def test_no_forwarding_without_remote_interest(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    local_sub = connected_client(net, sim, bnet.broker("broker-0"), "sub")
    local_sub.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    publisher.publish("/t", "local only", 100)
    sim.run_for(1.0)
    assert bnet.broker("broker-0").events_forwarded == 0
    assert bnet.broker("broker-1").events_routed == 0


def test_multihop_chain_delivery(net, sim):
    bnet = BrokerNetwork.chain(net, 5)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-4"), "sub")
    got = []
    subscriber.subscribe("/far", got.append)
    sim.run_for(1.0)
    publisher.publish("/far", "multi-hop", 100)
    sim.run_for(1.0)
    assert len(got) == 1
    # Intermediate brokers forwarded but did not deliver locally.
    assert bnet.broker("broker-2").events_delivered == 0
    assert bnet.broker("broker-2").events_forwarded >= 1


def test_exactly_once_delivery_star_topology(net, sim):
    bnet = BrokerNetwork.star(net, leaves=4)
    publisher = connected_client(net, sim, bnet.broker("broker-hub"), "pub")
    counts = {}
    for i in range(4):
        subscriber = connected_client(net, sim, bnet.broker(f"broker-{i}"), f"s{i}")
        counts[f"s{i}"] = 0
        subscriber.subscribe(
            "/t", lambda e, k=f"s{i}": counts.__setitem__(k, counts[k] + 1)
        )
    sim.run_for(1.0)
    for _ in range(3):
        publisher.publish("/t", b"x", 100)
    sim.run_for(1.0)
    assert all(count == 3 for count in counts.values()), counts


def test_hierarchical_topology_connects_all(net, sim):
    bnet = BrokerNetwork.hierarchical(net, [3, 3, 2])
    brokers = bnet.broker_ids()
    assert len(brokers) == 8
    publisher = connected_client(net, sim, bnet.broker(brokers[0]), "pub")
    subscriber = connected_client(net, sim, bnet.broker(brokers[-1]), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    publisher.publish("/t", "hier", 100)
    sim.run_for(1.0)
    assert len(got) == 1


def test_late_topology_join_learns_subscriptions(net, sim):
    bnet = BrokerNetwork(net)
    bnet.add_broker("a")
    bnet.add_broker("b")
    subscriber = connected_client(net, sim, bnet.broker("b"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    # Connect the brokers only after the subscription exists.
    bnet.connect("a", "b")
    sim.run_for(1.0)
    publisher = connected_client(net, sim, bnet.broker("a"), "pub")
    publisher.publish("/t", "late", 100)
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["late"]


def test_unsubscribe_withdraws_remote_interest(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-1"), "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    subscriber.unsubscribe("/t")
    sim.run_for(1.0)
    publisher.publish("/t", b"x", 100)
    sim.run_for(1.0)
    assert bnet.broker("broker-0").events_forwarded == 0


def test_wildcard_interest_propagates(net, sim):
    bnet = BrokerNetwork.chain(net, 3)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-2"), "sub")
    got = []
    subscriber.subscribe("/session/*/video", lambda e: got.append(e.topic))
    sim.run_for(1.0)
    publisher.publish("/session/7/video", b"v", 100)
    publisher.publish("/session/7/audio", b"a", 100)
    sim.run_for(1.0)
    assert got == ["/session/7/video"]


def spy_advert_sends(broker, sent):
    """Record every SubAdvert the broker pushes to a peer."""
    original = broker._send_peer

    def wrapper(peer_id, message):
        if isinstance(message, SubAdvert):
            sent.append((broker.broker_id, peer_id))
        return original(peer_id, message)

    broker._send_peer = wrapper


def test_advert_not_echoed_back_to_source_peer(net, sim):
    """Refloods skip the peer the advert arrived from.

    In a 3-broker chain a subscription at one end needs exactly two
    advert transmissions (one per edge); echoing back to the source adds
    two wasted control messages per advert that the receivers then have
    to deduplicate.
    """
    bnet = BrokerNetwork.chain(net, 3)
    sent = []
    for name in bnet.broker_ids():
        spy_advert_sends(bnet.broker(name), sent)
    subscriber = make_client(net, sim, bnet.broker("broker-2"), "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    assert sent == [("broker-2", "broker-1"), ("broker-1", "broker-0")]
    # And the advert was processed exactly once per broker: the connect
    # and subscribe land on broker-2, the advert on the other two.
    assert bnet.broker("broker-0").control_messages == 1
    assert bnet.broker("broker-1").control_messages == 1


def test_disconnect_edge_recomputes_routes(net, sim):
    bnet = BrokerNetwork(net)
    for name in ("a", "b", "c"):
        bnet.add_broker(name)
    bnet.connect("a", "b")
    bnet.connect("b", "c")
    bnet.connect("a", "c")
    subscriber = connected_client(net, sim, bnet.broker("c"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    bnet.disconnect("a", "c")  # force the a->b->c path
    publisher = connected_client(net, sim, bnet.broker("a"), "pub")
    publisher.publish("/t", "rerouted", 100)
    sim.run_for(1.0)
    assert len(got) == 1
    assert bnet.broker("b").events_forwarded >= 1


def test_central_connect_offers_interest_over_new_edge_only(net, sim):
    """A link coming up in central mode syncs interest as in autonomous
    mode: each endpoint offers what it knows over the new link only,
    rather than re-flooding every pattern to every peer."""
    bnet = BrokerNetwork(net)
    for name in ("a", "b", "c", "d"):
        bnet.add_broker(name)
    bnet.connect("a", "b")
    bnet.connect("b", "c")
    subscriber = connected_client(net, sim, bnet.broker("c"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    before = bnet.broker("b").control_messages
    bnet.connect("a", "d")
    sim.run_for(1.0)
    assert bnet.broker("b").control_messages == before
    publisher = connected_client(net, sim, bnet.broker("d"), "pub")
    publisher.publish("/t", "via-d", 100)
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["via-d"]


def test_central_crash_and_restart_recompute_routes(net, sim):
    """Central mode pushes routes around a crashed broker and to it
    again once restarted; the restarted broker relearns interest from
    its neighbours' link-up offers."""
    bnet = BrokerNetwork.chain(net, 3)
    publisher = connected_client(net, sim, bnet.broker("broker-0"), "pub")
    subscriber = connected_client(net, sim, bnet.broker("broker-2"), "sub")
    got = []
    subscriber.subscribe("/t", got.append)
    sim.run_for(1.0)
    publisher.publish("/t", "before", 100)
    sim.run_for(1.0)
    bnet.crash_broker("broker-1")
    assert bnet.broker("broker-0").known_brokers() == ["broker-0"]
    restarted = bnet.restart_broker("broker-1")
    sim.run_for(1.0)
    assert restarted.known_brokers() == ["broker-0", "broker-1", "broker-2"]
    publisher.publish("/t", "after", 100)
    sim.run_for(1.0)
    assert [e.payload for e in got] == ["before", "after"]
