"""Bit-identical determinism across opt-in modes that must stay inert.

The overload controller below its watermarks, ``clusters=None``,
``regions=None`` and bare simnet region labels must each leave a seeded
lossy/jittery workload unchanged to the last bit: same event ids,
sequence numbers and delivery times.  These tests compare full traces,
not summaries.  Determinism of each mode against recorded truth lives
in ``tests/golden``.
"""

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork
from repro.broker.overload import OverloadController, ShedWatermarks
from repro.simnet.kernel import Simulator
from repro.simnet.link import LinkProfile
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

#: Enough jitter + loss that RNG draw order differences would show.
FLAKY = LinkProfile(
    bandwidth_bps=10e6, latency_s=0.003, jitter_s=0.002, loss_rate=0.02
)

SEED = 1234


def run_workload(events=60, pressure_blind=False, tracer_rate=None):
    """One seeded pub-sub run; returns the full delivery trace.

    Three subscribers (fan-out > 1, so the shared envelope and payload
    freezing both engage), one publisher, plain + ordered events, lossy
    jittery links everywhere.  ``pressure_blind`` swaps the broker's
    controller for the inert reference: every signal reads 0, so it can
    never leave NORMAL and sheds, refuses and suppresses nothing.
    """
    from repro.obs.trace import Tracer

    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    broker = Broker(
        net.create_host("broker-host", link=FLAKY),
        broker_id="b0",
        tracer=Tracer(tracer_rate) if tracer_rate else None,
    )
    if pressure_blind:
        broker.overload = OverloadController(
            (lambda: 0,) * 3, ShedWatermarks()
        )
    trace = []

    def receiver(name):
        def on_event(event):
            trace.append(
                (name, event.event_id, event.sequence, event.topic, sim.now)
            )
        return on_event

    subscribers = []
    for index in range(3):
        name = f"sub-{index}"
        client = BrokerClient(net.create_host(name, link=FLAKY), client_id=name)
        client.connect(broker)
        client.subscribe("/room/#", receiver(name))
        subscribers.append(client)
    publisher = BrokerClient(
        net.create_host("pub-host", link=FLAKY), client_id="pub"
    )
    publisher.connect(broker)
    sim.run(until=1.0)

    def publish_some(index):
        topic = "/room/ctrl" if index % 5 == 0 else "/room/video"
        publisher.publish(
            topic, {"n": index}, 200 + index, ordered=(index % 5 == 0)
        )

    for index in range(events):
        sim.schedule_at(1.0 + index * 0.01, publish_some, index)
    sim.run(until=3.0)
    assert trace, "workload delivered nothing — scenario is broken"
    return normalize(trace, id_field=1)


def normalize(trace, id_field):
    """Rebase event ids: the id counter is process-global, so two
    identical runs see the same id *deltas* at a different offset."""
    base = min(entry[id_field] for entry in trace)
    return [
        entry[:id_field] + (entry[id_field] - base,) + entry[id_field + 1:]
        for entry in trace
    ]


def test_overload_controller_below_watermarks_is_bit_identical():
    """The overload controller is a pure observer under its watermarks:
    with pressure below the degraded marks the run must match a run under
    the pressure-blind reference controller to the last bit."""
    enabled = run_workload()
    blind = run_workload(pressure_blind=True)
    assert enabled == blind


def flat_mesh_trace(label_regions=False, **network_options):
    """A seeded multi-broker autonomous workload over lossy links; the
    cluster tier must stay completely inert when ``clusters`` is None.

    ``label_regions`` assigns every broker host a simnet region *label*
    without region latency/loss/cuts and without ``regions=`` at the
    broker tier — labels alone must be inert.
    """
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.ring(
        net, 4, link=FLAKY, autonomous=True,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
        **network_options,
    )
    if label_regions:
        for index in range(4):
            net.set_region(f"broker-{index}", "us" if index < 2 else "eu")
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-0"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-2"))
    sim.run(until=3.0)
    for index in range(40):
        sim.schedule_at(
            3.0 + index * 0.01, publisher.publish, "/room/video", index, 300
        )
    sim.run(until=6.0)
    assert trace
    for broker in collection.brokers():
        # Not one cluster-plane branch may fire in flat mode.
        assert broker.cluster_id is None
        assert broker.cluster is None
        stats = broker.statistics()
        assert stats["adverts_aggregated"] == 0
        assert stats["cluster_lsas_scoped"] == 0
        assert stats["intercluster_hops"] == 0
        assert stats["gateway_takeovers"] == 0
    return normalize(trace, id_field=0)


def test_clusters_none_is_bit_identical_to_flat_mesh():
    """Passing ``clusters=None`` explicitly must be *exactly* the flat
    mesh — same event ids, sequence deltas, and delivery times."""
    assert flat_mesh_trace(clusters=None) == flat_mesh_trace()


def test_regions_none_is_bit_identical_to_flat_mesh():
    """``regions=None`` explicitly must be *exactly* the geo-unaware
    fabric: no cost plane, no pins, no parking, same trace to the bit."""
    assert flat_mesh_trace(regions=None) == flat_mesh_trace()


def test_region_labels_alone_are_bit_identical():
    """Simnet region labels without region latency/loss/cuts (and with
    no ``regions=`` at the broker tier) take zero extra RNG draws."""
    assert flat_mesh_trace(label_regions=True) == flat_mesh_trace()


def geo_mesh_trace():
    """A seeded geo run: two regions with WAN latency/loss between them,
    cost-carrying LSAs, and an ordered topic crossing the ocean."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.ring(
        net, 4, link=FLAKY, autonomous=True,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
        regions={
            "us": ["broker-0", "broker-1"],
            "eu": ["broker-2", "broker-3"],
        },
    )
    net.set_region_latency("us", "eu", 0.045, loss_rate=0.001)
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-0"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-2"))
    sim.run(until=3.0)
    for index in range(40):
        sim.schedule_at(
            3.0 + index * 0.01, publisher.publish, "/room/video", index, 300,
            False, (index % 4 == 0),
        )
    sim.run(until=6.0)
    assert trace
    return normalize(trace, id_field=0)


def test_geo_mode_is_deterministic():
    """Cost-weighted routing, WAN loss draws, and sequencer pinning all
    replay bit-identically under the same seed."""
    assert geo_mesh_trace() == geo_mesh_trace()


def clustered_trace():
    """One seeded cross-cluster workload through the full cluster tier."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.clustered(
        net, [3, 3, 3], link=FLAKY,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-c0-2"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-c2-2"))
    sim.run(until=20.0)
    for index in range(40):
        sim.schedule_at(
            20.0 + index * 0.01, publisher.publish, "/room/video", index, 300
        )
    sim.run(until=25.0)
    assert trace
    return normalize(trace, id_field=0)


def test_clustered_mode_is_deterministic():
    """The gateway overlay (elections, summaries, re-export) replays
    bit-identically under the same seed."""
    assert clustered_trace() == clustered_trace()


def test_tracer_auto_degrade_is_inert_below_watermarks():
    """The tracer's overload gate reads ``overload.state`` without
    refreshing it: in a run where the controller never trips, the
    traced workload must match a pressure-blind run to the last bit
    (the gate may not perturb sampling decisions or delivery order)."""
    enabled = run_workload(tracer_rate=0.25)
    blind = run_workload(pressure_blind=True, tracer_rate=0.25)
    assert enabled == blind


def telemetry_clustered_trace():
    """A clustered workload with the full telemetry plane attached;
    returns both the data-plane delivery trace and a telemetry-plane
    signature (what the console computed)."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    collection = BrokerNetwork.clustered(
        net, [3, 3], link=FLAKY,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    plane = collection.attach_telemetry(sample_interval_s=0.5)
    plane.start()
    trace = []
    client = BrokerClient(net.create_host("sub", link=FLAKY), client_id="sub")
    client.connect(collection.broker("broker-c0-2"))
    client.subscribe(
        "/room/#",
        lambda event: trace.append((event.event_id, event.topic, sim.now)),
    )
    publisher = BrokerClient(net.create_host("pub", link=FLAKY), client_id="pub")
    publisher.connect(collection.broker("broker-c1-2"))
    sim.run(until=20.0)
    for index in range(40):
        sim.schedule_at(
            20.0 + index * 0.01, publisher.publish, "/room/video", index, 300
        )
    sim.run(until=25.0)
    assert trace
    fleet = plane.fleet
    signature = (
        fleet.summaries_received,
        fleet.clusters_seen(),
        sorted(fleet.broker_rows()),
        fleet.fleet_quantile(0.99),
        fleet.fleet_counters().get("events_delivered"),
        plane.samples_published(),
        plane.sample_bytes_published(),
    )
    plane.stop()
    return normalize(trace, id_field=0), signature


def test_telemetry_plane_is_deterministic():
    """Monitors, aggregators and the console replay bit-identically:
    same seed → same delivery trace AND same console-side state."""
    assert telemetry_clustered_trace() == telemetry_clustered_trace()


def test_shared_payload_mutation_is_detected():
    """Fan-out shares one payload across receivers; mutating it must
    fail loudly (freeze-at-fan-out), not silently corrupt peers."""
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    failures = []

    def mutator(event):
        with pytest.raises(TypeError):
            event.payload["hacked"] = True
        failures.append(event.event_id)

    seen = []
    for index in range(2):
        name = f"sub-{index}"
        client = BrokerClient(net.create_host(name), client_id=name)
        client.connect(broker)
        client.subscribe("/room/#", mutator if index == 0 else seen.append)
    publisher = BrokerClient(net.create_host("pub"), client_id="pub")
    publisher.connect(broker)
    sim.run(until=1.0)
    publisher.publish("/room/video", {"frame": 1}, 500)
    sim.run(until=2.0)

    assert failures, "mutating subscriber never received the event"
    assert seen and seen[0].payload["frame"] == 1  # reads still work


def test_list_and_set_payloads_freeze_too():
    sim = Simulator()
    net = Network(sim, SeededStreams(SEED))
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    received = []
    for index in range(2):
        name = f"sub-{index}"
        client = BrokerClient(net.create_host(name), client_id=name)
        client.connect(broker)
        client.subscribe("/room/#", received.append)
    publisher = BrokerClient(net.create_host("pub"), client_id="pub")
    publisher.connect(broker)
    sim.run(until=1.0)
    publisher.publish("/room/a", [1, 2, 3], 100)
    publisher.publish("/room/b", {7, 8}, 100)
    sim.run(until=2.0)

    payloads = {type(event.payload) for event in received}
    assert payloads == {tuple, frozenset}


def test_link_up_offers_local_interest_in_pattern_order(sim, net):
    """A peer link coming up offers the broker's local interest over it
    in pattern order.  Set order would make the send order, and so the
    whole run, depend on ``PYTHONHASHSEED`` (a restarted gateway re-peers
    with members holding many roaming-room patterns)."""
    broker = Broker(
        net.create_host("b0-host"), broker_id="b0", link_state_enabled=True
    )
    other = Broker(
        net.create_host("b1-host"), broker_id="b1", link_state_enabled=True
    )
    client = BrokerClient(net.create_host("roamer"), client_id="roamer")
    client.connect(broker)
    patterns = [f"/room/r{n}/video" for n in (7, 2, 11, 5, 0, 9, 3)]
    for pattern in patterns:
        client.subscribe(pattern, lambda event: None)
    sim.run_for(1.0)
    offered = []
    broker._send_peer = lambda peer, message: offered.append(message)
    broker.add_peer("b1", other.peer_address)
    sim.run_for(1.0)
    order = [
        message.pattern
        for message in offered
        if type(message).__name__ == "SubAdvert"
    ]
    assert order == sorted(patterns)
