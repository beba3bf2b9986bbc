"""Seeded canonical scenarios and their SHA-256 fingerprints.

Each scenario is a small, fully seeded run of one operating mode of the
broker fabric.  Its fingerprint is a SHA-256 over three things:

* the delivered-event stream — virtual time, receiver, topic, sequence
  number and event-id delta (ids come from a process-global counter, so
  two identical runs see the same *deltas* at different offsets);
* every live broker's final ``statistics()``, sorted by broker id;
* ``sim.events_processed``.

Some scenarios fold in an extra term (the telemetry console's view).
The recorded digests live in ``fingerprints.json`` next to this file;
``regenerate.py`` prints a fresh copy.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.bench.workload import (
    CLIENT_RECV_COST_S,
    GIGABIT_LAN,
    SENDER_PACKET_COST_S,
    make_paper_video_source,
)
from repro.broker import Broker, BrokerClient, BrokerNetwork
from repro.broker.overload import ShedWatermarks
from repro.core.xgsp import messages as xgsp_messages
from repro.core.xgsp import session as xgsp_session
from repro.core.xgsp.client import XgspClient
from repro.core.xgsp.session_server import (
    ANNOUNCEMENTS_TOPIC,
    JOURNAL_TOPIC,
    XgspSessionServer,
)
from repro.obs.trace import Tracer
from repro.simnet.kernel import Simulator
from repro.simnet.link import LAN_100M, LinkProfile
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

#: Enough jitter + loss that any change in RNG draw order shows.
FLAKY = LinkProfile(
    bandwidth_bps=10e6, latency_s=0.003, jitter_s=0.002, loss_rate=0.02
)

#: Slow enough that a publish storm piles real queue depth on a broker.
SLOW = LinkProfile(bandwidth_bps=2e6, latency_s=0.003, jitter_s=0.001)

#: Watermarks tiny enough that the storm scenario crosses them.
TINY = ShedWatermarks(
    cpu_degraded=2, cpu_shedding=6,
    nic_degraded_bytes=4000, nic_shedding_bytes=16000,
    outbox_degraded=4, outbox_shedding=16,
)

#: Fast autonomous-mesh liveness (dead peer detected in ~0.5 s).
MESH = dict(autonomous=True, peer_heartbeat_interval_s=0.25, peer_miss_limit=2)

Delivery = Tuple[float, str, str, Optional[int], int]


@dataclass(frozen=True)
class Fingerprint:
    digest: str
    deliveries: int


class Run:
    """One scenario's world plus the delivery stream it records."""

    def __init__(self, seed: int) -> None:
        self.sim = Simulator()
        self.net = Network(self.sim, SeededStreams(seed))
        self.stream: List[Delivery] = []

    def receiver(self, name: str) -> Callable:
        sim, stream = self.sim, self.stream

        def on_event(event) -> None:
            stream.append(
                (sim.now, name, event.topic, event.sequence, event.event_id)
            )

        return on_event

    def client(self, name: str, broker: Broker,
               link: LinkProfile = LAN_100M) -> BrokerClient:
        host = self.net.create_host(name, link=link)
        client = BrokerClient(host, client_id=name)
        client.connect(broker)
        return client

    def fingerprint(self, brokers: Iterable[Broker], extra=None) -> Fingerprint:
        stream = self.stream
        base = min((entry[4] for entry in stream), default=0)
        deliveries = [entry[:4] + (entry[4] - base,) for entry in stream]
        stats = sorted(
            (broker.broker_id, sorted(broker.statistics().items()))
            for broker in brokers
        )
        document = [deliveries, stats, self.sim.events_processed, extra]
        blob = json.dumps(document, separators=(",", ":"))
        return Fingerprint(
            hashlib.sha256(blob.encode()).hexdigest(), len(stream)
        )


# ------------------------------------------------------ single broker


def _single_lossy(seed: int, tracer_rate: Optional[float]) -> Fingerprint:
    """Three subscribers, one publisher, plain + ordered events, lossy
    jittery links everywhere; fan-out > 1 engages the shared envelope."""
    run = Run(seed)
    broker = Broker(
        run.net.create_host("broker-host", link=FLAKY),
        broker_id="b0",
        tracer=Tracer(tracer_rate) if tracer_rate else None,
    )
    for index in range(3):
        name = f"sub-{index}"
        run.client(name, broker, FLAKY).subscribe("/room/#", run.receiver(name))
    publisher = run.client("pub", broker, FLAKY)
    run.sim.run(until=1.0)

    def publish_some(index: int) -> None:
        topic = "/room/ctrl" if index % 5 == 0 else "/room/video"
        publisher.publish(
            topic, {"n": index}, 200 + index, ordered=(index % 5 == 0)
        )

    for index in range(60):
        run.sim.schedule_at(1.0 + index * 0.01, publish_some, index)
    run.sim.run(until=3.0)
    return run.fingerprint([broker])


def single_lossy(seed: int) -> Fingerprint:
    return _single_lossy(seed, tracer_rate=None)


def single_lossy_traced(seed: int) -> Fingerprint:
    return _single_lossy(seed, tracer_rate=0.25)


def overload_storm(seed: int) -> Fingerprint:
    """A publish storm over tiny watermarks: video and bulk are shed,
    audio and control never are."""
    run = Run(seed)
    broker = Broker(
        run.net.create_host("broker-host", link=SLOW),
        broker_id="b0",
        shed_watermarks=TINY,
    )
    for index in range(3):
        name = f"sub-{index}"
        subscriber = run.client(name, broker, SLOW)
        for pattern in ("/room/#", "/narada/trace/#"):
            subscriber.subscribe(pattern, run.receiver(name))
    publisher = run.client("pub", broker, SLOW)
    run.sim.run(until=1.0)

    def publish_some(index: int) -> None:
        topic = ("/room/audio", "/room/video", "/narada/trace/t")[index % 3]
        publisher.publish(topic, index, 400)

    for index in range(300):
        run.sim.schedule_at(1.0 + index * 0.0005, publish_some, index)
    run.sim.run(until=6.0)
    return run.fingerprint(
        [broker], extra=list(broker.overload.events_shed_by_class)
    )


def fig3_short(seed: int) -> Fingerprint:
    """A cut-down Figure 3: one broker fans the 600 kbps paper video
    out to 24 receivers split over the sender and receiver machines."""
    run = Run(seed)
    sender_machine = run.net.create_host(
        "sender-machine", link=GIGABIT_LAN, recv_cpu_cost_s=CLIENT_RECV_COST_S
    )
    receiver_machine = run.net.create_host(
        "receiver-machine", link=GIGABIT_LAN, recv_cpu_cost_s=CLIENT_RECV_COST_S
    )
    fabric = BrokerNetwork.single(run.net, "fig3-broker", link=GIGABIT_LAN)
    broker = fabric.broker("fig3-broker")
    for index in range(24):
        host = sender_machine if index % 6 == 0 else receiver_machine
        name = f"recv-{index:02d}"
        client = BrokerClient(host, client_id=name)
        client.connect(broker)
        client.subscribe("/fig3/video", run.receiver(name))
    sender = BrokerClient(
        sender_machine, client_id="video-sender",
        publish_cpu_cost_s=SENDER_PACKET_COST_S,
    )
    sender.connect(broker)
    run.sim.run_for(1.0)
    source = make_paper_video_source(
        run.sim,
        lambda packet: sender.publish("/fig3/video", packet, packet.wire_size),
        seed=seed,
    )
    source.start()
    run.sim.run_for(1.0)
    source.stop()
    run.sim.run_for(0.5)
    return run.fingerprint(fabric.brokers())


# ------------------------------------------------- multi-broker fabrics


def _publish_burst(run: Run, publisher: BrokerClient, start: float,
                   ordered_every: int = 0) -> None:
    """Forty video events 10 ms apart; every ``ordered_every``-th one
    is ordered."""
    for index in range(40):
        ordered = ordered_every > 0 and index % ordered_every == 0
        run.sim.schedule_at(
            start + index * 0.01, publisher.publish, "/room/video", index,
            300, False, ordered,
        )


def flat_ring(seed: int) -> Fingerprint:
    """A 4-broker autonomous ring: heartbeats, LSA flooding, local
    Dijkstra, cross-mesh delivery."""
    run = Run(seed)
    fabric = BrokerNetwork.ring(run.net, 4, link=FLAKY, **MESH)
    run.client("sub", fabric.broker("broker-0"), FLAKY).subscribe(
        "/room/#", run.receiver("sub")
    )
    publisher = run.client("pub", fabric.broker("broker-2"), FLAKY)
    run.sim.run(until=3.0)
    _publish_burst(run, publisher, 3.0)
    run.sim.run(until=6.0)
    return run.fingerprint(fabric.brokers())


def geo_ring(seed: int) -> Fingerprint:
    """The 4-ring split over two regions with WAN latency and loss:
    cost-carrying LSAs and an ordered topic crossing the ocean."""
    run = Run(seed)
    fabric = BrokerNetwork.ring(
        run.net, 4, link=FLAKY,
        regions={"us": ["broker-0", "broker-1"], "eu": ["broker-2", "broker-3"]},
        **MESH,
    )
    run.net.set_region_latency("us", "eu", 0.045, loss_rate=0.001)
    run.client("sub", fabric.broker("broker-0"), FLAKY).subscribe(
        "/room/#", run.receiver("sub")
    )
    publisher = run.client("pub", fabric.broker("broker-2"), FLAKY)
    run.sim.run(until=3.0)
    _publish_burst(run, publisher, 3.0, ordered_every=4)
    run.sim.run(until=6.0)
    return run.fingerprint(fabric.brokers())


def clustered(seed: int) -> Fingerprint:
    """Three 3-broker clusters: gateway elections, interest summaries
    and cross-cluster re-export."""
    run = Run(seed)
    fabric = BrokerNetwork.clustered(
        run.net, [3, 3, 3], link=FLAKY,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    run.client("sub", fabric.broker("broker-c0-2"), FLAKY).subscribe(
        "/room/#", run.receiver("sub")
    )
    publisher = run.client("pub", fabric.broker("broker-c2-2"), FLAKY)
    run.sim.run(until=6.0)
    _publish_burst(run, publisher, 6.0)
    run.sim.run(until=8.0)
    return run.fingerprint(fabric.brokers())


def clustered_telemetry(seed: int) -> Fingerprint:
    """Two clusters with the full telemetry plane attached; the digest
    also covers what the fleet console computed."""
    run = Run(seed)
    fabric = BrokerNetwork.clustered(
        run.net, [3, 3], link=FLAKY,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    plane = fabric.attach_telemetry(sample_interval_s=0.5)
    plane.start()
    run.client("sub", fabric.broker("broker-c0-2"), FLAKY).subscribe(
        "/room/#", run.receiver("sub")
    )
    publisher = run.client("pub", fabric.broker("broker-c1-2"), FLAKY)
    run.sim.run(until=6.0)
    _publish_burst(run, publisher, 6.0)
    run.sim.run(until=8.0)
    fleet = plane.fleet
    signature = [
        fleet.summaries_received,
        fleet.clusters_seen(),
        sorted(fleet.broker_rows()),
        fleet.fleet_quantile(0.99),
        fleet.fleet_counters().get("events_delivered"),
        plane.samples_published(),
        plane.sample_bytes_published(),
    ]
    plane.stop()
    return run.fingerprint(fabric.brokers(), extra=signature)


def flat_telemetry(seed: int) -> Fingerprint:
    """A 4-broker autonomous chain with the flat telemetry plane: every
    broker samples to one wildcard console while media crosses the
    chain, then a leaf broker dies without a word; the digest also
    covers what the console saw."""
    run = Run(seed)
    fabric = BrokerNetwork.chain(run.net, 4, link=FLAKY, **MESH)
    plane = fabric.attach_telemetry(sample_interval_s=0.5)
    plane.start()
    run.client("sub", fabric.broker("broker-0"), FLAKY).subscribe(
        "/room/#", run.receiver("sub")
    )
    publisher = run.client("pub", fabric.broker("broker-2"), FLAKY)
    run.sim.run(until=3.0)
    _publish_burst(run, publisher, 3.0)
    run.sim.schedule_at(4.0, fabric.crash_broker, "broker-3")
    run.sim.run(until=8.0)
    console = plane.console
    signature = [
        console.brokers_seen(),
        console.samples_received,
        console.stale_brokers(),
        [
            [broker_id] + (
                [None, None] if latest is None else [
                    latest.counters["events_delivered"],
                    latest.counters["clients"],
                ]
            )
            for broker_id in console.brokers_seen()
            for latest in [console.latest(broker_id)]
        ],
    ]
    plane.stop()
    return run.fingerprint(fabric.brokers(), extra=signature)


def control_failover(seed: int) -> Fingerprint:
    """A leader and a standby session server on an autonomous 3-ring;
    the leader dies with a join in flight and the standby promotes,
    answers the join from its journal copy and keeps the roster."""
    # Session and request ids come from process-global counters and
    # travel inside the XML, so restart them: message sizes (and so
    # timing) must not depend on what ran earlier in the process.
    xgsp_session._session_numbers = itertools.count(1)
    xgsp_messages._request_ids = itertools.count(1)
    run = Run(seed)
    fabric = BrokerNetwork.ring(run.net, 3, link=FLAKY, **MESH)
    run.sim.run(until=2.0)
    replicas = [
        XgspSessionServer(
            run.net.create_host(f"{name}-host", link=FLAKY),
            fabric.broker(f"broker-{index}"),
            server_id=name,
            replica_heartbeat_interval_s=0.25,
            replica_miss_limit=2,
            standby=index > 0,
        )
        for index, name in enumerate(("xgsp-a", "xgsp-b"))
    ]
    observer = run.client("observer", fabric.broker("broker-2"), FLAKY)
    for topic in (ANNOUNCEMENTS_TOPIC, JOURNAL_TOPIC):
        observer.subscribe(topic, run.receiver("observer"))
    participants = {
        name: XgspClient(
            run.net.create_host(f"{name}-host", link=FLAKY),
            fabric.broker("broker-2"),
            name,
            max_retries=3,
        )
        for name in ("alice", "bob")
    }
    run.sim.run(until=3.5)
    created = []
    participants["alice"].create_session("conf", on_created=created.append)
    run.sim.run(until=4.0)
    session_id = created[0].session_id
    participants["alice"].join(session_id)
    participants["alice"].floor(session_id, "request")
    run.sim.run(until=5.0)
    participants["bob"].join(session_id)
    replicas[0].crash()
    run.sim.run(until=11.0)
    survivor = replicas[1]
    signature = [
        survivor.leader_id,
        [[replica.server_id, replica.journal_version] for replica in replicas],
        sorted(survivor.session(session_id).roster.participants()),
    ]
    return run.fingerprint(fabric.brokers(), extra=signature)


def ring_chaos(seed: int) -> Fingerprint:
    """A 5-ring that loses a broker and a link while media flows, then
    gets both back: eviction, rerouting, restart and reconvergence."""
    run = Run(seed)
    fabric = BrokerNetwork.ring(run.net, 5, **MESH)
    for name, at in (("sub-a", "broker-1"), ("sub-b", "broker-3")):
        run.client(name, fabric.broker(at)).subscribe(
            "/room/#", run.receiver(name)
        )
    publisher = run.client("pub", fabric.broker("broker-0"))
    run.sim.run(until=2.0)
    for index in range(60):
        run.sim.schedule_at(
            2.0 + index * 0.1, publisher.publish, "/room/video", index, 300
        )
    run.sim.schedule_at(2.5, fabric.crash_broker, "broker-4")
    run.sim.schedule_at(3.5, fabric.cut_link, "broker-0", "broker-1")
    run.sim.schedule_at(5.0, fabric.restart_broker, "broker-4")
    run.sim.schedule_at(6.0, fabric.restore_link, "broker-0", "broker-1")
    run.sim.run(until=9.0)
    return run.fingerprint(fabric.brokers())


def geo_partition(seed: int) -> Fingerprint:
    """A us/eu town hall whose us region is cut off, parks ordered
    traffic on the minority side, and drains it on heal."""
    run = Run(seed)
    regions = {"us": ["u0", "u1"], "eu": ["e0", "e1", "e2"]}
    fabric = BrokerNetwork(run.net, regions=regions, **MESH)
    for members in regions.values():
        for name in members:
            fabric.add_broker(name)
    for a, b in (("u0", "u1"), ("e0", "e1"), ("e1", "e2"), ("e2", "e0"),
                 ("u0", "e0"), ("u1", "e1")):
        fabric.connect(a, b)
    run.net.set_region_latency("us", "eu", 0.045)
    run.client("us-sub", fabric.broker("u1")).subscribe(
        "/town/#", run.receiver("us-sub")
    )
    run.client("eu-sub", fabric.broker("e2")).subscribe(
        "/town/#", run.receiver("eu-sub")
    )
    publisher = run.client("pub", fabric.broker("u0"))
    run.sim.run(until=4.0)
    # Ordered topics sequenced on both sides of the coming cut.
    u0 = fabric.broker("u0")
    topics = [
        next(
            topic
            for topic in (f"/town/t{index}" for index in range(256))
            if u0.sequencer_for(topic) == wanted
        )
        for wanted in ("e0", "u1")
    ]
    fabric.partition_regions("us")
    for index in range(30):
        run.sim.schedule_at(
            5.0 + index * 0.05, publisher.publish, topics[index % 2],
            index, 200, index % 3 == 0, True,
        )
    run.sim.schedule_at(7.0, fabric.heal)
    run.sim.run(until=12.0)
    return run.fingerprint(fabric.brokers())


def central_hierarchical(seed: int) -> Fingerprint:
    """Central-mode routing over four 3-broker clusters on a gateway
    ring with redundant uplinks, so many destinations have several
    equally short paths and the router's tie-break decides."""
    run = Run(seed)
    fabric = BrokerNetwork.hierarchical(run.net, [3, 3, 3, 3], link=FLAKY)
    for name in fabric.broker_ids():
        if name.endswith("-2"):
            run.client(f"sub@{name}", fabric.broker(name), FLAKY).subscribe(
                "/room/#", run.receiver(f"sub@{name}")
            )
    publisher = run.client("pub", fabric.broker("broker-c0-2"), FLAKY)
    run.sim.run(until=1.0)
    _publish_burst(run, publisher, 1.0, ordered_every=5)
    run.sim.run(until=3.0)
    routes = [[b.broker_id, sorted(b._routes.items())] for b in fabric.brokers()]
    return run.fingerprint(fabric.brokers(), extra=routes)


def cluster_churn_takeover(seed: int) -> Fingerprint:
    """Three clusters whose members roam between rooms: c0's interest
    crosses the summary budget (collapse), then narrows again (release).
    c0's active gateway crashes mid-stream, the standby takes over, and
    the restarted gateway is promoted back while the standby retracts
    its summary."""
    run = Run(seed)
    fabric = BrokerNetwork.clustered(
        run.net, [3, 3, 3], link=FLAKY,
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    run.sim.run(until=6.0)
    member = fabric.broker("broker-c0-2")
    run.client("sub", member, FLAKY).subscribe(
        "/room/r0/video", run.receiver("sub")
    )
    roamers = [run.client(f"roam-{k}", member, FLAKY) for k in range(4)]
    rooms = {}
    for k, roamer in enumerate(roamers):
        rooms[k] = [f"/room/r{k * 5 + j}/video" for j in range(5)]
        for pattern in rooms[k]:
            roamer.subscribe(pattern, run.receiver(f"roam-{k}"))
    remote = run.client("roam-c1", fabric.broker("broker-c1-2"), FLAKY)
    remote.subscribe("/room/r1/video", run.receiver("roam-c1"))

    def move(k: int, step: int) -> None:
        roamer = roamers[k]
        roamer.unsubscribe(rooms[k].pop(0))
        pattern = f"/room/r{(k * 5 + step) % 24}/video"
        if pattern not in rooms[k]:
            rooms[k].append(pattern)
            roamer.subscribe(pattern, run.receiver(f"roam-{k}"))

    def leave(k: int) -> None:
        roamer = roamers[k]
        while rooms[k]:
            roamer.unsubscribe(rooms[k].pop())

    for step in range(20):
        run.sim.schedule_at(7.0 + step * 0.1, move, step % 4, step + 5)
    for k in range(3):
        run.sim.schedule_at(9.2 + k * 0.1, leave, k)
    for step in range(10):
        run.sim.schedule_at(11.0 + step * 0.2, move, 3, step + 20)
    publisher = run.client("pub", fabric.broker("broker-c2-2"), FLAKY)
    for index in range(200):
        run.sim.schedule_at(
            8.0 + index * 0.05, publisher.publish,
            f"/room/r{index % 6}/video", index, 300,
        )
    run.sim.schedule_at(10.0, fabric.crash_broker, "broker-c0-0")
    run.sim.schedule_at(14.0, fabric.restart_broker, "broker-c0-0")
    run.sim.run(until=20.0)
    return run.fingerprint(fabric.brokers())


def geo_clustered(seed: int) -> Fingerprint:
    """Three 2-broker clusters in us/eu/ap regions, WAN latency applied
    after the build (as ``repro fleet --regions`` does), then the us
    region is cut off and healed while reliable and ordered traffic
    flows both ways."""
    run = Run(seed)
    fabric = BrokerNetwork.clustered(
        run.net, [2, 2, 2], link=FLAKY, regions=["us", "eu", "ap"],
        peer_heartbeat_interval_s=0.25, peer_miss_limit=2,
    )
    for a, b in (("us", "eu"), ("us", "ap"), ("eu", "ap")):
        run.net.set_region_latency(a, b, 0.045)
    run.client("sub-us", fabric.broker("broker-c0-1"), FLAKY).subscribe(
        "/geo/#", run.receiver("sub-us")
    )
    run.client("sub-ap", fabric.broker("broker-c2-1"), FLAKY).subscribe(
        "/geo/#", run.receiver("sub-ap")
    )
    pub_eu = run.client("pub-eu", fabric.broker("broker-c1-1"), FLAKY)
    pub_us = run.client("pub-us", fabric.broker("broker-c0-1"), FLAKY)
    run.sim.run(until=6.0)
    for index in range(60):
        at = 6.0 + index * 0.05
        run.sim.schedule_at(
            at, pub_eu.publish, "/geo/feed", index, 300,
            index % 3 == 0, index % 4 == 0,
        )
        run.sim.schedule_at(
            at + 0.02, pub_us.publish, "/geo/ctrl", index, 200,
            index % 2 == 0, True,
        )
    run.sim.schedule_at(7.0, fabric.partition_regions, "us")
    run.sim.schedule_at(8.5, fabric.heal)
    run.sim.run(until=14.0)
    return run.fingerprint(fabric.brokers())


#: Scenario name → (function, canonical seed).
SCENARIOS: Dict[str, Tuple[Callable[[int], Fingerprint], int]] = {
    "single_lossy": (single_lossy, 1234),
    "single_lossy_traced": (single_lossy_traced, 1234),
    "overload_storm": (overload_storm, 321),
    "fig3_short": (fig3_short, 0),
    "flat_ring": (flat_ring, 1234),
    "geo_ring": (geo_ring, 1234),
    "clustered": (clustered, 1234),
    "clustered_telemetry": (clustered_telemetry, 1234),
    "flat_telemetry": (flat_telemetry, 1234),
    "ring_chaos": (ring_chaos, 7),
    "geo_partition": (geo_partition, 42),
    "central_hierarchical": (central_hierarchical, 1234),
    "cluster_churn_takeover": (cluster_churn_takeover, 1234),
    "geo_clustered": (geo_clustered, 1234),
    "control_failover": (control_failover, 1234),
}


def run_scenario(name: str, seed_offset: int = 0) -> Fingerprint:
    function, seed = SCENARIOS[name]
    return function(seed + seed_offset)
