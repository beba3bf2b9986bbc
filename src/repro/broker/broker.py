"""A single NaradaBrokering-style broker node.

Responsibilities:

* accept client connections over UDP / TCP / SSL / HTTP-tunnel links;
* maintain the local subscription trie and deliver published events to
  matching local clients (excluding the publisher — ``noLocal`` semantics,
  which is what RTP loops through topics require);
* exchange subscription adverts with peer brokers (flooded, deduplicated)
  so events are only forwarded toward brokers with matching interest;
* forward events across the broker graph along shortest-path next hops,
  carrying an explicit target set so no broker receives a duplicate;
* sequence ordered topics (this broker is the deterministic "sequencer"
  for a topic when it hashes lowest among known brokers);
* track reliable events per datagram client until acknowledged;
* in autonomous mode, detect dead peers by heartbeat and route over a
  flooded link-state database (:mod:`repro.broker.flood`).

Opt-in modes are planes built only when configured: ``cluster``
(:mod:`repro.broker.cluster`) and ``geo`` (:mod:`repro.broker.geo`).
A flat broker has neither and carries none of their state.

Every hop charges the host CPU according to the broker's
:class:`~repro.broker.profile.BrokerProfile` — routing cost per event,
send cost and heap allocation per destination copy.  Those constants are
the knobs the Figure 3 calibration turns.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.broker.cluster import ClusterPlane
from repro.broker.event import NBEvent, freeze_payload
from repro.broker.flood import DedupWindow, VersionedTable, shortest_paths
from repro.broker.geo import GeoPlane
from repro.broker.links import (
    Busy,
    ClientLink,
    ClusterDigest,
    ClusterInterestAdvert,
    ClusterLsa,
    Connect,
    ConnectAck,
    Disconnect,
    EventAck,
    EventDelivery,
    Heartbeat,
    HeartbeatAck,
    LinkStateAdvert,
    LinkStateDigest,
    PeerEvent,
    PeerHeartbeat,
    Publish,
    SequenceRequest,
    SequencerPin,
    SslClientLink,
    SubAdvert,
    Subscribe,
    SubscribeAck,
    TcpClientLink,
    UdpClientLink,
    Unsubscribe,
    message_size,
)
from repro.broker.overload import (
    NORMAL,
    OverloadController,
    ShedWatermarks,
)
from repro.broker.profile import BrokerProfile, NARADA_PROFILE
from repro.broker.reliable import ReliableOutbox
from repro.broker.route_cache import (
    SEQUENCER_CACHE_MAX, NextHopGroups, RouteCache, RouteEntry,
)
from repro.broker.topic import TopicTrie, validate_pattern
from repro.obs.metrics import (
    COST_BUCKETS_S,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.obs.trace import (
    TRACE_TOPIC_PREFIX,
    CompletedTrace,
    HopRecord,
    Tracer,
    internal_topic,
)
from repro.simnet.node import Host
from repro.simnet.packet import Address, Datagram
from repro.simnet.tcp import TcpConnection, TcpListener
from repro.simnet.udp import UdpSocket

#: Default broker ports.
PEER_PORT = 3044
UDP_PORT = 3045
TCP_PORT = 3046
SSL_PORT = 3047

#: Advert-dedup window size (floor).  Advert ids only need to be
#: remembered for as long as a flood can still echo them around the
#: broker graph, so a bounded LRU window is enough — an unbounded set
#: would grow forever on a long-running broker.  The effective cap
#: scales with mesh size (see :meth:`Broker.set_routes`): a flood's
#: echo lifetime grows with the reachable broker set.
SEEN_ADVERT_WINDOW = 8192

#: Per-reachable-broker contribution to the dedup window cap.
DEDUP_PER_BROKER = 128

#: Every Nth peer-heartbeat tick also carries a link-state digest, so
#: LSAs lost to the network (floods are unreliable datagrams) are
#: repaired by anti-entropy within a few heartbeat intervals.
ANTI_ENTROPY_TICKS = 4


class _ClientRecord:
    """Broker-side state for one connected client."""

    __slots__ = ("client_id", "link", "outbox", "last_seen")

    def __init__(
        self,
        client_id: str,
        link: ClientLink,
        outbox: Optional[ReliableOutbox],
        last_seen: float = 0.0,
    ):
        self.client_id = client_id
        self.link = link
        self.outbox = outbox
        self.last_seen = last_seen


class Broker:
    """One broker node bound to a simulated host."""

    #: Counters the broker itself owns (the planes own theirs).
    COUNTERS = (
        "events_routed",
        "events_delivered",
        "events_forwarded",
        "control_messages",
        "heartbeats_received",
        "clients_reaped",
        "outbox_abandons",
        "peer_heartbeats_received",
        "peers_evicted",
        "lsas_originated",
        "lsas_received",
        "lsas_deduped",
        "lsas_stale",
        "routing_epochs",
        "sequencer_changes",
        "traces_started",
        "traces_completed",
        "traces_suppressed",
    )

    def __init__(
        self,
        host: Host,
        broker_id: Optional[str] = None,
        profile: BrokerProfile = NARADA_PROFILE,
        udp_port: int = UDP_PORT,
        tcp_port: int = TCP_PORT,
        ssl_port: int = SSL_PORT,
        peer_port: int = PEER_PORT,
        reap_timeout_s: Optional[float] = None,
        link_state_enabled: bool = False,
        peer_heartbeat_interval_s: Optional[float] = None,
        peer_miss_limit: int = 3,
        tracer: Optional[Tracer] = None,
        cluster_id: Optional[str] = None,
        cluster_gateways: Tuple[str, ...] = (),
        shed_watermarks: Optional[ShedWatermarks] = None,
        region: Optional[str] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.broker_id = broker_id if broker_id is not None else host.name
        self.profile = profile
        if profile.gc is not None and host.cpu.gc_profile is None:
            host.cpu.gc_profile = profile.gc

        self._udp = UdpSocket(host, udp_port)
        self._udp.on_receive(self._on_udp_message)
        self._tcp = TcpListener(
            host, tcp_port, on_connection=lambda c: self._on_stream(c, False)
        )
        self._ssl = TcpListener(
            host, ssl_port, on_connection=lambda c: self._on_stream(c, True)
        )
        self._peer_socket = UdpSocket(host, peer_port)
        self._peer_socket.on_receive(self._on_peer_message)

        self._clients: Dict[str, _ClientRecord] = {}
        self._local_subs: TopicTrie[str] = TopicTrie()
        self._remote_interest: TopicTrie[str] = TopicTrie()
        self._peers: Dict[str, Address] = {}
        self._peer_by_address: Dict[Address, str] = {}
        self._sorted_peers: Tuple[str, ...] = ()
        self._routes: Dict[str, str] = {}
        self._routes_gen = 0
        self._seen_adverts = DedupWindow(SEEN_ADVERT_WINDOW)
        self._sequences: Dict[str, int] = {}

        # Routing fast path: memoized per-topic fan-out plus cached
        # (topic → sequencer) elections per routing generation.
        self.route_cache = RouteCache()
        self._sequencer_epoch = -1
        self._sequencers: Dict[str, str] = {}

        # Stale-client reaping: a client whose link has gone dark past
        # ``reap_timeout_s`` is expired so its TopicTrie interest (and any
        # RouteCache entries depending on it) is released, not leaked.
        # Disabled by default — pure subscribers are silent unless their
        # client runs keepalive probes.  The check runs every half timeout.
        if reap_timeout_s is not None and reap_timeout_s <= 0:
            raise ValueError("reap_timeout_s must be positive")
        self.reap_timeout_s = reap_timeout_s
        self._reap_timer = None
        self._closed = False
        if self.reap_timeout_s is not None:
            self._arm_reaper()

        # Autonomous mesh mode: peer heartbeats detect dead neighbours
        # without any central announcement, and flooded link-state adverts
        # let every broker compute its own next-hop table — the
        # BrokerNetwork stops pushing routes entirely.
        self.link_state_enabled = link_state_enabled
        self.peer_heartbeat_interval_s = peer_heartbeat_interval_s
        self.peer_miss_limit = peer_miss_limit
        self._peer_last_heard: Dict[str, float] = {}
        self._peer_hb_timer = None
        self._hb_tick = 0
        #: origin -> (epoch, advertised adjacency)
        self.lsdb = VersionedTable(
            self, self._encode_lsa, self._flood_advert, self._originate_lsa
        )
        self._recompute_pending = False
        if self.peer_heartbeat_interval_s is not None:
            self._arm_peer_heartbeat()

        # Opt-in planes, built only when configured: a flat broker has
        # neither, so it carries none of their state or branches.
        self.cluster_id = cluster_id
        self.region = region
        self.cluster: Optional[ClusterPlane] = (
            ClusterPlane(self, cluster_id, cluster_gateways)
            if cluster_id is not None
            else None
        )
        self.is_gateway = self.cluster is not None and self.cluster.is_gateway
        self.geo: Optional[GeoPlane] = (
            GeoPlane(self) if region is not None else None
        )

        # Overload protection.  The controller is a pure observer below
        # its watermarks: pressure is read inline at the dissemination/
        # admission decision points through side-effect-free signal reads
        # (no timers, no RNG), so an idle controller leaves the simulation
        # bit-identical to a run under a pressure-blind controller that
        # can never leave NORMAL — the determinism suite pins this.
        self.overload = OverloadController(
            (
                lambda: self.host.cpu.queue_depth,
                lambda: self.host.nic.queued_bytes,
                self._outbox_depth,
            ),
            shed_watermarks if shed_watermarks is not None else ShedWatermarks(),
        )
        #: Overflow evictions of outboxes that have since been closed
        #: (client dropped/reconnected) — keeps the ``outbox_overflows``
        #: gauge monotonic across client churn.
        self._outbox_overflows_closed = 0

        # Statistics: plain integer attributes mutated on the hot paths,
        # all registered (bound) in the metrics registry below so the
        # registry is the single source of truth for snapshots.
        for counter_name in self.COUNTERS:
            setattr(self, counter_name, 0)
        self.last_route_change_at = -1.0
        self._last_sequencers: Dict[str, str] = {}

        # Observability: sampled end-to-end tracing (shared tracer =
        # collection-wide sampling budget) and the metrics registry.
        self.tracer = tracer
        self.metrics = MetricsRegistry()
        # A plane's counters live on the plane and read 0 when the plane
        # is absent, so every mode has the same statistics keys in the
        # same order.
        for owner, names in (
            (self, self.COUNTERS),
            (self.cluster, ClusterPlane.COUNTERS),
            (self.geo, GeoPlane.COUNTERS),
        ):
            for counter_name in names:
                self.metrics.expose(
                    counter_name,
                    (lambda o=owner, name=counter_name: getattr(o, name))
                    if owner is not None
                    else (lambda: 0),
                )
        self.metrics.expose("route_cache_hits", lambda: self.route_cache.hits)
        self.metrics.expose(
            "route_cache_misses", lambda: self.route_cache.misses
        )
        self.metrics.expose(
            "route_cache_invalidations",
            lambda: self.route_cache.invalidations,
        )
        self.metrics.expose(
            "route_cache_entries", lambda: len(self.route_cache)
        )
        self.metrics.expose(
            "dedup_evictions", lambda: self._seen_adverts.evictions
        )
        self.metrics.expose(
            "local_subscriptions", lambda: len(self._local_subs)
        )
        self.metrics.expose(
            "remote_interest", lambda: len(self._remote_interest)
        )
        self.metrics.expose("outbox_depth", self._outbox_depth)
        self.metrics.expose("outbox_overflows", self._outbox_overflows)
        self.metrics.expose("overload_state", self._overload_state)
        for overload_name in (
            "overload_entries",
            "admissions_refused",
            "events_shed",
            "events_shed_control",
            "events_shed_audio",
            "events_shed_video",
            "events_shed_bulk",
        ):
            self.metrics.expose(
                overload_name,
                lambda name=overload_name: getattr(self.overload, name),
            )
        self.delivery_latency = self.metrics.histogram(
            "delivery_latency_s", LATENCY_BUCKETS_S
        )
        self.routing_cost = self.metrics.histogram(
            "routing_cost_s", COST_BUCKETS_S
        )

    # --------------------------------------------------------------- info

    @property
    def udp_address(self) -> Address:
        return self._udp.local_address

    @property
    def tcp_address(self) -> Address:
        return self._tcp.local_address

    @property
    def ssl_address(self) -> Address:
        return self._ssl.local_address

    @property
    def peer_address(self) -> Address:
        return self._peer_socket.local_address

    def client_count(self) -> int:
        return len(self._clients)

    @property
    def is_active_gateway(self) -> bool:
        """True while this broker is its cluster's elected active gateway.
        Side-effect free: the telemetry plane keeps exactly one
        cluster-health aggregator publishing per cluster (DESIGN.md §11).
        """
        return (
            self.cluster is not None
            and not self._closed
            and self.cluster.active_gateway == self.broker_id
        )

    def client_ids(self) -> List[str]:
        return sorted(self._clients)

    def known_brokers(self) -> List[str]:
        """Every broker reachable from here (including self)."""
        return sorted(set(self._routes) | {self.broker_id})

    def has_local_subscription(self, pattern: str, client_id: str) -> bool:
        return pattern in self._local_subs.patterns_for(client_id)

    def statistics(self) -> Dict[str, int]:
        """The broker's statistics block, generated from the metrics
        registry — every registered counter and gauge, by name.  Nothing
        is hand-listed here, so a counter added to the registry can never
        silently drift out of the statistics/monitoring surface."""
        return self.metrics.counters_snapshot()

    def _outbox_depth(self) -> int:
        """Reliable events pending across every client outbox (gauge)."""
        return sum(
            record.outbox.pending_count
            for record in self._clients.values()
            if record.outbox is not None
        )

    def _outbox_overflows(self) -> int:
        """Bounded-outbox overflow evictions, live and closed (gauge)."""
        return self._outbox_overflows_closed + sum(
            record.outbox.overflows
            for record in self._clients.values()
            if record.outbox is not None
        )

    def _overload_state(self) -> int:
        """Current overload state (gauge): 0 NORMAL, 1 DEGRADED, 2
        SHEDDING.  Reading refreshes the lazy state machine, so monitor
        samples observe recovery without the controller owning a timer."""
        return self.overload.refresh(self.sim.now)

    # --------------------------------------------------- peer provisioning

    def add_peer(
        self, peer_id: str, peer_address: Address, intercluster: bool = False
    ) -> None:
        """Register a directly-connected peer broker (both directions are
        registered by :class:`repro.broker.network.BrokerNetwork`).

        ``intercluster=True`` marks a gateway-to-gateway link between
        clusters, which only gateway-tier state crosses.  A flat broker
        has no cluster tier and ignores the flag.
        """
        previous = self._peers.get(peer_id)
        if previous is not None:
            self._peer_by_address.pop(previous, None)
        self._peers[peer_id] = peer_address
        self._peer_by_address[peer_address] = peer_id
        if self.cluster is not None:
            self.cluster.set_link(peer_id, intercluster)
        self._peer_last_heard[peer_id] = self.sim.now
        self._peers_changed()
        cluster = self.cluster
        if cluster is not None and intercluster:
            cluster.link_up(peer_id)  # only the gateway tier changed
            return
        # A link came up (first wiring, a restart, or a healed partition):
        # autonomous brokers flood their new adjacency and reconcile
        # databases via digest exchange.  In both modes, known interest
        # is offered over the new edge only, so the other side routes
        # events toward us again.
        if self.link_state_enabled:
            self._originate_lsa()
            self._send_control(peer_id, self._make_digest())
        self._sync_subscriptions_to_peer(peer_id)
        if cluster is not None and cluster.on_overlay(peer_id):
            cluster.link_up(peer_id)  # a co-gateway link is both

    def remove_peer(self, peer_id: str) -> None:
        address = self._peers.pop(peer_id, None)
        if address is not None:
            self._peer_by_address.pop(address, None)
        cluster = self.cluster
        was_intercluster = cluster is not None and cluster.set_link(
            peer_id, False
        )
        self._peer_last_heard.pop(peer_id, None)
        self._peers_changed()
        if not self.link_state_enabled:
            return
        if was_intercluster:
            cluster.originate_lsa()
            return
        self._originate_lsa()
        if cluster is not None and cluster.on_overlay(peer_id):
            cluster.originate_lsa()

    def has_peer(self, peer_id: str) -> bool:
        return peer_id in self._peers

    def _peers_changed(self) -> None:
        self._sorted_peers = tuple(sorted(self._peers))
        if self.cluster is not None:
            self.cluster.peers_changed()
        self._routes_gen += 1

    def set_routes(self, routes: Dict[str, str]) -> None:
        """Install next-hop routing table: destination broker -> peer id.

        Remote interest advertised by brokers that are no longer
        reachable is purged here — a dead broker can never withdraw its
        own adverts, so this is where its subscription state is released
        instead of leaking forever.
        """
        if routes != self._routes:
            self.routing_epochs += 1
            self.last_route_change_at = self.sim.now
        self._routes = dict(routes)
        self._routes_gen += 1
        # The dedup window must outlive a flood's echo lifetime, which
        # grows with the reachable set: resize relative to mesh size.
        self._seen_adverts.cap = max(
            SEEN_ADVERT_WINDOW, DEDUP_PER_BROKER * (len(self._routes) + 1)
        )
        reachable = set(self._routes)
        reachable.add(self.broker_id)
        if self.geo is not None:
            self.geo.routes_changed(reachable)  # retains remote interest
            return
        for origin in [
            o for o in set(self._remote_interest.values()) if o not in reachable
        ]:
            for pattern in list(self._remote_interest.patterns_for(origin)):
                self._remote_interest.remove(pattern, origin)

    def _sync_subscriptions_to_peer(self, peer_id: str) -> None:
        """Offer all known interest over one (newly up) peer link.

        The receiver re-floods anything it did not already know with
        ``skip_peer`` set to us, which is how subscription state crosses
        a healed partition without a full mesh-wide re-flood.
        """
        for origin, pattern in self._interest_offers():
            advert = SubAdvert(origin_broker=origin, pattern=pattern, add=True)
            self._seen_adverts.add(advert.advert_id)
            self._send_control(peer_id, advert)

    def _interest_offers(self) -> List[Tuple[str, str]]:
        """(origin, pattern) for every interest we advertise: local
        patterns, then remote interest by origin.  Foreign-gateway
        installs never leave a gateway (members have no routes to those
        ids); the proxied patterns are offered under our origin instead.
        """
        local = self._local_subs.all_patterns()
        offers = [(self.broker_id, pattern) for pattern in sorted(local)]
        origins = set(self._remote_interest.values())
        proxied: Set[str] = set()
        if self.cluster is not None:
            origins -= self.cluster.installed_foreign
            proxied = self.cluster.proxied
        for origin in sorted(origins):
            offers.extend(
                (origin, pattern)
                for pattern in self._remote_interest.patterns_for(origin)
            )
        offers.extend(
            (self.broker_id, pattern) for pattern in sorted(proxied - local)
        )
        return offers

    # --------------------------------------------------------- client I/O

    def _on_udp_message(self, payload: Any, src: Address, datagram: Datagram) -> None:
        self._dispatch_client_message(payload, src, None)

    def _on_stream(self, connection: TcpConnection, ssl: bool) -> None:
        connection.on_message = (
            lambda msg, size, conn: self._dispatch_client_message(
                msg, None, conn, ssl=ssl
            )
        )

    def _dispatch_client_message(
        self,
        message: Any,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool = False,
    ) -> None:
        client_id = getattr(message, "client_id", None)
        if client_id is not None:
            record = self._clients.get(client_id)
            if record is not None:
                record.last_seen = self.sim.now
        if isinstance(message, Publish):
            self._on_publish(message)
        elif isinstance(message, EventAck):
            record = self._clients.get(message.client_id)
            if record is not None and record.outbox is not None:
                record.outbox.ack(message.event_id)
        elif isinstance(message, Heartbeat):
            self._on_heartbeat(message)
        elif isinstance(message, Connect):
            self._on_connect(message, src, connection, ssl)
        elif isinstance(message, Subscribe):
            self._on_subscribe(message)
        elif isinstance(message, Unsubscribe):
            self._on_unsubscribe(message)
        elif isinstance(message, Disconnect):
            self._drop_client(message.client_id)

    def _on_connect(
        self,
        message: Connect,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool,
    ) -> None:
        self.control_messages += 1
        client_id = message.client_id
        if client_id not in self._clients:
            # Admission control: a SHEDDING broker refuses *new* clients
            # (an established client reconnecting keeps its session) with
            # a retry-after hint instead of taking on more fan-out work.
            admitted, retry_after = self.overload.admit(self.sim.now)
            if not admitted:
                self._refuse_admission(
                    message, src, connection, ssl, retry_after
                )
                return
        link = self._client_link(message, src, connection, ssl)
        if link is None:
            return
        outbox: Optional[ReliableOutbox] = None  # TCP/SSL are reliable
        if connection is None:
            outbox = ReliableOutbox(
                self.sim,
                lambda event, l=link: l.send(EventDelivery(event)),
                on_abandon=lambda event, cid=client_id: self._on_outbox_abandon(
                    cid
                ),
            )
        previous = self._clients.get(client_id)
        if previous is not None and previous.outbox is not None:
            self._outbox_overflows_closed += previous.outbox.overflows
            previous.outbox.close()
        self._clients[client_id] = _ClientRecord(
            client_id, link, outbox, last_seen=self.sim.now
        )
        self._reply(
            link, ConnectAck(client_id=client_id, broker_id=self.broker_id)
        )

    def _refuse_admission(
        self,
        message: Connect,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool,
        retry_after_s: float,
    ) -> None:
        """Answer a refused connect with ``Busy`` over a throwaway link
        (no client record is created — the whole point is not to)."""
        link = self._client_link(message, src, connection, ssl)
        if link is None:
            return
        self._reply(link, Busy(message.client_id, "connect", retry_after_s))

    def _client_link(
        self,
        message: Connect,
        src: Optional[Address],
        connection: Optional[TcpConnection],
        ssl: bool,
    ) -> Optional[ClientLink]:
        """The link a connect arrived on: SSL or TCP over its connection,
        else UDP back to its reply address (None when it has none)."""
        client_id = message.client_id
        envelope = self.profile.envelope_bytes
        if connection is not None:
            if ssl:
                return SslClientLink(client_id, envelope, connection, self.host)
            return TcpClientLink(client_id, envelope, connection)
        reply_to = message.reply_to if message.reply_to is not None else src
        if reply_to is None:
            return None
        return UdpClientLink(
            client_id, envelope, self._udp, reply_to, kind=message.link_type
        )

    def _on_subscribe(self, message: Subscribe) -> None:
        self.control_messages += 1
        record = self._clients.get(message.client_id)
        if record is None:
            return
        admitted, retry_after = self.overload.admit(self.sim.now)
        if not admitted:
            self._reply(
                record.link, Busy(message.client_id, "subscribe", retry_after)
            )
            return
        pattern = validate_pattern(message.pattern)
        advertised = self._advertises(pattern)
        self._local_subs.add(pattern, message.client_id)
        if not advertised:
            self._flood_own(pattern, add=True)
        self._interest_changed()
        self._reply(
            record.link,
            SubscribeAck(client_id=message.client_id, pattern=pattern),
        )

    def _on_unsubscribe(self, message: Unsubscribe) -> None:
        self.control_messages += 1
        self._local_subs.remove(message.pattern, message.client_id)
        self._withdraw_if_unadvertised(message.pattern)
        self._interest_changed()

    def _on_heartbeat(self, message: Heartbeat) -> None:
        self.heartbeats_received += 1
        record = self._clients.get(message.client_id)
        if record is None:
            return  # reaped or never connected: silence makes it fail over
        self._reply(
            record.link,
            HeartbeatAck(client_id=message.client_id, broker_id=self.broker_id),
        )

    def _reply(self, link: ClientLink, message: Any) -> None:
        """Answer a client control message (charged as control work)."""
        self.host.cpu.execute(self.profile.control_cost_s, link.send, message)

    def _on_outbox_abandon(self, client_id: str) -> None:
        """A reliable delivery exhausted its retries: the client's link is
        dead.  Drop the client so its interest is released instead of
        retrying every subsequent event into the void."""
        self.outbox_abandons += 1
        self._drop_client(client_id)

    def _arm_reaper(self) -> None:
        self._reap_timer = self.sim.schedule(
            self.reap_timeout_s / 2, self._reap_stale_clients
        )

    def _reap_stale_clients(self) -> None:
        self._reap_timer = None
        if self._closed:
            return
        deadline = self.sim.now - self.reap_timeout_s
        for client_id in [
            cid for cid, rec in self._clients.items() if rec.last_seen < deadline
        ]:
            self.clients_reaped += 1
            self._drop_client(client_id)
        self._arm_reaper()

    def _drop_client(self, client_id: str) -> None:
        record = self._clients.pop(client_id, None)
        if record is None:
            return
        if record.outbox is not None:
            self._outbox_overflows_closed += record.outbox.overflows
            record.outbox.close()
        for pattern in self._local_subs.patterns_for(client_id):
            self._local_subs.remove(pattern, client_id)
            self._withdraw_if_unadvertised(pattern)
        self._interest_changed()
        record.link.close()

    def _advertises(self, pattern: str) -> bool:
        """True while the mesh routes ``pattern`` here: a local client
        holds it, or it is advertised as a cluster gateway proxy."""
        return self._local_subs.has_pattern(pattern) or (
            self.cluster is not None and pattern in self.cluster.proxied
        )

    def _withdraw_if_unadvertised(self, pattern: str) -> None:
        if not self._advertises(pattern):
            self._flood_own(pattern, add=False)

    def _flood_own(self, pattern: str, add: bool) -> None:
        """Flood our own interest gained (``add``) or lost in ``pattern``."""
        self._flood_advert(
            SubAdvert(origin_broker=self.broker_id, pattern=pattern, add=add),
            skip_peer=None,
        )

    def _interest_changed(self) -> None:
        """Member interest moved: a cluster gateway re-summarizes it."""
        if self.cluster is not None:
            self.cluster.schedule_summary_refresh()

    # ----------------------------------------------------------- publish

    def _on_publish(self, message: Publish) -> None:
        event = message.event
        if self.tracer is not None and event.trace is None:
            # Trace traffic is BULK-class: when the overload controller
            # is already shedding that class, don't produce it either.
            # The plain state read (no refresh) is NORMAL for the whole
            # run whenever the watermarks never trip, so sampling stays
            # bit-identical to a pressure-blind run in that regime.
            if self.overload.state != NORMAL:
                self.traces_suppressed += 1
            elif self.tracer.sample(event, self.sim.now) is not None:
                self.traces_started += 1
        hop = self._begin_hop(event)
        if event.ordered:
            self._sequence_then_disseminate(
                event, exclude=message.client_id, hop=hop
            )
        else:
            self._charge(
                self.profile.route_cost_s, hop,
                self._disseminate, event, message.client_id,
            )

    def _charge(
        self, cost_s: float, hop: Optional[HopRecord], fn: Any, *args: Any
    ) -> None:
        """Queue work on the host CPU, attributed to ``hop`` if traced."""
        if hop is not None:
            self.host.cpu.execute_traced(cost_s, fn, *args, hop=hop)
        else:
            self.host.cpu.execute(cost_s, fn, *args)

    def _begin_hop(self, event: NBEvent) -> Optional[HopRecord]:
        """Open a hop record for a traced event arriving at this broker."""
        if event.trace is None:
            return None
        return event.trace.begin_hop(self.broker_id, "broker", self.sim.now)

    def _sequence_then_disseminate(
        self,
        event: NBEvent,
        exclude: Optional[str],
        hop: Optional[HopRecord] = None,
    ) -> None:
        sequencer = self.sequencer_for(event.topic)
        if self.geo is not None and self.geo.must_park(event.topic, sequencer):
            self.geo.park_ordered(event, exclude)
            return
        if sequencer == self.broker_id:
            self._sequence_here(event, self.broker_id, exclude, hop)
        else:
            request = SequenceRequest(event=event, origin_broker=self.broker_id)
            self._to_sequencer(sequencer, request, hop)

    def _to_sequencer(
        self, sequencer: str, request: SequenceRequest,
        hop: Optional[HopRecord],
    ) -> None:
        cost = self.profile.forward_cost_s
        if hop is None:
            self.host.cpu.execute(
                cost, self._send_peer_toward, sequencer, request
            )
            return
        hop.link = f"seq:{sequencer}"
        self.host.cpu.execute_traced(
            cost, self._send_toward_stamped, sequencer, request, hop, hop=hop,
        )

    def sequencer_for(self, topic: str) -> str:
        """Deterministic sequencer election for an ordered topic.

        The election only depends on the topic and the known-broker set
        (plus any locality pin in geo mode), so it is cached per
        (topic, routing generation).  The generation closes the heal
        window: it bumps the instant a peer link comes back
        (``add_peer`` → ``_peers_changed``), before the debounced route
        recompute runs, so a cached pre-partition election can never be
        served after the topology visibly changed.
        """
        if self._sequencer_epoch != self._routes_gen:
            self._sequencers.clear()
            self._sequencer_epoch = self._routes_gen
        sequencer = self._sequencers.get(topic)
        if sequencer is None:
            if self.geo is not None:
                sequencer = self.geo.pinned(topic)
            if sequencer is None:
                sequencer = self._hash_elect(topic, self.known_brokers())
            self._sequencers[topic] = sequencer
            if len(self._sequencers) > SEQUENCER_CACHE_MAX:
                del self._sequencers[next(iter(self._sequencers))]
            # Track re-elections across epochs: a change means in-flight
            # ordered streams restarted their sequence expectations.
            previous = self._last_sequencers.get(topic)
            if previous is not None and previous != sequencer:
                self.sequencer_changes += 1
            self._last_sequencers[topic] = sequencer
            if len(self._last_sequencers) > SEQUENCER_CACHE_MAX:
                del self._last_sequencers[next(iter(self._last_sequencers))]
        return sequencer

    def _hash_elect(self, topic: str, candidates: List[str]) -> str:
        if self.cluster is not None:
            candidates = self.cluster.electable(candidates)
        return min(
            candidates,
            key=lambda broker: hashlib.sha256(
                f"{topic}|{broker}".encode()
            ).hexdigest(),
        )

    def _sequence_here(
        self,
        event: NBEvent,
        origin: str,
        exclude: Optional[str],
        hop: Optional[HopRecord],
    ) -> None:
        """Stamp the next sequence number (we sequence the topic)."""
        if self.geo is not None:
            self.geo.note_sequenced(event.topic, origin)
        event.sequence = self._sequences.get(event.topic, 0)
        event.sequenced_by = self.broker_id
        self._sequences[event.topic] = event.sequence + 1
        self._charge(
            self.profile.route_cost_s, hop, self._disseminate, event, exclude
        )

    # ------------------------------------------------- routing fast path

    def routing_generation(self) -> Tuple[int, int, int]:
        """The generation triple cached route entries are validated
        against: any subscription, advert, or route-table change bumps
        one component and lazily invalidates stale entries."""
        return (
            self._local_subs.generation,
            self._remote_interest.generation,
            self._routes_gen,
        )

    def resolve_route(self, topic: str) -> RouteEntry:
        """Resolve the full fan-out for ``topic`` (cached when fresh)."""
        generation = self.routing_generation()
        entry = self.route_cache.lookup(topic, generation)
        if entry is not None:
            return entry
        local = tuple(sorted(self._local_subs.match(topic)))
        remote = self._remote_interest.match(topic)
        remote.discard(self.broker_id)
        intra = inter = None
        if self.cluster is not None:
            intra, inter = self.cluster.split_targets(remote)
        entry = RouteEntry(
            generation, local, frozenset(remote),
            self._compute_groups(remote),
            intra_targets=intra,
            inter_targets=inter,
        )
        self.route_cache.store(topic, entry)
        return entry

    def _compute_groups(self, targets: Set[str]) -> NextHopGroups:
        """Group target brokers by next hop, in deterministic send order."""
        grouped: Dict[str, Set[str]] = {}
        for target in targets:
            next_hop = self._routes.get(target)
            if next_hop is None:
                continue  # unreachable broker; drop silently
            grouped.setdefault(next_hop, set()).add(target)
        # Next hops are (normally) direct peers, so the cached sorted
        # peer list gives their order without a per-call sort.
        ordered = [peer for peer in self._sorted_peers if peer in grouped]
        if len(ordered) != len(grouped):
            ordered = sorted(grouped)
        return tuple((hop, frozenset(grouped[hop])) for hop in ordered)

    def _disseminate(self, event: NBEvent, exclude: Optional[str]) -> None:
        """Deliver locally and forward toward interested remote brokers.

        Runs after the per-event routing cost was charged.
        """
        if self._closed:
            return
        if self.overload.should_shed(event.priority, self.sim.now):
            return  # shed before fan-out: no delivery, no forwarding
        self.events_routed += 1
        entry = self.resolve_route(event.topic)
        self.routing_cost.observe(
            self.profile.route_cost_s
            + entry.send_cost_s(self.profile, event.size)
            * len(entry.local_targets)
            + self.profile.forward_cost_s * len(entry.next_hop_groups)
        )
        if self.geo is not None and event.reliable:
            self.geo.track_reliable(
                event, entry.remote_targets, entry.next_hop_groups
            )
        self._deliver_local(event, exclude, entry)
        if entry.next_hop_groups:
            self._forward_groups(event, entry.next_hop_groups)

    def _deliver_local(
        self,
        event: NBEvent,
        exclude: Optional[str],
        entry: Optional[RouteEntry] = None,
    ) -> None:
        if entry is None:
            entry = self.resolve_route(event.topic)
        if not entry.local_targets:
            return
        cpu = self.host.cpu
        charge_gc = cpu.gc_profile is not None
        execute = cpu.execute
        clients = self._clients
        send_cost = entry.send_cost_s(self.profile, event.size)
        alloc = self.profile.alloc_bytes_per_send
        if len(entry.local_targets) > 1:
            # The payload is about to be shared across receivers; freeze
            # it so a mutating receiver fails loudly instead of
            # corrupting its peers.
            event.payload = freeze_payload(event.payload)
        # One envelope + one wire-size computation for the whole fan-out;
        # destinations are distinguished by their link.
        shared = EventDelivery(event)
        wire_size = self.profile.envelope_bytes + len(event.topic) + event.size
        delivered: List[str] = []
        for client_id in entry.local_targets:
            if client_id == exclude:
                continue
            record = clients.get(client_id)
            if record is None:
                continue
            self.events_delivered += 1
            delivered.append(client_id)
            if charge_gc:
                cpu.allocate(alloc)
            if event.reliable and record.outbox is not None:
                execute(send_cost, record.outbox.send, event)
            else:
                execute(send_cost, record.link.send_sized, shared, wire_size)
        if not delivered:
            return
        if not internal_topic(event.topic):
            # Management-plane deliveries (monitor samples, traces,
            # alerts) must not pollute the media-delay histogram.
            self.delivery_latency.observe(self.sim.now - event.published_at)
        if event.trace is not None:
            self._complete_trace(event, delivered)

    def _complete_trace(self, event: NBEvent, delivered: List[str]) -> None:
        """Close the in-progress hop and publish the finished trace.

        One :class:`CompletedTrace` per *delivering broker* (carrying the
        receiver list), not per receiver — trace traffic scales with the
        broker path length, not the fan-out.

        The local-delivery branch is completed on a *fork* of the context
        so the event's own (shared) in-progress hop stays unstamped for
        any forward branches forked after this call.
        """
        context = event.trace.fork()
        hop = context.open_hop
        if hop is not None and hop.departed_at is None:
            hop.departed_at = self.sim.now
            hop.link = "local"
        completed = CompletedTrace(
            trace_id=context.trace_id,
            topic=context.topic,
            source=context.source,
            published_at=context.published_at,
            delivered_at=self.sim.now,
            delivered_by=self.broker_id,
            delivered_to=tuple(delivered),
            context=context,
        )
        self.traces_completed += 1
        trace_event = NBEvent(
            topic=f"{TRACE_TOPIC_PREFIX}/{self.broker_id}",
            payload=completed,
            size=completed.wire_size(),
            source=self.broker_id,
            published_at=self.sim.now,
        )
        # Disseminated like any publish (charging this broker's modeled
        # CPU — trace overhead is real overhead), but never itself traced.
        self.host.cpu.execute(
            self.profile.route_cost_s, self._disseminate, trace_event, None
        )

    def _forward_to_targets(self, event: NBEvent, targets: Set[str]) -> None:
        key = frozenset(targets)
        groups = self.route_cache.lookup_groups(key, self._routes_gen)
        if groups is None:
            groups = self.route_cache.store_groups(
                key, self._routes_gen, self._compute_groups(key)
            )
        if self.geo is not None and event.reliable:
            self.geo.track_reliable(event, key, groups)
        self._forward_groups(event, groups)

    def _forward_groups(self, event: NBEvent, groups: NextHopGroups) -> None:
        cpu, cost = self.host.cpu, self.profile.forward_cost_s
        for next_hop, group_targets in groups:
            self.events_forwarded += 1
            if event.trace is None:
                peer_event = PeerEvent(event=event, targets=group_targets)
                cpu.execute(cost, self._send_peer, next_hop, peer_event)
                continue
            # Traced fan-out: clone the event per branch (same event_id,
            # so reliability/ordering dedup is unaffected) with a forked
            # trace, so concurrent branches never interleave hop records.
            branch = event.fork_for_branch()
            hop = branch.trace.open_hop
            peer_event = PeerEvent(event=branch, targets=group_targets)
            if hop is not None and hop.departed_at is None:
                hop.link = next_hop
                cpu.execute_traced(
                    cost, self._send_peer_stamped, next_hop, peer_event, hop,
                    hop=hop,
                )
            else:
                cpu.execute(cost, self._send_peer, next_hop, peer_event)

    # --------------------------------------------------------- peer plane

    def _send_peer(self, peer_id: str, message: Any) -> None:
        if self._closed:
            return  # a CPU-deferred send can fire after an abrupt crash
        address = self._peers.get(peer_id)
        if address is None:
            return
        size = message_size(message, self.profile.envelope_bytes)
        self._peer_socket.sendto(message, size, address)

    def _send_peer_toward(self, destination: str, message: Any) -> None:
        """Send toward a (possibly multi-hop) destination broker."""
        if destination == self.broker_id:
            return
        next_hop = self._routes.get(destination)
        if next_hop is None:
            return
        self._send_peer(next_hop, message)

    def _send_peer_stamped(
        self, peer_id: str, message: Any, hop: HopRecord
    ) -> None:
        """Traced variant of :meth:`_send_peer`: stamp the hop departure
        at the moment the copy actually leaves this broker."""
        hop.departed_at = self.sim.now
        self._send_peer(peer_id, message)

    def _send_toward_stamped(
        self, destination: str, message: Any, hop: HopRecord
    ) -> None:
        hop.departed_at = self.sim.now
        self._send_peer_toward(destination, message)

    def _on_peer_message(self, payload: Any, src: Address, datagram: Datagram) -> None:
        from_peer = self._peer_by_address.get(src)
        if from_peer is not None:
            # Any traffic proves liveness — a busy peer that never gets a
            # heartbeat out between media bursts is still clearly alive.
            self._peer_last_heard[from_peer] = self.sim.now
        if isinstance(payload, PeerEvent):
            self._on_peer_event(payload, from_peer=from_peer)
        elif isinstance(payload, SequenceRequest):
            self._on_sequence_request(payload)
        elif isinstance(payload, SubAdvert):
            self._on_sub_advert(payload, from_peer=from_peer)
        elif isinstance(payload, SequencerPin):
            self._on_sequencer_pin(payload, from_peer=from_peer)
        elif isinstance(payload, PeerHeartbeat):
            self.peer_heartbeats_received += 1
        elif isinstance(payload, LinkStateAdvert):
            self._on_link_state_advert(payload, from_peer=from_peer)
        elif isinstance(payload, LinkStateDigest):
            self._on_link_state_digest(payload, from_peer=from_peer)
        elif isinstance(payload, (ClusterLsa, ClusterInterestAdvert)):
            if not self._seen_adverts.add(payload.advert_id):
                self.lsas_deduped += 1
            elif self.cluster is not None:
                self.cluster.on_advert(payload, from_peer)
        elif isinstance(payload, ClusterDigest):
            if self.cluster is not None:
                self.cluster.on_digest(payload, from_peer)

    def _on_peer_event(
        self, peer_event: PeerEvent, from_peer: Optional[str] = None
    ) -> None:
        event = peer_event.event
        if self.overload.should_shed(event.priority, self.sim.now):
            return  # shed in transit: neither delivered nor re-forwarded
        hop = self._begin_hop(event)
        targets = set(peer_event.targets)
        targeted = self.broker_id in targets
        extra = (
            self.cluster.on_peer_event(event, from_peer, targeted)
            if self.cluster is not None
            else None
        )
        if targeted:
            targets.discard(self.broker_id)
            if extra:
                targets |= extra
            if hop is not None:
                # Deliver on a fork when we also forward onward, so the
                # onward branches keep their own in-progress hop.
                local = event.fork_for_branch() if targets else event
                self.host.cpu.execute_traced(
                    self.profile.route_cost_s,
                    self._deliver_local, local, None,
                    hop=local.trace.hops[-1],
                )
            else:
                self.host.cpu.execute(
                    self.profile.route_cost_s, self._deliver_local, event, None
                )
            self.events_routed += 1
        if targets:
            if extra:
                # The re-export resolved a fresh fan-out at the tier
                # boundary: charge it like any other routing decision.
                self.host.cpu.execute(
                    self.profile.route_cost_s,
                    self._forward_to_targets, event, targets,
                )
            else:
                self._forward_to_targets(event, targets)

    def _on_sequence_request(self, request: SequenceRequest) -> None:
        event = request.event
        hop = self._begin_hop(event)
        sequencer = self.sequencer_for(event.topic)
        if sequencer != self.broker_id:
            if self.geo is not None and sequencer not in self._routes:
                # Mid-flight topology change cut the sequencer off:
                # park here rather than silently dropping the forward.
                self.geo.park_ordered(event, None)
                return
            # Not ours (topology may have changed); forward along.
            self._to_sequencer(sequencer, request, hop)
            return
        self._sequence_here(event, request.origin_broker, None, hop)

    def _on_sub_advert(
        self, advert: SubAdvert, from_peer: Optional[str] = None
    ) -> None:
        if not self._seen_adverts.add(advert.advert_id):
            return
        self.control_messages += 1
        if advert.origin_broker == self.broker_id:
            # Echo of our own advert: our original flood already covered
            # every reachable peer, and our local state is authoritative.
            return
        if advert.add:
            changed = self._remote_interest.add(
                advert.pattern, advert.origin_broker
            )
        else:
            changed = self._remote_interest.remove(
                advert.pattern, advert.origin_broker
            )
        if not changed:
            # Already-known state: a peer-sync offer, or an echo whose id
            # aged out of the dedup window.  Absorb it — re-flooding a
            # no-op is what turns a window eviction into a self-sustaining
            # advert storm (each re-flood evicts more live ids, whose
            # echoes then also read as new).
            return
        # Reflood to everyone except the peer it arrived from — sending
        # it back is pure waste (the sender already deduplicates it).
        self._flood_advert(advert, skip_peer=from_peer)
        self._interest_changed()
        if self.geo is not None and advert.add:
            self.geo.interest_added()

    def _on_sequencer_pin(
        self, pin: SequencerPin, from_peer: Optional[str]
    ) -> None:
        if not self._seen_adverts.add(pin.advert_id):
            return
        self.control_messages += 1
        if self.geo is not None:  # geo-unaware brokers never honor pins
            self.geo.on_pin(pin, from_peer)

    def _flood_advert(self, advert: Any, skip_peer: Optional[str]) -> None:
        """Flood a member-tier advert (SubAdvert, LinkStateAdvert or
        SequencerPin) to every peer except the one it arrived from;
        clustered, to intra-cluster peers only."""
        if self.cluster is not None:
            peers = self.cluster.member_flood_peers(advert)
        else:
            peers = self._sorted_peers
        self._flood(advert, peers, skip_peer)

    def _flood(
        self, advert: Any, peers: Iterable[str], skip_peer: Optional[str]
    ) -> None:
        """The one flood: mark the advert seen, send it to ``peers``."""
        self._seen_adverts.add(advert.advert_id)
        for peer_id in peers:
            if peer_id != skip_peer:
                self._send_control(peer_id, advert)

    def _send_control(self, peer_id: str, message: Any) -> None:
        """Send a control message to a peer, charged as control work."""
        self.host.cpu.execute(
            self.profile.control_cost_s, self._send_peer, peer_id, message
        )

    # --------------------------------- peer failure detection (heartbeats)

    def _arm_peer_heartbeat(self) -> None:
        self._peer_hb_timer = self.sim.schedule(
            self.peer_heartbeat_interval_s, self._peer_heartbeat_tick
        )

    def _peer_heartbeat_tick(self) -> None:
        self._peer_hb_timer = None
        if self._closed:
            return
        self._hb_tick += 1
        deadline = (
            self.sim.now
            - self.peer_heartbeat_interval_s * self.peer_miss_limit
        )
        for peer_id in [
            peer
            for peer in self._sorted_peers
            if self._peer_last_heard.get(peer, 0.0) < deadline
        ]:
            self._evict_peer(peer_id)
        beat = PeerHeartbeat(origin_broker=self.broker_id)
        send_digest = (
            self.link_state_enabled and self._hb_tick % ANTI_ENTROPY_TICKS == 0
        )
        if self.geo is not None and send_digest:
            self.geo.check_costs()
        cluster = self.cluster
        for peer_id in self._sorted_peers:
            self._send_control(peer_id, beat)
            if not send_digest:
                continue
            # Inter-cluster links repair gateway-tier state only;
            # co-gateways reconcile both tiers, so a standby's shadow
            # state survives lost overlay floods.
            if cluster is None or peer_id not in cluster.intercluster_peers:
                self._send_control(peer_id, self._make_digest())
            if cluster is not None and cluster.on_overlay(peer_id):
                self._send_control(peer_id, cluster.make_digest())
        self._arm_peer_heartbeat()

    def _evict_peer(self, peer_id: str) -> None:
        """Declare a silent peer dead — no central announcement involved.

        ``remove_peer`` re-originates our LSA; once the flood converges
        and the dead broker is globally unreachable, the local recompute
        path (:meth:`set_routes`) purges its remote interest everywhere.
        """
        self.peers_evicted += 1
        self.remove_peer(peer_id)

    # ------------------------------------------- link-state routing (LSAs)

    def _intra_neighbors(self) -> FrozenSet[str]:
        """Adjacency advertised in member LSAs (intra-cluster only)."""
        if self.cluster is not None:
            return self.cluster.intra_neighbors()
        return frozenset(self._peers)

    @staticmethod
    def _encode_lsa(
        origin: str, epoch: int, neighbors: FrozenSet[str],
        costs: Optional[Dict[str, int]],
    ) -> LinkStateAdvert:
        return LinkStateAdvert(
            origin_broker=origin, epoch=epoch, neighbors=neighbors,
            costs=costs,
        )

    def _originate_lsa(self) -> None:
        """Flood a fresh advert for our current adjacency."""
        neighbors = self._intra_neighbors()
        self.lsdb.originate(neighbors, neighbors)

    def _make_digest(self) -> LinkStateDigest:
        epochs = self.lsdb.digest_epochs(self._intra_neighbors())
        return LinkStateDigest(origin_broker=self.broker_id, epochs=epochs)

    def _on_link_state_advert(
        self, lsa: LinkStateAdvert, from_peer: Optional[str]
    ) -> None:
        if not self._seen_adverts.add(lsa.advert_id):
            self.lsas_deduped += 1
            return
        self.control_messages += 1
        self.lsas_received += 1
        if self.lsdb.accept(
            lsa, lsa.origin_broker, lsa.neighbors, lsa.costs, from_peer
        ):
            self._schedule_recompute()

    def _on_link_state_digest(
        self, digest: LinkStateDigest, from_peer: Optional[str]
    ) -> None:
        if from_peer is None or (
            self.cluster is not None
            and from_peer in self.cluster.intercluster_peers
        ):
            return  # member LSDBs never reconcile across a cluster boundary
        self.control_messages += 1
        self._make_digest()  # refresh our own entry before comparing
        self.lsdb.push_newer(digest.epochs, from_peer)
        if self.lsdb.behind(digest.epochs):
            # Ask for the newer entries with our own digest.
            self._send_control(from_peer, self._make_digest())

    def _schedule_recompute(self) -> None:
        """Debounced local route recompute (many LSAs, one Dijkstra)."""
        if not self.link_state_enabled or self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(0.0, self._run_recompute)

    def _run_recompute(self) -> None:
        self._recompute_pending = False
        if self._closed:
            return
        self._recompute_routes()

    def _recompute_routes(self) -> None:
        """Compute our next-hop table from the link-state database.

        An edge counts only when *both* endpoints advertise it (a broker
        that evicted us no longer routes through us, so we must not route
        through it either).  Cost-weighted when any origin advertises
        cost classes (geo mode), unit-weight otherwise; ties break
        lexicographically so every broker derives consistent paths.
        """
        claimed: Dict[str, FrozenSet[str]] = {
            origin: entry[1] for origin, entry in self.lsdb.entries.items()
        }
        claimed[self.broker_id] = self._intra_neighbors()
        routes, dist = shortest_paths(self.broker_id, claimed, self.lsdb.costs)
        if self.cluster is not None:
            routes = self.cluster.overlay_routes(routes)
        self.set_routes(routes)
        # Forget unreachable origins: their interest was just purged by
        # set_routes, and dropping the stale LSDB entry means a restarted
        # broker re-enters at epoch 1 without fighting its past life.
        # Geo mode retains them instead — a WAN partition makes half the
        # fabric "unreachable" for seconds, and the retained entries keep
        # the foreign-gateway filter and stable-set election truthful
        # while it lasts (the LSA echo rule still resolves restarts).
        if self.geo is None:
            self.lsdb.forget_unreachable(dist)
        if self.cluster is not None:
            self.cluster.routes_recomputed()

    # ------------------------------------------------------------- admin

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reap_timer is not None:
            self._reap_timer.cancel()
            self._reap_timer = None
        if self._peer_hb_timer is not None:
            self._peer_hb_timer.cancel()
            self._peer_hb_timer = None
        for record in list(self._clients.values()):
            if record.outbox is not None:
                record.outbox.close()
        self._clients.clear()
        self._udp.close()
        self._tcp.close()
        self._ssl.close()
        self._peer_socket.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Broker {self.broker_id} clients={len(self._clients)} "
            f"peers={sorted(self._peers)}>"
        )
