"""The cluster tier (§2.3 clusters and super-clusters): the plane a
broker builds when it has a cluster id.

Member floods stay inside the cluster.  Gateways also run an overlay
control plane on two epoch-versioned tables — the gateway LSDB
(``ClusterLsa``) and cluster interest (``ClusterInterestAdvert``, each
cluster's prefix-collapsed summary) — repaired by ``ClusterDigest``.
Only the *active* gateway (lowest live gateway id) imports foreign
interest, proxies it to members, exports events and publishes the
summary; standbys keep shadow copies, ready for takeover.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Set, Tuple,
)

from repro.broker.event import NBEvent
from repro.broker.flood import VersionedTable, shortest_paths
from repro.broker.links import (
    ClusterDigest,
    ClusterInterestAdvert,
    ClusterLsa,
    LinkStateAdvert,
)
from repro.broker.topic import summarize_patterns

if TYPE_CHECKING:
    from repro.broker.broker import Broker

#: Cap on the aggregated interest summary a cluster gateway exports;
#: above it, prefixes are collapsed (widened) until the summary fits
#: (:func:`repro.broker.topic.summarize_patterns`).  Deliberately small:
#: a false positive only costs one inter-cluster forward the entry
#: gateway drops, while a large budget lets exact-list churn flood the
#: overlay before collapse.
INTEREST_SUMMARY_BUDGET = 16

#: Minimum spacing between two summary floods from one gateway.  Below
#: the collapse budget every subscription change alters the exact
#: summary, so a churn burst would otherwise export one overlay flood
#: per op — this coalesces the burst into at most one flood per
#: interval, trading up to that much added cross-cluster propagation
#: delay for a bounded overlay rate.
SUMMARY_REFRESH_MIN_INTERVAL_S = 0.25

#: Hysteresis on summary collapse: once collapsed, a gateway keeps
#: collapsing until the cluster's interest shrinks below
#: ``INTEREST_SUMMARY_BUDGET // 2``.  A cluster sitting *at* the budget
#: would otherwise flap on every churn transient, and each flap makes
#: every remote cluster install/withdraw the full diff as proxy floods.
SUMMARY_COLLAPSE_RELEASE = 2


class ClusterPlane:
    """Tier scoping, the gateway overlay and interest summaries."""

    #: Counters this plane owns, exposed through the broker's registry.
    COUNTERS = (
        "adverts_aggregated",
        "cluster_lsas_scoped",
        "intercluster_hops",
        "gateway_takeovers",
    )

    def __init__(
        self, broker: "Broker", cluster_id: str, gateways: Tuple[str, ...]
    ):
        self.broker = broker
        self.cluster_id = cluster_id
        self.gateways = tuple(sorted(gateways))
        self.is_gateway = broker.broker_id in self.gateways
        #: Gateway-to-gateway links into other clusters: no member LSA,
        #: per-topic SubAdvert or raw subscription sync crosses them.
        self.intercluster_peers: Set[str] = set()
        self.intra_sorted: Tuple[str, ...] = ()
        #: origin gateway -> (epoch, (overlay neighbours, cluster id))
        self.gw_lsdb = VersionedTable(
            broker, self._encode_lsa, self.flood, self.originate_lsa
        )
        #: origin gateway -> (epoch, (patterns, cluster id)), own cluster
        #: too (standby shadow copies).  Our own summary is
        #: ``last_summary`` at the table's own epoch.
        self.interest = VersionedTable(
            broker, self._encode_interest, self.flood, self._resend_summary
        )
        #: Foreign gateways whose summaries sit in the broker's remote
        #: interest; their interest never leaves this gateway.
        self.installed_foreign: Set[str] = set()
        self.proxied: Set[str] = set()
        self.last_summary: Optional[Tuple[str, ...]] = None
        self._summary_pending = False
        self._last_summary_flood_at = -SUMMARY_REFRESH_MIN_INTERVAL_S
        self.summary_collapsed = False
        self.active_gateway: Optional[str] = None
        self._gw_dist: Dict[str, int] = {}
        for name in self.COUNTERS:
            setattr(self, name, 0)

    # -------------------------------------------------------- tier scoping

    def set_link(self, peer_id: str, intercluster: bool) -> bool:
        """Record a peer link's tier; True when it *was* inter-cluster."""
        was_intercluster = peer_id in self.intercluster_peers
        if intercluster:
            self.intercluster_peers.add(peer_id)
        else:
            self.intercluster_peers.discard(peer_id)
        return was_intercluster

    def peers_changed(self) -> None:
        inter = self.intercluster_peers
        self.intra_sorted = tuple(
            peer for peer in self.broker._sorted_peers if peer not in inter
        )

    def intra_neighbors(self) -> FrozenSet[str]:
        """Member-LSA adjacency: inter links belong to the gateway tier
        and must not leak into member LSAs."""
        inter = self.intercluster_peers
        return frozenset(p for p in self.broker._peers if p not in inter)

    def member_flood_peers(self, advert: Any) -> Tuple[str, ...]:
        """Member subscription state and member adjacency never cross a
        cluster boundary: member floods go to intra-cluster links only."""
        if self.intercluster_peers and isinstance(advert, LinkStateAdvert):
            self.cluster_lsas_scoped += 1
        return self.intra_sorted

    def on_overlay(self, peer_id: str) -> bool:
        """True for a gateway-overlay edge: an inter-cluster link, or a
        co-gateway link of ours."""
        return peer_id in self.intercluster_peers or (
            self.is_gateway and peer_id in self.gateways
        )

    def overlay_peers(self) -> List[str]:
        """Direct peers on the gateway overlay: inter-cluster links plus
        co-gateways of our own cluster we hold an intra link to."""
        overlay = set(self.intercluster_peers)
        peers = self.broker._peers
        for gateway in self.gateways:
            if gateway != self.broker.broker_id and gateway in peers:
                overlay.add(gateway)
        return sorted(overlay)

    def flood(self, advert: Any, skip_peer: Optional[str]) -> None:
        """Flood a gateway-tier advert over the gateway overlay."""
        self.broker._flood(advert, self.overlay_peers(), skip_peer)

    def link_up(self, peer_id: str) -> None:
        """An overlay edge came up: flood our adjacency and reconcile
        both gateway-tier tables with the peer."""
        self.originate_lsa()
        self.broker._send_control(peer_id, self.make_digest())

    # ------------------------------------------------------ gateway LSDB

    @staticmethod
    def _encode_lsa(origin: str, epoch: int, value, costs) -> ClusterLsa:
        neighbors, cluster = value
        return ClusterLsa(
            origin_gateway=origin, cluster_id=cluster, epoch=epoch,
            gw_neighbors=neighbors, costs=costs,
        )

    @staticmethod
    def _encode_interest(
        origin: str, epoch: int, value, costs
    ) -> ClusterInterestAdvert:
        patterns, cluster = value
        return ClusterInterestAdvert(
            origin_gateway=origin, cluster_id=cluster, epoch=epoch,
            patterns=patterns,
        )

    def originate_lsa(self) -> None:
        """Flood a fresh gateway-tier advert for our overlay adjacency."""
        if self.is_gateway:
            neighbors = frozenset(self.overlay_peers())
            self.gw_lsdb.originate((neighbors, self.cluster_id), neighbors)

    def make_digest(self) -> ClusterDigest:
        me = self.broker.broker_id
        lsa_epochs = self.gw_lsdb.digest_epochs(
            (frozenset(self.overlay_peers()), self.cluster_id)
        )
        interest_epochs = self.interest.epochs()
        if self.interest.epoch:
            interest_epochs[me] = self.interest.epoch
        return ClusterDigest(
            origin_gateway=me, lsa_epochs=lsa_epochs,
            interest_epochs=interest_epochs,
        )

    def on_advert(self, advert: Any, from_peer: Optional[str]) -> None:
        """A deduplicated ClusterLsa or ClusterInterestAdvert."""
        if not self.is_gateway:
            return  # members are never on the gateway overlay
        broker = self.broker
        broker.control_messages += 1
        origin = advert.origin_gateway
        if isinstance(advert, ClusterLsa):
            broker.lsas_received += 1
            value = (frozenset(advert.gw_neighbors), advert.cluster_id)
            if self.gw_lsdb.accept(
                advert, origin, value, advert.costs, from_peer
            ):
                broker._schedule_recompute()
            return
        value = (tuple(advert.patterns), advert.cluster_id)
        if (
            self.interest.accept(advert, origin, value, None, from_peer)
            and advert.cluster_id != self.cluster_id
            and self.active_gateway == broker.broker_id
        ):
            self.reconcile_foreign_install()

    def on_digest(self, digest: ClusterDigest, from_peer: Optional[str]) -> None:
        """Gateway-tier anti-entropy: push strictly-newer entries to the
        peer, and ask back (with our digest) when strictly behind."""
        if from_peer is None or not self.is_gateway:
            return
        broker = self.broker
        broker.control_messages += 1
        self.make_digest()  # refresh our own entries first
        theirs = digest.interest_epochs
        self.gw_lsdb.push_newer(digest.lsa_epochs, from_peer)
        self.interest.push_newer(theirs, from_peer)
        epoch = self.interest.epoch
        if epoch and theirs.get(broker.broker_id, -1) < epoch:
            advert = self._own_summary(self.last_summary or ())
            broker._seen_adverts.add(advert.advert_id)
            broker._send_control(from_peer, advert)
        if self.gw_lsdb.behind(digest.lsa_epochs) or self.interest.behind(
            theirs
        ):
            broker._send_control(from_peer, self.make_digest())

    # ---------------------------------------------------- overlay routes

    def overlay_routes(self, routes: Dict[str, str]) -> Dict[str, str]:
        """Add the overlay's routes to *foreign* gateways to the intra
        table.  Overlay first hops are direct peers, so the merged table
        stays a plain destination → next-peer map."""
        if not self.is_gateway:
            return routes
        entries = self.gw_lsdb.entries
        claimed = {origin: entry[1][0] for origin, entry in entries.items()}
        claimed[self.broker.broker_id] = frozenset(self.overlay_peers())
        gw_routes, self._gw_dist = shortest_paths(
            self.broker.broker_id, claimed, self.gw_lsdb.costs
        )
        merged = dict(routes)
        for gateway, first_hop in gw_routes.items():
            entry = entries.get(gateway)
            if entry is not None and entry[1][1] == self.cluster_id:
                continue  # same-cluster: intra routing wins
            merged.setdefault(gateway, first_hop)
        return merged

    def routes_recomputed(self) -> None:
        """Purge vanished gateways (unless geo mode retains them, see
        :meth:`Broker._recompute_routes`), re-elect the active gateway
        and reconcile installs against the surviving set."""
        if not self.is_gateway:
            return
        if self.broker.geo is None:
            for origin in self.gw_lsdb.forget_unreachable(self._gw_dist):
                self.interest.entries.pop(origin, None)
        self.check_active_gateway()
        # A foreign gateway may have vanished without our own
        # active/standby role changing.
        self.reconcile_foreign_install()
        self.schedule_summary_refresh()

    def electable(self, candidates: List[str]) -> List[str]:
        """Gateways also know foreign gateways; elections must stay
        cluster-local so every member of the cluster derives the same
        sequencer.  Ordering domains are per cluster — see DESIGN.md."""
        if not self.is_gateway:
            return candidates
        foreign = self._foreign(self.gw_lsdb)
        return [b for b in candidates if b not in foreign]

    # ------------------------------------------------- active gateway

    def check_active_gateway(self) -> None:
        """(Re)elect our cluster's active gateway: the lowest gateway id
        that is us or intra-reachable."""
        broker = self.broker
        me = broker.broker_id
        live = [
            gateway
            for gateway in self.gateways
            if gateway == me or gateway in broker._routes
        ]
        active = min(live) if live else me
        previous = self.active_gateway
        if active == previous:
            return
        self.active_gateway = active
        if active == me:
            if previous is not None:
                self.gateway_takeovers += 1
            self.reconcile_foreign_install()
            self.last_summary = None  # force a (re)send of our summary
            self.schedule_summary_refresh()
        elif previous == me:
            # Demoted (a lower gateway healed): uninstall foreign
            # interest, withdraw proxies, and retract our summary so
            # remote clusters stop exporting toward us — otherwise both
            # gateways stay targeted and every event delivers twice.
            self.reconcile_foreign_install()
            if self.interest.epoch:
                self.interest.epoch += 1
                self.last_summary = ()
                self.flood(self._own_summary(()), skip_peer=None)

    # ------------------------------------------------ interest summary

    def _resend_summary(self) -> None:
        """Our past incarnation's summary echoed back: force a resend at
        the jumped epoch so remote clusters converge on the live one."""
        self.last_summary = None
        self.schedule_summary_refresh()

    def schedule_summary_refresh(self) -> None:
        """Debounced, rate-limited recompute of our interest summary:
        at most one flood per ``SUMMARY_REFRESH_MIN_INTERVAL_S``."""
        if not self.is_gateway or self._summary_pending:
            return
        self._summary_pending = True
        sim = self.broker.sim
        delay = max(
            0.0,
            self._last_summary_flood_at
            + SUMMARY_REFRESH_MIN_INTERVAL_S
            - sim.now,
        )
        sim.schedule(delay, self._run_summary_refresh)

    def _run_summary_refresh(self) -> None:
        self._summary_pending = False
        if self.broker._closed:
            return
        self._refresh_interest_summary()

    def _foreign(self, table: VersionedTable) -> Set[str]:
        """Origin gateways in ``table`` that belong to other clusters."""
        cid = self.cluster_id
        return {o for o, entry in table.entries.items() if entry[1][1] != cid}

    def _own_summary(self, patterns: Tuple[str, ...]) -> ClusterInterestAdvert:
        return self._encode_interest(
            self.broker.broker_id, self.interest.epoch,
            (patterns, self.cluster_id), None,
        )

    def _refresh_interest_summary(self) -> None:
        """Recompute and (when changed) flood this cluster's aggregated
        interest summary.  Active gateway only."""
        broker = self.broker
        if self.active_gateway != broker.broker_id:
            return
        patterns = set(broker._local_subs.all_patterns())
        foreign = self._foreign(self.interest)
        remote = broker._remote_interest
        for origin in set(remote.values()):
            if origin in foreign:
                continue  # foreign installs are not member interest
            patterns.update(remote.patterns_for(origin))
        budget = INTEREST_SUMMARY_BUDGET
        if self.summary_collapsed:
            # Hysteresis: stay collapsed until interest genuinely narrows.
            budget //= SUMMARY_COLLAPSE_RELEASE
        summary = summarize_patterns(patterns, budget)
        if summary == self.last_summary:
            return
        self.summary_collapsed = len(summary) < len(patterns)
        self.interest.epoch += 1
        self.last_summary = summary
        self._last_summary_flood_at = broker.sim.now
        self.adverts_aggregated += len(patterns)
        self.flood(self._own_summary(summary), skip_peer=None)

    # ------------------------------------- foreign install and re-export

    def reconcile_foreign_install(self) -> None:
        """Make the broker's foreign-origin remote interest match what
        this gateway should install — every foreign summary when active,
        none when standby — then re-derive the proxied pattern set and
        flood the proxy-advert deltas into the cluster."""
        remote = self.broker._remote_interest
        active = self.active_gateway == self.broker.broker_id
        wanted_origins = self._foreign(self.interest) if active else set()
        for origin in sorted(self.installed_foreign - wanted_origins):
            for pattern in list(remote.patterns_for(origin)):
                remote.remove(pattern, origin)
            self.installed_foreign.discard(origin)
        for origin in sorted(wanted_origins):
            current = set(remote.patterns_for(origin))
            wanted = set(self.interest.entries[origin][1][0])
            for pattern in sorted(current - wanted):
                remote.remove(pattern, origin)
            for pattern in sorted(wanted - current):
                remote.add(pattern, origin)
            self.installed_foreign.add(origin)
        self._sync_proxies()

    def _sync_proxies(self) -> None:
        """Advertise installed foreign interest into the cluster under
        our own origin, so members route matching events toward us.

        The flood rules keep our *effective* advertised interest — local
        subscriptions ∪ proxied patterns — consistent on both edges: a
        proxy add only floods when the pattern was not already
        advertised locally, and a proxy removal only withdraws when no
        local client still holds the pattern (the subscribe/unsubscribe
        paths apply the mirror-image checks against ``proxied``).
        """
        broker = self.broker
        local = broker._local_subs
        wanted: Set[str] = set()
        for origin in self.installed_foreign:
            wanted.update(broker._remote_interest.patterns_for(origin))
        for pattern in sorted(self.proxied - wanted):
            self.proxied.discard(pattern)
            if not local.has_pattern(pattern):
                broker._flood_own(pattern, add=False)
        for pattern in sorted(wanted - self.proxied):
            self.proxied.add(pattern)
            if not local.has_pattern(pattern):
                broker._flood_own(pattern, add=True)

    def split_targets(
        self, remote: Set[str]
    ) -> Tuple[Optional[FrozenSet[str]], Optional[FrozenSet[str]]]:
        """(own-cluster members, foreign gateways) among a gateway's
        remote targets, for re-export; (None, None) on a member."""
        if not self.is_gateway:
            return None, None
        inter = frozenset(
            origin for origin in remote if origin in self.installed_foreign
        )
        return frozenset(remote) - inter, inter

    def on_peer_event(
        self, event: NBEvent, from_peer: Optional[str], targeted: bool
    ) -> Optional[FrozenSet[str]]:
        """Count an inter-cluster hop; return the extra targets a gateway
        re-exports to when it is itself targeted.

        Inter-cluster arrival → fan out to own-cluster members with
        matching interest; intra arrival at the *active* gateway →
        export to remote gateways whose aggregated interest matches.
        Standbys receiving intra traffic add nothing, so exports are
        never duplicated.
        """
        if from_peer in self.intercluster_peers:
            self.intercluster_hops += 1
        if not (targeted and self.is_gateway):
            return None
        entry = self.broker.resolve_route(event.topic)
        if from_peer is not None and from_peer in self.intercluster_peers:
            extra = entry.intra_targets
        elif self.active_gateway == self.broker.broker_id:
            extra = entry.inter_targets
        else:
            extra = None
        return extra
