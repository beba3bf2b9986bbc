"""Flooded control state shared by every broker tier, and its router:
the advert :class:`DedupWindow`, the :class:`VersionedTable` that the
member LSDB, the gateway LSDB and cluster interest all run on, and
:func:`shortest_paths`.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING, AbstractSet, Any, Callable, Dict, FrozenSet, List, Mapping,
    Optional, Tuple,
)

if TYPE_CHECKING:
    from repro.broker.broker import Broker


class DedupWindow:
    """LRU dedup set with a hard size cap (least-recently-seen evicted).

    A hit *refreshes* the id's recency: an advert id still echoing
    around a large mesh stays pinned while one-shot ids age out, so cap
    pressure can no longer evict a live flood's id and re-admit its
    echo — which would re-flood it, an advert storm at exactly the mesh
    sizes the cluster tier targets.  ``evictions`` counts ids dropped
    under cap pressure (exposed as ``dedup_evictions``); a nonzero rate
    under steady load means the cap is undersized for the topology.
    """

    __slots__ = ("_seen", "cap", "evictions")

    def __init__(self, cap: int):
        self._seen: Dict[int, None] = {}
        self.cap = cap
        self.evictions = 0

    def __contains__(self, item: int) -> bool:
        return item in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, item: int) -> bool:
        """Record ``item``; False if it was already in the window (its
        recency is refreshed either way)."""
        if item in self._seen:
            # Dicts preserve insertion order: delete + reinsert moves the
            # id to the most-recently-seen end.
            del self._seen[item]
            self._seen[item] = None
            return False
        self._seen[item] = None
        if len(self._seen) > self.cap:
            del self._seen[next(iter(self._seen))]
            self.evictions += 1
        return True


class VersionedTable:
    """Origin → (epoch, value) table with the rules every flooded
    control table shares: the stale check, the jump past an echo of our
    own past epoch, store-then-flood, and the digest push and ask-back.

    ``epoch`` is our own origination epoch; ``costs`` holds each
    origin's advertised cost classes (geo mode).  ``encode`` builds a
    fresh advert from an entry, ``flood`` forwards an accepted advert
    and ``reoriginate`` answers an echo of our past incarnation.
    """

    __slots__ = (
        "broker", "entries", "costs", "epoch", "encode", "flood",
        "reoriginate",
    )

    def __init__(
        self,
        broker: "Broker",
        encode: Callable[[str, int, Any, Optional[Dict[str, int]]], Any],
        flood: Callable[[Any, Optional[str]], None],
        reoriginate: Callable[[], None],
    ):
        self.broker = broker
        self.entries: Dict[str, Tuple[int, Any]] = {}
        self.costs: Dict[str, Dict[str, int]] = {}
        self.epoch = 0
        self.encode = encode
        self.flood = flood
        self.reoriginate = reoriginate

    def store(
        self, origin: str, epoch: int, value: Any,
        costs: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.entries[origin] = (epoch, value)
        if costs:
            self.costs[origin] = dict(costs)
        else:
            self.costs.pop(origin, None)

    def originate(self, value: Any, neighbors: FrozenSet[str]) -> None:
        """Issue our next epoch of a link-state table: store our entry
        (with cost classes for ``neighbors`` in geo mode) and flood it."""
        broker = self.broker
        self.epoch += 1
        broker.lsas_originated += 1
        geo = broker.geo
        costs = geo.link_costs(neighbors) if geo is not None else None
        self.store(broker.broker_id, self.epoch, value, costs)
        self.flood(
            self.encode(broker.broker_id, self.epoch, value, costs or None),
            None,
        )
        broker._schedule_recompute()

    def own_costs(self) -> Dict[str, int]:
        """The cost classes we last advertised ({} when none)."""
        return self.costs.get(self.broker.broker_id, {})

    def accept(
        self, advert: Any, origin: str, value: Any,
        costs: Optional[Mapping[str, int]], from_peer: Optional[str],
    ) -> bool:
        """Apply one deduplicated advert; True when it was new (stored
        and flooded to every peer but ``from_peer``).  An echo of our own
        origin at an epoch we never issued means we restarted while the
        mesh still holds our past life's entry: jump past it and
        re-originate."""
        epoch = advert.epoch
        if origin == self.broker.broker_id:
            if epoch >= self.epoch:
                self.epoch = epoch
                self.reoriginate()
            return False
        current = self.entries.get(origin)
        if current is not None and epoch <= current[0]:
            self.broker.lsas_stale += 1
            return False
        self.store(origin, epoch, value, costs)
        self.flood(advert, from_peer)
        return True

    def forget_unreachable(self, dist: Mapping[str, int]) -> List[str]:
        """Drop (and return) every origin but us that the last route
        computation did not reach."""
        me = self.broker.broker_id
        gone = [o for o in self.entries if o != me and o not in dist]
        for origin in gone:
            del self.entries[origin]
            self.costs.pop(origin, None)
        return gone

    def epoch_of(self, origin: str) -> int:
        if origin == self.broker.broker_id:
            return self.epoch
        entry = self.entries.get(origin)
        return entry[0] if entry is not None else -1

    def epochs(self) -> Dict[str, int]:
        return {origin: entry[0] for origin, entry in self.entries.items()}

    def digest_epochs(self, own_value: Any) -> Dict[str, int]:
        """Refresh our own entry to the live ``own_value`` (at our epoch,
        advertised costs unchanged), then every origin's epoch."""
        self.entries[self.broker.broker_id] = (self.epoch, own_value)
        return self.epochs()

    def push_newer(self, theirs: Mapping[str, int], peer_id: str) -> None:
        """Digest push: send ``peer_id`` every entry it holds at a
        strictly older epoch (or not at all)."""
        broker = self.broker
        for origin in sorted(self.entries):
            epoch, value = self.entries[origin]
            if theirs.get(origin, -1) < epoch:
                advert = self.encode(
                    origin, epoch, value, self.costs.get(origin)
                )
                broker._seen_adverts.add(advert.advert_id)
                broker._send_control(peer_id, advert)

    def behind(self, theirs: Mapping[str, int]) -> bool:
        """True when a digest shows any origin at a strictly newer epoch.
        Asking back only when strictly behind terminates: epochs only
        ever advance."""
        return any(
            self.epoch_of(origin) < epoch for origin, epoch in theirs.items()
        )


def shortest_paths(
    me: str,
    claimed: Mapping[str, AbstractSet[str]],
    costs: Optional[Dict[str, Dict[str, int]]] = None,
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Cost-weighted shortest paths from ``me`` over a two-sided-claim
    adjacency; returns (destination → first hop, destination → distance).

    The one router of the fabric: autonomous brokers run it over their
    link-state database, and a centrally routed
    :class:`~repro.broker.network.BrokerNetwork` runs it over the
    ground-truth topology.  An edge counts only when both endpoints
    claim it.  Its weight is the larger of the two endpoints' advertised
    cost classes, defaulting to 1 when neither side advertises any — so
    a costless database is a plain hop count.  Ties break on (distance,
    node, first hop) lexicographically, so every broker derives
    consistent paths regardless of cost spread.
    """
    if costs:
        def weight(a: str, b: str) -> int:
            side_a = costs.get(a)
            side_b = costs.get(b)
            cost_a = side_a.get(b, 1) if side_a else 1
            cost_b = side_b.get(a, 1) if side_b else 1
            return cost_a if cost_a >= cost_b else cost_b
    else:
        def weight(a: str, b: str) -> int:
            return 1
    routes: Dict[str, str] = {}
    dist: Dict[str, int] = {me: 0}
    heap: List[Tuple[int, str, str]] = []
    for neighbor in sorted(claimed.get(me, ())):
        if me in claimed.get(neighbor, ()):
            heapq.heappush(heap, (weight(me, neighbor), neighbor, neighbor))
    while heap:
        d, node, first_hop = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        routes[node] = first_hop
        for neighbor in sorted(claimed.get(node, ())):
            if neighbor not in dist and node in claimed.get(neighbor, ()):
                heapq.heappush(
                    heap, (d + weight(node, neighbor), neighbor, first_hop)
                )
    return routes, dist
