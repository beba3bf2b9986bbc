"""Per-topic routing fast path for the broker data plane.

The paper's scaling argument (Figure 3 and the Section 3.2 capacity
claims) relies on per-event routing work staying flat as subscriber and
broker counts grow.  The broker's *slow* path recomputes the whole
fan-out on every publish: two trie matches, a sort of the local match
set, a per-event send-cost computation, and next-hop grouping.  Media
topics, however, are extremely repetitive — one topic receives thousands
of packets between subscription changes — so that work is memoizable.

:class:`RouteCache` memoizes the fully resolved fan-out per concrete
topic as a :class:`RouteEntry`:

* the local subscriber list, pre-sorted (delivery order is part of the
  broker's deterministic behaviour);
* the remote broker target set with interest in the topic;
* the next-hop groups ``(peer, frozenset(targets))`` in flood order;
* a per-payload-size memo of the profile send cost.

Invalidation is **generation-based and lazy**: every entry records the
``(local_subs, remote_interest, routes)`` generation triple it was
computed under.  :class:`~repro.broker.topic.TopicTrie` bumps its
generation on every mutation and the broker bumps its route generation
on ``set_routes``/peer changes, so a stale entry simply fails its
generation check on the next lookup and is recomputed — no eager flush,
and no possibility of serving a stale fan-out.

None of this changes simulated time: the cache only removes *Python*
work from the reproduction itself.  The CPU costs charged through
:class:`~repro.broker.profile.BrokerProfile` are byte-for-byte the same
numbers the slow path charges, so Figure 3 calibration is untouched.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.broker.profile import BrokerProfile

#: Generation triple: (local-subscription gen, remote-interest gen, route gen).
Generation = Tuple[int, int, int]

#: Next-hop groups: ((peer_id, frozenset(target brokers)), ...) in send order.
NextHopGroups = Tuple[Tuple[str, FrozenSet[str]], ...]

#: Default bound on cached topics / grouped target sets (LRU-ish: oldest
#: insertion evicted first — media workloads reuse a small working set).
DEFAULT_MAX_ENTRIES = 4096

#: Bound on cached (topic → sequencer) elections.
SEQUENCER_CACHE_MAX = 4096


class RouteEntry:
    """The resolved fan-out for one concrete topic at one generation.

    In clustered mode the remote target set is additionally partitioned
    by tier — ``intra_targets`` (brokers in this broker's own cluster)
    and ``inter_targets`` (remote-cluster gateways that advertised
    aggregated interest) — so a gateway re-exporting an event at a
    cluster boundary resolves the scoped fan-out from the same cached
    entry.  Flat mode never computes the partition (both stay ``None``),
    keeping the entry bit-identical to the pre-cluster fast path.
    """

    __slots__ = (
        "generation",
        "local_targets",
        "remote_targets",
        "next_hop_groups",
        "intra_targets",
        "inter_targets",
        "_send_costs",
    )

    def __init__(
        self,
        generation: Generation,
        local_targets: Tuple[str, ...],
        remote_targets: FrozenSet[str],
        next_hop_groups: NextHopGroups,
        intra_targets: Optional[FrozenSet[str]] = None,
        inter_targets: Optional[FrozenSet[str]] = None,
    ):
        self.generation = generation
        self.local_targets = local_targets
        self.remote_targets = remote_targets
        self.next_hop_groups = next_hop_groups
        self.intra_targets = intra_targets
        self.inter_targets = inter_targets
        self._send_costs: Dict[int, float] = {}

    def send_cost_s(self, profile: "BrokerProfile", payload_bytes: int) -> float:
        """Memoized ``profile.send_cost_s`` — same formula, same floats."""
        cost = self._send_costs.get(payload_bytes)
        if cost is None:
            cost = profile.send_cost_s(payload_bytes)
            self._send_costs[payload_bytes] = cost
        return cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RouteEntry gen={self.generation} local={len(self.local_targets)} "
            f"remote={sorted(self.remote_targets)}>"
        )


class RouteCache:
    """Topic → :class:`RouteEntry` memo with generation-checked lookups.

    Also memoizes next-hop grouping for arbitrary target sets (the
    peer-forwarding path carries explicit target sets that are not the
    topic's full remote fan-out), keyed on the frozen target set and the
    route-table generation alone.

    Counters (exposed on the broker's statistics block):

    * ``hits`` — lookups served from a fresh cached entry;
    * ``misses`` — lookups for topics with no cached entry;
    * ``invalidations`` — lookups that found an entry whose generation
      was stale (the entry is dropped and recomputed).
    """

    __slots__ = ("_entries", "_groups", "max_entries", "hits", "misses",
                 "invalidations")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self._entries: Dict[str, RouteEntry] = {}
        self._groups: Dict[FrozenSet[str], Tuple[int, NextHopGroups]] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------- topic entries

    def lookup(self, topic: str, generation: Generation):
        """Return the fresh entry for ``topic`` or None (miss/stale)."""
        entry = self._entries.get(topic)
        if entry is not None:
            if entry.generation == generation:
                self.hits += 1
                return entry
            del self._entries[topic]
            self.invalidations += 1
        self.misses += 1
        return None

    def store(self, topic: str, entry: RouteEntry) -> RouteEntry:
        self._entries[topic] = entry
        if len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        return entry

    # --------------------------------------------------- next-hop grouping

    def lookup_groups(self, targets: FrozenSet[str], route_generation: int):
        """Return cached next-hop groups for ``targets`` or None."""
        cached = self._groups.get(targets)
        if cached is not None:
            generation, groups = cached
            if generation == route_generation:
                self.hits += 1
                return groups
            del self._groups[targets]
            self.invalidations += 1
        self.misses += 1
        return None

    def store_groups(
        self,
        targets: FrozenSet[str],
        route_generation: int,
        groups: NextHopGroups,
    ) -> NextHopGroups:
        self._groups[targets] = (route_generation, groups)
        if len(self._groups) > self.max_entries:
            self._groups.pop(next(iter(self._groups)))
        return groups

    # -------------------------------------------------------------- admin

    def clear(self) -> None:
        self._entries.clear()
        self._groups.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "group_entries": len(self._groups),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RouteCache entries={len(self._entries)} hits={self.hits} "
            f"misses={self.misses} invalidations={self.invalidations}>"
        )
