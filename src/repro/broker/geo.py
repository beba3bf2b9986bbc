"""Geo partition survival: the plane a broker builds when it has a region
(DESIGN.md §12).  Without it, LSAs carry no costs, Dijkstra weights stay
uniform and no park queue exists.

With a region, link-state adverts carry cost classes quantized from
*configured* latency, ordered topics pin their sequencer near the
publisher majority, the minority side of a partition parks ordered
topics instead of forking sequence numbers, and reliable cross-region
traffic parks until the partition heals.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING, Deque, Dict, FrozenSet, Iterable, Optional, Set, Tuple,
)

from repro.broker.event import NBEvent
from repro.broker.links import SequencerPin
from repro.broker.route_cache import SEQUENCER_CACHE_MAX, NextHopGroups
from repro.obs.trace import internal_topic

if TYPE_CHECKING:
    from repro.broker.broker import Broker

#: Cost-class quantization ladder for WAN-aware routing: one-way
#: latency upper bound (seconds) → integer cost class.  Costs derive
#: from *configured* link/fabric latency, never from jittered samples,
#: and the ladder is coarse on purpose: a route only re-originates when
#: a link crosses a class boundary, so latency jitter can never flap
#: the route tables.
COST_CLASSES = (
    (0.002, 1),    # same rack / metro LAN
    (0.010, 2),    # campus
    (0.030, 4),    # regional WAN
    (0.060, 8),    # continental WAN
    (0.120, 16),   # transoceanic
)
COST_CLASS_MAX = 32

#: Locality pinning: after this many sequenced events on a topic, the
#: current sequencer checks where the publishes actually originate, and
#: re-pins the topic to a broker contributing more than
#: SEQUENCER_PIN_MAJORITY of them.  The counting window resets after
#: every decision, so a transient publisher burst cannot bounce the pin
#: — it must dominate a full fresh window (hysteresis).
SEQUENCER_PIN_WINDOW = 64
SEQUENCER_PIN_MAJORITY = 0.6

#: Bound on each partition-park queue (ordered events awaiting an
#: unreachable sequencer; reliable events awaiting unreachable
#: interested brokers).  Oldest entries drop first under cap pressure,
#: mirroring the bounded-outbox rule.  Also bounds the replay buffer.
PARK_QUEUE_MAX = 2048


def cost_class(latency_s: float) -> int:
    """Quantize a configured one-way latency into a routing cost class."""
    for ceiling, cls in COST_CLASSES:
        if latency_s < ceiling:
            return cls
    return COST_CLASS_MAX


class GeoPlane:
    """Cost classes, sequencer pins and partition parking for one broker."""

    #: Counters this plane owns, exposed through the broker's registry.
    COUNTERS = (
        "sequencer_pins_set",
        "ordered_parked",
        "ordered_park_drained",
        "ordered_park_drops",
        "wan_parked",
        "wan_park_drained",
        "wan_park_drops",
        "wan_replays",
        "cost_reoriginations",
    )

    def __init__(self, broker: "Broker"):
        self.broker = broker
        #: High-watermark of every broker ever seen reachable — the
        #: "stable set" a partition minority measures itself against.
        self._stable_brokers: Set[str] = set()
        self._stable_sequencers: Dict[str, str] = {}
        self._stable_seq_gen = -1  # validated against len(_stable_brokers)
        #: topic -> (pin epoch, pinned broker)
        self._sequencer_pins: Dict[str, Tuple[int, str]] = {}
        #: topic -> origin broker -> sequenced count (current window)
        self._pin_counts: Dict[str, Dict[str, int]] = {}
        self._parked_ordered: Deque[Tuple[NBEvent, Optional[str]]] = deque()
        self._wan_parked: Deque[Tuple[NBEvent, FrozenSet[str]]] = deque()
        #: Reliable events recently *sent* toward remote targets, kept
        #: for one peer-eviction window: a regional cut blackholes the
        #: wire silently, so anything forwarded between the physical cut
        #: and the heartbeat eviction would otherwise be lost.  When a
        #: route disappears, the overlapping tail of this buffer is
        #: re-parked (receiver-side event-id dedup absorbs the replays
        #: for events that did arrive).
        self._wan_recent: Deque[Tuple[NBEvent, FrozenSet[str], float]] = deque()
        self._park_drain_pending = False
        for name in self.COUNTERS:
            setattr(self, name, 0)

    # ------------------------------------------------------------ costs

    def link_costs(self, peers: Iterable[str]) -> Dict[str, int]:
        """Cost class per adjacency, from the simnet's configured path
        latency plus our own access-link latency."""
        host = self.broker.host
        network = host.network
        own = host.link.latency_s
        addresses = self.broker._peers
        costs: Dict[str, int] = {}
        for peer_id in peers:
            address = addresses.get(peer_id)
            if address is None:
                continue
            latency = network.fabric_latency(host.name, address.host)
            costs[peer_id] = cost_class(latency + own)
        return costs

    def check_costs(self) -> None:
        """Re-originate each link-state tier (member LSDB, and the
        gateway LSDB on a cluster gateway) whose advertised *cost
        classes* moved: classes derive from configured latencies, never
        samples, so jitter can not flap routes."""
        broker = self.broker
        tiers = [(broker.lsdb, broker._intra_neighbors())]
        cluster = broker.cluster
        if cluster is not None and cluster.is_gateway:
            tiers.append((cluster.gw_lsdb, cluster.overlay_peers()))
        for table, neighbors in tiers:
            if self.link_costs(neighbors) != table.own_costs():
                self.cost_reoriginations += 1
                table.reoriginate()

    # ------------------------------------------------ routing changes

    def routes_changed(self, reachable: Set[str]) -> None:
        """Geo mode keeps the interest of unreachable brokers: a cut-off
        region is expected back, owed its parked reliable events."""
        self._stable_brokers |= reachable
        self._replay_wan_recent(reachable)
        if self._parked_ordered or self._wan_parked:
            self._schedule_park_drain()

    def interest_added(self) -> None:
        """Fresh interest after a heal may unlock parked deliveries."""
        if self._wan_parked:
            self._schedule_park_drain()

    # --------------------------------------------------------- sequencing

    def pinned(self, topic: str) -> Optional[str]:
        """The topic's pinned sequencer while it is us or reachable."""
        pin = self._sequencer_pins.get(topic)
        broker = self.broker
        if pin is not None and (
            pin[1] == broker.broker_id or pin[1] in broker._routes
        ):
            return pin[1]
        return None

    def must_park(self, topic: str, sequencer: str) -> bool:
        """True when an ordered publish must park instead of forking
        sequence numbers: its (pinned) sequencer is unreachable, or we
        are on the minority side of a partition and the stable set
        elects a broker beyond the cut, who still sequences for the
        majority."""
        broker = self.broker
        if sequencer != broker.broker_id and sequencer not in broker._routes:
            return True
        return (
            self._in_minority()
            and self._stable_sequencer_for(topic) != sequencer
        )

    def _in_minority(self) -> bool:
        """True when we can reach at most half of the stable broker set."""
        return (len(self.broker._routes) + 1) * 2 <= len(self._stable_brokers)

    def _stable_sequencer_for(self, topic: str) -> str:
        """The sequencer the *full* (high-watermark) broker set elects —
        what the unreachable majority is presumed to still be using."""
        pin = self._sequencer_pins.get(topic)
        if pin is not None:
            return pin[1]
        if self._stable_seq_gen != len(self._stable_brokers):
            self._stable_sequencers.clear()
            self._stable_seq_gen = len(self._stable_brokers)
        sequencer = self._stable_sequencers.get(topic)
        if sequencer is None:
            broker = self.broker
            candidates = sorted(self._stable_brokers | {broker.broker_id})
            sequencer = broker._hash_elect(topic, candidates)
            self._stable_sequencers[topic] = sequencer
            if len(self._stable_sequencers) > SEQUENCER_CACHE_MAX:
                del self._stable_sequencers[
                    next(iter(self._stable_sequencers))
                ]
        return sequencer

    def note_sequenced(self, topic: str, origin: str) -> None:
        """Count where sequenced publishes originate (we are the topic's
        sequencer); after a full window, re-pin the topic to a broker
        contributing a sustained majority of them."""
        counts = self._pin_counts.setdefault(topic, {})
        counts[origin] = counts.get(origin, 0) + 1
        total = sum(counts.values())
        if total < SEQUENCER_PIN_WINDOW:
            return
        self._pin_counts[topic] = {}
        leader = next(
            (
                broker
                for broker, count in sorted(counts.items())
                if count > total * SEQUENCER_PIN_MAJORITY
            ),
            None,
        )
        broker = self.broker
        if (
            leader is None
            or leader == broker.broker_id
            or leader not in broker._routes
        ):
            return
        current = self._sequencer_pins.get(topic)
        pin = SequencerPin(
            topic=topic,
            broker=leader,
            epoch=(current[0] if current is not None else 0) + 1,
            next_sequence=broker._sequences.get(topic, 0),
            origin_broker=broker.broker_id,
        )
        self._apply_pin(pin)
        broker._flood_advert(pin, skip_peer=None)

    def _apply_pin(self, pin: SequencerPin) -> None:
        broker = self.broker
        self._sequencer_pins[pin.topic] = (pin.epoch, pin.broker)
        self.sequencer_pins_set += 1
        broker._sequencers.pop(pin.topic, None)
        self._stable_sequencers.pop(pin.topic, None)
        if pin.broker == broker.broker_id:
            # Sequence-counter handoff: numbering continues where the
            # previous sequencer left off instead of restarting at 0.
            if pin.next_sequence > broker._sequences.get(pin.topic, 0):
                broker._sequences[pin.topic] = pin.next_sequence

    def on_pin(self, pin: SequencerPin, from_peer: Optional[str]) -> None:
        """A deduplicated pin from a peer: newer epochs win, ties break
        toward the lexicographically smaller broker."""
        current = self._sequencer_pins.get(pin.topic)
        if current is not None:
            if pin.epoch < current[0]:
                return
            if pin.epoch == current[0] and pin.broker >= current[1]:
                return
        self._apply_pin(pin)
        self.broker._flood_advert(pin, skip_peer=from_peer)

    # ------------------------------------------------------------ parking

    def park_ordered(self, event: NBEvent, exclude: Optional[str]) -> None:
        self.ordered_parked += 1
        self._parked_ordered.append((event, exclude))
        if len(self._parked_ordered) > PARK_QUEUE_MAX:
            self._parked_ordered.popleft()
            self.ordered_park_drops += 1

    def _park_wan(self, event: NBEvent, missing: FrozenSet[str]) -> None:
        self.wan_parked += 1
        self._wan_parked.append((event, missing))
        if len(self._wan_parked) > PARK_QUEUE_MAX:
            self._wan_parked.popleft()
            self.wan_park_drops += 1

    def track_reliable(
        self, event: NBEvent, targets: FrozenSet[str], groups: NextHopGroups
    ) -> None:
        """A reliable event is about to be forwarded toward ``targets``:
        park it for the interested brokers beyond a partition cut, and
        remember it for the ones it is sent to."""
        if internal_topic(event.topic):
            return
        routed: Set[str] = set()
        for _hop, group in groups:
            routed |= group
        missing = targets - routed
        if missing:
            self._park_wan(event, frozenset(missing))
        if routed:
            self._note_wan_sent(event, frozenset(routed))

    def _wan_recent_window(self) -> float:
        """How long a sent event stays replayable: the worst-case lag
        between a physical cut and heartbeat eviction of the dead peer,
        plus slack for the route recompute that follows."""
        broker = self.broker
        if broker.peer_heartbeat_interval_s is not None:
            return (broker.peer_miss_limit + 2) * broker.peer_heartbeat_interval_s
        return 2.0

    def _note_wan_sent(self, event: NBEvent, targets: FrozenSet[str]) -> None:
        now = self.broker.sim.now
        horizon = now - self._wan_recent_window()
        while self._wan_recent and self._wan_recent[0][2] < horizon:
            self._wan_recent.popleft()
        self._wan_recent.append((event, targets, now))
        if len(self._wan_recent) > PARK_QUEUE_MAX:
            self._wan_recent.popleft()

    def _replay_wan_recent(self, reachable: Set[str]) -> None:
        """Re-park recently forwarded reliable events whose targets just
        fell out of the route table — they were sent into the window
        between the physical cut and heartbeat eviction, so the wire
        silently ate them.  Receiver-side event-id dedup absorbs the
        replays for copies that did arrive before the cut."""
        if not self._wan_recent:
            return
        horizon = self.broker.sim.now - self._wan_recent_window()
        kept: Deque[Tuple[NBEvent, FrozenSet[str], float]] = deque()
        for event, targets, at in self._wan_recent:
            if at < horizon:
                continue
            lost = targets - reachable
            if lost:
                self.wan_replays += 1
                self._park_wan(event, frozenset(lost))
            remaining = targets & reachable
            if remaining:
                kept.append((event, remaining, at))
        self._wan_recent = kept

    def _schedule_park_drain(self) -> None:
        if self._park_drain_pending:
            return
        self._park_drain_pending = True
        self.broker.sim.schedule(0.0, self._run_park_drain)

    def _run_park_drain(self) -> None:
        """Re-run parked ordered publishes through sequencing, and forward
        parked reliable events to interested brokers that became
        reachable again.  Whatever is still beyond the cut re-parks — the
        drain only runs on topology or interest changes, so it cannot
        spin."""
        self._park_drain_pending = False
        broker = self.broker
        if broker._closed:
            return
        pending = list(self._parked_ordered)
        self._parked_ordered.clear()
        for event, exclude in pending:
            self.ordered_park_drained += 1
            broker._sequence_then_disseminate(event, exclude)
        reachable = set(broker._routes)
        parked = list(self._wan_parked)
        self._wan_parked.clear()
        for event, missing in parked:
            targets = missing & reachable
            if targets:
                self.wan_park_drained += 1
                broker._forward_to_targets(event, set(targets))
                missing = missing - targets
            if missing:
                self._wan_parked.append((event, frozenset(missing)))
