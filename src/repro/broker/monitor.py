"""Broker monitoring: management telemetry over the broker itself.

NaradaBrokering ships a management/monitoring service; Global-MMCS
operators need it to see broker load across the distributed collection.
A :class:`BrokerMonitor` samples one broker's counters periodically and
publishes on the management topic ``/narada/monitor/<broker-id>`` (or
``/narada/monitor/<cluster>/<broker-id>`` in the clustered fabric, so
samples stay inside their cluster); a :class:`MonitoringClient`
subscribes (wildcard) and keeps bounded per-broker history — the data an
admission or load-balancing policy would consume.

One sample encoding, :class:`DeltaSample` (DESIGN.md §11): only the
counters whose value changed since the previous tick, plus the
cumulative delivery-latency sketch when it moved.  A full sample is a
delta against empty; the monitor sends one on its first tick and every
:data:`FULL_EVERY` ticks.  That is also the resync mechanism: a
:class:`SampleLedger` that sees a sequence gap (gateway takeover, client
failover, lossy link) marks the broker unsynced and waits for the next
full sample instead of requesting a replay.

Anti-drift: samples carry ``Broker.statistics()`` whole (it is generated
from the broker's metrics registry), so every registered counter reaches
the monitoring surface without a second list to keep in step.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.event import NBEvent
from repro.obs.metrics import Histogram
from repro.obs.series import delta_encode
from repro.simnet.kernel import Timer
from repro.simnet.node import Host

MONITOR_TOPIC_PREFIX = "/narada/monitor"

#: Default per-broker history cap for :class:`MonitoringClient`.
DEFAULT_HISTORY_LIMIT = 720

#: A monitor ships a full sample on its first tick and then every this
#: many ticks — the passive resync cadence for consumers that joined
#: (or lost samples) mid-stream.
FULL_EVERY = 8

#: Default staleness horizon: three missed ticks at the default 5 s
#: monitor interval means the broker is presumed down.
DEFAULT_STALE_TIMEOUT_S = 15.0


class DeltaSample:
    """Delta-encoded telemetry: changed counters + the latency sketch.

    ``counters`` maps metric name → *absolute* current value for every
    metric that changed since the previous tick (all of them when
    ``full`` is set); ``sketch`` is a copy of the broker's cumulative
    delivery-latency histogram, included only when it changed (always on
    a full sample).  ``seq`` increments per monitor tick so consumers
    can detect gaps and wait out a resync.
    """

    __slots__ = ("broker_id", "at", "seq", "full", "counters", "sketch")

    def __init__(
        self,
        broker_id: str,
        at: float,
        seq: int,
        full: bool,
        counters: Dict[str, float],
        sketch: Optional[Histogram],
    ):
        self.broker_id = broker_id
        self.at = at
        self.seq = seq
        self.full = full
        self.counters = counters
        self.sketch = sketch

    def wire_size(self) -> int:
        """Modeled encoding: 24 B header + 12 B per carried counter."""
        size = 24 + 12 * len(self.counters)
        if self.sketch is not None:
            size += self.sketch.wire_size()
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "full" if self.full else "delta"
        return (
            f"<DeltaSample {self.broker_id} #{self.seq} {kind} "
            f"{len(self.counters)} counters>"
        )


def monitor_topic(broker_id: str, cluster_id: Optional[str] = None) -> str:
    if cluster_id is not None:
        return f"{MONITOR_TOPIC_PREFIX}/{cluster_id}/{broker_id}"
    return f"{MONITOR_TOPIC_PREFIX}/{broker_id}"


def sample_numbers(broker: Broker) -> Dict[str, float]:
    """The flat numeric view of one broker: host gauges + statistics().

    This is the dict :class:`DeltaSample` payloads are delta-encoded
    from; the delivery-latency histogram travels separately as a
    mergeable copy rather than as pre-baked percentile scalars.
    """
    host = broker.host
    numbers: Dict[str, float] = {
        "clients": broker.client_count(),
        "cpu_busy_s": host.cpu.busy_time,
        "gc_pauses": host.cpu.gc_pauses,
        "nic_sent_packets": host.nic.sent_packets,
        "nic_dropped_packets": host.nic.dropped_packets,
        "last_route_change_at": broker.last_route_change_at,
    }
    numbers.update(broker.statistics())
    return numbers


class BrokerMonitor:
    """Publishes one broker's telemetry on its management topic.

    ``topic`` overrides the publish topic — the hierarchical plane uses
    the cluster-scoped form so leaf samples never cross the gateway
    overlay.
    """

    def __init__(
        self,
        broker: Broker,
        interval_s: float = 5.0,
        keepalive_interval_s: Optional[float] = None,
        failover_brokers: Optional[List[Broker]] = None,
        topic: Optional[str] = None,
    ):
        self.broker = broker
        self.sim = broker.sim
        self.interval_s = interval_s
        self.topic = topic or monitor_topic(broker.broker_id)
        self.client = BrokerClient(
            broker.host,
            client_id=f"monitor/{broker.broker_id}",
            keepalive_interval_s=keepalive_interval_s,
        )
        if failover_brokers:
            self.client.set_failover_brokers(failover_brokers)
        self.client.connect(broker)
        self._timer: Optional[Timer] = None
        self._seq = 0
        self._last_numbers: Optional[Dict[str, float]] = None
        self._last_sketch: Optional[Histogram] = None
        self.samples_published = 0
        self.full_samples_published = 0
        self.sample_bytes_published = 0

    def start(self) -> None:
        if self._timer is None:
            self._timer = self.sim.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        numbers = sample_numbers(self.broker)
        sketch = self.broker.delivery_latency.copy()
        # Ticks still count while disconnected, so a consumer sees the
        # missed ones as a sequence gap.
        full = self._seq % FULL_EVERY == 0
        counters = delta_encode(None if full else self._last_numbers, numbers)
        moved = full or sketch != self._last_sketch
        self._seq += 1
        self._last_numbers = numbers
        self._last_sketch = sketch
        if self.client.connected:
            sample = DeltaSample(
                self.broker.broker_id,
                self.sim.now,
                self._seq,
                full,
                counters,
                sketch if moved else None,
            )
            size = sample.wire_size()
            self.client.publish(self.topic, sample, size)
            self.samples_published += 1
            self.full_samples_published += full
            self.sample_bytes_published += size
        self._timer = self.sim.schedule(self.interval_s, self._tick)


class BrokerLedger:
    """A consumer's reconstructed state for one monitored broker."""

    __slots__ = ("numbers", "sketch", "last_seq", "last_at", "synced")

    def __init__(self) -> None:
        self.numbers: Dict[str, float] = {}
        self.sketch = Histogram("delivery_latency")
        self.last_seq = 0
        self.last_at = 0.0
        self.synced = False


class SampleLedger:
    """Rebuilds each broker's absolute state from its sample stream.

    A full sample re-bases the broker; an in-sequence delta applies on
    top.  After a gap, or a delta before any full sample, the broker is
    unsynced until the next full sample: absolute values would apply
    cleanly, but the snapshot would be incomplete.
    """

    def __init__(self) -> None:
        self.brokers: Dict[str, BrokerLedger] = {}
        self.delta_gaps = 0
        self.resyncs = 0

    def ingest(self, sample: DeltaSample) -> BrokerLedger:
        ledger = self.brokers.get(sample.broker_id)
        if ledger is None:
            ledger = self.brokers[sample.broker_id] = BrokerLedger()
        in_sequence = sample.seq == ledger.last_seq + 1
        if sample.full:
            if ledger.synced and not in_sequence:
                self.delta_gaps += 1
            if not ledger.synced and ledger.last_seq:
                self.resyncs += 1
            ledger.numbers = dict(sample.counters)
            ledger.synced = True
        elif ledger.synced and in_sequence:
            ledger.numbers.update(sample.counters)
        else:
            if ledger.synced:
                self.delta_gaps += 1
            ledger.synced = False
        if ledger.synced and sample.sketch is not None:
            ledger.sketch = sample.sketch.copy()
        ledger.last_seq = sample.seq
        ledger.last_at = sample.at
        return ledger


class HistoryConsole:
    """What every telemetry console shares.

    One client on a wildcard subscription, with optional keepalive and
    failover (the failover replays the subscription); a bounded
    per-key history whose overflow evicts the oldest entry (counted in
    :attr:`dropped`); re-deliveries that are not newer than the key's
    newest entry dropped (counted in :attr:`duplicates`); and the
    staleness horizon.  Entries need an ``at`` attribute.
    """

    def __init__(
        self,
        host: Host,
        broker: Broker,
        client_id: str,
        pattern: str,
        handler: Callable[[NBEvent], None],
        history_limit: int,
        stale_timeout_s: float,
        keepalive_interval_s: Optional[float],
        failover_brokers: Optional[List[Broker]],
    ):
        if history_limit < 2:
            raise ValueError("history_limit must be at least 2")
        if stale_timeout_s <= 0:
            raise ValueError("stale_timeout_s must be positive")
        self.history_limit = history_limit
        self.stale_timeout_s = stale_timeout_s
        self.sim = broker.sim
        self.client = BrokerClient(
            host, client_id=client_id,
            keepalive_interval_s=keepalive_interval_s,
        )
        if failover_brokers:
            self.client.set_failover_brokers(failover_brokers)
        self.client.connect(broker)
        self.history: Dict[str, Deque[Any]] = {}
        self.dropped = 0
        self.duplicates = 0
        self.client.subscribe(pattern, handler)

    def _is_duplicate(self, key: str, at: float) -> bool:
        window = self.history.get(key)
        if window and window[-1].at >= at:
            self.duplicates += 1
            return True
        return False

    def _append(self, key: str, entry: Any) -> None:
        window = self.history.get(key)
        if window is None:
            window = self.history[key] = deque(maxlen=self.history_limit)
        if len(window) == window.maxlen:
            self.dropped += 1  # the deque evicts the oldest
        window.append(entry)

    def latest(self, key: str) -> Optional[Any]:
        window = self.history.get(key)
        return window[-1] if window else None

    def _stale(
        self,
        last_seen: Iterable[Tuple[str, float]],
        timeout_s: Optional[float],
    ) -> List[str]:
        """Keys last seen before the staleness horizon."""
        horizon = self.sim.now - (
            timeout_s if timeout_s is not None else self.stale_timeout_s
        )
        return sorted(key for key, at in last_seen if at < horizon)


class MonitorSnapshot(NamedTuple):
    """One broker's reconstructed absolute state at one sample."""

    at: float
    counters: Dict[str, float]
    sketch: Histogram


class MonitoringClient(HistoryConsole):
    """The flat console: every broker's samples, one wildcard subscribe.

    A :class:`SampleLedger` rebuilds each broker's state; every sample
    that leaves the broker synced appends a :class:`MonitorSnapshot` to
    its history.  While a broker is unsynced (see
    :meth:`unsynced_brokers`) its history does not grow.

    A crashed broker stops publishing but its history stays: use
    :meth:`stale_brokers` (or the :attr:`stale_broker_count` gauge) to
    surface brokers whose newest sample is older than the staleness
    horizon — that silence *is* the crash signal.
    """

    def __init__(
        self,
        host: Host,
        broker: Broker,
        client_id: str = "monitoring-console",
        history_limit: int = DEFAULT_HISTORY_LIMIT,
        keepalive_interval_s: Optional[float] = None,
        failover_brokers: Optional[List[Broker]] = None,
        stale_timeout_s: float = DEFAULT_STALE_TIMEOUT_S,
    ):
        self.ledger = SampleLedger()
        self.samples_received = 0
        super().__init__(
            host, broker, client_id, f"{MONITOR_TOPIC_PREFIX}/#",
            self._on_sample, history_limit, stale_timeout_s,
            keepalive_interval_s, failover_brokers,
        )

    def _on_sample(self, event: NBEvent) -> None:
        sample = event.payload
        if not isinstance(sample, DeltaSample):
            return
        self.samples_received += 1
        if self._is_duplicate(sample.broker_id, sample.at):
            return
        ledger = self.ledger.ingest(sample)
        if ledger.synced:
            self._append(
                sample.broker_id,
                MonitorSnapshot(sample.at, dict(ledger.numbers), ledger.sketch),
            )

    def brokers_seen(self) -> List[str]:
        return sorted(self.ledger.brokers)

    def unsynced_brokers(self) -> List[str]:
        """Brokers waiting for a full sample after a gap."""
        return sorted(
            broker_id
            for broker_id, ledger in self.ledger.brokers.items()
            if not ledger.synced
        )

    def stale_brokers(self, timeout_s: Optional[float] = None) -> List[str]:
        """Brokers whose newest sample is older than ``timeout_s``.

        Any sample counts, synced or not, so a broker that crashes
        before its first full sample arrives is still flagged.  A broker
        that never reported at all cannot be (it has no ledger row) —
        pair this with an expected-membership list for provisioning
        checks.
        """
        return self._stale(
            (
                (broker_id, ledger.last_at)
                for broker_id, ledger in self.ledger.brokers.items()
            ),
            timeout_s,
        )

    @property
    def stale_broker_count(self) -> int:
        """Gauge: how many seen brokers are currently stale."""
        return len(self.stale_brokers())

    def delivery_rate(self, broker_id: str) -> float:
        """Events delivered per second over the retained snapshots."""
        snapshots = self.history.get(broker_id)
        if not snapshots or len(snapshots) < 2:
            return 0.0
        first, last = snapshots[0], snapshots[-1]
        window = last.at - first.at
        if window <= 0:
            return 0.0
        delivered = (
            last.counters["events_delivered"]
            - first.counters["events_delivered"]
        )
        return delivered / window
