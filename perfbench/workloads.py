"""Workload generators and trial runners for the repository benchmark.

Each workload is split in two:

* a *generator*, ``make_plan(name, seed)``, which turns the seed into a
  plain description of the inputs (topology sizes, who publishes where,
  who subscribes to what, who moves when);
* a *runner*, ``run_trial(plan)``, which builds the system from that
  plan through the public APIs (``Simulator``, ``Network``,
  ``BrokerNetwork``, ``Broker``, ``BrokerClient``), runs it and returns
  what receivers saw plus the objects whose public counters the
  per-layer metrics read.

The load is open-loop in virtual time: every publish and every room move
is scheduled on the simulator clock up front, so the offered load does
not depend on how fast the simulator runs.

Every receiver handler appends ``(episode, seq, arrived_at, published_at)``
to one log.  An *episode* is one subscription of one receiver to one
topic, from the subscribe call to the unsubscribe call (or the end of the
trial).  Loss, join time, jitter and the stream fingerprint are computed
from that log after the timed phase.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.clock import CalibratedClock, cpu_seconds
from repro.bench.workload import (
    GIGABIT_LAN,
    SENDER_PACKET_COST_S,
    build_fig3_testbed,
    make_paper_video_source,
)
from repro.broker.broker import Broker
from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.obs.collector import TraceCollector
from repro.obs.trace import Tracer
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.node import Host
from repro.simnet.rng import SeededStreams

WORKLOADS = ("fig3", "mesh_relay", "room_churn")

#: Share of published events the traced run samples with ``Tracer``.
TRACE_SAMPLE_RATE = 0.1

#: Virtual seconds after the publishers stop, for in-flight events.
DRAIN_S = 2.0

#: Simulator events per timing lap (a few tenths of a second of CPU).
LAP_EVENTS = 30_000

# ------------------------------------------------------------------ fig3
FIG3_TOPIC = "/fig3/video"
FIG3_RECEIVERS = 400
#: Receivers on the sender's machine, as in the paper.
FIG3_COLOCATED = 12
#: Virtual seconds of video per trial (60 packets/s at 600 kbps).
FIG3_RUN_S = 4.0
FIG3_SETTLE_S = 2.0

# ------------------------------------------------------------ mesh_relay
MESH_CLUSTERS = 6
MESH_CLUSTER_SIZE = 8
MESH_TOPICS = 8
MESH_RATE_HZ = 25.0
MESH_PAYLOAD_BYTES = 400
MESH_SUBSCRIBERS_PER_BROKER = 2
MESH_TOPICS_PER_SUBSCRIBER = 2
#: Link-state flooding converges within 0.5 virtual seconds.
MESH_SETTLE_S = 2.0
MESH_RUN_S = 12.0

# ------------------------------------------------------------ room_churn
CHURN_CLUSTERS = 6
CHURN_CLUSTER_SIZE = 4
CHURN_ROOMS = 48
CHURN_MEMBERS = 480
CHURN_RATE_HZ = 10.0
CHURN_PAYLOAD_BYTES = 600
CHURN_MOVE_PERIOD_S = 2.0
#: The first move waits until every room has published at least once.
CHURN_FIRST_MOVE_S = 0.5
#: No member moves in the last stretch of the run, so every join has
#: time to see media before the publishers stop.
CHURN_QUIET_TAIL_S = 1.0
CHURN_SETTLE_S = 2.0
CHURN_RUN_S = 6.0


# ================================================================ plans


@dataclass(frozen=True)
class Publisher:
    topic: str
    broker: int
    offset_s: float  # first publish, relative to the start of the run


@dataclass(frozen=True)
class Move:
    at_s: float  # relative to the start of the run
    member: int
    room: int


@dataclass(frozen=True)
class Plan:
    """Everything a trial needs; built from the seed alone.

    ``receiver_brokers[r]`` is the broker receiver ``r`` connects to and
    ``receiver_topics[r]`` the topics it subscribes to during set-up.
    """

    workload: str
    seed: int
    run_s: float
    cluster_sizes: Tuple[int, ...] = ()
    rate_hz: float = 0.0
    payload_bytes: int = 0
    publishers: Tuple[Publisher, ...] = ()
    receiver_brokers: Tuple[int, ...] = ()
    receiver_topics: Tuple[Tuple[str, ...], ...] = ()
    moves: Tuple[Move, ...] = ()


def room_topic(room: int) -> str:
    return f"/churn/room-{room}/video"


def make_plan(workload: str, seed: int) -> Plan:
    """Generate a workload's inputs from ``seed`` (pure function)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fig3":
        # The testbed is fixed by the paper; the seed drives link jitter
        # and the video frame sizes inside the simulation.
        return Plan(
            workload, seed, run_s=FIG3_RUN_S, cluster_sizes=(1,),
            publishers=(Publisher(FIG3_TOPIC, 0, 0.0),),
            receiver_brokers=(0,) * FIG3_RECEIVERS,
            receiver_topics=((FIG3_TOPIC,),) * FIG3_RECEIVERS,
        )
    if workload == "mesh_relay":
        sizes = (MESH_CLUSTER_SIZE,) * MESH_CLUSTERS
        brokers = sum(sizes)
        topics = [f"/mesh/t{k}/audio" for k in range(MESH_TOPICS)]
        publishers = tuple(
            Publisher(topic, rng.randrange(brokers),
                      round(rng.uniform(0.0, 1.0 / MESH_RATE_HZ), 6))
            for topic in topics
        )
        receiver_brokers = tuple(
            b for b in range(brokers)
            for _ in range(MESH_SUBSCRIBERS_PER_BROKER)
        )
        receiver_topics = tuple(
            tuple(rng.sample(topics, MESH_TOPICS_PER_SUBSCRIBER))
            for _ in receiver_brokers
        )
        return Plan(
            workload, seed, run_s=MESH_RUN_S, cluster_sizes=sizes,
            rate_hz=MESH_RATE_HZ, payload_bytes=MESH_PAYLOAD_BYTES,
            publishers=publishers, receiver_brokers=receiver_brokers,
            receiver_topics=receiver_topics,
        )
    if workload == "room_churn":
        sizes = (CHURN_CLUSTER_SIZE,) * CHURN_CLUSTERS
        brokers = sum(sizes)
        publishers = tuple(
            Publisher(room_topic(r), rng.randrange(brokers),
                      round(rng.uniform(0.0, 1.0 / CHURN_RATE_HZ), 6))
            for r in range(CHURN_ROOMS)
        )
        receiver_brokers = tuple(
            rng.randrange(brokers) for _ in range(CHURN_MEMBERS)
        )
        rooms = [rng.randrange(CHURN_ROOMS) for _ in range(CHURN_MEMBERS)]
        receiver_topics = tuple((room_topic(r),) for r in rooms)
        moves = []
        last_move = CHURN_RUN_S - CHURN_QUIET_TAIL_S
        for member in range(CHURN_MEMBERS):
            at = CHURN_FIRST_MOVE_S + rng.uniform(0.0, CHURN_MOVE_PERIOD_S)
            while at < last_move:
                room = rng.randrange(CHURN_ROOMS - 1)
                if room >= rooms[member]:
                    room += 1  # always a different room
                rooms[member] = room
                moves.append(Move(round(at, 6), member, room))
                at += CHURN_MOVE_PERIOD_S
        moves.sort(key=lambda m: (m.at_s, m.member))
        return Plan(
            workload, seed, run_s=CHURN_RUN_S, cluster_sizes=sizes,
            rate_hz=CHURN_RATE_HZ, payload_bytes=CHURN_PAYLOAD_BYTES,
            publishers=publishers, receiver_brokers=receiver_brokers,
            receiver_topics=receiver_topics, moves=tuple(moves),
        )
    raise ValueError(f"unknown workload {workload!r}")


# ============================================================== results


@dataclass
class Episode:
    receiver: str
    topic: str
    joined_at: float  # virtual time of the subscribe call
    left_at: Optional[float] = None


@dataclass
class TrialResult:
    """One trial: clocks per phase, the delivery log, and the objects
    whose public counters the per-layer metrics read.

    ``*_s`` are calibrated CPU seconds (see ``perfbench.clock``; equal
    to the raw ones in a traced trial) and ``*_cpu_s`` raw CPU seconds.
    """

    workload: str
    seed: int
    setup_s: float
    setup_cpu_s: float
    run_s: float
    run_cpu_s: float
    log: List[tuple]
    episodes: List[Episode]
    published_at: Dict[str, List[float]]  # topic -> publish time by seq
    sim: Simulator
    hosts: List[Host]
    brokers: List[Broker]
    setup_events: int
    hosts_at_run_start: Dict[str, list]
    run_vtime_s: float
    collector: Optional[TraceCollector]


def host_counters(hosts: List[Host]) -> Dict[str, list]:
    """Per-host CPU and NIC counters, in host order."""
    return {
        "jobs": [h.cpu.tasks_executed for h in hosts],
        "busy_s": [h.cpu.busy_time for h in hosts],
        "gc_pauses": [h.cpu.gc_pauses for h in hosts],
        "packets": [h.nic.sent_packets for h in hosts],
        "drops": [h.nic.dropped_packets for h in hosts],
    }


class _Trial:
    """Bookkeeping shared by the trial runners."""

    def __init__(self, plan: Plan, traced: bool,
                 hook: Callable[[str], None]):
        self.plan = plan
        self.hook = hook
        self.log: List[tuple] = []
        self.episodes: List[Episode] = []
        self.published_at: Dict[str, List[float]] = {}
        hook("setup")
        # A profiled trial is not timed in laps: the calibration loop
        # would land in the profile.
        self.clock = None if traced else CalibratedClock()
        self.started = cpu_seconds()

    def advance(self, sim: Simulator, until: float) -> None:
        """``sim.run(until=...)`` in laps of ``LAP_EVENTS`` events."""
        if self.clock is None:
            sim.run(until=until)
            return
        while sim.run(until=until, max_events=LAP_EVENTS) == LAP_EVENTS:
            self.clock.lap()

    def _split(self) -> Tuple[float, float]:
        """(calibrated, raw) CPU seconds since the last split."""
        if self.clock is not None:
            return self.clock.split()
        now = cpu_seconds()
        raw, self.started = now - self.started, now
        return raw, raw

    def open(self, sim: Simulator, receiver: str, topic: str):
        """Start an episode; returns (episode id, handler to subscribe)."""
        episode = len(self.episodes)
        self.episodes.append(Episode(receiver, topic, sim.now))
        append = self.log.append

        def handler(event) -> None:
            payload = event.payload
            seq = payload if type(payload) is int else payload.sequence
            append((episode, seq, sim.now, event.published_at))

        return episode, handler

    def publisher(self, sim: Simulator, client: BrokerClient, topic: str):
        """Wrap ``client.publish`` to record each publish time by seq."""
        times = self.published_at.setdefault(topic, [])

        def publish(payload, size: int) -> None:
            times.append(sim.now)
            client.publish(topic, payload, size)

        return publish

    def start_run(self, sim: Simulator, hosts: List[Host]) -> float:
        self.setup_split = self._split()
        self.setup_events = sim.events_processed
        self.hosts_at_run_start = host_counters(hosts)
        self.hook("run")
        return sim.now

    def finish(self, sim: Simulator, hosts: List[Host],
               brokers: List[Broker], collector) -> TrialResult:
        self.hook("end")
        run_s, run_cpu_s = self._split()
        setup_s, setup_cpu_s = self.setup_split
        return TrialResult(
            workload=self.plan.workload, seed=self.plan.seed,
            setup_s=setup_s, setup_cpu_s=setup_cpu_s, run_s=run_s,
            run_cpu_s=run_cpu_s, log=self.log, episodes=self.episodes,
            published_at=self.published_at, sim=sim, hosts=hosts,
            brokers=brokers, setup_events=self.setup_events,
            hosts_at_run_start=self.hosts_at_run_start,
            run_vtime_s=self.plan.run_s + DRAIN_S, collector=collector,
        )


# ================================================================ trials


def run_trial(plan: Plan, traced: bool = False,
              phase_hook: Callable[[str], None] = lambda phase: None
              ) -> TrialResult:
    """Build, run and drain one trial of ``plan``.

    ``phase_hook`` is called with ``"setup"``, ``"run"`` and ``"end"`` at
    the phase boundaries (for a profiler).  ``traced`` attaches a
    ``Tracer`` and a ``TraceCollector``; they add traffic and so change
    modeled timings, which is why traced trials never feed the
    end-to-end metrics.
    """
    runner = _fig3 if plan.workload == "fig3" else _fabric
    return runner(plan, traced, _Trial(plan, traced, phase_hook))


def _fig3(plan: Plan, traced: bool, trial: _Trial) -> TrialResult:
    testbed = build_fig3_testbed(plan.seed)
    sim = testbed.sim
    broker = Broker(testbed.server_machine, broker_id="fig3-broker",
                    tracer=Tracer(TRACE_SAMPLE_RATE) if traced else None)
    collector = (TraceCollector(testbed.receiver_machine, broker)
                 if traced else None)
    colocated = {int(i * FIG3_RECEIVERS / FIG3_COLOCATED)
                 for i in range(FIG3_COLOCATED)}
    for index in range(len(plan.receiver_brokers)):
        host = (testbed.sender_machine if index in colocated
                else testbed.receiver_machine)
        client = BrokerClient(host, client_id=f"recv-{index:03d}")
        client.connect(broker)
        client.subscribe(FIG3_TOPIC,
                         trial.open(sim, client.client_id, FIG3_TOPIC)[1])
    sender = BrokerClient(testbed.sender_machine, client_id="video-sender",
                          publish_cpu_cost_s=SENDER_PACKET_COST_S)
    sender.connect(broker)
    trial.advance(sim, sim.now + FIG3_SETTLE_S)

    hosts = [testbed.sender_machine, testbed.receiver_machine,
             testbed.server_machine]
    t0 = trial.start_run(sim, hosts)
    publish = trial.publisher(sim, sender, FIG3_TOPIC)
    source = make_paper_video_source(
        sim, lambda packet: publish(packet, packet.wire_size), seed=plan.seed
    )
    source.start()
    trial.advance(sim, t0 + plan.run_s)
    source.stop()
    trial.advance(sim, t0 + plan.run_s + DRAIN_S)
    return trial.finish(sim, hosts, [broker], collector)


def _fabric(plan: Plan, traced: bool, trial: _Trial) -> TrialResult:
    """``mesh_relay`` (flat autonomous mesh) and ``room_churn``
    (clustered fabric whose members move between rooms)."""
    sim = Simulator()
    net = Network(sim, SeededStreams(plan.seed))
    tracer = Tracer(TRACE_SAMPLE_RATE) if traced else None
    if plan.workload == "room_churn":
        bnet = BrokerNetwork.clustered(net, plan.cluster_sizes, tracer=tracer)
    else:
        bnet = BrokerNetwork.hierarchical(net, plan.cluster_sizes,
                                          autonomous=True, tracer=tracer)
    brokers = bnet.brokers()
    client_hosts = [net.create_host(f"clients-{i}", link=GIGABIT_LAN)
                    for i in range(len(brokers))]
    collector = (TraceCollector(client_hosts[0], brokers[0])
                 if traced else None)

    def client(name: str, b: int) -> BrokerClient:
        c = BrokerClient(client_hosts[b], client_id=name)
        c.connect(brokers[b])
        return c

    publishers = [
        trial.publisher(sim, client(f"pub-{i}", pub.broker), pub.topic)
        for i, pub in enumerate(plan.publishers)
    ]
    receivers = []
    current: List[Tuple[str, int, Callable]] = []  # churn: room membership
    for r, b in enumerate(plan.receiver_brokers):
        receiver = client(f"recv-{r}", b)
        receivers.append(receiver)
        for topic in plan.receiver_topics[r]:
            episode, handler = trial.open(sim, receiver.client_id, topic)
            receiver.subscribe(topic, handler)
            current.append((topic, episode, handler))
    trial.advance(sim, sim.now + (CHURN_SETTLE_S if plan.moves
                                  else MESH_SETTLE_S))

    def move(member: int, room: int) -> None:
        # Join the new room first, then leave the old one.
        old_topic, old_episode, old_handler = current[member]
        topic = room_topic(room)
        episode, handler = trial.open(sim, receivers[member].client_id, topic)
        receivers[member].subscribe(topic, handler)
        current[member] = (topic, episode, handler)
        receivers[member].unsubscribe(old_topic, old_handler)
        trial.episodes[old_episode].left_at = sim.now

    hosts = [b.host for b in brokers] + client_hosts
    t0 = trial.start_run(sim, hosts)
    for mv in plan.moves:
        sim.schedule_at(t0 + mv.at_s, move, mv.member, mv.room)
    period = 1.0 / plan.rate_hz
    for publish, pub in zip(publishers, plan.publishers):
        seq = 0
        while pub.offset_s + seq * period < plan.run_s:
            sim.schedule_at(t0 + pub.offset_s + seq * period, publish, seq,
                            plan.payload_bytes)
            seq += 1
    trial.advance(sim, t0 + plan.run_s + DRAIN_S)
    return trial.finish(sim, hosts, brokers, collector)


# ============================================================ analysis


def quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Outcome:
    """What receivers saw, reduced to the benchmark's modeled metrics."""

    deliveries: int
    delays_s: List[float]  # ascending
    jitter_s: float
    joins_s: List[float]  # ascending
    expected: int
    holes: int
    joins_failed: int
    duplicates: int
    fingerprint: str

    @property
    def attempted(self) -> int:
        return self.expected + len(self.joins_s) + self.joins_failed

    @property
    def failed(self) -> int:
        return self.holes + self.joins_failed + self.duplicates


def analyse(trial: TrialResult) -> Outcome:
    """Reduce a trial's delivery log (in arrival order).

    An episode expects every packet of its topic published after its
    first delivery arrived, up to the last packet sent (or, once it has
    left, up to the last packet it received); a packet published before
    that first arrival may legitimately have been routed before the
    subscription took effect.  A subscription made before the topic's
    first publish expects every packet.  The join time is the first
    arrival minus the later of the subscribe call and the topic's first
    publish.
    """
    episodes = trial.episodes
    digest = hashlib.sha256()
    seqs: Dict[int, set] = {}
    first_at: Dict[int, float] = {}
    last_transit: Dict[int, float] = {}
    jitter: Dict[int, float] = {}
    delays = []
    duplicates = 0
    for episode, seq, arrived, published in trial.log:
        transit = arrived - published
        delays.append(transit)
        seen = seqs.get(episode)
        if seen is None:
            seen = seqs[episode] = set()
            first_at[episode] = arrived
            jitter[episode] = 0.0
        else:
            # RFC 3550 interarrival jitter, with the exact send time.
            d = abs(transit - last_transit[episode])
            jitter[episode] += (d - jitter[episode]) / 16.0
        last_transit[episode] = transit
        if seq in seen:
            duplicates += 1
        seen.add(seq)
        ep = episodes[episode]
        digest.update(f"{ep.receiver}|{ep.topic}|{seq}|{arrived!r};".encode())
    expected = holes = joins_failed = 0
    joins = []
    for index, ep in enumerate(episodes):
        times = trial.published_at[ep.topic]
        seen = seqs.get(index)
        if not seen:
            joins_failed += 1
            continue
        joins.append(first_at[index] - max(ep.joined_at, times[0]))
        high = max(seen) if ep.left_at is not None else len(times) - 1
        if ep.joined_at < times[0]:
            low = 0
        else:
            low = next(
                (s for s, t in enumerate(times) if t > first_at[index]),
                high + 1,
            )
        want = set(range(low, high + 1)) | seen
        expected += len(want)
        holes += len(want - seen)
    delays.sort()
    joins.sort()
    return Outcome(
        deliveries=len(trial.log),
        delays_s=delays,
        jitter_s=sum(jitter.values()) / max(1, len(jitter)),
        joins_s=joins,
        expected=expected,
        holes=holes,
        joins_failed=joins_failed,
        duplicates=duplicates,
        fingerprint=digest.hexdigest(),
    )
