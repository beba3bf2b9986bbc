"""Experiment perf-route-cache: the broker dissemination fast path.

The paper's scaling claim assumes per-event routing work stays flat as
subscribers and brokers are added.  This harness measures the Python-level
routing work of the reproduction itself — resolve the fan-out for a hot
topic at a broker carrying 100+ subscribers in an 8-broker star — with the
:class:`~repro.broker.route_cache.RouteCache` every broker runs, against
an uncached reference: a zero-capacity ``RouteCache(max_entries=0)`` that
never hits, so every lookup takes the miss (cache-fill) path.  It checks
two things:

* the cached publish→deliver routing path is **≥2× faster** in wall-clock
  terms than the uncached path (it is typically ≥10×);
* the cache changes **nothing** about simulated time: per-broker
  ``events_routed``/``events_delivered``/``events_forwarded`` and every
  ``sim.now``-based delivery timestamp are bit-identical, so Figure 3
  calibration is untouched.

Results land in ``BENCH_route_cache.json`` (via
:func:`repro.bench.reporting.json_artifact`) so future PRs can track the
routing-path trajectory.
"""

import time

from repro.bench.reporting import json_artifact, simple_table
from repro.bench.workload import GIGABIT_LAN
from repro.broker.client import BrokerClient
from repro.broker.network import BrokerNetwork
from repro.broker.route_cache import RouteCache
from repro.simnet.kernel import Simulator
from repro.simnet.network import Network
from repro.simnet.rng import SeededStreams

TOPIC = "/bench/route-cache/session-0/video"
SUBSCRIBERS = 120
BROKERS = 8
EVENTS = 300
RESOLVE_ITERATIONS = 2000
TIMING_REPEATS = 5


def uncached_reference() -> RouteCache:
    """The uncached reference: a cache with no room never hits."""
    return RouteCache(max_entries=0)


def build_network(cached: bool):
    """An 8-broker star with SUBSCRIBERS subscribers spread across it."""
    sim = Simulator()
    net = Network(sim, SeededStreams(0))
    bnet = BrokerNetwork.star(net, leaves=BROKERS - 1, link=GIGABIT_LAN)
    brokers = bnet.brokers()
    if not cached:
        for broker in brokers:
            broker.route_cache = uncached_reference()
    hub = bnet.broker("broker-hub")

    hosts = [
        net.create_host(f"client-machine-{i}", link=GIGABIT_LAN)
        for i in range(4)
    ]
    deliveries = []
    for index in range(SUBSCRIBERS):
        client = BrokerClient(hosts[index % len(hosts)],
                              client_id=f"r{index:03d}")
        client.connect(brokers[index % len(brokers)])
        client.subscribe(
            TOPIC,
            lambda event, cid=f"r{index:03d}": deliveries.append(
                (cid, sim.now)
            ),
        )
    sender_host = net.create_host("sender-machine", link=GIGABIT_LAN)
    sender = BrokerClient(sender_host, client_id="sender")
    sender.connect(hub)
    sim.run_for(5.0)
    return sim, bnet, hub, sender, deliveries


def best_of(fn, repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_routing_work_speedup(measure):
    """Cached fan-out resolution beats the uncached slow path ≥2×."""
    sim, bnet, hub, _sender, _deliveries = build_network(True)

    def resolve_uncached():
        cache, hub.route_cache = hub.route_cache, uncached_reference()
        for _ in range(RESOLVE_ITERATIONS):
            hub.resolve_route(TOPIC)
        hub.route_cache = cache

    def resolve_cached():
        hub.resolve_route(TOPIC)  # warm
        for _ in range(RESOLVE_ITERATIONS):
            hub.resolve_route(TOPIC)

    uncached_s = best_of(resolve_uncached)
    cached_s = measure(lambda: best_of(resolve_cached))

    # Sequencer elections: uncached = a fresh topic every call (always a
    # miss, 8 SHA-256 digests); cached = the hot topic (dict hit).
    fresh_topics = [f"/bench/ordered/s{i}" for i in range(RESOLVE_ITERATIONS)]

    def elect_uncached():
        for topic in fresh_topics:
            hub.sequencer_for(topic)
        hub._sequencers.clear()

    def elect_cached():
        hub.sequencer_for(TOPIC)  # warm
        for _ in range(RESOLVE_ITERATIONS):
            hub.sequencer_for(TOPIC)

    elect_uncached_s = best_of(elect_uncached)
    elect_cached_s = best_of(elect_cached)

    resolve_speedup = uncached_s / cached_s
    elect_speedup = elect_uncached_s / elect_cached_s
    per_event_us = uncached_s / RESOLVE_ITERATIONS * 1e6
    per_hit_us = cached_s / RESOLVE_ITERATIONS * 1e6

    print(simple_table(
        f"Routing fast path — {SUBSCRIBERS} subscribers, {BROKERS} brokers",
        [
            ("resolve_route (uncached)", f"{per_event_us:.2f}", "1.0x"),
            ("resolve_route (cached)", f"{per_hit_us:.2f}",
             f"{resolve_speedup:.1f}x"),
            ("sequencer_for (uncached)",
             f"{elect_uncached_s / RESOLVE_ITERATIONS * 1e6:.2f}", "1.0x"),
            ("sequencer_for (cached)",
             f"{elect_cached_s / RESOLVE_ITERATIONS * 1e6:.2f}",
             f"{elect_speedup:.1f}x"),
        ],
        ("path", "per-event µs", "speedup"),
    ))

    json_artifact("route_cache", {
        "subscribers": SUBSCRIBERS,
        "brokers": BROKERS,
        "resolve_iterations": RESOLVE_ITERATIONS,
        "resolve_uncached_us_per_event": per_event_us,
        "resolve_cached_us_per_event": per_hit_us,
        "resolve_speedup": resolve_speedup,
        "sequencer_uncached_us_per_event":
            elect_uncached_s / RESOLVE_ITERATIONS * 1e6,
        "sequencer_cached_us_per_event":
            elect_cached_s / RESOLVE_ITERATIONS * 1e6,
        "sequencer_speedup": elect_speedup,
        "hub_cache_stats": hub.route_cache.stats(),
    })

    assert resolve_speedup >= 2.0, (
        f"routing fast path only {resolve_speedup:.2f}x faster"
    )
    assert elect_speedup >= 2.0, (
        f"sequencer cache only {elect_speedup:.2f}x faster"
    )
    bnet.close()


def run_workload(cached: bool) -> dict:
    """Publish EVENTS events through the star and collect every result
    that depends on simulated time."""
    sim, bnet, hub, sender, deliveries = build_network(cached)
    wall_start = time.perf_counter()
    for i in range(EVENTS):
        sim.schedule(i * 0.01, sender.publish, TOPIC, i, 800)
    sim.run_for(EVENTS * 0.01 + 5.0)
    wall_s = time.perf_counter() - wall_start
    result = {
        "counters": [
            (b.broker_id, b.events_routed, b.events_delivered,
             b.events_forwarded, b.control_messages)
            for b in bnet.brokers()
        ],
        "deliveries": sorted(deliveries),
        "final_now": sim.now,
        "wall_s": wall_s,
        "cache_stats": hub.route_cache.stats(),
    }
    bnet.close()
    return result


def test_cached_path_is_bit_identical(measure):
    """Same events, same counters, same sim.now timestamps — only the
    Python-level work (and the cache counters) differ."""
    cached = measure(run_workload, True)
    uncached = run_workload(False)

    assert cached["counters"] == uncached["counters"]
    assert cached["final_now"] == uncached["final_now"]
    assert len(cached["deliveries"]) == EVENTS * SUBSCRIBERS
    assert cached["deliveries"] == uncached["deliveries"]

    stats = cached["cache_stats"]
    # Hot topic served from cache: every publish after the first hits.
    assert stats["hits"] >= EVENTS - 1, stats
    reference = uncached["cache_stats"]
    assert reference["hits"] == 0, reference

    print(simple_table(
        f"Publish→deliver workload — {EVENTS} events, {SUBSCRIBERS} "
        f"subscribers, {BROKERS} brokers",
        [
            ("cached", f"{cached['wall_s']:.3f}",
             stats["hits"], stats["misses"]),
            ("uncached", f"{uncached['wall_s']:.3f}",
             reference["hits"], reference["misses"]),
        ],
        ("path", "wall s", "cache hits", "cache misses"),
    ))
