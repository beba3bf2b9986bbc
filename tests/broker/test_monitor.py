"""Broker monitoring service tests."""

import pytest

from repro.broker import Broker, BrokerClient, BrokerNetwork
from repro.broker.monitor import (
    BrokerMonitor,
    DeltaSample,
    MonitoringClient,
    MonitorSnapshot,
    sample_numbers,
)

from tests.broker.conftest import make_client


def test_monitor_publishes_samples(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    monitor = BrokerMonitor(broker, interval_s=1.0)
    console = MonitoringClient(net.create_host("console-host"), broker)
    sim.run_for(2.0)
    monitor.start()
    sim.run_for(5.5)
    monitor.stop()
    assert console.brokers_seen() == ["b0"]
    samples = console.history["b0"]
    assert len(samples) == 5
    assert all(isinstance(s, MonitorSnapshot) for s in samples)
    # Time advances between samples.
    assert samples[0].at < samples[-1].at


def test_samples_reflect_load(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    monitor = BrokerMonitor(broker, interval_s=1.0)
    console = MonitoringClient(net.create_host("console-host"), broker)
    publisher = make_client(net, sim, broker, "pub")
    subscriber = make_client(net, sim, broker, "sub")
    subscriber.subscribe("/t", lambda e: None)
    sim.run_for(1.0)
    monitor.start()
    for index in range(100):
        sim.schedule(index * 0.05, lambda: publisher.publish("/t", b"x", 100))
    sim.run_for(8.0)
    latest = console.latest("b0")
    assert latest is not None
    assert latest.counters["events_delivered"] >= 100
    # The console's own client + pub + sub + the monitor's client.
    assert latest.counters["clients"] == 4
    assert console.delivery_rate("b0") > 5.0


def test_console_sees_all_brokers_in_network(net, sim):
    bnet = BrokerNetwork.chain(net, 3)
    monitors = [BrokerMonitor(b, interval_s=1.0) for b in bnet.brokers()]
    console = MonitoringClient(net.create_host("console-host"),
                               bnet.broker("broker-1"))
    sim.run_for(2.0)
    for monitor in monitors:
        monitor.start()
    sim.run_for(4.0)
    assert console.brokers_seen() == ["broker-0", "broker-1", "broker-2"]


def test_history_is_capped_and_drops_counted(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    monitor = BrokerMonitor(broker, interval_s=0.5)
    console = MonitoringClient(
        net.create_host("console-host"), broker, history_limit=3
    )
    sim.run_for(0.5)
    monitor.start()
    sim.run_for(5.0)
    monitor.stop()
    sim.run_for(0.5)  # drain the last in-flight sample
    window = console.history["b0"]
    assert len(window) == 3
    assert console.dropped == monitor.samples_published - 3
    assert console.dropped > 0
    # The cap keeps the NEWEST samples.
    assert window[-1].at == max(s.at for s in window)
    assert window[0].at > 0.5  # the earliest samples were evicted


def test_history_limit_validated(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    with pytest.raises(ValueError):
        MonitoringClient(
            net.create_host("console-host"), broker, history_limit=1
        )


def test_duplicate_samples_dropped(net, sim):
    import types

    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    console = MonitoringClient(net.create_host("console-host"), broker)
    sim.run_for(0.5)
    sample = DeltaSample(
        "b0", sim.now, 1, True, sample_numbers(broker),
        broker.delivery_latency.copy(),
    )
    for _ in range(3):  # e.g. republished across a failover replay
        console._on_sample(types.SimpleNamespace(payload=sample))
    assert len(console.history["b0"]) == 1
    assert console.duplicates == 2
    console._on_sample(types.SimpleNamespace(payload="not-a-sample"))
    assert len(console.history["b0"]) == 1


def test_monitor_rides_broker_failover(net, sim):
    bnet = BrokerNetwork.chain(net, 2)
    primary = bnet.broker("broker-0")
    backup = bnet.broker("broker-1")
    monitor = BrokerMonitor(
        primary, interval_s=0.5,
        keepalive_interval_s=0.25, failover_brokers=[backup],
    )
    console = MonitoringClient(net.create_host("console-host"), backup)
    sim.run_for(1.0)
    monitor.start()
    sim.run_for(2.0)
    seen_before = len(console.history["broker-0"])
    assert seen_before >= 2

    # The monitored broker dies un-announced; the monitor's client fails
    # over to the backup and keeps the telemetry stream flowing.
    bnet.crash_broker("broker-0")
    sim.run_for(4.0)
    monitor.stop()
    assert monitor.client.failovers == 1
    assert monitor.client.broker_id == "broker-1"
    assert len(console.history["broker-0"]) > seen_before


def test_monitor_observes_client_reaping(net, sim):
    broker = Broker(
        net.create_host("broker-host"), broker_id="b0", reap_timeout_s=1.0
    )
    monitor = BrokerMonitor(
        broker, interval_s=0.5, keepalive_interval_s=0.25
    )
    console = MonitoringClient(
        net.create_host("console-host"), broker,
        keepalive_interval_s=0.25,
    )
    # A client that subscribes, then goes silent forever (no keepalive).
    victim = make_client(net, sim, broker, "victim")
    victim.subscribe("/t", lambda e: None)
    sim.run_for(0.5)
    monitor.start()
    assert sample_numbers(broker)["local_subscriptions"] == 2

    sim.run_for(5.0)
    monitor.stop()
    latest = console.latest("b0")
    assert latest is not None
    assert latest.counters["clients_reaped"] == 1
    # The corpse's interest was expired with it (console's /narada sub
    # is the one that remains).
    assert latest.counters["local_subscriptions"] == 1


def test_stop_halts_sampling(net, sim):
    broker = Broker(net.create_host("broker-host"), broker_id="b0")
    monitor = BrokerMonitor(broker, interval_s=1.0)
    console = MonitoringClient(net.create_host("console-host"), broker)
    sim.run_for(1.0)
    monitor.start()
    sim.run_for(3.0)
    monitor.stop()
    count = monitor.samples_published
    sim.run_for(3.0)
    assert monitor.samples_published == count
