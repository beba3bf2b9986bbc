"""Trials of one benchmark run, reduced to end-to-end and per-layer metrics.

Modeled metrics (virtual-time delay, jitter, join time, delivered ratio)
and per-layer counts pool the first trial of each input seed, so they are
deterministic for a given ``--seed``.  Timings (set-up, CPU, delivery
rate) are medians over every untraced trial of the run.
"""

from __future__ import annotations

import heapq
import statistics
from typing import Dict, List, Optional

from perfbench.layers import LAYERS, PhaseProfiler
from perfbench.workloads import (
    Outcome,
    TrialResult,
    analyse,
    host_counters,
    make_plan,
    quantile,
    run_trial,
)

#: Workloads whose every expected delivery must arrive.
LOSSLESS = ("fig3", "mesh_relay")


def layer_counts(trial: TrialResult, outcome: Outcome) -> Dict[str, float]:
    """Work counts read from the public counters of one trial."""
    start, end = trial.hosts_at_run_start, host_counters(trial.hosts)
    run = {key: [b - a for a, b in zip(start[key], end[key])]
           for key in start}
    stats = [broker.statistics() for broker in trial.brokers]

    def total(name: str) -> int:
        return sum(s[name] for s in stats)

    return {
        "deliveries": outcome.deliveries,
        "publishes": sum(len(t) for t in trial.published_at.values()),
        "events": trial.sim.events_processed - trial.setup_events,
        "setup_events": trial.setup_events,
        "pending_end": trial.sim.pending(),
        "jobs": sum(run["jobs"]),
        "busy_max": max(run["busy_s"]) / trial.run_vtime_s,
        "gc_pauses": sum(run["gc_pauses"]),
        "packets": sum(run["packets"]),
        "drops": sum(run["drops"]),
        "forwarded": total("events_forwarded"),
        "control_messages": total("control_messages"),
        "lsas_received": total("lsas_received"),
        "lsas_deduped": total("lsas_deduped"),
        "hits": total("route_cache_hits"),
        "misses": total("route_cache_misses"),
        "invalidations": total("route_cache_invalidations"),
        "shed": total("events_shed"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


class Run:
    """The trials of one ``run.py`` invocation and their checks."""

    def __init__(self, workload: str, seeds: List[int]):
        self.workload = workload
        self.plans = [make_plan(workload, seed) for seed in seeds]
        self.setup_s: List[float] = []
        self.cpu_s: List[float] = []
        self.rate: List[float] = []
        self.raw_cpu_s: List[float] = []  # uncalibrated, per trial
        self.outcomes: List[Outcome] = []
        self.counts: List[Dict[str, float]] = []
        self.fingerprints: List[str] = []
        self.errors: List[str] = []
        self.profiler: Optional[PhaseProfiler] = None
        self.traced_cpu_s = 0.0
        self.traced_deliveries = 0
        self.model: Dict[str, float] = {}

    @property
    def trial_count(self) -> int:
        return len(self.setup_s)

    # ---------------------------------------------------------- trials

    def untraced_trial(self) -> None:
        k = len(self.setup_s) % len(self.plans)
        trial = run_trial(self.plans[k])
        outcome = analyse(trial)
        self._check(k, trial, outcome)
        self.setup_s.append(trial.setup_s)
        self.cpu_s.append(trial.setup_s + trial.run_s)
        self.rate.append(outcome.deliveries / trial.run_s)
        self.raw_cpu_s.append(trial.setup_cpu_s + trial.run_cpu_s)
        if len(self.outcomes) < len(self.plans):
            self.outcomes.append(outcome)
            self.counts.append(layer_counts(trial, outcome))
            self.fingerprints.append(outcome.fingerprint)

    def traced_trial(self) -> None:
        """One profiled, ``Tracer``-sampled trial of the first input."""
        self.profiler = PhaseProfiler()
        trial = run_trial(self.plans[0], traced=True,
                          phase_hook=self.profiler.hook)
        self.traced_cpu_s = trial.setup_cpu_s + trial.run_cpu_s
        self.traced_deliveries = len(trial.log)
        summary = trial.collector.summarize()
        self.model = {
            key: summary.get(key, 0.0)
            for key in ("link_share", "queue_share", "cpu_share")
        }
        self.model["traces"] = summary["count"]

    def _check(self, k: int, trial: TrialResult, outcome: Outcome) -> None:
        where = f"trial {len(self.setup_s)} (input {k})"
        if k < len(self.fingerprints) and (
            outcome.fingerprint != self.fingerprints[k]
        ):
            self.errors.append(f"{where}: delivered stream differs from the "
                               f"first run of the same input")
        shed = {b.broker_id: b.statistics()["events_shed"]
                for b in trial.brokers}
        if any(shed.values()):
            self.errors.append(f"{where}: brokers shed events: "
                               f"{ {b: n for b, n in shed.items() if n} }")
        if outcome.duplicates:
            self.errors.append(f"{where}: {outcome.duplicates} duplicate "
                               f"deliveries")
        if self.workload in LOSSLESS and outcome.failed:
            self.errors.append(
                f"{where}: {outcome.holes} expected deliveries missing, "
                f"{outcome.joins_failed} subscriptions saw no media")
        if not outcome.deliveries:
            self.errors.append(f"{where}: nothing was delivered")

    # --------------------------------------------------------- results

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def end_to_end_metrics(self, peak_rss_mb: float) -> Dict[str, dict]:
        delays = list(heapq.merge(*(o.delays_s for o in self.outcomes)))
        joins = list(heapq.merge(*(o.joins_s for o in self.outcomes)))
        jitter = statistics.fmean(o.jitter_s for o in self.outcomes)
        return {
            "setup_s": _metric(statistics.median(self.setup_s), "s"),
            "cpu_s": _metric(statistics.median(self.cpu_s), "s"),
            "deliveries_per_s": _metric(statistics.median(self.rate), "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "delay_p50_ms": _metric(quantile(delays, 0.5) * 1e3, "ms"),
            "delay_p999_ms": _metric(quantile(delays, 0.999) * 1e3, "ms"),
            "jitter_ms": _metric(jitter * 1e3, "ms"),
            "join_p50_ms": _metric(quantile(joins, 0.5) * 1e3, "ms"),
            "join_p99_ms": _metric(quantile(joins, 0.99) * 1e3, "ms"),
            "delivered_ratio": _metric(
                1.0 - _ratio(self.failed, self.attempted), "ratio"),
        }

    def per_layer_metrics(self) -> Dict[str, dict]:
        c = {key: sum(counts[key] for counts in self.counts)
             for key in self.counts[0]}
        c["busy_max"] = max(counts["busy_max"] for counts in self.counts)
        deliveries = c["deliveries"]
        setup = self.profiler.profiles["setup"]
        run = self.profiler.profiles["run"]
        metrics: Dict[str, dict] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = _metric(run.self_s[layer], "s")
            metrics[f"{layer}.setup_self_s"] = _metric(
                setup.self_s[layer], "s")
        match_calls = sum(
            n for (layer, name), n in run.func_calls.items()
            if layer == "broker.topic" and "match" in name
        )
        untraced_cpu = statistics.median(self.raw_cpu_s)
        lsas = c["lsas_received"] + c["lsas_deduped"]
        lookups = c["hits"] + c["misses"]
        metrics.update({
            "unattributed.self_s": _metric(
                setup.unattributed_s + run.unattributed_s, "s"),
            "trace.cpu_s": _metric(self.traced_cpu_s, "s"),
            "trace.untraced_cpu_s": _metric(untraced_cpu, "s"),
            "trace.overhead_s": _metric(
                self.traced_cpu_s - untraced_cpu, "s"),
            "simnet.kernel.events": _metric(c["events"], "count"),
            "simnet.kernel.setup_events": _metric(c["setup_events"], "count"),
            "simnet.kernel.events_per_delivery": _metric(
                _ratio(c["events"], deliveries), "ratio"),
            "simnet.kernel.pending_end": _metric(c["pending_end"], "count"),
            "simnet.cpu.jobs": _metric(c["jobs"], "count"),
            "simnet.cpu.jobs_per_delivery": _metric(
                _ratio(c["jobs"], deliveries), "ratio"),
            "simnet.cpu.busy_max": _metric(c["busy_max"], "ratio"),
            "simnet.cpu.gc_pauses": _metric(c["gc_pauses"], "count"),
            "simnet.nic.packets": _metric(c["packets"], "count"),
            "simnet.nic.packets_per_delivery": _metric(
                _ratio(c["packets"], deliveries), "ratio"),
            "simnet.nic.drops": _metric(c["drops"], "count"),
            "broker.broker.forwarded": _metric(c["forwarded"], "count"),
            "broker.broker.forwards_per_publish": _metric(
                _ratio(c["forwarded"], c["publishes"]), "ratio"),
            "broker.broker.control_messages": _metric(
                c["control_messages"], "count"),
            "broker.broker.lsas_received": _metric(
                c["lsas_received"], "count"),
            "broker.broker.lsas_deduped": _metric(c["lsas_deduped"], "count"),
            "broker.broker.lsa_dup_ratio": _metric(
                _ratio(c["lsas_deduped"], lsas), "ratio"),
            "broker.route_cache.hits": _metric(c["hits"], "count"),
            "broker.route_cache.misses": _metric(c["misses"], "count"),
            "broker.route_cache.invalidations": _metric(
                c["invalidations"], "count"),
            "broker.route_cache.hit_ratio": _metric(
                _ratio(c["hits"], lookups), "ratio"),
            "broker.topic.match_calls_per_delivery": _metric(
                _ratio(match_calls, self.traced_deliveries), "ratio"),
            "broker.client.handler_calls": _metric(deliveries, "count"),
            "broker.overload.shed": _metric(c["shed"], "count"),
            "model.link_share": _metric(self.model["link_share"], "ratio"),
            "model.queue_share": _metric(self.model["queue_share"], "ratio"),
            "model.cpu_share": _metric(self.model["cpu_share"], "ratio"),
        })
        return metrics

    def report(self) -> Dict[str, object]:
        """Sample sizes and inputs, for the line before the result."""
        plan = self.plans[0]
        info: Dict[str, object] = {
            "trials": len(self.setup_s),
            "input_seeds": [p.seed for p in self.plans],
            "input": {
                "brokers": sum(plan.cluster_sizes),
                "publishers": len(plan.publishers),
                "receivers": len(plan.receiver_brokers),
                "moves": len(plan.moves),
                "virtual_run_s": plan.run_s,
            },
            "deliveries_per_trial": [o.deliveries for o in self.outcomes],
            "delay_samples": sum(len(o.delays_s) for o in self.outcomes),
            "join_samples": sum(len(o.joins_s) for o in self.outcomes),
            "fingerprints": self.fingerprints,
            "trial_setup_s": self.setup_s,
            "trial_cpu_s": self.cpu_s,
            "trial_raw_cpu_s": self.raw_cpu_s,
        }
        if self.profiler is not None:
            info["traced_cpu_s"] = self.traced_cpu_s
            info["trace_overhead_x"] = _ratio(
                self.traced_cpu_s,
                statistics.median(self.raw_cpu_s))
            info["traces_collected"] = self.model["traces"]
        return info

    @staticmethod
    def summary_table(metrics: Dict[str, dict]) -> str:
        width = max(len(name) for name in metrics)
        return "\n".join(
            f"{name:<{width}}  {m['value']:>14.6g} {m['unit']}"
            for name, m in metrics.items()
        )
