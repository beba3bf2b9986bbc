"""Broker events.

An :class:`NBEvent` is the unit of publish/subscribe communication: a topic,
an opaque payload with an explicit wire size, and headers used by the QoS
services (reliability, ordering).
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Any, Dict, Optional

_event_ids = itertools.count(1)

# --------------------------------------------------------------- priority
# Event priority classes, shed strictly lowest-class-first by the
# overload controller (``repro.broker.overload``).  CONTROL is never
# shed: heartbeats, LSAs, SubAdverts, XGSP signaling and SLO alerts keep
# the mesh healing and leaders elected while media degrades.  Numeric
# order is shed order reversed — higher number sheds first.
PRIORITY_CONTROL = 0
PRIORITY_AUDIO = 1
PRIORITY_VIDEO = 2
PRIORITY_BULK = 3

PRIORITY_NAMES = ("control", "audio", "video", "bulk")

#: Topic prefixes of the system planes.  ``/narada/trace`` is BULK (a
#: lost sampled trace is an observability gap, not a correctness one);
#: every other system topic — monitor, alerts, XGSP signaling/journal —
#: is CONTROL.
_BULK_PREFIXES = ("/narada/trace", "/narada/archive")
_CONTROL_PREFIXES = ("/narada/", "/xgsp/")


def classify_topic(topic: str) -> int:
    """Deterministic priority class of a topic (pure string function).

    System planes are classified by prefix; application traffic by the
    conventional media segment names (``.../audio``, ``.../video``).
    Unrecognized application topics default to VIDEO — sheddable under
    overload, but after BULK.
    """
    for prefix in _BULK_PREFIXES:
        if topic.startswith(prefix):
            return PRIORITY_BULK
    for prefix in _CONTROL_PREFIXES:
        if topic.startswith(prefix):
            return PRIORITY_CONTROL
    if "audio" in topic:
        return PRIORITY_AUDIO
    return PRIORITY_VIDEO


def freeze_payload(payload: Any) -> Any:
    """Return an immutable view of common mutable payload containers.

    The broker fans one payload object out to every matching receiver
    inside one shared envelope, so a receiver mutating it would silently
    corrupt what its peers see.  Freezing at fan-out turns that silent
    corruption into an immediate ``TypeError`` at the mutation site.
    Payload types we can't cheaply freeze pass through unchanged.
    """
    kind = type(payload)
    if kind is dict:
        return MappingProxyType(payload)
    if kind is list:
        return tuple(payload)
    if kind is bytearray:
        return bytes(payload)
    if kind is set:
        return frozenset(payload)
    return payload


class NBEvent:
    """One published event.

    Attributes:
        topic: hierarchical topic string, e.g. ``/xgsp/session-7/video``.
        payload: opaque payload object (an RTP packet, an XGSP message...).
        size: payload wire size in bytes (envelope overhead is added by the
            transport link).
        source: client id of the publisher.
        published_at: virtual time of the original publish call; receivers
            use ``now - published_at`` as the end-to-end delay.
        reliable: request acknowledged, redelivered-on-loss delivery.
        ordered: request per-topic total ordering (broker sequencing).
        sequence: per-topic sequence number stamped by the sequencing
            broker when ``ordered`` is set.
        sequenced_by: id of the broker that assigned ``sequence``;
            receivers use a change of sequencer (failover, partition
            heal) to restart their per-topic expectations.
        trace: sampled :class:`~repro.obs.trace.TraceContext`, or None
            for the (vast) untraced majority of events.
    """

    __slots__ = (
        "event_id",
        "topic",
        "payload",
        "size",
        "source",
        "published_at",
        "reliable",
        "ordered",
        "sequence",
        "sequenced_by",
        "headers",
        "priority",
        "trace",
    )

    def __init__(
        self,
        topic: str,
        payload: Any,
        size: int,
        source: str = "",
        published_at: float = 0.0,
        reliable: bool = False,
        ordered: bool = False,
        sequence: Optional[int] = None,
        sequenced_by: Optional[str] = None,
        headers: Optional[Dict[str, Any]] = None,
        priority: Optional[int] = None,
    ):
        self.event_id = next(_event_ids)
        self.topic = topic
        self.payload = payload
        self.size = size
        self.source = source
        self.published_at = published_at
        self.reliable = reliable
        self.ordered = ordered
        self.sequence = sequence
        self.sequenced_by = sequenced_by
        self.headers = headers
        self.priority = (
            priority if priority is not None else classify_topic(topic)
        )
        self.trace = None

    def fork_for_branch(self) -> "NBEvent":
        """Clone this (traced) event for one fan-out branch.

        The clone keeps ``event_id`` — reliability/ordering dedup key on
        it — and carries a forked trace so concurrent branches never
        interleave hop records on a shared context.
        """
        clone = NBEvent(
            topic=self.topic,
            payload=self.payload,
            size=self.size,
            source=self.source,
            published_at=self.published_at,
            reliable=self.reliable,
            ordered=self.ordered,
            sequence=self.sequence,
            sequenced_by=self.sequenced_by,
            headers=self.headers,
            priority=self.priority,
        )
        clone.event_id = self.event_id
        if self.trace is not None:
            clone.trace = self.trace.fork()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (("R", self.reliable), ("O", self.ordered))
            if on
        )
        return f"<NBEvent #{self.event_id} {self.topic} {self.size}B {flags}>"
