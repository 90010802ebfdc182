"""Violation records shared by the runtime sanitizer and reports.

Every check the sanitizer performs is identified by a stable rule id;
when a check fails it produces one :class:`Violation` carrying the rule,
a human-readable message, the engine iteration it happened in, and the
*provenance trail* — the most recent bus events and stream ops leading up
to the failure, each stamped with a global sequence number.  The trail is
what makes a violation debuggable: it shows who scheduled what, in which
order, right before the invariant broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: A stream op started before the stream's completion frontier (the
#: simulated clock rewound) or before its declared release time.
RULE_STREAM_MONOTONIC = "stream-monotonic"

#: An op ran on the wrong stream for its category — e.g. a device-to-host
#: eviction on the host-to-device load stream, which would break the
#: full-duplex PCIe model (§III-D: loads and evicts overlap *because*
#: they ride separate directions of the link).
RULE_STREAM_AFFINITY = "stream-affinity"

#: A non-zero-copy kernel was dispatched for a partition that is not
#: resident in the graph pool (computing against evicted graph data).
RULE_RESIDENCY = "partition-residency"

#: A partition was evicted from the graph pool while its explicit load
#: was still in flight (no dependent kernel had consumed it yet).
RULE_EVICT_IN_FLIGHT = "evict-in-flight-load"

#: The device walk pool exceeded ``m_w`` at an iteration boundary (the
#: engine must evict down to capacity before loading more walks), or a
#: walk batch carried more walks than its fixed capacity.
RULE_WALK_CAPACITY = "walk-capacity"

#: More walks were consumed from a partition's device buffer than it
#: actually held — the signature of a double-consumed frontier batch.
RULE_DOUBLE_CONSUME = "double-consume"

#: active + finished walks stopped summing to the number of seeded walks
#: (a walk was lost or duplicated across a reshuffle/epoch).
RULE_WALK_CONSERVATION = "walk-conservation"

#: The same walk id became resident in two device shards' (host or
#: device) pools — a migrated walk was delivered without being removed
#: from its source shard (or delivered twice).
RULE_CROSS_DEVICE = "cross-device-residency"

#: A peer channel's send and receive sides stopped matching: walks were
#: delivered that were never sent, or a completed run left sent walks
#: undelivered (migration dropped or duplicated walks in flight).
RULE_MIGRATION = "migration-conservation"

#: An iteration ran on a device that has failed, or processed a
#: partition the cluster's ownership map assigns to another shard —
#: the scheduler decided on a stale owned mask after a failure or
#: elastic rebalance moved ownership.
RULE_STALE_OWNER = "stale-owner-mask"

#: A serve-session query broke request conservation: it completed
#: without being admitted (orphan walks), completed twice, completed
#: with a walk count different from what it requested, or a completed
#: run left admitted queries unfinished (dropped completion).
RULE_REQUEST_CONSERVATION = "request-conservation"

ALL_RULES = (
    RULE_STREAM_MONOTONIC,
    RULE_STREAM_AFFINITY,
    RULE_RESIDENCY,
    RULE_EVICT_IN_FLIGHT,
    RULE_WALK_CAPACITY,
    RULE_DOUBLE_CONSUME,
    RULE_WALK_CONSERVATION,
    RULE_CROSS_DEVICE,
    RULE_MIGRATION,
    RULE_STALE_OWNER,
    RULE_REQUEST_CONSERVATION,
)


@dataclass(frozen=True)
class Violation:
    """One failed sanitizer check, with full event provenance."""

    rule: str
    message: str
    iteration: int = 0
    provenance: Tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "iteration": self.iteration,
            "provenance": list(self.provenance),
        }

    def __str__(self) -> str:
        return f"[{self.rule}] iteration {self.iteration}: {self.message}"
