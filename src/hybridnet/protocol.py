"""Handover call flows as message-driven state machines on a simulated bus.

Three flows are modeled: LiFi-to-femtocell (25 steps), femtocell-to-LiFi
(26 steps) and LiFi-to-LiFi (27 steps). Each canonical step table maps a
step number to one message kind and a (sender, receiver) pair; local
actions such as signal sensing, CAC and link teardown appear as
self-addressed messages so that per-step latency accounting stays uniform.

Execution is strictly serial: a step is sent only after the previous step
delivers, so the end-to-end latency of a fault-free run is the sum of the
per-step delays. A fault plan can drop a step's message a given number of
times; a drop beyond the retry budget of that message kind fails the run
at that step and leaves the serving link in place.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, field


class HandoverKind(enum.Enum):
    LIFI_TO_FEMTO = "lifi_to_femto"
    FEMTO_TO_LIFI = "femto_to_lifi"
    LIFI_TO_LIFI = "lifi_to_lifi"


class MessageKind(enum.Enum):
    MEASUREMENT_REPORT = "measurement_report"
    NEIGHBOR_SEARCH = "neighbor_search"
    AP_SELECT = "ap_select"
    PRE_AUTH = "pre_auth"
    HO_DECISION = "ho_decision"
    HO_REQUEST = "ho_request"
    AUTH_CHECK = "auth_check"
    CAC_CHECK = "cac_check"
    HO_RESPONSE = "ho_response"
    LINK_SETUP = "link_setup"
    DATA_FORWARD = "data_forward"
    CHANNEL_REESTABLISH = "channel_reestablish"
    DETACH = "detach"
    SYNC = "sync"
    HO_COMPLETE = "ho_complete"
    LINK_DELETE = "link_delete"


# Participant labels used by the step tables.
UE, SERVING_LIFI, TARGET_LIFI, FAP, GW = "ue", "serving_lifi", "target_lifi", "fap", "gw"

K = MessageKind

_LIFI_TO_FEMTO_STEPS = (
    (1, K.MEASUREMENT_REPORT, UE, UE),
    (2, K.MEASUREMENT_REPORT, UE, SERVING_LIFI),
    (3, K.NEIGHBOR_SEARCH, UE, UE),
    (4, K.AP_SELECT, UE, SERVING_LIFI),
    (5, K.PRE_AUTH, UE, FAP),
    (6, K.HO_DECISION, UE, SERVING_LIFI),
    (7, K.HO_REQUEST, SERVING_LIFI, GW),
    (8, K.HO_REQUEST, GW, FAP),
    (9, K.CAC_CHECK, FAP, FAP),
    (10, K.HO_RESPONSE, FAP, GW),
    (11, K.HO_RESPONSE, GW, SERVING_LIFI),
    (12, K.LINK_SETUP, GW, FAP),
    (13, K.LINK_SETUP, FAP, GW),
    (14, K.LINK_SETUP, GW, FAP),
    (15, K.DATA_FORWARD, GW, FAP),
    (16, K.CHANNEL_REESTABLISH, UE, FAP),
    (17, K.CHANNEL_REESTABLISH, FAP, UE),
    (18, K.DETACH, UE, SERVING_LIFI),
    (19, K.SYNC, UE, FAP),
    (20, K.SYNC, FAP, UE),
    (21, K.HO_COMPLETE, UE, GW),
    (22, K.DATA_FORWARD, GW, FAP),
    (23, K.LINK_DELETE, GW, SERVING_LIFI),
    (24, K.LINK_DELETE, SERVING_LIFI, SERVING_LIFI),
    (25, K.LINK_DELETE, SERVING_LIFI, GW),
)

_FEMTO_TO_LIFI_STEPS = (
    (1, K.MEASUREMENT_REPORT, UE, UE),
    (2, K.MEASUREMENT_REPORT, UE, FAP),
    (3, K.AP_SELECT, UE, FAP),
    (4, K.PRE_AUTH, UE, TARGET_LIFI),
    (5, K.HO_DECISION, UE, FAP),
    (6, K.HO_REQUEST, FAP, GW),
    (7, K.HO_REQUEST, GW, TARGET_LIFI),
    (8, K.AUTH_CHECK, TARGET_LIFI, GW),
    (9, K.AUTH_CHECK, GW, TARGET_LIFI),
    (10, K.CAC_CHECK, TARGET_LIFI, TARGET_LIFI),
    (11, K.HO_RESPONSE, TARGET_LIFI, GW),
    (12, K.HO_RESPONSE, GW, FAP),
    (13, K.LINK_SETUP, GW, TARGET_LIFI),
    (14, K.LINK_SETUP, TARGET_LIFI, GW),
    (15, K.LINK_SETUP, GW, TARGET_LIFI),
    (16, K.DATA_FORWARD, GW, TARGET_LIFI),
    (17, K.CHANNEL_REESTABLISH, UE, TARGET_LIFI),
    (18, K.CHANNEL_REESTABLISH, TARGET_LIFI, UE),
    (19, K.DETACH, UE, FAP),
    (20, K.SYNC, UE, TARGET_LIFI),
    (21, K.SYNC, TARGET_LIFI, UE),
    (22, K.HO_COMPLETE, UE, GW),
    (23, K.DATA_FORWARD, GW, TARGET_LIFI),
    (24, K.LINK_DELETE, GW, FAP),
    (25, K.LINK_DELETE, FAP, FAP),
    (26, K.LINK_DELETE, FAP, GW),
)

_LIFI_TO_LIFI_STEPS = (
    (1, K.MEASUREMENT_REPORT, UE, UE),
    (2, K.MEASUREMENT_REPORT, UE, SERVING_LIFI),
    (3, K.NEIGHBOR_SEARCH, UE, UE),
    (4, K.AP_SELECT, UE, SERVING_LIFI),
    (5, K.PRE_AUTH, UE, TARGET_LIFI),
    (6, K.HO_DECISION, UE, SERVING_LIFI),
    (7, K.HO_REQUEST, SERVING_LIFI, GW),
    (8, K.HO_REQUEST, GW, TARGET_LIFI),
    (9, K.AUTH_CHECK, TARGET_LIFI, GW),
    (10, K.AUTH_CHECK, GW, TARGET_LIFI),
    (11, K.CAC_CHECK, TARGET_LIFI, TARGET_LIFI),
    (12, K.HO_RESPONSE, TARGET_LIFI, GW),
    (13, K.HO_RESPONSE, GW, SERVING_LIFI),
    (14, K.LINK_SETUP, GW, TARGET_LIFI),
    (15, K.LINK_SETUP, TARGET_LIFI, GW),
    (16, K.LINK_SETUP, GW, TARGET_LIFI),
    (17, K.DATA_FORWARD, GW, TARGET_LIFI),
    (18, K.CHANNEL_REESTABLISH, UE, TARGET_LIFI),
    (19, K.CHANNEL_REESTABLISH, TARGET_LIFI, UE),
    (20, K.DETACH, UE, SERVING_LIFI),
    (21, K.SYNC, UE, TARGET_LIFI),
    (22, K.SYNC, TARGET_LIFI, UE),
    (23, K.HO_COMPLETE, UE, GW),
    (24, K.DATA_FORWARD, GW, TARGET_LIFI),
    (25, K.LINK_DELETE, GW, SERVING_LIFI),
    (26, K.LINK_DELETE, SERVING_LIFI, SERVING_LIFI),
    (27, K.LINK_DELETE, SERVING_LIFI, GW),
)

_TABLES = {
    HandoverKind.LIFI_TO_FEMTO: _LIFI_TO_FEMTO_STEPS,
    HandoverKind.FEMTO_TO_LIFI: _FEMTO_TO_LIFI_STEPS,
    HandoverKind.LIFI_TO_LIFI: _LIFI_TO_LIFI_STEPS,
}


@dataclass(frozen=True)
class StepDescriptor:
    step_number: int
    kind: MessageKind
    sender: str
    receiver: str


def canonical_sequence(kind: HandoverKind) -> tuple[StepDescriptor, ...]:
    """The ordered step table for one handover flow."""
    if kind not in _TABLES:
        raise ValueError(f"unknown handover kind {kind!r}")
    return tuple(StepDescriptor(n, k, s, r) for n, k, s, r in _TABLES[kind])


@dataclass(frozen=True)
class ProtocolMessage:
    step_number: int
    kind: MessageKind
    sender: str
    receiver: str
    send_time_s: float
    deliver_time_s: float

    def __post_init__(self):
        if self.deliver_time_s < self.send_time_s:
            raise ValueError("deliver time must not precede send time")


@dataclass(frozen=True)
class FaultPlan:
    """Message drops to inject: step number -> how many sends to swallow.

    ``retry_budget`` maps a message kind to the number of resends allowed;
    kinds not listed fail on the first drop.
    """

    drop_counts: dict[int, int] = field(default_factory=dict)
    retry_budget: dict[MessageKind, int] = field(default_factory=dict)

    def drops_at(self, step_number: int) -> int:
        return self.drop_counts.get(step_number, 0)

    def retries_for(self, kind: MessageKind) -> int:
        return self.retry_budget.get(kind, 0)


@dataclass(frozen=True)
class HandoverTrace:
    kind: HandoverKind
    messages: tuple[ProtocolMessage, ...]
    outcome: str  # "complete" or "failed"
    failed_step: int | None
    latency_s: float

    @property
    def complete(self) -> bool:
        return self.outcome == "complete"


def run_handover(kind: HandoverKind, per_hop_s: float, fault_plan: FaultPlan | None = None) -> HandoverTrace:
    """Execute one handover flow and return its trace.

    Every hop takes ``per_hop_s``. With an empty fault plan the trace
    reproduces the canonical sequence in order and its latency is the
    per-step delay sum. A dropped message beyond its retry budget fails the
    run at that step; every message already delivered stays in the trace.
    """
    if not 0.0 <= per_hop_s < math.inf:
        raise ValueError(f"per-hop latency must be finite and >= 0, got {per_hop_s!r}")
    steps = canonical_sequence(kind)
    faults = fault_plan if fault_plan is not None else FaultPlan()

    messages: list[ProtocolMessage] = []
    clock = 0.0
    for step in steps:
        drops = faults.drops_at(step.step_number)
        allowed = faults.retries_for(step.kind)
        send_time = clock
        if drops > allowed:
            # The failed attempts still burn time, then the run aborts.
            first_send = messages[0].send_time_s if messages else send_time
            fail_time = send_time + (allowed + 1) * per_hop_s
            return HandoverTrace(
                kind=kind,
                messages=tuple(messages),
                outcome="failed",
                failed_step=step.step_number,
                latency_s=fail_time - first_send,
            )
        attempts = drops + 1
        deliver_time = send_time + attempts * per_hop_s
        messages.append(
            ProtocolMessage(
                step_number=step.step_number,
                kind=step.kind,
                sender=step.sender,
                receiver=step.receiver,
                send_time_s=send_time,
                deliver_time_s=deliver_time,
            )
        )
        clock = deliver_time
    latency_total = messages[-1].deliver_time_s - messages[0].send_time_s if messages else 0.0
    return HandoverTrace(kind=kind, messages=tuple(messages), outcome="complete", failed_step=None, latency_s=latency_total)


@dataclass(frozen=True)
class Violation:
    step: int
    reason: str


def validate_trace(trace: HandoverTrace) -> Violation | None:
    """Check a trace against the canonical table and the safety rules.

    Returns None when the trace is valid, otherwise the first violation.
    Safety rules hold for both complete and failed (prefix) traces: finite,
    serial timing, CAC before any handover response, no detach before a handover
    response, at most one handover-complete message (exactly one when
    complete) and no serving-link delete before sync and completion.
    """
    steps = canonical_sequence(trace.kind)
    seen_cac = False
    seen_response = False
    seen_sync = False
    complete_count = 0
    prev_deliver = None
    for i, msg in enumerate(trace.messages):
        if msg.step_number != i + 1:
            return Violation(msg.step_number, "step numbers must increase contiguously from 1")
        if not (math.isfinite(msg.send_time_s) and math.isfinite(msg.deliver_time_s)):
            return Violation(msg.step_number, "send and delivery times must be finite")
        if msg.deliver_time_s < msg.send_time_s:
            return Violation(msg.step_number, "delivery precedes send")
        if prev_deliver is not None and msg.send_time_s < prev_deliver:
            return Violation(msg.step_number, "send precedes delivery of the previous step")
        prev_deliver = msg.deliver_time_s
        if msg.kind is MessageKind.HO_RESPONSE:
            if not seen_cac:
                return Violation(msg.step_number, "handover response before CAC check")
            seen_response = True
        if msg.kind is MessageKind.CAC_CHECK:
            seen_cac = True
        if msg.kind is MessageKind.DETACH and not seen_response:
            return Violation(msg.step_number, "detach before handover response")
        if msg.kind is MessageKind.SYNC:
            seen_sync = True
        if msg.kind is MessageKind.HO_COMPLETE:
            complete_count += 1
            if complete_count > 1:
                return Violation(msg.step_number, "more than one handover-complete message")
        if msg.kind is MessageKind.LINK_DELETE:
            if complete_count == 0:
                return Violation(msg.step_number, "serving-link delete before handover complete")
            if not seen_sync:
                return Violation(msg.step_number, "serving-link delete before target sync")
        expected = steps[i] if i < len(steps) else None
        if expected is None:
            return Violation(msg.step_number, "trace longer than the canonical sequence")
        if (msg.kind, msg.sender, msg.receiver) != (expected.kind, expected.sender, expected.receiver):
            return Violation(
                msg.step_number,
                f"expected {expected.kind.value} {expected.sender}->{expected.receiver}, "
                f"got {msg.kind.value} {msg.sender}->{msg.receiver}",
            )
    if trace.complete:
        if len(trace.messages) != len(steps):
            return Violation(len(trace.messages), "complete trace must cover the full sequence")
        if complete_count != 1:
            return Violation(len(trace.messages), "complete trace must carry exactly one handover-complete")
    return None


TRACE_CSV_HEADER = ("step", "kind", "from", "to", "t_send", "t_deliver")


def trace_to_csv(trace: HandoverTrace) -> str:
    """Render a trace in the (step, kind, from, to, t_send, t_deliver) format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_CSV_HEADER)
    for msg in trace.messages:
        writer.writerow(
            (msg.step_number, msg.kind.value, msg.sender, msg.receiver,
             repr(msg.send_time_s), repr(msg.deliver_time_s))
        )
    return buf.getvalue()
