"""Handover call flows as message-driven state machines on a simulated bus.

Three flows are modeled: LiFi-to-femtocell (25 steps), femtocell-to-LiFi
(26 steps) and LiFi-to-LiFi (27 steps). They are one 27-step call flow
over a serving and a target role, bound per kind: neighbour search runs
only when a LiFi AP serves, and the gateway auth-check pair only when the
target is a LiFi AP. Each kind's step table is built from it once, at
import, and maps a step number to one message kind and a (sender,
receiver) pair; local actions such as signal sensing, CAC and link
teardown appear as self-addressed messages so that per-step latency
accounting stays uniform.

Execution is strictly serial: a step is sent only after the previous step
delivers, so the end-to-end latency of a fault-free run is the sum of the
per-step delays. A fault plan can drop a step's message a given number of
times; a drop beyond the retry budget of that message kind fails the run
at that step and leaves the serving link in place.
"""

from __future__ import annotations

import enum
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
# Symbolic roles of the call flow, bound per kind by _ROLES.
SERVING, TARGET = "serving", "target"

K = MessageKind

# The one call flow: (message, sender, receiver, when). ``when`` names the
# role that must be a LiFi AP for the step to run (None: always): neighbour
# search runs only when LiFi serves, the auth-check pair only when the
# target is LiFi.
_CALL_FLOW = (
    (K.MEASUREMENT_REPORT, UE, UE, None),
    (K.MEASUREMENT_REPORT, UE, SERVING, None),
    (K.NEIGHBOR_SEARCH, UE, UE, SERVING),
    (K.AP_SELECT, UE, SERVING, None),
    (K.PRE_AUTH, UE, TARGET, None),
    (K.HO_DECISION, UE, SERVING, None),
    (K.HO_REQUEST, SERVING, GW, None),
    (K.HO_REQUEST, GW, TARGET, None),
    (K.AUTH_CHECK, TARGET, GW, TARGET),
    (K.AUTH_CHECK, GW, TARGET, TARGET),
    (K.CAC_CHECK, TARGET, TARGET, None),
    (K.HO_RESPONSE, TARGET, GW, None),
    (K.HO_RESPONSE, GW, SERVING, None),
    (K.LINK_SETUP, GW, TARGET, None),
    (K.LINK_SETUP, TARGET, GW, None),
    (K.LINK_SETUP, GW, TARGET, None),
    (K.DATA_FORWARD, GW, TARGET, None),
    (K.CHANNEL_REESTABLISH, UE, TARGET, None),
    (K.CHANNEL_REESTABLISH, TARGET, UE, None),
    (K.DETACH, UE, SERVING, None),
    (K.SYNC, UE, TARGET, None),
    (K.SYNC, TARGET, UE, None),
    (K.HO_COMPLETE, UE, GW, None),
    (K.DATA_FORWARD, GW, TARGET, None),
    (K.LINK_DELETE, GW, SERVING, None),
    (K.LINK_DELETE, SERVING, SERVING, None),
    (K.LINK_DELETE, SERVING, GW, None),
)

_ROLES = {
    HandoverKind.LIFI_TO_FEMTO: {SERVING: SERVING_LIFI, TARGET: FAP},
    HandoverKind.FEMTO_TO_LIFI: {SERVING: FAP, TARGET: TARGET_LIFI},
    HandoverKind.LIFI_TO_LIFI: {SERVING: SERVING_LIFI, TARGET: TARGET_LIFI},
}


@dataclass(frozen=True)
class StepDescriptor:
    step_number: int
    kind: MessageKind
    sender: str
    receiver: str


def _bind(roles: dict[str, str]) -> tuple[StepDescriptor, ...]:
    """The call flow with ``roles`` bound, its conditional steps kept or dropped, numbered from 1."""
    rows = [(k, roles.get(s, s), roles.get(r, r)) for k, s, r, when in _CALL_FLOW if when is None or roles[when] != FAP]
    return tuple(StepDescriptor(n, *row) for n, row in enumerate(rows, 1))


_SEQUENCES = {kind: _bind(roles) for kind, roles in _ROLES.items()}


def canonical_sequence(kind: HandoverKind) -> tuple[StepDescriptor, ...]:
    """The ordered step table for one handover flow, built once at import."""
    return _SEQUENCES[kind]


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


TRACE_CSV_HEADER = ("step", "kind", "from", "to", "t_send", "t_deliver")


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

    def csv_rows(self) -> list[tuple]:
        """One (step, kind, from, to, t_send, t_deliver) row per message, as ``TRACE_CSV_HEADER`` names them."""
        return [(m.step_number, m.kind.value, m.sender, m.receiver, m.send_time_s, m.deliver_time_s)
                for m in self.messages]


def run_handover(kind: HandoverKind, per_hop_s: float, fault_plan: FaultPlan | None = None) -> HandoverTrace:
    """Execute one handover flow and return its trace.

    Every hop takes ``per_hop_s``. With an empty fault plan the trace
    reproduces the canonical sequence in order and its latency is the
    per-step delay sum. A dropped message beyond its retry budget fails the
    run at that step; every message already delivered stays in the trace.
    """
    if not 0.0 <= per_hop_s < math.inf:
        raise ValueError(f"per-hop latency must be finite and >= 0, got {per_hop_s!r}")
    faults = fault_plan if fault_plan is not None else FaultPlan()

    messages: list[ProtocolMessage] = []
    clock = 0.0  # the first message is sent at 0, so the clock is the latency so far
    for step in canonical_sequence(kind):
        drops = faults.drop_counts.get(step.step_number, 0)
        allowed = faults.retry_budget.get(step.kind, 0)
        if drops > allowed:
            # The failed attempts still burn time, then the run aborts.
            return HandoverTrace(kind, tuple(messages), "failed", step.step_number, clock + (allowed + 1) * per_hop_s)
        deliver_time = clock + (drops + 1) * per_hop_s
        messages.append(ProtocolMessage(step.step_number, step.kind, step.sender, step.receiver, clock, deliver_time))
        clock = deliver_time
    return HandoverTrace(kind, tuple(messages), "complete", None, clock)


# Safety rules on message order: (message kind, the kind that must come before it, the violation's reason).
_NEEDS_BEFORE = (
    (K.HO_RESPONSE, K.CAC_CHECK, "handover response before CAC check"),
    (K.DETACH, K.HO_RESPONSE, "detach before handover response"),
    (K.LINK_DELETE, K.HO_COMPLETE, "serving-link delete before handover complete"),
    (K.LINK_DELETE, K.SYNC, "serving-link delete before target sync"),
)


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
    seen: list[MessageKind] = []
    prev_deliver = None
    for i, msg in enumerate(trace.messages):
        if msg.step_number != i + 1:
            return Violation(msg.step_number, "step numbers must increase contiguously from 1")
        if not (math.isfinite(msg.send_time_s) and math.isfinite(msg.deliver_time_s)):
            return Violation(msg.step_number, "send and delivery times must be finite")
        if prev_deliver is not None and msg.send_time_s < prev_deliver:
            return Violation(msg.step_number, "send precedes delivery of the previous step")
        prev_deliver = msg.deliver_time_s
        for kind, needed, reason in _NEEDS_BEFORE:
            if msg.kind is kind and needed not in seen:
                return Violation(msg.step_number, reason)
        if msg.kind is K.HO_COMPLETE and K.HO_COMPLETE in seen:
            return Violation(msg.step_number, "more than one handover-complete message")
        seen.append(msg.kind)
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
        if seen.count(K.HO_COMPLETE) != 1:
            return Violation(len(trace.messages), "complete trace must carry exactly one handover-complete")
    return None

