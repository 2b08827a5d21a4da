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

``_bind`` checks the safety rules on each table it builds, so a broken
table fails the import. The order rules hold on every prefix of a table
that keeps them, and a prefix carries at most the table's one
handover-complete, so every trace, complete or failed, keeps them too.

Execution is strictly serial: a step is sent only after the previous step
delivers, so the end-to-end latency of a fault-free run is the sum of the
per-step delays. A dropped step fails the run at that step after one hop
of waiting and leaves the serving link in place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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
    """One step of a handover call flow: its number, message kind, sender and receiver."""

    step_number: int
    kind: MessageKind
    sender: str
    receiver: str


# Safety rules on message order: (message kind, the kind that must come before it, the rule's reason).
_NEEDS_BEFORE = (
    (K.HO_RESPONSE, K.CAC_CHECK, "handover response before CAC check"),
    (K.DETACH, K.HO_RESPONSE, "detach before handover response"),
    (K.LINK_DELETE, K.HO_COMPLETE, "serving-link delete before handover complete"),
    (K.LINK_DELETE, K.SYNC, "serving-link delete before target sync"),
)


def _bind(roles: dict[str, str]) -> tuple[StepDescriptor, ...]:
    """The call flow with ``roles`` bound, its conditional steps kept or dropped, numbered from 1.

    Raises ValueError with the rule's reason unless the table carries exactly
    one handover-complete and each ``_NEEDS_BEFORE`` kind follows the kind it needs.
    """
    rows = [(k, roles.get(s, s), roles.get(r, r)) for k, s, r, when in _CALL_FLOW if when is None or roles[when] != FAP]
    kinds = [k for k, _, _ in rows]
    if kinds.count(K.HO_COMPLETE) != 1:
        raise ValueError("a call flow must carry exactly one handover-complete message")
    for kind, needed, reason in _NEEDS_BEFORE:
        if kind in kinds and needed not in kinds[:kinds.index(kind)]:
            raise ValueError(reason)
    return tuple(StepDescriptor(n, *row) for n, row in enumerate(rows, 1))


_SEQUENCES = {kind: _bind(roles) for kind, roles in _ROLES.items()}


def canonical_sequence(kind: HandoverKind) -> tuple[StepDescriptor, ...]:
    """The ordered step table for one handover flow, built once at import."""
    return _SEQUENCES[kind]


@dataclass(frozen=True)
class ProtocolMessage:
    """One delivered message of a handover run: its step, its ends, and its send and delivery times."""

    step_number: int
    kind: MessageKind
    sender: str
    receiver: str
    send_time_s: float
    deliver_time_s: float

    def __post_init__(self):
        if self.deliver_time_s < self.send_time_s:
            raise ValueError("deliver time must not precede send time")


TRACE_CSV_HEADER = ("step", "kind", "from", "to", "t_send", "t_deliver")


@dataclass(frozen=True)
class HandoverTrace:
    """One handover run: its delivered messages, the step it failed at (if any) and its latency."""

    kind: HandoverKind
    messages: tuple[ProtocolMessage, ...]
    failed_step: int | None  # the dropped step of a failed run; None when complete
    latency_s: float

    @property
    def complete(self) -> bool:
        return self.failed_step is None

    @property
    def outcome(self) -> str:
        return "complete" if self.complete else "failed"

    def csv_rows(self) -> list[tuple]:
        """One (step, kind, from, to, t_send, t_deliver) row per message, as ``TRACE_CSV_HEADER`` names them."""
        return [(m.step_number, m.kind.value, m.sender, m.receiver, m.send_time_s, m.deliver_time_s)
                for m in self.messages]


def run_handover(kind: HandoverKind, policy, drop_step: int | None = None) -> HandoverTrace:
    """Execute one handover flow and return its trace.

    Every hop takes ``policy.per_hop_latency_s`` (the engine's ``PolicyConfig``). Without a drop the trace
    reproduces the canonical sequence in order and its latency is the per-step delay sum. A message dropped at
    ``drop_step`` fails the run at that step after one hop of waiting; every message already delivered stays in it.
    """
    per_hop_s, messages = policy.per_hop_latency_s, []
    clock = 0.0  # the first message is sent at 0, so the clock is the latency so far
    for step in canonical_sequence(kind):
        if step.step_number == drop_step:
            return HandoverTrace(kind, tuple(messages), step.step_number, clock + per_hop_s)
        deliver_time = clock + per_hop_s
        messages.append(ProtocolMessage(step.step_number, step.kind, step.sender, step.receiver, clock, deliver_time))
        clock = deliver_time
    return HandoverTrace(kind, tuple(messages), None, clock)
