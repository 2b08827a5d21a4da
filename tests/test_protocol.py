"""Handover call-flow conformance, safety rules on the step tables, dropped steps and trace replay tests."""

import math

import pytest

from hybridnet import protocol
from hybridnet.cli import _csv_text
from hybridnet.engine import PolicyConfig
from hybridnet.protocol import (
    TRACE_CSV_HEADER, HandoverKind, MessageKind, ProtocolMessage, canonical_sequence, run_handover,
)
from oracles import trace_from_csv

STEP_COUNTS = {
    HandoverKind.LIFI_TO_FEMTO: 25,
    HandoverKind.FEMTO_TO_LIFI: 26,
    HandoverKind.LIFI_TO_LIFI: 27,
}


class TestCanonicalSequences:
    @pytest.mark.parametrize("kind,count", STEP_COUNTS.items())
    def test_step_counts(self, kind, count):
        steps = canonical_sequence(kind)
        assert len(steps) == count
        assert [s.step_number for s in steps] == list(range(1, count + 1))
        assert canonical_sequence(kind) is steps  # built once, at import

    @pytest.mark.parametrize("kind", list(HandoverKind))
    def test_exactly_one_complete_message(self, kind):
        kinds = [s.kind for s in canonical_sequence(kind)]
        assert kinds.count(MessageKind.HO_COMPLETE) == 1

    @pytest.mark.parametrize("kind", list(HandoverKind))
    def test_cac_precedes_response_and_delete_is_last(self, kind):
        steps = canonical_sequence(kind)
        kinds = [s.kind for s in steps]
        assert kinds.index(MessageKind.CAC_CHECK) < kinds.index(MessageKind.HO_RESPONSE)
        assert kinds.index(MessageKind.HO_COMPLETE) < kinds.index(MessageKind.LINK_DELETE)
        assert all(k is MessageKind.LINK_DELETE for k in kinds[-3:])

    def test_lifi_to_femto_key_steps(self):
        steps = canonical_sequence(HandoverKind.LIFI_TO_FEMTO)
        assert steps[8].kind is MessageKind.CAC_CHECK and steps[8].sender == "fap"
        assert steps[9].kind is MessageKind.HO_RESPONSE
        assert steps[17].kind is MessageKind.DETACH and steps[17].receiver == "serving_lifi"

    def test_auth_check_present_only_when_target_is_lifi(self):
        def has_auth(kind):
            return any(s.kind is MessageKind.AUTH_CHECK for s in canonical_sequence(kind))

        assert not has_auth(HandoverKind.LIFI_TO_FEMTO)
        assert has_auth(HandoverKind.FEMTO_TO_LIFI)
        assert has_auth(HandoverKind.LIFI_TO_LIFI)


def _moved(rows, kind, before):
    """``rows`` with every row of ``kind`` moved, in order, to just before the first row of ``before`` (None: the end)."""
    rest = [row for row in rows if row[0] is not kind]
    at = len(rest) if before is None else next(i for i, row in enumerate(rest) if row[0] is before)
    return rest[:at] + [row for row in rows if row[0] is kind] + rest[at:]


K = MessageKind
FLOW = protocol._CALL_FLOW
BROKEN_FLOWS = {
    "response-before-cac": (_moved(FLOW, K.CAC_CHECK, K.DETACH), "handover response before CAC check"),
    "detach-before-response": (_moved(FLOW, K.DETACH, K.HO_RESPONSE), "detach before handover response"),
    "delete-before-complete": (_moved(FLOW, K.LINK_DELETE, K.HO_COMPLETE),
                               "serving-link delete before handover complete"),
    "delete-before-sync": (_moved(FLOW, K.SYNC, None), "serving-link delete before target sync"),
    "no-complete": ([row for row in FLOW if row[0] is not K.HO_COMPLETE], "exactly one handover-complete"),
    "two-completes": ([*FLOW, next(row for row in FLOW if row[0] is K.HO_COMPLETE)], "exactly one handover-complete"),
}


class TestSafetyRulesOnTheTables:
    @pytest.mark.parametrize("kind", list(HandoverKind))
    @pytest.mark.parametrize("broken", BROKEN_FLOWS, ids=list(BROKEN_FLOWS))
    def test_broken_table_raises_with_the_rules_reason(self, monkeypatch, broken, kind):
        rows, reason = BROKEN_FLOWS[broken]
        monkeypatch.setattr(protocol, "_CALL_FLOW", tuple(rows))
        with pytest.raises(ValueError, match=reason):
            protocol._bind(protocol._ROLES[kind])


class TestConformance:
    @pytest.mark.parametrize("kind", list(HandoverKind))
    def test_every_trace_is_a_serial_prefix_of_its_table(self, kind):
        steps = canonical_sequence(kind)
        per_hop_s = 0.005
        for drop_step in [None, *range(1, len(steps) + 1)]:
            trace = run_handover(kind, PolicyConfig(per_hop_latency_s=per_hop_s), drop_step)
            delivered = len(steps) if drop_step is None else drop_step - 1
            assert [(m.step_number, m.kind, m.sender, m.receiver) for m in trace.messages] == [
                (s.step_number, s.kind, s.sender, s.receiver) for s in steps[:delivered]]
            clock = 0.0
            for message in trace.messages:
                assert message.send_time_s == clock and math.isfinite(message.deliver_time_s)
                clock = message.deliver_time_s
            # A complete run ends at its last delivery; a failed one waits one more hop for the dropped step.
            assert trace.latency_s == (clock if drop_step is None else clock + per_hop_s)
            assert trace.latency_s == pytest.approx((delivered + (drop_step is not None)) * per_hop_s, rel=1e-12)
            assert (trace.failed_step, trace.complete) == (drop_step, drop_step is None)


class TestRunHandover:
    def test_zero_latency_bus(self):
        trace = run_handover(HandoverKind.LIFI_TO_LIFI, PolicyConfig(per_hop_latency_s=0.0))
        assert trace.complete
        assert len(trace.messages) == 27
        assert trace.latency_s == 0.0

    def test_uniform_latency_sums_per_hop(self):
        trace = run_handover(HandoverKind.LIFI_TO_FEMTO, PolicyConfig(per_hop_latency_s=0.005))
        assert trace.latency_s == pytest.approx(25 * 0.005, rel=1e-12)

    @pytest.mark.parametrize("per_hop_s", [-1.0, math.nan, math.inf])
    def test_negative_per_hop_rejected(self, per_hop_s):
        with pytest.raises(ValueError, match="^per_hop_latency_s: must be non-negative and finite"):
            PolicyConfig(per_hop_latency_s=per_hop_s)

    def test_fault_free_traces_validate(self):
        for kind in HandoverKind:
            trace = run_handover(kind, PolicyConfig(per_hop_latency_s=0.001))
            assert (trace.complete, trace.outcome, trace.failed_step) == (True, "complete", None)
            assert len(trace.messages) == STEP_COUNTS[kind]

    def test_dropped_response_fails_and_preserves_serving_link(self):
        trace = run_handover(HandoverKind.FEMTO_TO_LIFI, PolicyConfig(per_hop_latency_s=0.005), drop_step=11)
        assert trace.outcome == "failed" and not trace.complete
        assert trace.failed_step == 11
        assert len(trace.messages) == 10
        assert all(m.kind is not MessageKind.LINK_DELETE for m in trace.messages)
        assert trace.latency_s == pytest.approx(11 * 0.005, rel=1e-12)  # ten hops delivered, one waited for


class TestTraceCsv:
    def test_round_trip(self):
        trace = run_handover(HandoverKind.FEMTO_TO_LIFI, PolicyConfig(per_hop_latency_s=0.002))
        text = _csv_text(TRACE_CSV_HEADER, trace.csv_rows())  # as `trace --out` writes it
        assert text.splitlines()[0] == "step,kind,from,to,t_send,t_deliver"
        assert len(text.splitlines()) == 27  # header + 26 steps
        assert trace_from_csv(text, HandoverKind.FEMTO_TO_LIFI) == trace

    def test_rejects_unknown_header(self):
        with pytest.raises(ValueError):
            trace_from_csv("a,b,c\n", HandoverKind.LIFI_TO_LIFI)

    def test_message_timing_invariant(self):
        with pytest.raises(ValueError):
            ProtocolMessage(1, MessageKind.SYNC, "ue", "fap", 1.0, 0.5)
