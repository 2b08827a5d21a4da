"""Handover call-flow conformance, fault injection and trace replay tests."""

import dataclasses
import math

import pytest

from hybridnet.cli import _csv_text
from hybridnet.protocol import (
    TRACE_CSV_HEADER, FaultPlan, HandoverKind, HandoverTrace, MessageKind,
    ProtocolMessage, canonical_sequence, run_handover, validate_trace,
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


class TestRunHandover:
    def test_zero_latency_bus(self):
        trace = run_handover(HandoverKind.LIFI_TO_LIFI, per_hop_s=0.0)
        assert trace.complete
        assert len(trace.messages) == 27
        assert trace.latency_s == 0.0

    def test_uniform_latency_sums_per_hop(self):
        trace = run_handover(HandoverKind.LIFI_TO_FEMTO, per_hop_s=0.005)
        assert trace.latency_s == pytest.approx(25 * 0.005, rel=1e-12)

    @pytest.mark.parametrize("per_hop_s", [-1.0, math.nan, math.inf])
    def test_negative_per_hop_rejected(self, per_hop_s):
        with pytest.raises(ValueError, match="per-hop latency"):
            run_handover(HandoverKind.LIFI_TO_LIFI, per_hop_s=per_hop_s)

    def test_fault_free_traces_validate(self):
        for kind in HandoverKind:
            trace = run_handover(kind, per_hop_s=0.001)
            assert trace.complete
            assert validate_trace(trace) is None

    def test_dropped_response_fails_and_preserves_serving_link(self):
        plan = FaultPlan(drop_counts={11: 1})
        trace = run_handover(HandoverKind.FEMTO_TO_LIFI, per_hop_s=0.005, fault_plan=plan)
        assert trace.outcome == "failed"
        assert trace.failed_step == 11
        assert len(trace.messages) == 10
        assert all(m.kind is not MessageKind.LINK_DELETE for m in trace.messages)
        assert validate_trace(trace) is None  # a failed prefix is still well-formed

    def test_retry_budget_recovers_single_drop(self):
        plan = FaultPlan(drop_counts={7: 1}, retry_budget={MessageKind.HO_REQUEST: 1})
        trace = run_handover(HandoverKind.LIFI_TO_LIFI, per_hop_s=0.005, fault_plan=plan)
        assert trace.complete
        assert trace.latency_s == pytest.approx(28 * 0.005, rel=1e-12)  # one resend adds a hop

    def test_retry_budget_exhausts(self):
        plan = FaultPlan(drop_counts={7: 2}, retry_budget={MessageKind.HO_REQUEST: 1})
        trace = run_handover(HandoverKind.LIFI_TO_LIFI, per_hop_s=0.005, fault_plan=plan)
        assert trace.outcome == "failed" and trace.failed_step == 7


def _renumber(messages):
    return tuple(
        dataclasses.replace(m, step_number=i + 1, send_time_s=float(i), deliver_time_s=float(i) + 0.5)
        for i, m in enumerate(messages)
    )


class TestValidateTrace:
    def base(self, kind=HandoverKind.LIFI_TO_LIFI):
        return run_handover(kind, per_hop_s=0.001)

    def test_detach_before_response_violates(self):
        trace = self.base()
        msgs = list(trace.messages)
        detach = next(m for m in msgs if m.kind is MessageKind.DETACH)
        msgs.remove(detach)
        msgs.insert(5, detach)  # before the request/response exchange
        bad = dataclasses.replace(trace, messages=_renumber(msgs))
        violation = validate_trace(bad)
        assert violation is not None
        assert "detach" in violation.reason

    def test_duplicate_complete_violates(self):
        trace = self.base()
        msgs = list(trace.messages)
        complete = next(m for m in msgs if m.kind is MessageKind.HO_COMPLETE)
        msgs.append(complete)
        bad = dataclasses.replace(trace, messages=_renumber(msgs))
        violation = validate_trace(bad)
        assert violation is not None

    def test_delete_before_complete_violates(self):
        trace = self.base()
        msgs = list(trace.messages)
        delete = msgs[-1]
        msgs.remove(delete)
        msgs.insert(2, delete)
        bad = dataclasses.replace(trace, messages=_renumber(msgs))
        violation = validate_trace(bad)
        assert violation is not None
        assert "delete" in violation.reason

    def test_missing_complete_is_invalid(self):
        trace = self.base()
        msgs = [m for m in trace.messages if m.kind is not MessageKind.HO_COMPLETE]
        bad = dataclasses.replace(trace, messages=_renumber(msgs))
        assert validate_trace(bad) is not None

    def test_response_before_cac_violates(self):
        trace = self.base()
        msgs = [m for m in trace.messages if m.kind is not MessageKind.CAC_CHECK]
        bad = dataclasses.replace(trace, messages=_renumber(msgs))
        violation = validate_trace(bad)
        assert violation is not None
        assert "CAC" in violation.reason

    def test_non_serial_timing_violates(self):
        trace = self.base()
        msgs = list(trace.messages)
        msgs[3] = dataclasses.replace(msgs[3], send_time_s=0.0, deliver_time_s=0.0001)
        bad = dataclasses.replace(trace, messages=tuple(msgs))
        violation = validate_trace(bad)
        assert violation is not None

    @pytest.mark.parametrize("time_s", [math.nan, math.inf])
    def test_non_finite_time_violates(self, time_s):
        trace = self.base()
        msgs = list(trace.messages)
        msgs[-1] = dataclasses.replace(msgs[-1], send_time_s=time_s, deliver_time_s=time_s)
        violation = validate_trace(dataclasses.replace(trace, messages=tuple(msgs)))
        assert violation is not None
        assert "finite" in violation.reason

    def test_wrong_sender_violates(self):
        trace = self.base()
        msgs = list(trace.messages)
        msgs[6] = dataclasses.replace(msgs[6], sender="ue")
        bad = dataclasses.replace(trace, messages=tuple(msgs))
        assert validate_trace(bad) is not None


class TestRandomizedFaultSafety:
    def test_random_fault_plans_respect_safety(self):
        import numpy as np

        gen = np.random.Generator(np.random.PCG64(2024))
        kinds = list(HandoverKind)
        for _ in range(500):
            kind = kinds[int(gen.integers(len(kinds)))]
            n_steps = STEP_COUNTS[kind]
            drops = {int(gen.integers(1, n_steps + 1)): int(gen.integers(1, 3)) for _ in range(int(gen.integers(0, 3)))}
            budget = {MessageKind.HO_REQUEST: int(gen.integers(0, 2)), MessageKind.LINK_SETUP: int(gen.integers(0, 2))}
            trace = run_handover(kind, per_hop_s=0.005, fault_plan=FaultPlan(drops, budget))
            assert validate_trace(trace) is None
            completes = [m for m in trace.messages if m.kind is MessageKind.HO_COMPLETE]
            assert len(completes) <= 1
            deletes = [m for m in trace.messages if m.kind is MessageKind.LINK_DELETE]
            if deletes:
                assert completes, "serving link deleted without completion"


class TestTraceCsv:
    def test_round_trip(self):
        trace = run_handover(HandoverKind.FEMTO_TO_LIFI, per_hop_s=0.002)
        text = _csv_text(TRACE_CSV_HEADER, trace.csv_rows())  # as `trace --out` writes it
        assert text.splitlines()[0] == "step,kind,from,to,t_send,t_deliver"
        assert len(text.splitlines()) == 27  # header + 26 steps
        back = trace_from_csv(text, HandoverKind.FEMTO_TO_LIFI)
        assert back.messages == trace.messages
        assert validate_trace(back) is None

    def test_rejects_unknown_header(self):
        with pytest.raises(ValueError):
            trace_from_csv("a,b,c\n", HandoverKind.LIFI_TO_LIFI)

    def test_message_timing_invariant(self):
        with pytest.raises(ValueError):
            ProtocolMessage(1, MessageKind.SYNC, "ue", "fap", 1.0, 0.5)
