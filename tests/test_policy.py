"""Admission, handover-decision and idle-mode policy tests."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridnet import policy
from hybridnet.engine import PolicyConfig
from hybridnet.policy import (
    STAY, TO_FAP, TO_LIFI, TO_TARGET_LIFI, AdmissionDecision, admit_new_call, fap_idle_probability, fap_mode_update,
    handover_decision,
)
from hybridnet.zoning import Zone
from oracles import admit_new_call_reference, feasible_networks_reference, handover_decision_reference


LIFI, FAP = 0, 1  # AP indices: one LiFi AP with 10 slots, then the femtocell with 8
Z1, Z2, Z3, Z4 = (zone.value for zone in Zone)
ZONES = [Z1, Z2, Z3, Z4]


def make_aps(fap_free=8, lifi_free=10, fap_idle=False):
    """The free-slot list with the given free slots, and the femtocell's idle mode (idle only while empty)."""
    return [lifi_free, fap_free], fap_idle and fap_free == 8


def admit(zone, aps, voice=False):
    free, fap_idle = aps
    return admit_new_call(zone, voice, fap_idle, free, [LIFI])


def network(ap):
    return policy.FAP if ap == FAP else policy.LIFI


class TestAdmission:
    def test_zone1_data_goes_to_fap(self):
        decision, ap = admit(Z1, make_aps())
        assert decision is AdmissionDecision.ACCEPT_ON_FAP
        assert ap == FAP

    def test_voice_in_zone2_goes_to_fap(self):
        decision, _ap = admit(Z2, make_aps(), voice=True)
        assert decision is AdmissionDecision.ACCEPT_ON_FAP

    def test_zone3_idle_fap_prefers_lifi(self):
        decision, _ap = admit(Z3, make_aps(fap_idle=True))
        assert decision is AdmissionDecision.ACCEPT_ON_LIFI

    def test_zone3_active_fap_prefers_fap(self):
        decision, _ap = admit(Z3, make_aps())
        assert decision is AdmissionDecision.ACCEPT_ON_FAP

    def test_zone3_overflow_redirects_to_fap(self):
        decision, ap = admit(Z3, make_aps(lifi_free=0, fap_idle=True))
        assert decision is AdmissionDecision.REDIRECTED
        assert ap == FAP

    def test_zone2_goes_to_lifi(self):
        decision, _ap = admit(Z2, make_aps())
        assert decision is AdmissionDecision.ACCEPT_ON_LIFI

    def test_zone4_goes_to_fap(self):
        decision, _ap = admit(Z4, make_aps())
        assert decision is AdmissionDecision.ACCEPT_ON_FAP

    def test_voice_blocks_rather_than_overflowing(self):
        decision, _ap = admit(Z2, make_aps(fap_free=0), voice=True)
        assert decision is AdmissionDecision.BLOCKED

    def test_zone1_blocks_when_fap_full(self):
        decision, _ap = admit(Z1, make_aps(fap_free=0, lifi_free=10))
        assert decision is AdmissionDecision.BLOCKED

    def test_lifi_candidate_ordering_respected(self):
        free = [10, 10, 8]  # LiFi APs 0 and 1, then the femtocell
        decision, ap = admit_new_call(Z2, False, False, free, [1, 0])
        assert ap == 1
        free[1] = 0  # a full candidate is passed over
        assert admit_new_call(Z2, False, False, free, [1, 0])[1] == 0

    def test_unknown_zone_rejected(self):
        for zone in (0, 5, -1):
            with pytest.raises(ValueError, match="unknown serving network or zone"):
                admit_new_call(zone, False, False, [10, 8], [0])

    def test_table_equals_the_rule_by_rule_reference(self):
        # Two LiFi APs and the femtocell, each with 0 or 1 free slot, under every covering order.
        orders = ([], [0], [1], [0, 1], [1, 0])
        cases = list(product(ZONES, (False, True), (False, True), product((0, 1), repeat=3), orders))
        assert len(cases) == 640
        for zone, voice, fap_idle, free, covering in cases:
            assert (admit_new_call(zone, voice, fap_idle, list(free), covering)
                    == admit_new_call_reference(zone, voice, fap_idle, list(free), covering))

    def test_exhaustive_decision_table_invariants(self):
        for zone, voice, fap_free, lifi_free, fap_idle in product(
            ZONES, (False, True), (0, 1, 8), (0, 1, 10), (False, True)
        ):
            free, _ = aps = make_aps(fap_free, lifi_free, fap_idle)
            decision, ap = admit(zone, aps, voice)
            feasible = feasible_networks_reference(zone, voice)
            if decision is AdmissionDecision.BLOCKED:
                # blocked only when every feasible network is full
                assert all(free[FAP if kind == policy.FAP else LIFI] == 0 for kind in feasible)
            else:
                assert network(ap) in feasible
                if voice or zone == Z1:
                    assert ap == FAP

    @given(
        zone=st.sampled_from(ZONES),
        voice=st.booleans(),
        fap_free=st.integers(min_value=0, max_value=8),
        lifi_free=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=300)
    def test_no_voice_or_zone1_on_lifi(self, zone, voice, fap_free, lifi_free):
        decision, ap = admit(zone, make_aps(fap_free, lifi_free), voice)
        if voice or zone == Z1:
            assert ap is None or network(ap) != policy.LIFI

    def test_deterministic(self):
        results = {admit(Z3, make_aps(3, 4))[0] for _ in range(5)}
        assert len(results) == 1


def decide(kind, zone, s_serving_dB, s_target_dB, dwell_s, thresholds):
    """The batched rule on a one-row batch."""
    codes = handover_decision(np.array([kind], dtype=np.int8), np.array([zone], dtype=np.int8),
                              [s_serving_dB], [s_target_dB], [dwell_s], thresholds)
    return int(codes[0])


def around(value):
    """``value`` and the floats one ulp either side."""
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


SIGNALS = st.one_of(st.sampled_from([-math.inf, math.inf]), st.floats(allow_nan=False, allow_infinity=False))


class TestHandoverDecision:
    POLICY = PolicyConfig(t_h_s=2.0, t_h1_s=2.0)

    def test_lifi_user_entering_zone1_or_zone3(self):
        for zone in (Z1, Z3):
            decision = decide(policy.LIFI, zone, -40.0, -50.0, 0.0, self.POLICY)
            assert decision == TO_FAP

    def test_zone4_stronger_target_wins(self):
        decision = decide(policy.LIFI, Z4, -45.0, -40.0, 0.5, self.POLICY)
        assert decision == TO_TARGET_LIFI

    def test_zone4_dwell_expiry_hands_to_fap(self):
        assert decide(policy.LIFI, Z4, -40.0, -45.0, 1.9, self.POLICY) == STAY
        assert decide(policy.LIFI, Z4, -40.0, -45.0, 2.0 + 1e-6, self.POLICY) == TO_FAP

    def test_lifi_user_in_zone2_stays(self):
        assert decide(policy.LIFI, Z2, -40.0, -90.0, 100.0, self.POLICY) == STAY

    def test_fap_user_entering_zone2(self):
        assert decide(policy.FAP, Z2, -60.0, -40.0, 0.0, self.POLICY) == TO_LIFI

    def test_fap_user_zone3_dwell(self):
        assert decide(policy.FAP, Z3, -60.0, -45.0, 1.0, self.POLICY) == STAY
        assert decide(policy.FAP, Z3, -60.0, -45.0, 2.5, self.POLICY) == TO_LIFI

    def test_each_zone_reads_its_own_threshold(self):
        thresholds = PolicyConfig(t_h_s=1.0, t_h1_s=5.0)
        assert decide(policy.LIFI, Z4, -40.0, -45.0, 2.0, thresholds) == TO_FAP
        assert decide(policy.FAP, Z3, -60.0, -45.0, 2.0, thresholds) == STAY

    def test_fap_user_zone1_or_zone4_stays(self):
        for zone in (Z1, Z4):
            assert decide(policy.FAP, zone, -60.0, -45.0, 100.0, self.POLICY) == STAY

    def test_unknown_inputs_rejected(self):
        for kinds, zones in ((["wifi"], [2]), ([0], ["Z9"]), ([2], [2]), ([-1], [2]), ([0], [0]), ([1], [5]),
                             ([0, 1], [2, 9])):
            with pytest.raises(ValueError, match="unknown serving network or zone"):
                handover_decision(np.array(kinds), np.array(zones), [-60.0] * len(kinds), [-45.0] * len(kinds),
                                  [0.0] * len(kinds), self.POLICY)

    def test_empty_batch(self):
        empty = np.array([], dtype=np.int8)
        assert handover_decision(empty, empty, [], [], [], self.POLICY).tolist() == []

    @given(st.data(), st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=200)
    def test_batch_equals_the_rule_row_by_row(self, data, t_h, t_h1):
        thresholds = PolicyConfig(t_h_s=t_h, t_h1_s=t_h1)
        dwell = st.one_of(st.sampled_from(around(t_h) + around(t_h1)), st.floats(min_value=0.0, max_value=200.0))
        rows = data.draw(st.lists(st.tuples(st.sampled_from([policy.LIFI, policy.FAP]), st.sampled_from(ZONES),
                                            SIGNALS, SIGNALS, dwell), max_size=24))
        kinds, zones, s_serving, s_target, dwells = zip(*rows) if rows else ((),) * 5
        kind_codes, zone_codes = (np.array(column, dtype=np.int8) for column in (kinds, zones))
        codes = handover_decision(kind_codes, zone_codes, s_serving, s_target, dwells, thresholds)
        assert codes.tolist() == [handover_decision_reference(*row, thresholds) for row in rows]


class TestFapModeUpdate:
    def test_empty_fap_idles(self):
        # Nobody to shift; the engine then idles the empty femtocell
        # (test_engine: test_fap_idles_once_its_last_slot_is_freed).
        assert fap_mode_update(0, []) == ()

    def test_single_zone3_user_is_shifted(self):
        assert fap_mode_update(1, [(7, Z3)]) == (7,)

    def test_single_zone1_user_keeps_fap_active(self):
        assert fap_mode_update(1, [(7, Z1)]) == ()

    def test_two_users_keep_fap_active(self):
        assert fap_mode_update(2, [(1, Z3), (2, Z3)]) == ()

    def test_occupancy_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fap_mode_update(2, [(1, Z3)])

    @given(st.lists(st.sampled_from(ZONES), min_size=0, max_size=8))
    @settings(max_examples=200)
    def test_never_shifts_outside_zone3(self, zones):
        users = list(enumerate(zones))
        for uid in fap_mode_update(len(users), users):
            assert dict(users)[uid] == Z3


class TestFapIdleProbability:
    PROBS = (0.2146, 0.5, 0.0, 0.2854)  # q = 0.2146

    def test_zero_users(self):
        assert fap_idle_probability(0, self.PROBS) == 1.0

    def test_against_binomial_oracle(self):
        q = 0.2146
        oracle = math.comb(5, 0) * (1 - q) ** 5 + math.comb(5, 1) * q * (1 - q) ** 4
        assert oracle == pytest.approx(0.7071357345500899, rel=1e-12)
        assert fap_idle_probability(5, self.PROBS) == pytest.approx(oracle, rel=1e-12)

    def test_closed_form_identity(self):
        q = self.PROBS[0] + self.PROBS[2]
        for p in (1, 3, 10, 25):
            expected = (1 - q) ** p + p * q * (1 - q) ** (p - 1)
            assert fap_idle_probability(p, self.PROBS) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_users(self):
        assert fap_idle_probability(10, self.PROBS) < fap_idle_probability(5, self.PROBS)
        # p = 0 and p = 1 both evaluate to exactly 1; strict decrease starts there.
        assert fap_idle_probability(1, self.PROBS) == pytest.approx(1.0, abs=1e-15)
        values = [fap_idle_probability(p, self.PROBS) for p in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(
        q=st.floats(min_value=0.01, max_value=0.99),
        p=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=200)
    def test_strictly_decreasing_property(self, q, p):
        probs = (q / 2, (1 - q) / 2, q / 2, (1 - q) / 2)
        assert fap_idle_probability(p + 1, probs) < fap_idle_probability(p, probs)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fap_idle_probability(-1, self.PROBS)
        with pytest.raises(ValueError):
            fap_idle_probability(5, (0.5, 0.5, 0.5, 0.5))
