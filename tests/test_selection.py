"""AHP weight derivation and network-ranking tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridnet.config import load_config, resolve
from hybridnet.selection import LOAD_FLOOR, RANDOM_INDEX, derive_weights, rank_networks


# Mirrored scores under equal weights: an exact tie, both ranks 1.0.
MIRRORED_TIE = {"a": [1.5, 1.0, 0.5, 1.0], "b": [0.5, 1.0, 1.5, 1.0], "w": [0.5, 0.5, 0.5, 0.5]}


def ratio_matrix(values):
    v = np.asarray(values, dtype=float)
    return v[:, None] / v[None, :]


class TestDeriveWeights:
    def test_all_ones_matrix(self):
        weights, cr = derive_weights(np.ones((4, 4)))
        assert weights == pytest.approx((1 / 4, 1 / 4, 1 / 4, 1 / 4), abs=1e-12)
        assert cr == pytest.approx(0.0, abs=1e-9)

    def test_consistent_ratio_matrix(self):
        weights, cr = derive_weights(ratio_matrix([4.0, 2.0, 1.0, 1.0]))
        assert weights == pytest.approx((4 / 8, 2 / 8, 1 / 8, 1 / 8), abs=1e-9)
        assert cr == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_matrix_against_characteristic_polynomial(self):
        matrix = np.array([[1.0, 2.0, 4.0, 2.0], [0.5, 1.0, 1.0, 1.0], [0.25, 1.0, 1.0, 0.5], [0.5, 1.0, 2.0, 1.0]])
        weights, cr = derive_weights(matrix)
        # eigenvalue oracle for lambda_max: the largest real root of the characteristic polynomial
        roots = np.linalg.eigvals(matrix)
        lambda_max = max(r.real for r in roots if abs(r.imag) < 1e-9)
        assert lambda_max > 4.0
        lambda_from_cr = cr * RANDOM_INDEX * (4 - 1) + 4
        assert lambda_from_cr == pytest.approx(lambda_max, rel=1e-6)
        assert cr > 0.0
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_consistent_matrices_recover_generators(self, values):
        weights, cr = derive_weights(ratio_matrix(values))
        expected = np.asarray(values) / sum(values)
        assert np.allclose(weights, expected, atol=1e-9)
        assert cr == pytest.approx(0.0, abs=1e-9)

    def test_non_reciprocal_rejected(self):
        with pytest.raises(ValueError, match="reciprocal"):
            derive_weights([[1.0, 2.0, 1.0, 1.0], [0.6, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            derive_weights([[2.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])

    def test_size_limits(self):
        # One row and column per criterion: any other size, or a ragged list, is rejected naming 4x4.
        ragged = [[1.0, 1.0, 1.0, 1.0]] * 3 + [[1.0, 1.0, 1.0]]
        for matrix in (ratio_matrix([3.0, 2.0, 1.0]), ratio_matrix([5.0, 4.0, 3.0, 2.0, 1.0]), ragged):
            with pytest.raises(ValueError, match="expected 4x4, one row and column per criterion"):
                derive_weights(matrix)

    def test_flagging_threshold(self, tmp_path):
        path = tmp_path / "ahp.yaml"
        inconsistent = np.array(
            [[1.0, 9.0, 1 / 9, 1.0], [1 / 9, 1.0, 9.0, 1.0], [9.0, 1 / 9, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
        )
        with pytest.raises(ValueError, match="consistency ratio"):
            derive_weights(inconsistent)
        path.write_text(json.dumps({"selection": {"pairwise_matrix": inconsistent.tolist()}}))
        with pytest.raises(ValueError, match="selection.pairwise_matrix: consistency ratio"):
            resolve(load_config(path), seed=0)
        consistent = ratio_matrix([4.0, 3.0, 2.0, 1.0])
        path.write_text(json.dumps({"selection": {"pairwise_matrix": consistent.tolist()}}))
        merged = load_config(path)
        assert merged["selection"]["pairwise_matrix"] == consistent.tolist()
        assert resolve(merged, seed=0)["engine"].selection.weights == derive_weights(consistent)[0]


class TestRankNetworks:
    def test_disjoint_columns(self):
        # The mobility column is all zeros and stays so; the load weighs nothing.
        values = ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0))
        r_lifi, r_femto, chosen = rank_networks(values, (0.7, 0.3, 0.0, 0.0))
        assert (r_lifi, r_femto) == pytest.approx((0.7, 0.3), abs=1e-12)
        assert chosen == "lifi"

    def test_tie_prefers_femtocell(self):
        values = ((1.0, 2.0, 0.5, 0.3), (1.0, 2.0, 0.5, 0.3))
        _, _, chosen = rank_networks(values, (0.25, 0.25, 0.25, 0.25))
        assert chosen == "femtocell"

    def test_hand_multiplied_example(self):
        # Loads 0.2 and 0.8 invert to 5 and 1.25, which normalize to 0.8 and 0.2.
        values = ((0.6, 0.2, 0.3, 0.2), (0.4, 0.8, 0.7, 0.8))
        r_lifi, r_femto, chosen = rank_networks(values, (0.25, 0.25, 0.25, 0.25))
        assert (r_lifi, r_femto) == pytest.approx((0.475, 0.525), abs=1e-12)
        assert chosen == "femtocell"

    def test_cost_mode_inverts(self):
        # the load is the one cost: the lower load scores higher
        values = ((1.0, 1.0, 1.0, 0.2), (1.0, 1.0, 1.0, 0.8))
        r_lifi, r_femto, chosen = rank_networks(values, (0.0, 0.0, 0.0, 1.0))
        assert r_lifi > r_femto
        assert chosen == "lifi"

    def test_zero_load_is_floored(self):
        # An empty network's load counts as LOAD_FLOOR: inverted, it is twice a load of 2 * LOAD_FLOOR.
        values = ((1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 2 * LOAD_FLOOR))
        r_lifi, r_femto, chosen = rank_networks(values, (0.0, 0.0, 0.0, 1.0))
        assert (r_lifi, r_femto, chosen) == (pytest.approx(2 / 3, abs=1e-12), pytest.approx(1 / 3, abs=1e-12), "lifi")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rank_networks(((0.5,) * 4, (0.5,) * 4), (1.0,))
        with pytest.raises(ValueError):
            rank_networks(((0.5,) * 3, (0.5,) * 3), (0.25,) * 4)
        with pytest.raises(ValueError):
            rank_networks(((0.5,) * 4,) * 3, (0.25,) * 4)

    @pytest.mark.parametrize("score", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_score_rejected(self, score):
        with pytest.raises(ValueError, match="finite and non-negative"):
            rank_networks(((score, 1.0, 0.3, 0.5), (1.0, 1.0, 0.7, 0.5)), (0.25,) * 4)

    def test_mirrored_exact_tie_picks_femtocell(self):
        values, w = (tuple(MIRRORED_TIE["a"]), tuple(MIRRORED_TIE["b"])), MIRRORED_TIE["w"]
        for scale, rank in ((1.0, 1.0), (32.0, 32.0)):
            assert rank_networks(values, [scale * x for x in w]) == (rank, rank, "femtocell")

    # Scaling by a power of two is exact in floating point (no over- or
    # underflow here), so every rank scales exactly and the choice holds,
    # exact ties included.
    @given(
        a=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
        b=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
        w=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
        k=st.integers(min_value=-6, max_value=6),
    )
    @example(**MIRRORED_TIE, k=5)  # an exact tie at scale 32
    @settings(max_examples=100)
    def test_choice_invariant_under_weight_scaling(self, a, b, w, k):
        values = (tuple(a), tuple(b))
        _, _, chosen = rank_networks(values, w)
        _, _, chosen_scaled = rank_networks(values, [2.0**k * x for x in w])
        assert chosen == chosen_scaled

    # An arbitrary float scale rounds each rank by a few ulps, and so can
    # split a near tie; a relative gap of 1e-12 is far wider than that
    # rounding.
    @given(
        a=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
        b=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
        w=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_choice_invariant_under_any_weight_scaling_off_ties(self, a, b, w, scale):
        values = (tuple(a), tuple(b))
        r_lifi, r_femto, chosen = rank_networks(values, w)
        assume(abs(r_lifi - r_femto) >= 1e-12 * max(r_lifi, r_femto))
        _, _, chosen_scaled = rank_networks(values, [scale * x for x in w])
        assert chosen == chosen_scaled

    @given(
        a=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
        b=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
    )
    @settings(max_examples=100)
    def test_ranks_sum_to_one_with_normalized_inputs(self, a, b):
        r_lifi, r_femto, _ = rank_networks((tuple(a), tuple(b)), np.full(4, 0.25))
        assert r_lifi + r_femto == pytest.approx(1.0, abs=1e-9)
