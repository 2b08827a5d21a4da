"""AHP weight derivation and network-ranking tests."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridnet.config import load_config, resolve
from hybridnet.selection import RANDOM_INDEX, derive_weights, rank_networks


# Mirrored scores under equal weights: an exact tie, both ranks 0.75.
MIRRORED_TIE = {"a": [1.5, 1.0, 0.5], "b": [0.5, 1.0, 1.5], "w": [0.5, 0.5, 0.5]}


def ratio_matrix(values):
    v = np.asarray(values, dtype=float)
    return v[:, None] / v[None, :]


class TestDeriveWeights:
    def test_all_ones_matrix(self):
        weights, cr = derive_weights(np.ones((3, 3)))
        assert weights == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
        assert cr == pytest.approx(0.0, abs=1e-9)

    def test_consistent_ratio_matrix(self):
        weights, cr = derive_weights(ratio_matrix([4.0, 2.0, 1.0]))
        assert weights == pytest.approx((4 / 7, 2 / 7, 1 / 7), abs=1e-9)
        assert cr == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_matrix_against_characteristic_polynomial(self):
        matrix = np.array([[1.0, 2.0, 4.0], [0.5, 1.0, 1.0], [0.25, 1.0, 1.0]])
        weights, cr = derive_weights(matrix)
        # characteristic-polynomial oracle for lambda_max of a 3x3 matrix
        tr = np.trace(matrix)
        minors = sum(
            matrix[i, i] * matrix[j, j] - matrix[i, j] * matrix[j, i]
            for i in range(3) for j in range(i + 1, 3)
        )
        det = np.linalg.det(matrix)
        roots = np.roots([1.0, -tr, minors, -det])
        lambda_max = max(r.real for r in roots if abs(r.imag) < 1e-9)
        assert lambda_max > 3.0
        lambda_from_cr = cr * RANDOM_INDEX[2] * (3 - 1) + 3
        assert lambda_from_cr == pytest.approx(lambda_max, rel=1e-6)
        assert cr > 0.0
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=2, max_size=9))
    @settings(max_examples=100)
    def test_consistent_matrices_recover_generators(self, values):
        weights, cr = derive_weights(ratio_matrix(values))
        expected = np.asarray(values) / sum(values)
        assert np.allclose(weights, expected, atol=1e-9)
        assert cr == pytest.approx(0.0, abs=1e-9)

    def test_non_reciprocal_rejected(self):
        with pytest.raises(ValueError):
            derive_weights([[1.0, 2.0], [0.6, 1.0]])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(ValueError):
            derive_weights([[2.0, 1.0], [1.0, 1.0]])

    def test_size_limits(self):
        with pytest.raises(ValueError):
            derive_weights([[1.0]])
        with pytest.raises(ValueError):
            derive_weights(ratio_matrix(list(range(1, 11))))

    def test_flagging_threshold(self, tmp_path):
        path = tmp_path / "ahp.yaml"
        inconsistent = np.array(
            [[1.0, 9.0, 1 / 9, 1.0], [1 / 9, 1.0, 9.0, 1.0], [9.0, 1 / 9, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
        )
        path.write_text(json.dumps({"selection": {"pairwise_matrix": inconsistent.tolist()}}))
        with pytest.raises(ValueError, match="selection.pairwise_matrix: consistency ratio"):
            resolve(load_config(path), seed=0)
        consistent = ratio_matrix([4.0, 3.0, 2.0, 1.0])
        path.write_text(json.dumps({"selection": {"pairwise_matrix": consistent.tolist()}}))
        merged = load_config(path)
        assert merged["selection"]["pairwise_matrix"] == consistent.tolist()
        assert resolve(merged, seed=0)["engine"].ahp_weights == derive_weights(consistent)[0]


class TestRankNetworks:
    def test_disjoint_columns(self):
        values, modes = ((1.0, 0.0), (0.0, 1.0)), ("benefit",) * 2
        r_lifi, r_femto, chosen = rank_networks(values, modes, (0.7, 0.3))
        assert (r_lifi, r_femto) == pytest.approx((0.7, 0.3), abs=1e-12)
        assert chosen == "lifi"

    def test_tie_prefers_femtocell(self):
        values, modes = ((1.0, 2.0), (1.0, 2.0)), ("benefit",) * 2
        _, _, chosen = rank_networks(values, modes, (0.5, 0.5))
        assert chosen == "femtocell"

    def test_hand_multiplied_example(self):
        values, modes = ((0.6, 0.2), (0.4, 0.8)), ("benefit",) * 2
        r_lifi, r_femto, chosen = rank_networks(values, modes, (0.5, 0.5))
        assert (r_lifi, r_femto) == pytest.approx((0.4, 0.6), abs=1e-12)
        assert chosen == "femtocell"

    def test_cost_mode_inverts(self):
        # lower load should score higher under cost normalization
        values, modes = ((0.2,), (0.8,)), ("cost",)
        r_lifi, r_femto, chosen = rank_networks(values, modes, (1.0,))
        assert r_lifi > r_femto
        assert chosen == "lifi"

    def test_dimension_mismatch_rejected(self):
        values, modes = ((0.5, 0.5), (0.5, 0.5)), ("benefit",) * 2
        with pytest.raises(ValueError):
            rank_networks(values, modes, (1.0,))

    def test_mirrored_exact_tie_picks_femtocell(self):
        values, w = (tuple(MIRRORED_TIE["a"]), tuple(MIRRORED_TIE["b"])), MIRRORED_TIE["w"]
        for scale, rank in ((1.0, 0.75), (32.0, 24.0)):
            assert rank_networks(values, ("benefit",) * 3, [scale * x for x in w]) == (rank, rank, "femtocell")

    # Scaling by a power of two is exact in floating point (no over- or
    # underflow here), so every rank scales exactly and the choice holds,
    # exact ties included.
    @given(
        a=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
        b=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
        w=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        k=st.integers(min_value=-6, max_value=6),
    )
    @example(**MIRRORED_TIE, k=5)  # scale 32: the tie an arbitrary float scale split
    @settings(max_examples=100)
    def test_choice_invariant_under_weight_scaling(self, a, b, w, k):
        values, modes = (tuple(a), tuple(b)), ("benefit",) * 3
        _, _, chosen = rank_networks(values, modes, w)
        _, _, chosen_scaled = rank_networks(values, modes, [2.0**k * x for x in w])
        assert chosen == chosen_scaled

    # An arbitrary float scale rounds each rank by a few ulps, and so can
    # split a near tie (scale 26.51568321828198 split MIRRORED_TIE); a
    # relative gap of 1e-12 is far wider than that rounding.
    @given(
        a=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
        b=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=3),
        w=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_choice_invariant_under_any_weight_scaling_off_ties(self, a, b, w, scale):
        values, modes = (tuple(a), tuple(b)), ("benefit",) * 3
        r_lifi, r_femto, chosen = rank_networks(values, modes, w)
        assume(abs(r_lifi - r_femto) >= 1e-12 * max(r_lifi, r_femto))
        _, _, chosen_scaled = rank_networks(values, modes, [scale * x for x in w])
        assert chosen == chosen_scaled

    @given(
        a=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6),
        b=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6),
    )
    @settings(max_examples=100)
    def test_ranks_sum_to_one_with_normalized_inputs(self, a, b):
        n = min(len(a), len(b))
        values, modes = (tuple(a[:n]), tuple(b[:n])), ("benefit",) * n
        weights = np.full(n, 1.0 / n)
        r_lifi, r_femto, _ = rank_networks(values, modes, weights)
        assert r_lifi + r_femto == pytest.approx(1.0, abs=1e-9)
