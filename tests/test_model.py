import math

import pytest
from hypothesis import given, strategies as st

from oracles import pairwise_noise_bound
from fairorder.model import (DimensionMismatchError, FeaturePartition, ParameterError,
                             Request, Score, adjacent, check_noise_bound, k_distance,
                             max_eta_gap, score)

PART = FeaturePartition.from_relevant([0], feature_count=2)


def req(rid, features, client=None, tick=0):
    return Request(id=rid, client_id=client if client is not None else rid,
                   features=tuple(features), issue_tick=tick)


class TestAdjacency:
    def test_identical_requests_are_adjacent(self):
        r = req(0, [5.0, 1.0])
        assert adjacent(r, r, PART)

    def test_irrelevant_index_is_ignored(self):
        assert adjacent(req(0, [5.0, 1.0]), req(1, [5.0, 9.0]), PART)

    def test_relevant_difference_breaks_adjacency(self):
        assert not adjacent(req(0, [5.0, 1.0]), req(1, [6.0, 1.0]), PART)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            adjacent(req(0, [5.0]), req(1, [5.0, 1.0]), PART)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=6))
    def test_equivalence_relation(self, pairs):
        """Reflexive, symmetric, and transitive for any fixed partition."""
        reqs = [req(i, [float(a), float(b)]) for i, (a, b) in enumerate(pairs)]
        for a in reqs:
            assert adjacent(a, a, PART)
            for b in reqs:
                assert adjacent(a, b, PART) == adjacent(b, a, PART)
                for c in reqs:
                    if adjacent(a, b, PART) and adjacent(b, c, PART):
                        assert adjacent(a, c, PART)


class TestScore:
    def test_simple_sum(self):
        s = score(req(0, [5.0, 2.0]), PART)
        assert (s.relev, s.eta, s.total) == (5.0, 2.0, 7.0)

    def test_zero_case(self):
        s = score(req(0, [0.0, 0.0]), PART)
        assert (s.relev, s.eta, s.total) == (0.0, 0.0, 0.0)

    def test_three_features(self):
        part = FeaturePartition.from_relevant([0, 2], feature_count=3)
        s = score(req(0, [3.0, -1.0, 0.5]), part)
        assert (s.relev, s.eta, s.total) == (3.5, -1.0, 2.5)

    def test_total_is_exact_sum(self):
        with pytest.raises(ParameterError):
            Score(relev=1.0, eta=2.0, total=3.5)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_additivity_over_irrelevant_change(self, relev, eta, bump):
        """Shifting an irrelevant feature moves eta and total equally."""
        base = score(req(0, [relev, eta]), PART)
        bumped = score(req(0, [relev, eta + bump]), PART)
        assert bumped.relev == base.relev
        assert bumped.eta == eta + bump
        assert bumped.total == relev + (eta + bump)


class TestKDistance:
    def test_arithmetic(self):
        assert k_distance(Score(10.0, 0.0), Score(13.0, 0.0), 3.0) == 1.0

    def test_equal_totals(self):
        assert k_distance(Score(4.0, 1.0), Score(2.0, 3.0), 2.0) == 0.0

    def test_fractional(self):
        assert k_distance(Score(0.0, 0.0), Score(7.5, 0.0), 3.0) == 2.5

    def test_rejects_bad_lambda(self):
        with pytest.raises(ParameterError):
            k_distance(Score(0.0, 0.0), Score(1.0, 0.0), 0.0)

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(0.1, 10))
    def test_symmetry_and_identity(self, a, b, lam):
        sa, sb = Score(a, 0.0), Score(b, 0.0)
        assert k_distance(sa, sb, lam) == k_distance(sb, sa, lam)
        assert k_distance(sa, sa, lam) == 0.0


class TestNoiseBound:
    def test_boundary_equality_passes(self):
        reqs = [req(0, [5.0, 1.0]), req(1, [5.0, 3.0])]
        assert check_noise_bound(reqs, PART, 2.0)

    def test_exceeded_bound_fails(self):
        reqs = [req(0, [5.0, 1.0]), req(1, [5.0, 3.0])]
        assert not check_noise_bound(reqs, PART, 1.9)

    def test_non_adjacent_pairs_are_vacuous(self):
        reqs = [req(0, [5.0, 0.0]), req(1, [6.0, 100.0])]
        assert check_noise_bound(reqs, PART, 0.5)

    def test_empty_and_singleton_vacuous(self):
        assert check_noise_bound([], PART, 1.0)
        assert check_noise_bound([req(0, [1.0, 1.0])], PART, 1.0)

    def test_bounded_pair_has_k_at_most_one(self):
        """Adjacent pair inside the bound implies normalized distance <= 1."""
        lam = 2.0
        r1, r2 = req(0, [5.0, 1.0]), req(1, [5.0, 3.0])
        assert check_noise_bound([r1, r2], PART, lam)
        assert k_distance(score(r1, PART), score(r2, PART), lam) <= 1.0

    def test_signed_zero_relevant_values_are_adjacent(self):
        reqs = [req(0, [-0.0, 0.0]), req(1, [0.0, 3.0])]
        assert not check_noise_bound(reqs, PART, 2.0)

    def test_nan_relevant_value_is_adjacent_to_nothing(self):
        reqs = [req(0, [math.nan, 0.0]), req(1, [math.nan, 3.0]), req(2, [1.0, 0.0])]
        assert check_noise_bound(reqs, PART, 2.0)

    def test_dimension_mismatch_raised(self):
        with pytest.raises(DimensionMismatchError):
            check_noise_bound([req(0, [1.0, 0.0]), req(1, [1.0])], PART, 1.0)

    @given(
        relevant=st.sets(st.integers(0, 2), max_size=2),
        rows=st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, math.nan,
                                                math.inf, -math.inf]),
                               min_size=3, max_size=3), max_size=8),
        lam=st.sampled_from([0.5, 1.0, 2.0, 3.5, math.inf]),
    )
    def test_grouped_check_equals_pairwise_reference(self, relevant, rows, lam):
        part = FeaturePartition.from_relevant(relevant, feature_count=3)
        reqs = [req(i, feats) for i, feats in enumerate(rows)]
        assert check_noise_bound(reqs, part, lam) == pairwise_noise_bound(reqs, part, lam)

    def test_max_eta_gap_diagnostic_covers_all_pairs(self):
        reqs = [req(0, [5.0, 0.0]), req(1, [6.0, 100.0]), req(2, [5.0, 1.0])]
        assert max_eta_gap(reqs, PART) == 100.0


class TestPartition:
    def test_overlap_rejected(self):
        with pytest.raises(ParameterError):
            FeaturePartition({0}, {0, 1})

    def test_out_of_range_relevant(self):
        with pytest.raises(ParameterError):
            FeaturePartition.from_relevant([5], feature_count=2)
