import concurrent.futures
import math
from unittest import mock

import pytest

from fairorder import stats
from fairorder.model import ParameterError, Request
from fairorder.noise import order_probability_at_gap
from fairorder.scenario import (FairPolicy, ScenarioConfig, two_request_gap_scenario)
from fairorder.adversary import ByzantineClientSpec, DelayModel
from fairorder.noise import NoiseSpec
from fairorder.stats import (CSV_HEADER, FAIL, INCONCLUSIVE, PASS, FairnessReport,
                             LivenessError, MisuseError, certify_additive,
                             certify_k_ordering_equality, certify_ordering_equality,
                             estimate_order_probability, hoeffding_radius, reports_csv)


def synthetic_report(p_hat, n_trials=1_000_000, k=0.0, k_relev=0.0, confidence=0.99):
    count = round(p_hat * n_trials)
    return FairnessReport(
        pair=(0, 1), n_trials=n_trials, count_first=count, p_hat=count / n_trials,
        ratio_hat=p_hat / (1 - p_hat) if p_hat < 1 else math.inf,
        k=k, k_relev=k_relev, confidence=confidence,
        confidence_radius=hoeffding_radius(n_trials, confidence),
    )


class TestHoeffdingRadius:
    def test_reference_value(self):
        assert hoeffding_radius(10**6, 0.99) == pytest.approx(0.0016276, abs=1e-7)

    def test_quadruple_trials_halves_radius(self):
        assert hoeffding_radius(4 * 10**6, 0.99) == pytest.approx(
            hoeffding_radius(10**6, 0.99) / 2, rel=1e-12)

    def test_higher_confidence_widens(self):
        assert hoeffding_radius(1000, 0.999) > hoeffding_radius(1000, 0.99)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            hoeffding_radius(0, 0.99)
        with pytest.raises(ParameterError):
            hoeffding_radius(100, 1.0)


class TestEstimator:
    def test_deterministic_reports(self):
        scenario = two_request_gap_scenario(gap=1.0, epsilon=1.0)
        a = estimate_order_probability(scenario, (0, 1), 2000, base_seed=5)
        b = estimate_order_probability(scenario, (0, 1), 2000, base_seed=5)
        assert a == b

    def test_parallel_jobs_match_serial(self):
        scenario = two_request_gap_scenario(gap=1.0, epsilon=1.0)
        serial = estimate_order_probability(scenario, (0, 1), 3000, 11, jobs=1)
        parallel = estimate_order_probability(scenario, (0, 1), 3000, 11, jobs=2)
        assert serial == parallel

    def test_parallel_jobs_match_serial_on_random_delays(self):
        # Each worker reads the plan, delay models included, of a pickled Prepared.
        reqs = tuple(Request(id=i, client_id=i, features=(float(i % 2), 0.0), issue_tick=i // 2)
                     for i in range(4))
        scenario = ScenarioConfig(
            feature_count=2, relevant=(0,), lam=1.0, requests=reqs, eta_feature=1,
            delay=DelayModel(kind="uniform", lo=0.0, hi=3.0),
            policy=FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)))
        serial = estimate_order_probability(scenario, (0, 2), 3000, 11, jobs=1)
        parallel = estimate_order_probability(scenario, (0, 2), 3000, 11, jobs=2)
        assert serial == parallel

    def test_jobs_are_capped_at_the_cpu_count(self):
        # The pool forks all max_workers up front, so --jobs 100000 would fork that many.
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        scenario = two_request_gap_scenario(gap=1.0, epsilon=1.0)
        serial = estimate_order_probability(scenario, (0, 1), 3000, 11, jobs=1)
        with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", SerialPool), \
                mock.patch.object(stats.os, "cpu_count", return_value=3):
            capped = estimate_order_probability(scenario, (0, 1), 3000, 11, jobs=100_000)
        assert pools == [3] and capped == serial

    def test_agrees_with_closed_form(self):
        scenario = two_request_gap_scenario(gap=1.0, epsilon=1.0)
        n = 20_000
        report = estimate_order_probability(scenario, (0, 1), n, 101)
        expected = order_probability_at_gap(1.0, 1.0)[0]
        assert report.p_hat == pytest.approx(expected, abs=3 * report.confidence_radius)

    def test_swapping_pair_complements_p_hat(self):
        scenario = two_request_gap_scenario(gap=1.0, epsilon=1.0)
        fwd = estimate_order_probability(scenario, (0, 1), 2000, 7)
        rev = estimate_order_probability(scenario, (1, 0), 2000, 7)
        assert fwd.count_first + rev.count_first == 2000
        assert fwd.k == rev.k
        v_fwd = certify_k_ordering_equality(fwd, 1.0)
        v_rev = certify_k_ordering_equality(rev, 1.0)
        assert v_fwd.verdict == v_rev.verdict

    def test_k_comes_from_pre_mechanism_scores(self):
        scenario = two_request_gap_scenario(gap=2.0, epsilon=1.0, lam=3.0, eta_b=1.5)
        report = estimate_order_probability(scenario, (0, 1), 10, 0)
        # score gap = 2*lam + 1.5 = 7.5; k = 7.5/3; relev-only diagnostic = 2
        assert report.k == pytest.approx(2.5)
        assert report.k_relev == pytest.approx(2.0)

    @pytest.mark.parametrize("second,third", [
        (DelayModel(d=3.0), None),
        (DelayModel(kind="uniform", hi=3.0), None),
        (DelayModel(d=3.0), DelayModel(kind="uniform", hi=1.0)),
    ], ids=["constant", "random", "constant_beside_a_draw"])
    def test_k_includes_constant_delays_only(self, second, third):
        # Client 1's constant delay of 3 is in its pre-mechanism eta feature, whatever
        # client 2 draws; a random one has no single value and is left out.
        requests = [Request(0, 0, (0.0, 0.0), 0), Request(1, 1, (0.0, 0.0), 0)]
        per_client = {1: second}
        if third is not None:
            requests.append(Request(2, 2, (0.0, 0.0), 0))
            per_client[2] = third
        scenario = ScenarioConfig(
            feature_count=2, relevant=(0,), lam=1.0, requests=tuple(requests),
            eta_feature=1, delay=DelayModel(per_client=per_client),
            policy=FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)),
        )
        report = estimate_order_probability(scenario, (0, 1), 10, 0)
        assert report.k == (3.0 if second.kind == "constant" else 0.0)

    def test_single_trial_is_degenerate(self):
        scenario = two_request_gap_scenario(gap=0.0, epsilon=1.0)
        report = estimate_order_probability(scenario, (0, 1), 1, 3)
        assert report.p_hat in (0.0, 1.0)
        certified = certify_ordering_equality(report, 1.0)
        assert certified.verdict == INCONCLUSIVE

    def test_missing_request_raises_liveness_error(self):
        scenario = ScenarioConfig(
            feature_count=2, relevant=(0,), lam=1.0,
            requests=(Request(0, 0, (0.0, 0.0), 0), Request(1, 1, (0.0, 0.0), 0)),
            eta_feature=1,
            policy=FairPolicy(spec=None),
            deliver_overrides={1: None},
        )
        with pytest.raises(LivenessError):
            estimate_order_probability(scenario, (0, 1), 10, 0)

    def test_unknown_pair_rejected(self):
        scenario = two_request_gap_scenario()
        with pytest.raises(ParameterError):
            estimate_order_probability(scenario, (0, 9), 10, 0)

    def test_bribe_beyond_lambda_is_out_of_contract(self):
        scenario = ScenarioConfig(
            feature_count=2, relevant=(0,), lam=1.0,
            requests=(Request(0, 0, (5.0, 0.0), 0), Request(1, 1, (5.0, 0.0), 0)),
            eta_feature=1,
            adversaries=(ByzantineClientSpec(client_id=1, bribe=3.0),),
            policy=FairPolicy(spec=NoiseSpec(kind="laplace", epsilon=1.0, sensitivity=1.0)),
        )
        report = estimate_order_probability(scenario, (0, 1), 100, 0)
        assert not report.in_contract


class TestMultiplicativeCertifier:
    def test_exact_half_passes_any_epsilon(self):
        for eps in (0.05, 1.0, 3.0):
            assert certify_ordering_equality(synthetic_report(0.5), eps).verdict == PASS

    def test_worst_case_adjacent_gap_passes(self):
        # ratio 2.6244 stays under e
        report = synthetic_report(0.7241, k=1.0)
        assert certify_ordering_equality(report, 1.0).verdict == PASS

    def test_blatant_violation_fails(self):
        # ratio 4 > e with a negligible radius
        report = synthetic_report(0.8, n_trials=10**8)
        assert certify_ordering_equality(report, 1.0).verdict == FAIL

    def test_non_adjacent_pair_is_misuse(self):
        report = synthetic_report(0.7, k=2.0, k_relev=2.0)
        with pytest.raises(MisuseError):
            certify_ordering_equality(report, 1.0)

    def test_near_bound_small_sample_inconclusive(self):
        # true ratio just above the bound but only 100 trials
        report = synthetic_report(0.93, n_trials=100)
        assert certify_ordering_equality(report, 1.0).verdict == INCONCLUSIVE


class TestKCertifier:
    def test_k_zero_reduces_to_plain_equality(self):
        report = synthetic_report(0.5)
        assert certify_k_ordering_equality(report, 1.0, k=0.0).verdict == PASS

    def test_unit_gap_certifies_against_e(self):
        report = synthetic_report(0.72409, k=1.0)
        certified = certify_k_ordering_equality(report, 1.0)
        assert certified.bound == pytest.approx(math.e)
        assert certified.verdict == PASS

    def test_wrong_k_fails(self):
        # true gap 2*lam but certified at k=1: analytic p = 0.8647 vs thr 0.731
        p = order_probability_at_gap(2.0, 1.0)[0]
        report = synthetic_report(p, n_trials=100_000, k=2.0, k_relev=2.0)
        assert certify_k_ordering_equality(report, 1.0, k=1.0).verdict == FAIL

    def test_right_k_passes(self):
        p = order_probability_at_gap(2.0, 1.0)[0]
        report = synthetic_report(p, n_trials=100_000, k=2.0, k_relev=2.0)
        assert certify_k_ordering_equality(report, 1.0).verdict == PASS

    def test_enormous_k_is_vacuous_not_overflow(self):
        report = synthetic_report(0.9999, k=1000.0, k_relev=1000.0)
        certified = certify_k_ordering_equality(report, 4.0)
        assert certified.bound == math.inf
        assert certified.verdict == PASS


class TestAdditiveCertifier:
    def test_delta_one_is_vacuous(self):
        assert certify_additive(synthetic_report(0.999), 0.0, 1.0).verdict == PASS

    def test_zero_delta_zero_epsilon_demands_equality(self):
        report = synthetic_report(0.6, n_trials=10**8)
        assert certify_additive(report, 0.0, 0.0).verdict == FAIL

    def test_uniform_mechanism_gap_within_delta(self):
        # |2p - 1| = delta - delta^2/4 under the uniform mechanism: passes
        delta = 0.05
        p = 0.5 + (delta - delta * delta / 4) / 2
        report = synthetic_report(p)
        assert certify_additive(report, 0.0, delta).verdict == PASS

    def test_rejects_bad_delta(self):
        with pytest.raises(ParameterError):
            certify_additive(synthetic_report(0.5), 0.0, 1.5)


class TestInContractCertificationNeverFails:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gap", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_derived_k_certifies_engine_runs(self, epsilon, gap):
        """Runs honoring the noise bound always certify at their own k."""
        scenario = two_request_gap_scenario(gap=gap, epsilon=epsilon)
        report = estimate_order_probability(scenario, (0, 1), 20_000,
                                            base_seed=int(1000 * (gap + 10 * epsilon)))
        certified = certify_k_ordering_equality(report, epsilon)
        assert certified.k == pytest.approx(gap)
        assert certified.verdict == PASS


class TestReportCsv:
    def test_header_and_row_shape(self):
        report = certify_ordering_equality(synthetic_report(0.5), 1.0)
        text = reports_csv([report])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "0" and fields[1] == "1"
        assert fields[-1] == PASS
        assert text.endswith("\n")
