import pytest

from fairorder.adversary import (ByzantineClientSpec, DelayModel, apply_bribe,
                                 apply_delay, misreport_time)
from fairorder.model import FeaturePartition, ParameterError, Request, check_noise_bound, score
from fairorder.rng import Stream
from fairorder.scenario import ScenarioConfig, lint_scenario

PART = FeaturePartition.from_relevant([0], feature_count=2)


def req(rid=0, relev=0.0, eta=0.0, client=0, tick=0):
    return Request(id=rid, client_id=client, features=(relev, eta), issue_tick=tick)


class TestDelays:
    def test_constant_delay(self):
        tick, bumped = apply_delay(req(tick=5), DelayModel(kind="constant", d=2.0),
                                   Stream(0), eta_feature=1)
        assert tick == 7
        assert bumped.features[1] == 2.0

    def test_uniform_delay_support(self):
        model = DelayModel(kind="uniform", lo=0.0, hi=3.0)
        rng = Stream(1)
        for _ in range(2000):
            tick, bumped = apply_delay(req(tick=1), model, rng, eta_feature=1)
            assert 0.0 <= bumped.features[1] <= 3.0
            assert 1 <= tick <= 4

    def test_capped_tail_never_exceeds_cap(self):
        model = DelayModel(kind="capped_heavy_tail", scale=2.0, cap=3.0)
        rng = Stream(2)
        draws = [apply_delay(req(), model, rng, 1)[1].features[1] for _ in range(2000)]
        assert max(draws) <= 3.0
        assert min(draws) >= 0.0

    def test_per_client_override(self):
        model = DelayModel(kind="constant", d=1.0,
                           per_client={7: DelayModel(kind="constant", d=4.0)})
        assert model.max_delay() == 4.0
        tick, _ = apply_delay(req(client=7), model, Stream(0), 1)
        assert tick == 4

    def test_delay_lands_in_eta_not_relev(self):
        _, bumped = apply_delay(req(relev=9.0), DelayModel(kind="constant", d=2.0),
                                Stream(0), eta_feature=1)
        s = score(bumped, PART)
        assert s.relev == 9.0 and s.eta == 2.0

    def test_zero_delay_keeps_the_request(self):
        # Adding 0.0 would turn a -0.0 feature into 0.0; random and constant models agree.
        r = req(eta=-0.0, tick=3)
        for model in (DelayModel(kind="constant", d=0.0), DelayModel(kind="uniform"),
                      DelayModel(kind="capped_heavy_tail", cap=0.0)):
            assert apply_delay(r, model, Stream(0), eta_feature=1) == (3, r)
            assert str(apply_delay(r, model, Stream(0), eta_feature=1)[1].features[1]) == "-0.0"


class TestBribes:
    def test_zero_bribe_is_identity(self):
        r = req(relev=100.0)
        assert apply_bribe(r, ByzantineClientSpec(client_id=0, bribe=0.0), 1) is r

    def test_bribe_adds_to_eta_only(self):
        r = apply_bribe(req(relev=100.0), ByzantineClientSpec(client_id=0, bribe=5.0), 1)
        s = score(r, PART)
        assert s.relev == 100.0 and s.eta == 5.0

    def test_bounded_bribe_keeps_noise_assumption(self):
        lam = 5.0
        briber = apply_bribe(req(0, relev=100.0, client=1),
                             ByzantineClientSpec(client_id=1, bribe=lam), 1)
        honest = req(1, relev=100.0, client=0)
        assert check_noise_bound([briber, honest], PART, lam)

    def test_oversized_bribe_violates_assumption(self):
        lam = 5.0
        briber = apply_bribe(req(0, relev=100.0, client=1),
                             ByzantineClientSpec(client_id=1, bribe=3 * lam), 1)
        honest = req(1, relev=100.0, client=0)
        assert not check_noise_bound([briber, honest], PART, lam)


class TestMisreports:
    def test_zero_misreport_identity(self):
        r = req(tick=10)
        assert misreport_time(r, ByzantineClientSpec(client_id=0), 1) is r

    def test_declared_time_shifts_truth_remains(self):
        shifted = misreport_time(req(tick=10), ByzantineClientSpec(0, time_misreport=-3), 1)
        assert shifted.declared_tick == 7
        assert shifted.issue_tick == 10

    def test_misreport_folds_into_eta(self):
        shifted = misreport_time(req(relev=4.0, tick=10),
                                 ByzantineClientSpec(0, time_misreport=-3), 1)
        s = score(shifted, PART)
        assert s.relev == 4.0 and s.eta == -3.0

    def test_bounded_misreport_passes_validator(self):
        lam = 5.0
        a = misreport_time(req(0, relev=1.0, tick=10),
                           ByzantineClientSpec(0, time_misreport=-4), 1)
        b = req(1, relev=1.0, client=1, tick=10)
        assert check_noise_bound([a, b], PART, lam)

    def test_misreport_past_the_float_range_rejected(self):
        for shift in (10**400, -10**400):
            with pytest.raises(ParameterError, match="time_misreport"):
                ByzantineClientSpec(0, time_misreport=shift)
        assert ByzantineClientSpec(0, time_misreport=10**308).time_misreport == 10**308


class TestGroundTruthImmutability:
    def test_no_adversary_op_touches_relevant_values(self):
        rng = Stream(17)
        for _ in range(100):
            r = req(rid=rng.randrange(100), relev=float(rng.randrange(50)),
                    eta=float(rng.randrange(10)), tick=rng.randrange(20))
            spec = ByzantineClientSpec(client_id=r.client_id,
                                       time_misreport=rng.randrange(9) - 4,
                                       bribe=float(rng.randrange(8)))
            model = DelayModel(kind="uniform", lo=0.0, hi=3.0)
            mutated = misreport_time(apply_bribe(r, spec, 1), spec, 1)
            _, mutated = apply_delay(mutated, model, rng, 1)
            assert score(mutated, PART).relev == score(r, PART).relev
            assert mutated.issue_tick == r.issue_tick


class TestScenarioLint:
    def scenario(self, bribe, fee_gap=None, lam=5.0):
        fee_b = 100.0 + (fee_gap if fee_gap is not None else 0.0)
        return ScenarioConfig(
            feature_count=2, relevant=(0,), lam=lam,
            requests=(req(0, relev=100.0, client=0), req(1, relev=fee_b, client=1)),
            eta_feature=1,
            adversaries=(ByzantineClientSpec(client_id=1, bribe=bribe),),
            fee_mode=fee_gap is not None,
        )

    def test_compliant_scenario_has_no_warnings(self):
        assert lint_scenario(self.scenario(bribe=5.0)) == []

    def test_oversized_bribe_flagged(self):
        warnings = lint_scenario(self.scenario(bribe=15.0))
        assert any("assumption-violation" in w for w in warnings)

    def test_close_fee_classes_flagged_in_fee_mode(self):
        warnings = lint_scenario(self.scenario(bribe=0.0, fee_gap=20.0))
        assert any("fee-gap" in w for w in warnings)

    def test_well_separated_fees_clean(self):
        assert lint_scenario(self.scenario(bribe=0.0, fee_gap=200.0)) == []

    def test_wide_delay_model_flagged(self):
        from dataclasses import replace
        wide = replace(self.scenario(bribe=0.0),
                       delay=DelayModel(kind="uniform", lo=0.0, hi=20.0))
        warnings = lint_scenario(wide)
        assert any("delay model" in w for w in warnings)

    def test_delay_within_lambda_clean(self):
        from dataclasses import replace
        ok = replace(self.scenario(bribe=0.0),
                     delay=DelayModel(kind="uniform", lo=0.0, hi=5.0))
        assert lint_scenario(ok) == []
