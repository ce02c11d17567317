"""Pinned output bytes of the CLI commands.

`sweep` and `certify`: the expected strings are the output of the
engine-only estimator, which runs the full engine for every seed; the
exact pair kernel must reproduce them byte for byte. The configs cover
every path the estimator can take: the kernel deciding from noise draws
(Laplace, bounded Laplace, uniform, both directions), a different-tick
pair, fcfs and ttl pairs, a zero-noise pair whose every seed ties and
runs through the engine, and random delays (the bench's certify shape
with gating on and off and in both directions, and per-client constant,
uniform and capped heavy-tail models with a delivery override).

`run`, `check` and `quorum`: the expected strings were recorded from the
engine that visited every tick up to the horizon and built each snapshot
in place. The first three scenarios cover a fair policy with random
delays, a ttl policy with per-client delay models and a request that is
never delivered, and a static schedule (zero and constant delays)
replicated to a quorum with one Byzantine server. The last two were
recorded from the engine that rescanned the pending set for every
order: a zero-noise fair burst whose ties the pick stream breaks, and a
ttl run released in partial bursts while stragglers are in flight.
"""

import json

import pytest

from fairorder.cli import main


def _pair_doc(clients, noise, policy, pair, n_trials=3000, base_seed=5, **extra):
    doc = {
        "feature_count": 2,
        "relevant": [0],
        "lambda": 1.0,
        "eta_feature": 1,
        "clients": [
            {"id": cid, "requests": [{"id": rid, "issue_tick": tick, "features": feats}]}
            for cid, (rid, tick, feats) in enumerate(clients)
        ],
        "delay": {"kind": "constant", "d": 0},
        "policy": policy,
        "trials": {"n_trials": n_trials, "base_seed": base_seed, "pair": list(pair)},
    }
    if noise is not None:
        doc["noise"] = noise
    doc.update(extra)
    return doc


LAPLACE = {"kind": "laplace", "epsilon": 1.0, "sensitivity": 1.0}
TWO = [(0, 0, [0.0, 0.0]), (1, 0, [1.0, 0.0])]
THREE = [(0, 0, [0.0, 0.0]), (1, 0, [0.5, 0.0]), (2, 1, [0.25, 0.0])]

SWEEP_DOC = {"sweep": {"epsilons": [0.5, 2.0], "gaps": [0.0, 1.5], "n_trials": 3000,
                       "base_seed": 19, "lambda": 2.0}}

CERTIFY_DOCS = {
    "laplace_constant_delay": _pair_doc(TWO, LAPLACE, {"kind": "fair"}, (0, 1),
                                        delay={"kind": "constant", "d": 1.5}),
    "bounded_highest_first_bribe": _pair_doc(
        THREE, {"kind": "bounded_laplace", "epsilon": 0.7, "sensitivity": 1.0, "bound": 3.0},
        {"kind": "fair", "direction": "highest_first"}, (1, 0),
        adversaries=[{"client_id": 1, "bribe": 0.5}], deliver_overrides={"2": 4}),
    "different_ticks": _pair_doc(THREE, LAPLACE, {"kind": "fair"}, (2, 0),
                                 deliver_overrides={"2": 4}),
    "uniform_additive": _pair_doc(
        TWO, {"kind": "uniform", "epsilon": 1.0, "sensitivity": 1.0, "bound": 2.0},
        {"kind": "fair"}, (1, 0), base_seed=8),
    "zero_noise_tie": _pair_doc([(0, 0, [0.0, 0.0]), (1, 0, [0.0, 0.0])], None,
                                {"kind": "fair"}, (0, 1), n_trials=400),
    "ttl_gating_off": _pair_doc(TWO, None, {"kind": "ttl", "deadline_feature": 0}, (1, 0),
                                n_trials=50, stability_gating=False),
    "fcfs": _pair_doc(TWO, None, {"kind": "fcfs"}, (0, 1), n_trials=50),
    "random_delay": _pair_doc(TWO, LAPLACE, {"kind": "fair"}, (0, 1), n_trials=1000,
                              delay={"kind": "uniform", "lo": 0.0, "hi": 2.0}),
}

# (issue tick, relevant value) per single-request client; clients 0 and 1 are adjacent.
DELAY_CLIENTS = [(0, 7.0), (1, 7.0), (0, 3.0), (1, 12.0), (0, 7.0), (1, 18.0), (1, 0.0), (0, 9.0)]


def _delay_doc(policy=None, n_trials=2000, **extra):
    doc = {
        "feature_count": 2, "relevant": [0], "lambda": 5.0, "eta_feature": 1,
        "clients": [{"id": cid, "requests": [{"id": cid, "issue_tick": tick,
                                              "features": [rel, 0.0]}]}
                    for cid, (tick, rel) in enumerate(DELAY_CLIENTS)],
        "delay": {"kind": "uniform", "lo": 0, "hi": 3},
        "adversaries": [{"client_id": 1, "bribe": 2.0}],
        "noise": {"kind": "bounded_laplace", "epsilon": 1.0, "sensitivity": 5.0, "bound": 15.0},
        "policy": policy or {"kind": "fair", "direction": "highest_first"},
        "trials": {"n_trials": n_trials, "base_seed": 3, "confidence": 0.99, "pair": [0, 1]},
    }
    doc.update(extra)
    return doc


CERTIFY_DOCS.update({
    "delay_highest_first": _delay_doc(),
    "delay_gating_off": _delay_doc(stability_gating=False),
    "delay_lowest_first": _delay_doc({"kind": "fair", "direction": "lowest_first"}),
    "delay_mixed_clients": _delay_doc(
        delay={"kind": "capped_heavy_tail", "scale": 1.0, "cap": 4,
               "per_client": {"0": {"kind": "constant", "d": 1.5},
                              "3": {"kind": "uniform", "lo": 0, "hi": 2}}},
        deliver_overrides={"6": 5}),
})

# (exit code, report.csv, stdout)
GOLDEN_SWEEP = (
    0,
    'epsilon,n,analytic_p,p_hat,ratio,bound,verdict\n'
    '0.5,0.0,0.5,0.49133333333333334,0.9659239842726083,1.0,pass\n'
    '0.5,1.5,0.6752479949905523,0.67,2.0303030303030307,2.117000016612675,pass\n'
    '2.0,0.0,0.5,0.494,0.9762845849802372,1.0,pass\n'
    '2.0,1.5,0.93776616454017,0.9443333333333334,16.964071856287433,20.085536923187668,pass\n',
    'epsilon,n,analytic_p,p_hat,ratio,bound,verdict\n'
    '0.5,0.0,0.5,0.49133333333333334,0.9659239842726083,1.0,pass\n'
    '0.5,1.5,0.6752479949905523,0.67,2.0303030303030307,2.117000016612675,pass\n'
    '2.0,0.0,0.5,0.494,0.9762845849802372,1.0,pass\n'
    '2.0,1.5,0.93776616454017,0.9443333333333334,16.964071856287433,20.085536923187668,pass\n',
)

GOLDEN_CERTIFY = {
    'delay_gating_off': (
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,2000,1514,0.757,0.4,1.0,2.718281828459045,0.03639477080072093,pass\n',
        'pair=(0, 1) p_hat=0.757000 k=0.4 bound=2.71828 verdict=pass\n',
    ),
    'delay_highest_first': (
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,2000,747,0.3735,0.4,1.0,2.718281828459045,0.03639477080072093,pass\n',
        'pair=(0, 1) p_hat=0.373500 k=0.4 bound=2.71828 verdict=pass\n',
    ),
    'delay_lowest_first': (
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,2000,1253,0.6265,0.4,1.0,2.718281828459045,0.03639477080072093,pass\n',
        'pair=(0, 1) p_hat=0.626500 k=0.4 bound=2.71828 verdict=pass\n',
    ),
    'delay_mixed_clients': (  # k reads client 0's constant delay 1.5 beside the drawn ones
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,2000,798,0.399,0.1,1.0,2.718281828459045,0.03639477080072093,pass\n',
        'pair=(0, 1) p_hat=0.399000 k=0.1 bound=2.71828 verdict=pass\n',
    ),
    'bounded_highest_first_bribe': (
        3,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '1,0,3000,2175,0.725,1.0,0.7,2.0137527074704766,0.02971620592243688,inconclusive\n',
        'pair=(1, 0) p_hat=0.725000 k=1 bound=2.01375 verdict=inconclusive\n',
    ),
    'different_ticks': (
        1,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '2,0,3000,0,0.0,0.25,1.0,1.2840254166877414,0.02971620592243688,fail\n',
        'pair=(2, 0) p_hat=0.000000 k=0.25 bound=1.28403 verdict=fail\n',
    ),
    'fcfs': (
        3,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,50,50,1.0,1.0,1.0,2.718281828459045,0.23018074130013647,inconclusive\n',
        'pair=(0, 1) p_hat=1.000000 k=1 bound=2.71828 verdict=inconclusive\n',
    ),
    'laplace_constant_delay': (
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,3000,2214,0.738,1.0,1.0,2.718281828459045,0.02971620592243688,pass\n',
        'pair=(0, 1) p_hat=0.738000 k=1 bound=2.71828 verdict=pass\n',
    ),
    'random_delay': (
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,1000,714,0.714,1.0,1.0,2.718281828459045,0.051469978465839845,pass\n',
        'warning: assumption-violation: delay model can spread eta by 2, beyond lambda 1\n'
        'pair=(0, 1) p_hat=0.714000 k=1 bound=2.71828 verdict=pass\n',
    ),
    'ttl_gating_off': (
        3,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '1,0,50,0,0.0,1.0,1.0,2.718281828459045,0.23018074130013647,inconclusive\n',
        'pair=(1, 0) p_hat=0.000000 k=1 bound=2.71828 verdict=inconclusive\n',
    ),
    'uniform_additive': (
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '1,0,3000,824,0.27466666666666667,1.0,0.0,1.0,0.02971620592243688,pass\n',
        'pair=(1, 0) p_hat=0.274667 k=1 bound=1 verdict=pass\n',
    ),
    'zero_noise_tie': (
        0,
        'pair_a,pair_b,n_trials,count_first,p_hat,k,epsilon,bound,radius,verdict\n'
        '0,1,400,202,0.505,0.0,1.0,2.718281828459045,0.08138118153593646,pass\n',
        'pair=(0, 1) p_hat=0.505000 k=0 bound=2.71828 verdict=pass\n',
    ),
}


def _run(tmp_path, command, doc, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = main([command, "--config", str(config), "--out", str(tmp_path)])
    return code, (tmp_path / "report.csv").read_text(), capsys.readouterr().out


def test_sweep_bytes_are_pinned(tmp_path, capsys):
    assert _run(tmp_path, "sweep", SWEEP_DOC, capsys) == GOLDEN_SWEEP


@pytest.mark.parametrize("name", sorted(CERTIFY_DOCS))
def test_certify_bytes_are_pinned(tmp_path, capsys, name):
    assert _run(tmp_path, "certify", CERTIFY_DOCS[name], capsys) == GOLDEN_CERTIFY[name]


TRACE_SEED = 11

TRACE_DOCS = {
    "fair_uniform": {
        "feature_count": 2, "relevant": [0], "lambda": 2.0, "eta_feature": 1,
        "clients": [
            {"id": c, "requests": [
                {"id": 3 * c + k, "issue_tick": 4 * k + c, "features": [float((5 * c + 3 * k) % 4), -0.0]}
                for k in range(3)]}
            for c in range(3)
        ],
        "delay": {"kind": "uniform", "lo": 0, "hi": 3},
        "noise": {"kind": "laplace", "epsilon": 1.0, "sensitivity": 2.0},
        "policy": {"kind": "fair"},
        "multi_server": {"n": 4, "f": 1, "lags": [0, 1, 3, 2]},
    },
    "ttl_per_client": {
        "feature_count": 3, "relevant": [0], "lambda": 4.0, "eta_feature": 1,
        "clients": [
            {"id": c, "requests": [
                {"id": 2 * c + k, "issue_tick": 3 * k + c,
                 "features": [float(c % 2), 0.0, float((7 * c + 5 * k) % 6)]}
                for k in range(2)]}
            for c in range(4)
        ],
        "delay": {"kind": "uniform", "lo": 0, "hi": 2,
                  "per_client": {"1": {"kind": "constant", "d": 2},
                                 "2": {"kind": "capped_heavy_tail", "scale": 1.0, "cap": 4}}},
        "policy": {"kind": "ttl", "deadline_feature": 2},
        "deliver_overrides": {"4": None},
        "multi_server": {"n": 4, "f": 1, "lags": [1, 0, 2, 0]},
    },
    "quorum_byzantine": {
        "feature_count": 2, "relevant": [0], "lambda": 1.0, "eta_feature": 1,
        "clients": [
            {"id": c, "requests": [
                {"id": 2 * c + k, "issue_tick": 2 * k, "features": [float((c + k) % 3), 0.0]}
                for k in range(2)]}
            for c in range(3)
        ],
        "delay": {"kind": "constant", "d": 1.5, "per_client": {"0": {"kind": "constant", "d": 0}}},
        "noise": {"kind": "bounded_laplace", "epsilon": 1.0, "sensitivity": 1.0, "bound": 2.0},
        "policy": {"kind": "fair"},
        "multi_server": {"n": 4, "f": 1, "lags": [0, 2, 1, 0], "byzantine_servers": [2]},
    },
    # No noise, relevant values 0-2 and whole-unit constant delays: perceived totals
    # tie in groups of up to five. Request 17 is held in flight until tick 12, so all
    # 18 requests are ordered in one burst and the pick stream breaks every tie.
    "fair_tie_burst": {
        "feature_count": 2, "relevant": [0], "lambda": 4.0, "eta_feature": 1,
        "clients": [
            {"id": c, "requests": [
                {"id": 3 * c + k, "issue_tick": (c + 2 * k) % 5,
                 "features": [float((c + k) % 3), 0.0]}
                for k in range(3)]}
            for c in range(6)
        ],
        "delay": {"kind": "constant", "d": 1, "per_client": {"4": {"kind": "constant", "d": 2}}},
        "policy": {"kind": "fair"},
        "deliver_overrides": {"17": 12},
        "multi_server": {"n": 4, "f": 1, "lags": [0, 1, 2, 3]},
    },
    # Deadlines (feature 2) spread over 0-9 with ties, broken by id. Stragglers with
    # mid-range deadlines arrive late (overrides at ticks 7, 10 and 14), so the pending
    # set is released in several partial bursts while they are still in flight.
    "ttl_partial_bursts": {
        "feature_count": 3, "relevant": [0], "lambda": 4.0, "eta_feature": 1,
        "clients": [
            {"id": c, "requests": [
                {"id": 2 * c + k, "issue_tick": (3 * c + k) % 4,
                 "features": [float(c % 3), 0.0, float((3 * c + 7 * k) % 10)]}
                for k in range(2)]}
            for c in range(9)
        ],
        "delay": {"kind": "uniform", "lo": 0, "hi": 2},
        "policy": {"kind": "ttl", "deadline_feature": 2},
        "deliver_overrides": {"5": 7, "8": 10, "13": 14},
        "multi_server": {"n": 4, "f": 1, "lags": [2, 0, 1, 0]},
    },
}

GOLDEN_TRACES = {
    'fair_uniform': {
        'run': (
            0,
            {
                'trace.txt': (
                    '# fairorder-trace v1 seed=11 horizon=17\n'
                    '0,issue,0\n'
                    '1,issue,3\n'
                    '2,issue,6\n'
                    '3,deliver,0\n'
                    '3,deliver,3\n'
                    '4,issue,1\n'
                    '5,issue,4\n'
                    '5,deliver,1\n'
                    '5,deliver,6\n'
                    '6,issue,7\n'
                    '6,deliver,4\n'
                    '7,deliver,7\n'
                    '7,order,3\n'
                    '7,order,1\n'
                    '7,order,4\n'
                    '7,order,0\n'
                    '7,order,6\n'
                    '7,order,7\n'
                    '8,issue,2\n'
                    '9,issue,5\n'
                    '9,deliver,2\n'
                    '10,issue,8\n'
                    '10,deliver,5\n'
                    '13,deliver,8\n'
                    '13,order,5\n'
                    '13,order,2\n'
                    '13,order,8\n'
                    'order:3,1,4,0,6,7,5,2,8\n'
                ),
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'warning: assumption-violation: delay model can spread eta by 3, beyond lambda 2\n'
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'check': (
            0,
            {
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'quorum': (
            0,
            {
                'verdicts.txt': 'prefix_consistency,pass,\n',
                'view.txt': (
                    '# fairorder-view v1 n=4 f=1 correct=0,1,2,3\n'
                    '0,3,deliver,0\n'
                    '0,3,deliver,3\n'
                    '0,5,deliver,1\n'
                    '0,5,deliver,6\n'
                    '0,6,deliver,4\n'
                    '0,7,deliver,7\n'
                    '0,7,order,3\n'
                    '0,7,order,1\n'
                    '0,7,order,4\n'
                    '0,7,order,0\n'
                    '0,7,order,6\n'
                    '0,7,order,7\n'
                    '0,9,deliver,2\n'
                    '0,10,deliver,5\n'
                    '0,13,deliver,8\n'
                    '0,13,order,5\n'
                    '0,13,order,2\n'
                    '0,13,order,8\n'
                    'order:0:3,1,4,0,6,7,5,2,8\n'
                    '1,4,deliver,0\n'
                    '1,4,deliver,3\n'
                    '1,6,deliver,1\n'
                    '1,6,deliver,6\n'
                    '1,7,deliver,4\n'
                    '1,8,deliver,7\n'
                    '1,8,order,3\n'
                    '1,8,order,1\n'
                    '1,8,order,4\n'
                    '1,8,order,0\n'
                    '1,8,order,6\n'
                    '1,8,order,7\n'
                    '1,10,deliver,2\n'
                    '1,11,deliver,5\n'
                    '1,14,deliver,8\n'
                    '1,14,order,5\n'
                    '1,14,order,2\n'
                    '1,14,order,8\n'
                    'order:1:3,1,4,0,6,7,5,2,8\n'
                    '2,6,deliver,0\n'
                    '2,6,deliver,3\n'
                    '2,8,deliver,1\n'
                    '2,8,deliver,6\n'
                    '2,9,deliver,4\n'
                    '2,10,deliver,7\n'
                    '2,10,order,3\n'
                    '2,10,order,1\n'
                    '2,10,order,4\n'
                    '2,10,order,0\n'
                    '2,10,order,6\n'
                    '2,10,order,7\n'
                    '2,12,deliver,2\n'
                    '2,13,deliver,5\n'
                    '2,16,deliver,8\n'
                    '2,16,order,5\n'
                    '2,16,order,2\n'
                    '2,16,order,8\n'
                    'order:2:3,1,4,0,6,7,5,2,8\n'
                    '3,5,deliver,0\n'
                    '3,5,deliver,3\n'
                    '3,7,deliver,1\n'
                    '3,7,deliver,6\n'
                    '3,8,deliver,4\n'
                    '3,9,deliver,7\n'
                    '3,9,order,3\n'
                    '3,9,order,1\n'
                    '3,9,order,4\n'
                    '3,9,order,0\n'
                    '3,9,order,6\n'
                    '3,9,order,7\n'
                    '3,11,deliver,2\n'
                    '3,12,deliver,5\n'
                    '3,15,deliver,8\n'
                    '3,15,order,5\n'
                    '3,15,order,2\n'
                    '3,15,order,8\n'
                    'order:3:3,1,4,0,6,7,5,2,8\n'
                ),
            },
            'prefix_consistency,pass,\n',
        ),
    },
    'quorum_byzantine': {
        'run': (
            0,
            {
                'trace.txt': (
                    '# fairorder-trace v1 seed=11 horizon=7\n'
                    '0,issue,0\n'
                    '0,issue,2\n'
                    '0,issue,4\n'
                    '0,deliver,0\n'
                    '2,issue,1\n'
                    '2,issue,3\n'
                    '2,issue,5\n'
                    '2,deliver,1\n'
                    '2,deliver,2\n'
                    '2,deliver,4\n'
                    '4,deliver,3\n'
                    '4,deliver,5\n'
                    '4,order,1\n'
                    '4,order,5\n'
                    '4,order,0\n'
                    '4,order,2\n'
                    '4,order,4\n'
                    '4,order,3\n'
                    'order:1,5,0,2,4,3\n'
                ),
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'warning: assumption-violation: delay model can spread eta by 1.5, beyond lambda 1\n'
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'check': (
            0,
            {
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'quorum': (
            0,
            {
                'verdicts.txt': 'prefix_consistency,pass,\n',
                'view.txt': (
                    '# fairorder-view v1 n=4 f=1 correct=0,1,3\n'
                    '0,0,deliver,0\n'
                    '0,2,deliver,1\n'
                    '0,2,deliver,2\n'
                    '0,2,deliver,4\n'
                    '0,4,deliver,3\n'
                    '0,4,deliver,5\n'
                    '0,4,order,1\n'
                    '0,4,order,5\n'
                    '0,4,order,0\n'
                    '0,4,order,2\n'
                    '0,4,order,4\n'
                    '0,4,order,3\n'
                    'order:0:1,5,0,2,4,3\n'
                    '1,2,deliver,0\n'
                    '1,4,deliver,1\n'
                    '1,4,deliver,2\n'
                    '1,4,deliver,4\n'
                    '1,6,deliver,3\n'
                    '1,6,deliver,5\n'
                    '1,6,order,1\n'
                    '1,6,order,5\n'
                    '1,6,order,0\n'
                    '1,6,order,2\n'
                    '1,6,order,4\n'
                    '1,6,order,3\n'
                    'order:1:1,5,0,2,4,3\n'
                    '2,0,deliver,0\n'
                    '2,0,deliver,1\n'
                    '2,0,deliver,2\n'
                    '2,0,deliver,3\n'
                    '2,0,deliver,4\n'
                    '2,0,deliver,5\n'
                    '2,0,order,3\n'
                    '2,0,order,4\n'
                    '2,0,order,2\n'
                    '2,0,order,0\n'
                    '2,0,order,5\n'
                    '2,0,order,1\n'
                    'order:2:3,4,2,0,5,1\n'
                    '3,0,deliver,0\n'
                    '3,2,deliver,1\n'
                    '3,2,deliver,2\n'
                    '3,2,deliver,4\n'
                    '3,4,deliver,3\n'
                    '3,4,deliver,5\n'
                    '3,4,order,1\n'
                    '3,4,order,5\n'
                    '3,4,order,0\n'
                    '3,4,order,2\n'
                    '3,4,order,4\n'
                    '3,4,order,3\n'
                    'order:3:1,5,0,2,4,3\n'
                ),
            },
            'prefix_consistency,pass,\n',
        ),
    },
    'ttl_per_client': {
        'run': (
            1,
            {
                'trace.txt': (
                    '# fairorder-trace v1 seed=11 horizon=12\n'
                    '0,issue,0\n'
                    '1,issue,2\n'
                    '2,issue,4\n'
                    '2,deliver,0\n'
                    '2,order,0\n'
                    '3,issue,1\n'
                    '3,issue,6\n'
                    '3,deliver,2\n'
                    '3,order,2\n'
                    '4,issue,3\n'
                    '4,deliver,1\n'
                    '5,issue,5\n'
                    '5,deliver,6\n'
                    '6,issue,7\n'
                    '6,deliver,3\n'
                    '6,order,3\n'
                    '7,deliver,5\n'
                    '7,deliver,7\n'
                    '7,order,5\n'
                    'order:0,2,3,5\n'
                ),
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,fail,12;1\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'warning: assumption-violation: adjacent eta gap exceeds lambda (max eta gap over all pairs 5, lambda 4)\n'
                'order_determinism,pass,\n'
                'non_blocking,fail,12;1\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'check': (
            1,
            {
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,fail,12;1\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'order_determinism,pass,\n'
                'non_blocking,fail,12;1\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'quorum': (
            0,
            {
                'verdicts.txt': 'prefix_consistency,pass,\n',
                'view.txt': (
                    '# fairorder-view v1 n=4 f=1 correct=0,1,2,3\n'
                    '0,3,deliver,0\n'
                    '0,3,order,0\n'
                    '0,4,deliver,2\n'
                    '0,4,order,2\n'
                    '0,5,deliver,1\n'
                    '0,6,deliver,6\n'
                    '0,7,deliver,3\n'
                    '0,7,order,3\n'
                    '0,8,deliver,5\n'
                    '0,8,deliver,7\n'
                    '0,8,order,5\n'
                    'order:0:0,2,3,5\n'
                    '1,2,deliver,0\n'
                    '1,2,order,0\n'
                    '1,3,deliver,2\n'
                    '1,3,order,2\n'
                    '1,4,deliver,1\n'
                    '1,5,deliver,6\n'
                    '1,6,deliver,3\n'
                    '1,6,order,3\n'
                    '1,7,deliver,5\n'
                    '1,7,deliver,7\n'
                    '1,7,order,5\n'
                    'order:1:0,2,3,5\n'
                    '2,4,deliver,0\n'
                    '2,4,order,0\n'
                    '2,5,deliver,2\n'
                    '2,5,order,2\n'
                    '2,6,deliver,1\n'
                    '2,7,deliver,6\n'
                    '2,8,deliver,3\n'
                    '2,8,order,3\n'
                    '2,9,deliver,5\n'
                    '2,9,deliver,7\n'
                    '2,9,order,5\n'
                    'order:2:0,2,3,5\n'
                    '3,2,deliver,0\n'
                    '3,2,order,0\n'
                    '3,3,deliver,2\n'
                    '3,3,order,2\n'
                    '3,4,deliver,1\n'
                    '3,5,deliver,6\n'
                    '3,6,deliver,3\n'
                    '3,6,order,3\n'
                    '3,7,deliver,5\n'
                    '3,7,deliver,7\n'
                    '3,7,order,5\n'
                    'order:3:0,2,3,5\n'
                ),
            },
            'prefix_consistency,pass,\n',
        ),
    },
    'fair_tie_burst': {
        'run': (
            0,
            {
                'trace.txt': (
                    '# fairorder-trace v1 seed=11 horizon=15\n'
                    '0,issue,0\n'
                    '0,issue,5\n'
                    '0,issue,10\n'
                    '0,issue,15\n'
                    '1,issue,3\n'
                    '1,issue,8\n'
                    '1,issue,13\n'
                    '1,deliver,0\n'
                    '1,deliver,5\n'
                    '1,deliver,10\n'
                    '1,deliver,15\n'
                    '2,issue,1\n'
                    '2,issue,6\n'
                    '2,issue,11\n'
                    '2,issue,16\n'
                    '2,deliver,3\n'
                    '2,deliver,8\n'
                    '3,issue,4\n'
                    '3,issue,9\n'
                    '3,issue,14\n'
                    '3,deliver,1\n'
                    '3,deliver,6\n'
                    '3,deliver,11\n'
                    '3,deliver,13\n'
                    '3,deliver,16\n'
                    '4,issue,2\n'
                    '4,issue,7\n'
                    '4,issue,12\n'
                    '4,issue,17\n'
                    '4,deliver,4\n'
                    '4,deliver,9\n'
                    '5,deliver,2\n'
                    '5,deliver,7\n'
                    '5,deliver,14\n'
                    '6,deliver,12\n'
                    '12,deliver,17\n'
                    '12,order,7\n'
                    '12,order,0\n'
                    '12,order,17\n'
                    '12,order,5\n'
                    '12,order,16\n'
                    '12,order,9\n'
                    '12,order,10\n'
                    '12,order,14\n'
                    '12,order,8\n'
                    '12,order,1\n'
                    '12,order,3\n'
                    '12,order,15\n'
                    '12,order,2\n'
                    '12,order,4\n'
                    '12,order,11\n'
                    '12,order,6\n'
                    '12,order,12\n'
                    '12,order,13\n'
                    'order:7,0,17,5,16,9,10,14,8,1,3,15,2,4,11,6,12,13\n'
                ),
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'check': (
            0,
            {
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'quorum': (
            0,
            {
                'verdicts.txt': 'prefix_consistency,pass,\n',
                'view.txt': (
                    '# fairorder-view v1 n=4 f=1 correct=0,1,2,3\n'
                    '0,1,deliver,0\n'
                    '0,1,deliver,5\n'
                    '0,1,deliver,10\n'
                    '0,1,deliver,15\n'
                    '0,2,deliver,3\n'
                    '0,2,deliver,8\n'
                    '0,3,deliver,1\n'
                    '0,3,deliver,6\n'
                    '0,3,deliver,11\n'
                    '0,3,deliver,13\n'
                    '0,3,deliver,16\n'
                    '0,4,deliver,4\n'
                    '0,4,deliver,9\n'
                    '0,5,deliver,2\n'
                    '0,5,deliver,7\n'
                    '0,5,deliver,14\n'
                    '0,6,deliver,12\n'
                    '0,12,deliver,17\n'
                    '0,12,order,7\n'
                    '0,12,order,0\n'
                    '0,12,order,17\n'
                    '0,12,order,5\n'
                    '0,12,order,16\n'
                    '0,12,order,9\n'
                    '0,12,order,10\n'
                    '0,12,order,14\n'
                    '0,12,order,8\n'
                    '0,12,order,1\n'
                    '0,12,order,3\n'
                    '0,12,order,15\n'
                    '0,12,order,2\n'
                    '0,12,order,4\n'
                    '0,12,order,11\n'
                    '0,12,order,6\n'
                    '0,12,order,12\n'
                    '0,12,order,13\n'
                    'order:0:7,0,17,5,16,9,10,14,8,1,3,15,2,4,11,6,12,13\n'
                    '1,2,deliver,0\n'
                    '1,2,deliver,5\n'
                    '1,2,deliver,10\n'
                    '1,2,deliver,15\n'
                    '1,3,deliver,3\n'
                    '1,3,deliver,8\n'
                    '1,4,deliver,1\n'
                    '1,4,deliver,6\n'
                    '1,4,deliver,11\n'
                    '1,4,deliver,13\n'
                    '1,4,deliver,16\n'
                    '1,5,deliver,4\n'
                    '1,5,deliver,9\n'
                    '1,6,deliver,2\n'
                    '1,6,deliver,7\n'
                    '1,6,deliver,14\n'
                    '1,7,deliver,12\n'
                    '1,13,deliver,17\n'
                    '1,13,order,7\n'
                    '1,13,order,0\n'
                    '1,13,order,17\n'
                    '1,13,order,5\n'
                    '1,13,order,16\n'
                    '1,13,order,9\n'
                    '1,13,order,10\n'
                    '1,13,order,14\n'
                    '1,13,order,8\n'
                    '1,13,order,1\n'
                    '1,13,order,3\n'
                    '1,13,order,15\n'
                    '1,13,order,2\n'
                    '1,13,order,4\n'
                    '1,13,order,11\n'
                    '1,13,order,6\n'
                    '1,13,order,12\n'
                    '1,13,order,13\n'
                    'order:1:7,0,17,5,16,9,10,14,8,1,3,15,2,4,11,6,12,13\n'
                    '2,3,deliver,0\n'
                    '2,3,deliver,5\n'
                    '2,3,deliver,10\n'
                    '2,3,deliver,15\n'
                    '2,4,deliver,3\n'
                    '2,4,deliver,8\n'
                    '2,5,deliver,1\n'
                    '2,5,deliver,6\n'
                    '2,5,deliver,11\n'
                    '2,5,deliver,13\n'
                    '2,5,deliver,16\n'
                    '2,6,deliver,4\n'
                    '2,6,deliver,9\n'
                    '2,7,deliver,2\n'
                    '2,7,deliver,7\n'
                    '2,7,deliver,14\n'
                    '2,8,deliver,12\n'
                    '2,14,deliver,17\n'
                    '2,14,order,7\n'
                    '2,14,order,0\n'
                    '2,14,order,17\n'
                    '2,14,order,5\n'
                    '2,14,order,16\n'
                    '2,14,order,9\n'
                    '2,14,order,10\n'
                    '2,14,order,14\n'
                    '2,14,order,8\n'
                    '2,14,order,1\n'
                    '2,14,order,3\n'
                    '2,14,order,15\n'
                    '2,14,order,2\n'
                    '2,14,order,4\n'
                    '2,14,order,11\n'
                    '2,14,order,6\n'
                    '2,14,order,12\n'
                    '2,14,order,13\n'
                    'order:2:7,0,17,5,16,9,10,14,8,1,3,15,2,4,11,6,12,13\n'
                    '3,4,deliver,0\n'
                    '3,4,deliver,5\n'
                    '3,4,deliver,10\n'
                    '3,4,deliver,15\n'
                    '3,5,deliver,3\n'
                    '3,5,deliver,8\n'
                    '3,6,deliver,1\n'
                    '3,6,deliver,6\n'
                    '3,6,deliver,11\n'
                    '3,6,deliver,13\n'
                    '3,6,deliver,16\n'
                    '3,7,deliver,4\n'
                    '3,7,deliver,9\n'
                    '3,8,deliver,2\n'
                    '3,8,deliver,7\n'
                    '3,8,deliver,14\n'
                    '3,9,deliver,12\n'
                    '3,15,deliver,17\n'
                    '3,15,order,7\n'
                    '3,15,order,0\n'
                    '3,15,order,17\n'
                    '3,15,order,5\n'
                    '3,15,order,16\n'
                    '3,15,order,9\n'
                    '3,15,order,10\n'
                    '3,15,order,14\n'
                    '3,15,order,8\n'
                    '3,15,order,1\n'
                    '3,15,order,3\n'
                    '3,15,order,15\n'
                    '3,15,order,2\n'
                    '3,15,order,4\n'
                    '3,15,order,11\n'
                    '3,15,order,6\n'
                    '3,15,order,12\n'
                    '3,15,order,13\n'
                    'order:3:7,0,17,5,16,9,10,14,8,1,3,15,2,4,11,6,12,13\n'
                ),
            },
            'prefix_consistency,pass,\n',
        ),
    },
    'ttl_partial_bursts': {
        'run': (
            0,
            {
                'trace.txt': (
                    '# fairorder-trace v1 seed=11 horizon=17\n'
                    '0,issue,0\n'
                    '0,issue,3\n'
                    '0,issue,8\n'
                    '0,issue,11\n'
                    '0,issue,16\n'
                    '1,issue,1\n'
                    '1,issue,6\n'
                    '1,issue,9\n'
                    '1,issue,14\n'
                    '1,issue,17\n'
                    '1,deliver,3\n'
                    '1,deliver,11\n'
                    '1,deliver,16\n'
                    '2,issue,4\n'
                    '2,issue,7\n'
                    '2,issue,12\n'
                    '2,issue,15\n'
                    '2,deliver,0\n'
                    '2,deliver,1\n'
                    '2,deliver,9\n'
                    '2,deliver,14\n'
                    '2,order,0\n'
                    '2,order,3\n'
                    '2,order,14\n'
                    '3,issue,2\n'
                    '3,issue,5\n'
                    '3,issue,10\n'
                    '3,issue,13\n'
                    '3,deliver,4\n'
                    '3,deliver,6\n'
                    '3,deliver,7\n'
                    '3,deliver,12\n'
                    '3,deliver,15\n'
                    '3,deliver,17\n'
                    '3,order,17\n'
                    '4,deliver,2\n'
                    '4,deliver,10\n'
                    '7,deliver,5\n'
                    '10,deliver,8\n'
                    '10,order,8\n'
                    '10,order,11\n'
                    '10,order,2\n'
                    '10,order,5\n'
                    '10,order,16\n'
                    '10,order,10\n'
                    '14,deliver,13\n'
                    '14,order,13\n'
                    '14,order,4\n'
                    '14,order,7\n'
                    '14,order,1\n'
                    '14,order,12\n'
                    '14,order,15\n'
                    '14,order,6\n'
                    '14,order,9\n'
                    'order:0,3,14,17,8,11,2,5,16,10,13,4,7,1,12,15,6,9\n'
                ),
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'warning: assumption-violation: adjacent eta gap exceeds lambda (max eta gap over all pairs 9, lambda 4)\n'
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'check': (
            0,
            {
                'verdicts.txt': (
                    'order_determinism,pass,\n'
                    'non_blocking,pass,\n'
                    'consistency,pass,\n'
                    'monotonic_order,pass,\n'
                ),
            },
            (
                'order_determinism,pass,\n'
                'non_blocking,pass,\n'
                'consistency,pass,\n'
                'monotonic_order,pass,\n'
            ),
        ),
        'quorum': (
            0,
            {
                'verdicts.txt': 'prefix_consistency,pass,\n',
                'view.txt': (
                    '# fairorder-view v1 n=4 f=1 correct=0,1,2,3\n'
                    '0,3,deliver,3\n'
                    '0,3,deliver,11\n'
                    '0,3,deliver,16\n'
                    '0,4,deliver,0\n'
                    '0,4,deliver,1\n'
                    '0,4,deliver,9\n'
                    '0,4,deliver,14\n'
                    '0,4,order,0\n'
                    '0,4,order,3\n'
                    '0,4,order,14\n'
                    '0,5,deliver,4\n'
                    '0,5,deliver,6\n'
                    '0,5,deliver,7\n'
                    '0,5,deliver,12\n'
                    '0,5,deliver,15\n'
                    '0,5,deliver,17\n'
                    '0,5,order,17\n'
                    '0,6,deliver,2\n'
                    '0,6,deliver,10\n'
                    '0,9,deliver,5\n'
                    '0,12,deliver,8\n'
                    '0,12,order,8\n'
                    '0,12,order,11\n'
                    '0,12,order,2\n'
                    '0,12,order,5\n'
                    '0,12,order,16\n'
                    '0,12,order,10\n'
                    '0,16,deliver,13\n'
                    '0,16,order,13\n'
                    '0,16,order,4\n'
                    '0,16,order,7\n'
                    '0,16,order,1\n'
                    '0,16,order,12\n'
                    '0,16,order,15\n'
                    '0,16,order,6\n'
                    '0,16,order,9\n'
                    'order:0:0,3,14,17,8,11,2,5,16,10,13,4,7,1,12,15,6,9\n'
                    '1,1,deliver,3\n'
                    '1,1,deliver,11\n'
                    '1,1,deliver,16\n'
                    '1,2,deliver,0\n'
                    '1,2,deliver,1\n'
                    '1,2,deliver,9\n'
                    '1,2,deliver,14\n'
                    '1,2,order,0\n'
                    '1,2,order,3\n'
                    '1,2,order,14\n'
                    '1,3,deliver,4\n'
                    '1,3,deliver,6\n'
                    '1,3,deliver,7\n'
                    '1,3,deliver,12\n'
                    '1,3,deliver,15\n'
                    '1,3,deliver,17\n'
                    '1,3,order,17\n'
                    '1,4,deliver,2\n'
                    '1,4,deliver,10\n'
                    '1,7,deliver,5\n'
                    '1,10,deliver,8\n'
                    '1,10,order,8\n'
                    '1,10,order,11\n'
                    '1,10,order,2\n'
                    '1,10,order,5\n'
                    '1,10,order,16\n'
                    '1,10,order,10\n'
                    '1,14,deliver,13\n'
                    '1,14,order,13\n'
                    '1,14,order,4\n'
                    '1,14,order,7\n'
                    '1,14,order,1\n'
                    '1,14,order,12\n'
                    '1,14,order,15\n'
                    '1,14,order,6\n'
                    '1,14,order,9\n'
                    'order:1:0,3,14,17,8,11,2,5,16,10,13,4,7,1,12,15,6,9\n'
                    '2,2,deliver,3\n'
                    '2,2,deliver,11\n'
                    '2,2,deliver,16\n'
                    '2,3,deliver,0\n'
                    '2,3,deliver,1\n'
                    '2,3,deliver,9\n'
                    '2,3,deliver,14\n'
                    '2,3,order,0\n'
                    '2,3,order,3\n'
                    '2,3,order,14\n'
                    '2,4,deliver,4\n'
                    '2,4,deliver,6\n'
                    '2,4,deliver,7\n'
                    '2,4,deliver,12\n'
                    '2,4,deliver,15\n'
                    '2,4,deliver,17\n'
                    '2,4,order,17\n'
                    '2,5,deliver,2\n'
                    '2,5,deliver,10\n'
                    '2,8,deliver,5\n'
                    '2,11,deliver,8\n'
                    '2,11,order,8\n'
                    '2,11,order,11\n'
                    '2,11,order,2\n'
                    '2,11,order,5\n'
                    '2,11,order,16\n'
                    '2,11,order,10\n'
                    '2,15,deliver,13\n'
                    '2,15,order,13\n'
                    '2,15,order,4\n'
                    '2,15,order,7\n'
                    '2,15,order,1\n'
                    '2,15,order,12\n'
                    '2,15,order,15\n'
                    '2,15,order,6\n'
                    '2,15,order,9\n'
                    'order:2:0,3,14,17,8,11,2,5,16,10,13,4,7,1,12,15,6,9\n'
                    '3,1,deliver,3\n'
                    '3,1,deliver,11\n'
                    '3,1,deliver,16\n'
                    '3,2,deliver,0\n'
                    '3,2,deliver,1\n'
                    '3,2,deliver,9\n'
                    '3,2,deliver,14\n'
                    '3,2,order,0\n'
                    '3,2,order,3\n'
                    '3,2,order,14\n'
                    '3,3,deliver,4\n'
                    '3,3,deliver,6\n'
                    '3,3,deliver,7\n'
                    '3,3,deliver,12\n'
                    '3,3,deliver,15\n'
                    '3,3,deliver,17\n'
                    '3,3,order,17\n'
                    '3,4,deliver,2\n'
                    '3,4,deliver,10\n'
                    '3,7,deliver,5\n'
                    '3,10,deliver,8\n'
                    '3,10,order,8\n'
                    '3,10,order,11\n'
                    '3,10,order,2\n'
                    '3,10,order,5\n'
                    '3,10,order,16\n'
                    '3,10,order,10\n'
                    '3,14,deliver,13\n'
                    '3,14,order,13\n'
                    '3,14,order,4\n'
                    '3,14,order,7\n'
                    '3,14,order,1\n'
                    '3,14,order,12\n'
                    '3,14,order,15\n'
                    '3,14,order,6\n'
                    '3,14,order,9\n'
                    'order:3:0,3,14,17,8,11,2,5,16,10,13,4,7,1,12,15,6,9\n'
                ),
            },
            'prefix_consistency,pass,\n',
        ),
    },
}


def _run_trace_commands(tmp_path, doc, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    seed = str(TRACE_SEED)
    argvs = {
        "run": ["run", "--config", str(config), "--seed", seed, "--out", str(tmp_path / "run")],
        "check": ["check", str(tmp_path / "run" / "trace.txt"), "--out", str(tmp_path / "check")],
        "quorum": ["quorum", "--config", str(config), "--seed", seed,
                   "--out", str(tmp_path / "quorum")],
    }
    results = {}
    for name, argv in argvs.items():
        code = main(argv)
        files = {p.name: p.read_text() for p in sorted((tmp_path / name).iterdir())}
        results[name] = (code, files, capsys.readouterr().out)
    return results


@pytest.mark.parametrize("name", sorted(TRACE_DOCS))
def test_trace_bytes_are_pinned(tmp_path, capsys, name):
    assert _run_trace_commands(tmp_path, TRACE_DOCS[name], capsys) == GOLDEN_TRACES[name]


RANDOMIZER_SEED = 23

RANDOMIZER_DOCS = {
    "bounded_extreme": {"randomizer": {
        "n": 7, "f": 2, "byzantine": [1, 5], "strategy": "extreme", "instances": 500,
        "kind": "bounded_laplace", "epsilon": 0.5, "sensitivity": 2.0, "bound": 6.0}},
    # sensitivity / epsilon overflows to an infinite Laplace scale: the statistics are nan.
    "infinite_scale": {"randomizer": {
        "n": 4, "f": 1, "instances": 40, "epsilon": 1e-300, "sensitivity": 1e300}},
}

GOLDEN_RANDOMIZER = {
    "bounded_extreme": (
        0,
        "instances=500 disagreements=0 mean=0.058231 variance=7.594137 (target 32.000000)\n",
    ),
    "infinite_scale": (
        0,
        "instances=40 disagreements=0 mean=nan variance=nan (target inf)\n",
    ),
}


@pytest.mark.parametrize("name", sorted(RANDOMIZER_DOCS))
def test_randomizer_stdout_is_pinned(tmp_path, capsys, name):
    config = tmp_path / "randomizer.json"
    config.write_text(json.dumps(RANDOMIZER_DOCS[name]))
    code = main(["randomizer", "--config", str(config), "--seed", str(RANDOMIZER_SEED),
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == GOLDEN_RANDOMIZER[name]
    assert captured.err == ""
