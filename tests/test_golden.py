"""Pinned output bytes of `fairorder sweep` and `fairorder certify`.

The expected strings are the output of the engine-only estimator, which
runs the full engine for every seed; the exact pair kernel must reproduce
them byte for byte. The configs cover every path the estimator can take:
the kernel deciding from noise draws (Laplace, bounded Laplace, uniform,
both directions), a different-tick pair, fcfs and ttl pairs, a zero-noise
pair whose every seed ties and runs through the engine, and a
random-delay scenario that never takes the kernel.
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
