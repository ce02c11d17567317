import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from fairorder.cli import main
from fairorder.scenario import ScenarioConfig

BASE_CONFIG = {
    "feature_count": 2,
    "relevant": [0],
    "lambda": 1.0,
    "eta_feature": 1,
    "clients": [
        {"id": 0, "requests": [{"id": 0, "issue_tick": 0, "features": [1.0, 0.0]}]},
        {"id": 1, "requests": [{"id": 1, "issue_tick": 0, "features": [2.0, 0.0]}]},
    ],
    "delay": {"kind": "constant", "d": 1},
    "policy": {"kind": "fcfs"},
}


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def certify_config(n_trials=4000, gap=0.0, noise=None, pair=(0, 1), **extra):
    doc = dict(BASE_CONFIG)
    doc["clients"] = [
        {"id": 0, "requests": [{"id": 0, "issue_tick": 0, "features": [0.0, 0.0]}]},
        {"id": 1, "requests": [{"id": 1, "issue_tick": 0, "features": [gap, 0.0]}]},
    ]
    doc["delay"] = {"kind": "constant", "d": 0}
    doc["noise"] = noise or {"kind": "laplace", "epsilon": 1.0, "sensitivity": 1.0}
    doc["policy"] = {"kind": "fair"}
    doc["trials"] = {"n_trials": n_trials, "base_seed": 77, "pair": list(pair)}
    doc.update(extra)
    return doc


class TestRunCommand:
    def test_valid_scenario_exits_zero_and_writes_trace(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        code = main(["run", "--config", config, "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        trace = (tmp_path / "trace.txt").read_text()
        assert trace.startswith("# fairorder-trace v1 seed=3")
        verdicts = (tmp_path / "verdicts.txt").read_text()
        assert verdicts.count(",pass,") == 4

    def test_missing_config_exits_two(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_invalid_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_bad_scenario_exits_two(self, tmp_path):
        doc = dict(BASE_CONFIG, relevant=[9])
        config = write_config(tmp_path, doc)
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, BASE_CONFIG)
        monkeypatch.setenv("FAIRORDER_SEED", "99")
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
        assert "seed=99" in (tmp_path / "trace.txt").read_text()

    def test_malformed_env_seed_exits_two(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, BASE_CONFIG)
        monkeypatch.setenv("FAIRORDER_SEED", "abc")
        assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: FAIRORDER_SEED must be an integer, got 'abc'\n"

class TestCheckCommand:
    def test_honest_trace_passes(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        main(["run", "--config", config, "--out", str(tmp_path)])
        assert main(["check", str(tmp_path / "trace.txt"), "--out", str(tmp_path)]) == 0

    def test_forged_trace_fails(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        main(["run", "--config", config, "--out", str(tmp_path)])
        trace_file = tmp_path / "trace.txt"
        # drop one order event and its final-order entry: non-blocking breaks
        lines = [l for l in trace_file.read_text().splitlines() if l != "1,order,0"]
        lines[-1] = "order:1"
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["check", str(trace_file), "--out", str(tmp_path)]) == 1

    def test_garbage_trace_exits_two(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("tick tock\n")
        assert main(["check", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", [
        "# fairorder-trace v1 seed=0 horizon=abc\n0,issue,1\norder:\n",
        "# fairorder-trace v1 seed=x horizon=3\n0,issue,1\norder:\n",
        "# fairorder-trace v1 seed=0 horizon=3\n0,issue,1\norder:1,x\n",
        "# fairorder-trace v1 seed=0 horizon=3\n0,issue,1\norder:1,\n",
    ])
    def test_malformed_header_or_order_line_exits_two(self, tmp_path, text, capsys):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        assert main(["check", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text,code,out", [
        ("5,issue,0\n0,deliver,0\n0,order,0\norder:0\n", 1,
         "order_determinism,fail,0;0\nnon_blocking,pass,\nconsistency,pass,\n"
         "monotonic_order,pass,\n"),
        ("0,deliver,0\n0,order,0\norder:0\n", 1,
         "order_determinism,fail,0;0\nnon_blocking,pass,\nconsistency,pass,\n"
         "monotonic_order,pass,\n"),
        ("0,issue,0\n1,issue,0\n1,deliver,0\n1,order,0\norder:0\n", 2,
         "request 0 has a second issue row"),
        ("0,issue,0\n1,issue,0\n1,deliver,0\n1,order,0\norder:0,0\n", 2,
         "request 0 has a second issue row"),
        ("0,deliver,0\n0,deliver,1\n0,order,0\n0,order,1\norder:1,0\n", 2,
         "order line differs from the order rows' output at position 0"),
        ("0,deliver,0\n0,order,0\norder:0,7\n", 2,
         "order line differs from the order rows' output at position 1"),
        ("0,issue,0\n0,deliver,0\n0,order,0\norder:7\norder:0\n", 2,
         "line 5: second order line"),
        ("# fairorder-trace v1 seed=0 horizon=5\n# fairorder-trace v1 horizon=0 seed=3\n"
         "0,issue,0\n0,deliver,0\n0,order,0\norder:0\n", 2, "line 2: second header line"),
        ("# fairorder-trace v1 seed=0 horizon=2\n0,issue,0\n5,deliver,0\norder:\n", 2,
         "line 3: row tick 5 is past the horizon 2"),
        ("0,issue,0\n5,deliver,0\n7,deliver,1\n# fairorder-trace v1 horizon=6\norder:\n", 2,
         "line 3: row tick 7 is past the horizon 6"),
    ], ids=["delivered_before_issue", "delivered_without_issue", "issued_twice",
            "issued_twice_listed_twice", "order_line_reversed", "order_line_unknown_id",
            "two_order_lines", "two_headers", "delivered_past_horizon",
            "delivered_past_a_later_header"])
    def test_forged_transitions_are_judged(self, tmp_path, capsys, text, code, out):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        assert main(["check", str(path), "--out", str(tmp_path)]) == code
        captured = capsys.readouterr()
        if code == 1:
            assert captured.out == out
        else:
            assert captured.err == f"error: malformed trace: {out}\n"

    def test_negative_header_horizon_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("# fairorder-trace v1 seed=0 horizon=-5\n0,deliver,0\norder:\n")
        assert main(["check", str(path), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: malformed trace: line 1: negative horizon -5\n"
        assert captured.out == "" and not (tmp_path / "verdicts.txt").exists()


class TestCertifyCommand:
    def test_adjacent_pair_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, certify_config())
        code = main(["certify", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "report.csv").read_text()
        assert report.splitlines()[0].startswith("pair_a,pair_b")
        assert ",pass" in report

    def test_forced_wrong_k_fails(self, tmp_path):
        # score gap 2*lambda certified at k=1: ratio 6.389 > e
        doc = certify_config(n_trials=4000, gap=2.0)
        doc["trials"]["force_k"] = 1.0
        config = write_config(tmp_path, doc)
        code = main(["certify", "--config", config, "--out", str(tmp_path)])
        assert code == 1

    def test_missing_trials_block_exits_two(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        assert main(["certify", "--config", config, "--out", str(tmp_path)]) == 2

    def test_undelivered_request_exits_four(self, tmp_path):
        doc = certify_config(n_trials=10)
        doc["deliver_overrides"] = {"1": None}
        config = write_config(tmp_path, doc)
        assert main(["certify", "--config", config, "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("edit", [
        {"lambda": math.nan},
        {"lambda": math.inf},
        {"noise": {"kind": "laplace", "epsilon": math.nan}},
        {"noise": {"kind": "laplace", "epsilon": 1.0, "sensitivity": math.inf}},
        {"delay": {"kind": "constant", "d": math.inf}},
        {"adversaries": [{"client_id": 0, "bribe": math.nan}]},
        {"clients": [{"id": c, "requests": [{"id": c, "issue_tick": 0,
                                             "features": [math.nan, 0.0]}]}
                     for c in (0, 1)]},
        {"clients": [{"id": c, "requests": [{"id": c, "issue_tick": math.inf,
                                             "features": [0.0, 0.0]}]}
                     for c in (0, 1)]},
        # finite parameters whose scale overflows: rejection sampling would never end
        {"noise": {"kind": "bounded_laplace", "epsilon": 1e-300, "sensitivity": 1e10,
                   "bound": 1.0}},
        # finite features whose total overflows, under noise at an infinite scale
        {"feature_count": 3, "relevant": [0, 1], "eta_feature": 2,
         "clients": [{"id": c, "requests": [{"id": c, "issue_tick": 0, "features": feats}]}
                     for c, feats in enumerate([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                                [1e308, 1e308, 0.0]])],
         "noise": {"kind": "laplace", "epsilon": 1e-300, "sensitivity": 1e10}},
        # an integer misreport past the float range
        {"adversaries": [{"client_id": 0, "time_misreport": 10**400}]},
        # a bribe that overflows the eta feature it lands in
        {"clients": [{"id": c, "requests": [{"id": c, "issue_tick": 0,
                                             "features": [0.0, 1.7e308]}]}
                     for c in (0, 1)],
         "adversaries": [{"client_id": 0, "bribe": 1.7e308}]},
        # a bound so narrow against the scale that about one draw in 10^12 is accepted
        {"noise": {"kind": "bounded_laplace", "epsilon": 1.0, "sensitivity": 1e6,
                   "bound": 1e-6}},
    ])
    def test_non_finite_parameters_exit_two(self, tmp_path, edit, capsys):
        doc = dict(certify_config(), **edit)
        config = write_config(tmp_path, doc)
        assert main(["certify", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trial_override_exits_two(self, tmp_path, trials, capsys):
        config = write_config(tmp_path, certify_config())
        code = main(["certify", "--config", config, "--out", str(tmp_path), "--trials", trials])
        assert code == 2
        assert capsys.readouterr().err == f"error: --trials must be positive, got {trials}\n"
        assert not (tmp_path / "report.csv").exists()

    def test_inconclusive_near_bound_exits_three(self, tmp_path):
        # true p ~ 0.93 against the e^1 bound with only 100 trials: the
        # radius is too wide to refute, too narrow to clear
        doc = certify_config(n_trials=100, gap=2.73)
        doc["trials"]["force_k"] = 1.0
        config = write_config(tmp_path, doc)
        assert main(["certify", "--config", config, "--out", str(tmp_path)]) == 3


class TestSweepCommand:
    def sweep_config(self, tmp_path, gaps=(0.0, 1.0)):
        doc = {"sweep": {"epsilons": [1.0], "gaps": list(gaps),
                         "n_trials": 2000, "base_seed": 5}}
        return write_config(tmp_path, doc, name="sweep.json")

    def test_small_grid_passes(self, tmp_path):
        config = self.sweep_config(tmp_path)
        assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "epsilon,n,analytic_p,p_hat,ratio,bound,verdict"
        assert len(lines) == 3

    def test_empty_grid_exits_two(self, tmp_path):
        config = write_config(tmp_path, {"sweep": {"epsilons": [], "gaps": []}})
        assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("edit", [
        {"lambda": math.nan}, {"lambda": "x"}, {"epsilons": [1.0, math.inf]},
        {"gaps": [math.nan]}, {"gaps": 5}, {"n_trials": "x"}, {"n_trials": math.inf},
        {"base_seed": "x"},
    ])
    def test_malformed_grid_exits_two(self, tmp_path, edit, capsys):
        doc = {"sweep": dict({"epsilons": [1.0], "gaps": [0.0], "n_trials": 100}, **edit)}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_positive_trial_override_exits_two(self, tmp_path):
        config = self.sweep_config(tmp_path)
        assert main(["sweep", "--config", config, "--out", str(tmp_path), "--trials", "0"]) == 2

    def test_malformed_env_seed_exits_two(self, tmp_path, monkeypatch):
        config = self.sweep_config(tmp_path)
        monkeypatch.setenv("FAIRORDER_SEED", "1.5")
        assert main(["sweep", "--config", config, "--out", str(tmp_path)]) == 2

    def test_repeat_invocations_byte_identical(self, tmp_path):
        config = self.sweep_config(tmp_path)
        main(["sweep", "--config", config, "--out", str(tmp_path / "a")])
        main(["sweep", "--config", config, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/report.csv").read_bytes() == (tmp_path / "b/report.csv").read_bytes()


class TestRandomizerCommand:
    def test_agreement_sweep(self, tmp_path, capsys):
        doc = {"randomizer": {"n": 4, "f": 1, "byzantine": [2], "strategy": "extreme",
                              "instances": 200, "epsilon": 1.0, "sensitivity": 1.0}}
        config = write_config(tmp_path, doc)
        assert main(["randomizer", "--config", config, "--out", str(tmp_path)]) == 0
        assert "disagreements=0" in capsys.readouterr().out

    @pytest.mark.parametrize("block", [
        {"f": 0},
        {"n": "x", "f": 0},
        {"n": 4, "f": 1, "strategy": "nope"},
        {"n": 4, "f": 1, "instances": 0},
    ])
    def test_malformed_block_exits_two(self, tmp_path, block, capsys):
        config = write_config(tmp_path, {"randomizer": block})
        assert main(["randomizer", "--config", config, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_block_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sweep": {}})
        assert main(["randomizer", "--config", config, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config lacks a 'randomizer' block\n"

    def test_non_positive_trial_override_exits_two(self, tmp_path):
        doc = {"randomizer": {"n": 4, "f": 1, "instances": 10}}
        config = write_config(tmp_path, doc)
        assert main(["randomizer", "--config", config, "--out", str(tmp_path),
                     "--trials", "-1"]) == 2


class TestQuorumCommand:
    def test_lagged_view_checks_out(self, tmp_path):
        doc = dict(BASE_CONFIG)
        doc["multi_server"] = {"n": 4, "f": 1, "lags": [0, 1, 2, 0]}
        config = write_config(tmp_path, doc)
        assert main(["quorum", "--config", config, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "view.txt").read_text().startswith("# fairorder-view v1")

    def test_missing_block_exits_two(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        assert main(["quorum", "--config", config, "--out", str(tmp_path)]) == 2


UNREADABLE = {
    "directory": None,
    "not_utf8": b"\xff\xfe{}\n",
    "nested_json": b"[" * 100_000,
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("command", ["run", "certify", "sweep", "randomizer", "quorum", "check"])
def test_unreadable_input_exits_two_with_one_line(tmp_path, command, kind, capsys):
    path = tmp_path / "input"
    if UNREADABLE[kind] is None:
        path.mkdir()
    else:
        path.write_bytes(UNREADABLE[kind])
    out = str(tmp_path / "out")
    argv = [command, str(path)] if command == "check" else [command, "--config", str(path)]
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


MALFORMED_BLOCKS = {
    "delay_array": {"delay": [1, 2]},
    "per_client_array": {"delay": {"kind": "constant", "d": 0, "per_client": [0]}},
    "overrides_array": {"deliver_overrides": [[1, 3]]},
}


@pytest.mark.parametrize("edit", sorted(MALFORMED_BLOCKS))
@pytest.mark.parametrize("command", ["run", "certify", "quorum"])
def test_array_where_an_object_belongs_exits_two(tmp_path, command, edit, capsys):
    doc = dict(certify_config(n_trials=10), **MALFORMED_BLOCKS[edit])
    doc["multi_server"] = {"n": 4, "f": 1, "lags": [0, 1, 2, 0]}
    config = write_config(tmp_path, doc)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys)


def _one_request(**request):
    """certify_config's two clients, the first request edited."""
    first = dict({"id": 0, "issue_tick": 0, "features": [0.0, 0.0]}, **request)
    return {"clients": [{"id": 0, "requests": [first]},
                        {"id": 1, "requests": [{"id": 1, "issue_tick": 0,
                                                "features": [0.0, 0.0]}]}]}


# (command, edit, start of the error message after "error: ")
INVALID_FIELDS = {
    "drain_text": ("run", {"drain_ticks": "abc"}, 'drain_ticks: expected an integer, got "abc"'),
    "drain_negative": ("run", {"drain_ticks": -5}, "drain_ticks must be non-negative"),
    # Trials blocks that once loaded: run exited 0, and certify failed after every trial.
    "confidence_nan": ("certify", {"trials": {"n_trials": 10, "confidence": math.nan}},
                       "trials confidence must lie strictly between 0 and 1, got nan"),
    "confidence_zero": ("run", {"trials": {"n_trials": 10, "confidence": 0}},
                        "trials confidence must lie strictly between 0 and 1, got 0.0"),
    "confidence_one": ("certify", {"trials": {"n_trials": 10, "confidence": 1}},
                       "trials confidence must lie strictly between 0 and 1, got 1.0"),
    "confidence_above_one": ("quorum", {"trials": {"n_trials": 10, "confidence": 1.5}},
                             "trials confidence must lie strictly between 0 and 1, got 1.5"),
    "force_k_negative": ("certify", {"trials": {"n_trials": 10, "force_k": -0.5}},
                         "force_k must be non-negative, got -0.5"),
    "pair_of_one": ("certify", {"trials": {"n_trials": 10, "pair": [0]}},
                    "trials pair must be two distinct ids"),
    "pair_of_three": ("certify", {"trials": {"n_trials": 10, "pair": [0, 1, 2]}},
                      "trials pair must be two distinct ids"),
    "pair_repeats_an_id": ("certify", {"trials": {"n_trials": 10, "pair": [0, 0]}},
                           "trials pair must be two distinct ids"),
    "byzantine_id_past_n": ("quorum", {"multi_server": {"n": 4, "f": 1, "lags": [0, 0, 0, 0],
                                                        "byzantine_servers": [9]}},
                            "byzantine ids [9] lie outside 0..3"),
    "byzantine_past_f": ("quorum", {"multi_server": {"n": 4, "f": 1, "lags": [0, 0, 0, 0],
                                                     "byzantine_servers": [0, 1, 2]}},
                         "3 byzantine ids exceed the fault budget"),
    "byzantine_one_past_f": ("quorum", {"multi_server": {"n": 4, "f": 1, "lags": [0, 0, 0, 0],
                                                         "byzantine_servers": [0, 1]}},
                             "2 byzantine ids exceed the fault budget"),
    "negative_f": ("quorum", {"multi_server": {"n": 4, "f": -1, "lags": [0, 0, 0, 0]}},
                   "the fault budget f must be non-negative"),
    # Values the loader once coerced into a different scenario.
    "gating_as_text": ("run", {"stability_gating": "false"},
                       'stability_gating: expected a boolean, got "false"'),
    "misspelled_key": ("run", {"stabilty_gating": False}, "stabilty_gating: unknown key"),
    # A per-client model is one level deep.
    "nested_per_client": ("run", {"delay": {"kind": "constant", "d": 0, "per_client": {
        "0": {"kind": "constant", "d": 1, "per_client": {"0": {"kind": "constant", "d": 100}}}}}},
                          "delay.per_client.0.per_client: unknown key"),
    "fractional_issue_tick": ("run", _one_request(issue_tick=2.7),
                              "clients[0].requests[0].issue_tick: expected an integer, got 2.7"),
    "lambda_as_bool": ("run", {"lambda": True}, "lambda: expected a number, got true"),
    "fractional_eta_feature": ("run", {"eta_feature": 1.9},
                               "eta_feature: expected an integer, got 1.9"),
    "feature_as_bool": ("run", _one_request(features=[True, 0.0]),
                        "clients[0].requests[0].features[0]: expected a number, got true"),
    "fractional_pair_id": ("certify", {"trials": {"n_trials": 10, "pair": [0, 1.5]}},
                           "trials.pair[1]: expected an integer, got 1.5"),
    "empty_trials": ("run", {"trials": {}}, "trials.n_trials: missing required key"),
    "misspelled_policy_key": ("run", {"policy": {"kind": "fair", "directon": "highest_first"}},
                              "policy.directon: unknown key"),
    "override_id_with_underscore": ("run", {"deliver_overrides": {"1_0": 3}},
                                    "deliver_overrides.1_0: expected a decimal integer id"),
    # Quoted keys and values are escaped and cut short, so the error stays one short line.
    "override_id_with_newline": ("run", {"deliver_overrides": {"1\n2": 3}},
                                 'deliver_overrides."1\\n2": expected a decimal integer id'),
    "override_of_10kb": ("run", {"deliver_overrides": {"1": "x" * 10_000}},
                         'deliver_overrides.1: expected an integer, got "xxx'),
}


@pytest.mark.parametrize("case", sorted(INVALID_FIELDS))
def test_invalid_scenario_field_exits_two(tmp_path, case, capsys):
    command, edit, message = INVALID_FIELDS[case]
    config = write_config(tmp_path, dict(certify_config(n_trials=10), **edit))
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and len(err) < 200
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("trials", [{"confidence": 1.0}, {"confidence": -0.1},
                                    {"force_k": -1.0}])
@pytest.mark.parametrize("command", ["run", "certify", "quorum"])
def test_bad_trials_block_exits_two_before_any_trial(tmp_path, monkeypatch, command, trials,
                                                     capsys):
    from fairorder import stats

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(stats, "estimate_order_probability", no_trials)
    doc = certify_config(n_trials=200_000)
    doc["trials"].update(trials)
    doc["multi_server"] = {"n": 4, "f": 1, "lags": [0, 1, 2, 0]}
    config = write_config(tmp_path, doc)
    assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_fractional_drain_ticks_give_an_integer_horizon(tmp_path, capsys):
    config = write_config(tmp_path, dict(BASE_CONFIG, drain_ticks=2.5))
    assert main(["run", "--config", config, "--out", str(tmp_path / "fractional")]) == 2
    assert capsys.readouterr().err == "error: drain_ticks: expected an integer, got 2.5\n"
    config = write_config(tmp_path, dict(BASE_CONFIG, drain_ticks=2.0))
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    header = (tmp_path / "trace.txt").read_text().splitlines()[0]
    assert header.endswith(" horizon=3")  # last event at tick 1, plus 2.0 read as 2
    assert main(["check", str(tmp_path / "trace.txt"), "--out", str(tmp_path / "c")]) == 0


def test_out_naming_a_file_exits_two_before_any_trial(tmp_path, monkeypatch, capsys):
    from fairorder import stats

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(stats, "estimate_order_probability", no_trials)
    config = write_config(tmp_path, {"sweep": {"epsilons": [1.0], "gaps": [0.0]}})
    (tmp_path / "outfile").write_text("keep\n")
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "outfile")]) == 2
    assert capsys.readouterr().err == f"error: --out {tmp_path / 'outfile'} is not a directory\n"
    assert (tmp_path / "outfile").read_text() == "keep\n"


def test_unwritable_out_exits_two(tmp_path, capsys):
    # The --out path does not exist, so it passes the early check, but a file blocks it.
    config = write_config(tmp_path, BASE_CONFIG)
    (tmp_path / "outfile").write_text("")
    assert main(["run", "--config", config, "--out", str(tmp_path / "outfile" / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_import_loads_no_process_pool():
    # Only --jobs > 1 starts a pool; every other command must not pay for its imports.
    probe = ("import sys, fairorder.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("command, doc", [
    ("run", BASE_CONFIG),
    ("certify", certify_config(n_trials=50, delay={"kind": "uniform", "lo": 0.0, "hi": 3.0})),
    ("quorum", dict(BASE_CONFIG, multi_server={"n": 4, "f": 1, "lags": [0, 1, 2, 0]})),
])
def test_a_command_builds_the_deliveries_once(tmp_path, command, doc, capsys):
    # The lint and prepare both read the list that the loaded config builds on first use.
    build = ScenarioConfig.__dict__["deliveries"]
    with mock.patch.object(build, "func", wraps=build.func) as builds:
        main([command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path)])
    assert builds.call_count == 1


@pytest.mark.parametrize("command, doc", [
    ("certify", certify_config(n_trials=400, delay={"kind": "uniform", "lo": 0.0, "hi": 3.0})),
    ("sweep", {"sweep": {"epsilons": [0.5, 1.0], "gaps": [0.0, 1.0], "n_trials": 400}}),
])
def test_two_jobs_write_the_report_of_one(tmp_path, command, doc, capsys):
    config = write_config(tmp_path, doc)
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main([command, "--config", config, "--out", str(out), "--jobs", jobs])
        reports.append((code, capsys.readouterr(), (out / "report.csv").read_bytes()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command, doc", [
    ("run", BASE_CONFIG),
    ("certify", certify_config(n_trials=10)),
    ("sweep", {"sweep": {"epsilons": [1.0], "gaps": [0.0], "n_trials": 10}}),
    ("randomizer", {"randomizer": {"n": 4, "f": 1, "instances": 10}}),
    ("quorum", dict(BASE_CONFIG, multi_server={"n": 4, "f": 1, "lags": [0, 1, 2, 0]})),
])
def test_non_positive_jobs_exit_two(tmp_path, command, doc, jobs, capsys):
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: --jobs must be positive, got {jobs}\n"
    assert not out.exists()
