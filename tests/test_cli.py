import json
import math

import pytest

from fairorder.cli import main

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
