"""One certification path: ``stats.certify_scenario``.

`certify` and `sweep` both reach their verdicts through it: a sweep row
is the report of ``certify_scenario`` on its cell, the canonical pair
held to ``force_k`` = its gap, and `certify`'s report.csv is the report
of ``certify_scenario`` on the loaded scenario. The README's library
example calls it too, and runs here as written.
"""

import json
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from fairorder import stats
from fairorder.cli import main
from fairorder.model import ParameterError
from fairorder.rng import derive, tag
from fairorder.scenario import TrialsBlock, scenario_from_dict, two_request_gap_scenario
from test_golden import CERTIFY_DOCS

ROOT = Path(__file__).resolve().parents[1]


def test_each_sweep_row_is_certify_scenario_on_its_cell(tmp_path):
    epsilons, gaps, n_trials, base_seed, lam = (0.5, 2.0), (0.0, 1.5), 2000, 19, 2.0
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep": {"epsilons": epsilons, "gaps": gaps,
                                            "n_trials": n_trials, "base_seed": base_seed,
                                            "lambda": lam}}))
    with mock.patch.object(stats, "certify_scenario", wraps=stats.certify_scenario) as spy:
        main(["sweep", "--config", str(config), "--out", str(tmp_path)])
    assert spy.call_count == len(epsilons) * len(gaps)
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    cells = [(e, n) for e in epsilons for n in gaps]
    assert len(rows) == len(cells)
    for cell, ((epsilon, gap), row) in enumerate(zip(cells, rows)):
        seed = derive(base_seed, tag("sweep"), cell)
        scenario = replace(two_request_gap_scenario(gap=gap, epsilon=epsilon, lam=lam),
                           trials=TrialsBlock(n_trials, seed, pair=(0, 1), force_k=gap))
        report = stats.certify_scenario(scenario, n_trials, seed)
        assert row.split(",")[3:] == [str(report.p_hat), str(report.ratio_hat),
                                      str(report.bound), report.verdict]


@pytest.mark.parametrize("name", sorted(CERTIFY_DOCS))
def test_certify_report_is_certify_scenario(tmp_path, capsys, name):
    doc = CERTIFY_DOCS[name]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    main(["certify", "--config", str(config), "--out", str(tmp_path)])
    capsys.readouterr()
    scenario = scenario_from_dict(doc)
    trials = scenario.trials
    report = stats.certify_scenario(scenario, trials.n_trials, trials.base_seed)
    assert (tmp_path / "report.csv").read_text() == stats.reports_csv([report])


def test_readme_library_example_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "certify_scenario" in code
    exec(compile(code, "README.md", "exec"), {})
    p_hat, analytic, k, verdict = capsys.readouterr().out.split()
    assert float(p_hat) == pytest.approx(float(analytic), abs=0.01)
    assert float(analytic) == pytest.approx(0.724, abs=0.0005)
    assert (k, verdict) == ("1.0", "pass")


@pytest.mark.parametrize("trials", [None, TrialsBlock(100)])
def test_certify_scenario_needs_a_trials_block_with_a_pair(trials):
    scenario = replace(two_request_gap_scenario(gap=1.0), trials=trials)
    with pytest.raises(ParameterError, match="^certify needs a trials block with a pair$"):
        stats.certify_scenario(scenario, 100, 0)
