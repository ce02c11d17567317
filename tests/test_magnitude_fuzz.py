"""Scenario documents at the edges of the float range, through the CLI.

Features, bribes, misreported issue times and delay parameters are drawn
from magnitudes that underflow to subnormals, sit just under half the
float range, overflow it when summed or doubled, or lie past it as
integers. Whatever the document, `run` and `certify` must return an exit
code 0-4 without raising, and a configuration error (2) must be reported
on exactly one stderr line.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from fairorder.cli import main

# (tame, extreme) magnitudes; a field is extreme one time in six, so that documents
# that load, and so reach the engine and the kernel, are common.
MAGNITUDES = ([0.0, 1.0, 1e-320], [5e307, 1e308, 10**400])
INT_MAGNITUDES = ([0, 1, 3], [int(5e307), int(1e308), 10**400])
DELAY_KEYS = {"constant": ("d",), "uniform": ("lo", "hi"), "capped_heavy_tail": ("scale", "cap")}
NOISE = [{"kind": "laplace", "epsilon": 1.0, "sensitivity": 1.0},
         # sensitivity / epsilon overflows: every noise draw is +-inf
         {"kind": "laplace", "epsilon": 1e-300, "sensitivity": 1e10}]


@st.composite
def magnitude_docs(draw):
    def magnitude(values=MAGNITUDES, signed=False):
        m = draw(st.sampled_from(values[draw(st.integers(0, 5)) == 5]))
        return -m if signed and draw(st.booleans()) else m

    n = draw(st.integers(2, 3))
    clients = [{"id": i, "requests": [{"id": i, "issue_tick": draw(st.integers(0, 2)),
                                       "features": [magnitude(signed=True),
                                                    magnitude(signed=True)]}]}
               for i in range(n)]
    kind = draw(st.sampled_from(sorted(DELAY_KEYS)))
    # the kind's own parameters, or now and then every parameter
    keys = ("d", "lo", "hi", "scale", "cap") if draw(st.integers(0, 3)) == 3 else DELAY_KEYS[kind]
    delay = {"kind": kind, **{key: magnitude() for key in keys}}
    adversaries = [{"client_id": i, "bribe": magnitude(),
                    "time_misreport": magnitude(INT_MAGNITUDES, signed=True)}
                   for i in draw(st.sets(st.integers(0, n - 1), max_size=2))]
    overrides = {str(i): draw(st.sampled_from([None, 3, 10**308]))
                 for i in draw(st.sets(st.integers(0, n - 1), max_size=1))}
    policy = draw(st.sampled_from([{"kind": "fair"}, {"kind": "fair",
                                                      "direction": "highest_first"},
                                   {"kind": "fcfs"}, {"kind": "ttl", "deadline_feature": 0}]))
    return {
        "feature_count": 2, "relevant": [0], "lambda": 1.0, "eta_feature": 1,
        "clients": clients, "delay": delay, "adversaries": adversaries,
        "deliver_overrides": overrides, "noise": draw(st.sampled_from(NOISE)),
        "policy": policy,
        "trials": {"n_trials": 20, "base_seed": draw(st.integers(0, 100)), "pair": [0, 1]},
    }


@settings(max_examples=200, deadline=None)
@given(doc=magnitude_docs())
def test_extreme_magnitudes_exit_with_a_code_and_one_error_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(doc))
        for command in ("run", "certify"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(config), "--trials", "20",
                             "--out", str(Path(tmp) / command)])
            assert 0 <= code <= 4
            if code == 2:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
