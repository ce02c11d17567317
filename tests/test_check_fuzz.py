"""Malformed trace files through ``fairorder check``.

Files start from ``gen.hand_written_rows``, with the rows' own output or
any ids on the ``order:`` line, and take up to three line edits: a field
dropped or added, a non-integer tick or id, an unknown kind, a repeated
deliver or order row, a negative or huge ``horizon=`` header, or no
``order:`` line. Whatever the file, ``check`` must return
0, 1 or 2 without raising, report a configuration error (2) on exactly
one stderr line, and stay under a ``tracemalloc`` budget: no path may
cost memory in proportion to the header's horizon. A file that passes
(0) must keep the chain rule issue -> deliver -> order and list its
rows' output on its ``order:`` line, as the per-row and per-tick
oracles decide.
"""

import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gen import hand_written_rows, rows_text
from oracles import order_determinism_per_row, snapshots_per_tick
from fairorder.cli import main
from fairorder.engine import parse_trace

# About twice the largest peak measured over 500 of these examples (68 KB); one entry
# per tick up to a huge horizon would exceed it by far.
BUDGET = 150_000
HORIZONS = ["-1", "-1000000000000000000", "1000000000000000000", str(2**63),
            str(10**300), "1" + "0" * 5000]


def pick_row(draw, lines):
    """(index, fields) of a row line: an existing one, or a new one put first."""
    rows = [i for i, line in enumerate(lines) if line and not line.startswith(("#", "order:"))]
    if not rows:
        lines.insert(0, "0,deliver,0")
        rows = [0]
    i = draw(st.sampled_from(rows))
    return i, lines[i].split(",")


def drop_or_add_field(draw, lines):
    i, fields = pick_row(draw, lines)
    at = draw(st.integers(0, len(fields) - 1))
    if draw(st.booleans()):
        del fields[at]
    else:
        fields.insert(at, draw(st.sampled_from(["7", "", "deliver"])))
    lines[i] = ",".join(fields)


def non_integer(draw, lines):
    i, fields = pick_row(draw, lines)
    at = draw(st.sampled_from([0, len(fields) - 1]))  # the tick or the id
    fields[at] = draw(st.sampled_from(["1.5", "x", "", "1e3", "0x1", "inf", "nan", "--1"]))
    lines[i] = ",".join(fields)


def unknown_kind(draw, lines):
    i, fields = pick_row(draw, lines)
    fields[min(1, len(fields) - 1)] = draw(st.sampled_from(["emit", "ORDER", "", "deliver "]))
    lines[i] = ",".join(fields)


def repeated_row(draw, lines):
    row = f"{draw(st.integers(-2, 15))},{draw(st.sampled_from(['deliver', 'order']))}," \
          f"{draw(st.integers(0, 8))}"
    for _ in range(2):
        lines.insert(draw(st.integers(0, len(lines))), row)


def bad_horizon(draw, lines):
    lines[:] = [line for line in lines if not line.startswith("#")]
    lines.insert(0, f"# fairorder-trace v1 seed=0 horizon={draw(st.sampled_from(HORIZONS))}")


def no_order_line(draw, lines):
    lines[:] = [line for line in lines if not line.startswith("order:")]


MUTATIONS = [drop_or_add_field, non_integer, unknown_kind, repeated_row, bad_horizon,
             no_order_line]


@st.composite
def trace_files(draw):
    rows = draw(hand_written_rows())
    header = draw(st.one_of(st.none(), st.integers(0, 25)))
    final = draw(st.one_of(st.none(), st.lists(st.integers(0, 8), max_size=8)))
    lines = rows_text(rows, header, final).splitlines()
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(draw, lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=trace_files())
def test_check_exits_with_a_code_and_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        path.write_text(text)
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["check", str(path), "--out", tmp])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code in (0, 1, 2)
    assert peak < BUDGET
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    if code == 0:
        trace = parse_trace(text)
        assert order_determinism_per_row(trace.events) is None
        # The output stops changing at the last row tick, so the oracle stops there
        # rather than walk up to a header horizon of 10^18.
        horizon = min(trace.horizon, max([0, *(ev.at_tick for ev in trace.events)]))
        assert trace.final_order == snapshots_per_tick(trace.events, horizon)[-1].output
