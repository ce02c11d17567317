"""Documents drawn from the loader's own tables.

`strategy(t)` turns a type of `fairorder.schema` into a hypothesis strategy
of JSON values that the type accepts, so the documents follow the tables
as they are declared. A drawn document either loads or fails only a
semantic check of a dataclass, never the schema. Changing the value of any
one field to a value of another JSON type makes `fairorder run` exit 2 with
an error line that starts with that field's path.
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fairorder.cli import main
from fairorder.model import ParameterError
from fairorder.noise import ConfigurationError
from fairorder.scenario import (RANDOMIZER, REQUEST, SCENARIO, SWEEP, randomizer_from_dict,
                                scenario_from_dict, sweep_from_dict)
from fairorder.schema import NUMBER, Nullable, SchemaError, Table

FLOATS = st.one_of(st.integers(-3, 5), st.floats(-5, 5),
                   st.sampled_from([math.inf, -math.inf, math.nan, 1e308, 5e-324]))
SCALARS = {
    bool: st.booleans(),
    int: st.one_of(st.integers(0, 4), st.integers(0, 4).map(float)),
    float: FLOATS,
    NUMBER: st.one_of(FLOATS, st.just(10**400)),  # kept as written: the dataclass rejects it
}
# Pinned keys anchor the rules that span keys (indices in range, one feature count),
# so that many drawn scenarios load and reach the later checks.
PINNED = {
    (SCENARIO, "feature_count"): st.just(2),
    (SCENARIO, "relevant"): st.lists(st.just(0), min_size=1, max_size=1),
    (SCENARIO, "eta_feature"): st.just(1),
    (SCENARIO, "lambda"): st.floats(0.5, 5),
    (REQUEST, "features"): st.lists(FLOATS, min_size=2, max_size=2),
}


def strategy(t):
    """JSON values that the schema type ``t`` accepts."""
    if isinstance(t, list):
        return st.lists(strategy(t[0]), max_size=3)
    if isinstance(t, dict) and int in t:
        return st.dictionaries(st.integers(0, 4).map(str), strategy(t[int]), max_size=2)
    if isinstance(t, dict):
        return st.sampled_from(sorted(t)).flatmap(
            lambda kind: table_strategy(t[kind]).map(lambda doc: {"kind": kind, **doc}))
    if isinstance(t, Table):
        return deferred_table(t)
    if isinstance(t, Nullable):  # before tuple: a Nullable is a tuple too
        return st.none() | strategy(t.item)
    if isinstance(t, tuple):
        return st.sampled_from(t)
    return SCALARS[t]


@functools.cache
def deferred_table(table):
    """One deferred strategy per table, since a delay nests delays per client."""
    return st.deferred(lambda: table_strategy(table))


def table_strategy(table):
    required = set(table.required.values())
    keys = {k: PINNED[table, k] if (table, k) in PINNED else strategy(t)
            for k, t in table.keys.items()}
    return st.fixed_dictionaries(
        {k: keys[k] for k in keys if k in required},
        optional={k: st.none() | keys[k] for k in keys if k not in required})


def scenarios():
    """Scenario documents whose request ids are unique."""
    def renumber(doc):
        requests = [r for client in doc["clients"] for r in client["requests"]]
        for rid, request in enumerate(requests):
            request["id"] = rid
        return doc
    return table_strategy(SCENARIO).map(renumber)


BLOCKS = {
    "scenario": (scenarios(), scenario_from_dict),
    "sweep": (table_strategy(SWEEP).map(lambda doc: {"sweep": doc}), sweep_from_dict),
    "randomizer": (table_strategy(RANDOMIZER).map(lambda doc: {"randomizer": doc}),
                   randomizer_from_dict),
}


@pytest.mark.parametrize("block", sorted(BLOCKS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_documents_fail_only_semantic_checks(block, data):
    documents, from_dict = BLOCKS[block]
    doc = data.draw(documents)
    try:
        from_dict(doc)
    except SchemaError as exc:
        raise AssertionError(f"a drawn document broke the schema: {exc}") from exc
    except (ConfigurationError, ParameterError):
        pass


def json_class(t) -> str:
    if isinstance(t, Nullable):
        return json_class(t.item)
    if isinstance(t, (list, dict, Table)):
        return "array" if isinstance(t, list) else "object"
    if isinstance(t, tuple):
        return "string"
    return "boolean" if t is bool else "number"


OTHER_TYPE = {"boolean": True, "number": 7, "string": "x", "array": [], "object": {}}


def fields_of(t, value, path):
    """(path, type, holder, key) of every field under ``value`` whose value is not null."""
    if isinstance(t, list):
        for i in range(len(value)):
            yield from field(t[0], value, i, f"{path}[{i}]")
        return
    if isinstance(t, Table):
        keys = t.keys
    elif isinstance(t, dict) and int in t:
        keys = dict.fromkeys(value, t[int])
    elif isinstance(t, dict):
        keys = {"kind": tuple(sorted(t)), **t[value["kind"]].keys}
    else:
        return
    for key in value:
        yield from field(keys[key], value, key, f"{path}.{key}" if path else key)


def field(t, holder, key, path):
    if holder[key] is not None:
        yield path, t, holder, key
        yield from fields_of(t, holder[key], path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_field_of_another_json_type_exits_two_with_its_path(data):
    doc = data.draw(scenarios())
    found = list(fields_of(SCENARIO, doc, ""))
    path, t, holder, key = data.draw(st.sampled_from(found))
    holder[key] = OTHER_TYPE[data.draw(st.sampled_from(
        sorted(set(OTHER_TYPE) - {json_class(t)})))]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code == 2
    assert err.getvalue().startswith(f"error: {path}: ") and err.getvalue().count("\n") == 1
