"""Typed tables: one walker checks a JSON document and builds objects from it.

A Table gives each key of a JSON object one of these types:

- ``bool``;
- ``int``: an int, or an integral float such as 2.0 (JSON has one number
  type), but not 2.5;
- ``float``: an int or a float, cast to float; an int past the float range
  fails;
- ``NUMBER``: an int or a float, kept as written;
- a tuple of strings: one of them;
- ``[T]``: an array of T, built as a tuple;
- ``{int: T}``: an object keyed by decimal integer ids such as ``"3"``,
  built as a dict keyed by int;
- ``Nullable(T)``: T, or null as a value in its own right;
- a Table: a nested object;
- ``{kind: Table, ...}``: an object whose required ``"kind"`` picks the table
  for its other keys.

No number type takes a bool. In a table a null counts as an absent key, and an
absent key takes the default of the parameter it fills, so a key is required
iff that parameter has no default. ``load`` reports the first key that breaks
its type as a SchemaError whose message starts with the key's path, as in
``clients[0].requests[3].issue_tick: expected an integer, got 2.7``. Keys and
values in the message are escaped and cut short, so it is one short line.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, fields, is_dataclass
from typing import NamedTuple

from .model import ParameterError
from .noise import ConfigurationError

NUMBER = "number"
_PLAIN_KEY = re.compile(r"\w+", re.ASCII).fullmatch
_ID_KEY = re.compile(r"0|[1-9][0-9]*").fullmatch


class Nullable(NamedTuple):
    item: object


def _show(value, limit: int = 40) -> str:
    """``value`` as JSON on one line, cut to ``limit`` characters."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError, RecursionError):
        text = type(value).__name__
    return text if len(text) <= limit else text[:limit - 3] + "..."


class SchemaError(ConfigurationError):
    """A document that breaks its table: ``message`` about the key at the path ``at``."""

    def __init__(self, at, message: str):
        keys = []
        while at:  # nested (parent, key) pairs, built only when a check fails
            at, key = at
            keys.append(f"[{key}]" if type(key) is int else
                        "." + (key if type(key) is str and _PLAIN_KEY(key) else _show(key)))
        path = "".join(reversed(keys)).lstrip(".")
        super().__init__(f"{path or 'document'}: {message}")


def _check(t, value, at, build=True):
    """``value`` checked against the type ``t`` at path ``at``; tables build if ``build``."""
    if t is int:
        if type(value) is int or type(value) is float and value.is_integer():
            return int(value)
        expected = "an integer"
    elif t is float or t is NUMBER:
        if type(value) is float or type(value) is int and t is NUMBER:
            return value
        expected = "a number"
        if type(value) is int:
            try:
                return float(value)
            except OverflowError:
                expected = "a number within the float range"
    elif t is bool:
        if value is True or value is False:
            return value
        expected = "a boolean"
    elif type(t) is tuple:
        if type(value) is str and value in t:
            return value
        expected = "one of " + ", ".join(map(json.dumps, t))
    elif type(t) is Nullable:
        return None if value is None else _check(t.item, value, at, build)
    elif type(t) is list:
        if isinstance(value, (list, tuple)):
            return tuple([_check(t[0], x, (at, i), build) for i, x in enumerate(value)])
        expected = "an array"
    elif not isinstance(value, dict):
        expected = "an object"
    elif type(t) is Table:
        return t.check(value, at, build)
    elif int in t:
        for key in value:
            if not (type(key) is str and _ID_KEY(key)):
                raise SchemaError((at, key), "expected a decimal integer id as the key")
        return {int(k): _check(t[int], x, (at, k), build) for k, x in value.items()}
    elif value.get("kind") is None:
        raise SchemaError((at, "kind"), "missing required key")
    else:
        table = t[_check(tuple(t), value["kind"], (at, "kind"))]
        return table.check({k: x for k, x in value.items() if k != "kind"}, at, build)
    raise SchemaError(at, f"expected {expected}, got {_show(value)}")


class Table:
    """A JSON object's keys and their types, and ``build``, called with the checked values.

    ``names`` maps a key to the parameter it fills where the two differ. A key
    is required iff its parameter has no default in ``of`` (default ``build``)
    when that is a dataclass; otherwise every key is required.
    """

    def __init__(self, build, keys: dict, names: dict | None = None, of=None):
        self.build, self.keys, self.names = build, keys, names or {}
        required = {self.names.get(k, k): k for k in keys}  # parameter -> key
        of = of or build
        if is_dataclass(of):
            required = {f.name: required[f.name] for f in fields(of) if f.name in required
                        and f.default is MISSING and f.default_factory is MISSING}
        self.required = required

    def check(self, doc: dict, at, build=True):
        keys, names, values = self.keys, self.names, {}
        for key, value in doc.items():
            t = keys.get(key)
            if t is None:
                raise SchemaError((at, key), "unknown key")
            if value is not None:
                values[names.get(key, key)] = _check(t, value, (at, key), build)
        if not self.required.keys() <= values.keys():
            key = next(k for name, k in self.required.items() if name not in values)
            raise SchemaError((at, key), "missing required key")
        return self.build(**values) if build else None


def load(table: Table, doc, root: str | None = None):
    """What ``table`` builds from ``doc``; error paths start at the key ``root`` if given.

    A build's own checks (ranges, say) may fail before a later key is
    checked. Then the document is walked again without building, so that a
    wrong type anywhere is reported ahead of a failed range check.
    """
    at = (None, root) if root else None
    try:
        return _check(table, doc, at)
    except (ConfigurationError, ParameterError) as exc:
        if not isinstance(exc, SchemaError):
            _check(table, doc, at, build=False)
        raise
