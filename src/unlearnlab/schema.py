"""One reader for every JSON document the lab loads.

`read(klass, doc, where, error)` builds the dataclass `klass` from parsed
JSON, with its type hints as the schema: an unknown or a missing required
key is an error; an int passes for a float (and stays an int), a bool never
passes for a number; a dataclass field is read the same way; `list[X]`,
`dict[str, X]` and unions such as `X | None` are checked item by item. A
dataclass checks its own values when it is built, and the UnlearnLabError
it raises is reported like a bad type. Any failure raises the caller's
`error` class naming `where` and the dotted key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import reprlib
import types
import typing

from .errors import UnlearnLabError


class _Invalid(Exception):
    """A value breaks its hint; `path` gathers the keys and list indices
    leading to it as the exception leaves each container."""

    def __init__(self, problem, *path):
        super().__init__(problem)
        self.path = list(path)


class _Mismatch(_Invalid):
    """The value is not even of the hint's JSON kind."""


def read(klass, doc, where: str, error):
    """`doc` as a `klass`, or `error` naming `where` and the dotted key
    (list indices follow in brackets: `'tokens'[3]`)."""
    try:
        return _check(klass)(doc)
    except _Invalid as e:
        if not e.path:
            sep = " is malformed:" if isinstance(e, _Mismatch) else ":"
            raise error(f"{where}{sep} {e}") from None
        key = (repr(".".join(p for p in e.path if isinstance(p, str)))
               + "".join(f"[{p}]" for p in e.path if isinstance(p, int)))
        raise error(f"{where}: {key}: {e}") from None


def load(klass, path, what: str, error):
    """`read` of the JSON file at `path`; an unreadable file or invalid JSON
    raises `error` too, naming `what` and `path`."""
    where = f"{what} {path}"
    return _read_json(klass, _text(path, where, error), where, error)


def load_lines(klass, path, what: str, error) -> list:
    """`read` of each non-blank line of the JSON-lines file at `path`."""
    lines = _text(path, f"{what} {path}", error).split("\n")
    return [_read_json(klass, line, f"{what} {path} line {n}", error)
            for n, line in enumerate(lines, 1) if line.strip()]


def _text(path, where, error) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise error(f"{where}: {e.strerror}") from None
    except ValueError as e:  # not text in the file system's encoding
        raise error(f"{where} is not text: {e}") from None


def _read_json(klass, text, where, error):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{where} is not valid JSON: {e}") from None
    return read(klass, doc, where, error)


@functools.cache
def _check(hint):
    """The check of a JSON value against `hint`: it returns the value, with
    dataclasses built and containers copied, or raises _Invalid."""
    if dataclasses.is_dataclass(hint):
        return functools.partial(_object, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, dict):  # the keys of a JSON object are str
        return functools.partial(_container, hint, origin, _check(args[-1]))
    if origin in (typing.Union, types.UnionType):
        return functools.partial(_union, hint, [_check(a) for a in args])
    kinds = (int, float) if hint is float else hint

    def leaf(value):  # `type(value) is hint` is only the fast path
        if type(value) is hint or (isinstance(value, kinds) and
                                   isinstance(value, bool) == (hint is bool)):
            return value
        raise _wrong(hint, value)
    return leaf


def _wrong(hint, value) -> _Invalid:
    name = (hint.__name__ if typing.get_origin(hint) is None
            else re.sub(r"[\w.]+\.", "", str(hint)))  # drop module paths
    return _Mismatch(f"expected {name}, got {reprlib.repr(value)}")


def _union(hint, checks, value):
    errors = []
    for check in checks:
        try:
            return check(value)
        except _Invalid as e:
            errors.append(e)
    # A value of the right kind but a bad part: that error says more.
    raise next((e for e in errors
                if e.path or not isinstance(e, _Mismatch)),
               _wrong(hint, value))


def _container(hint, origin, item, value):
    if not isinstance(value, origin):
        raise _wrong(hint, value)
    out, key = {}, None
    try:
        for key, v in (value.items() if origin is dict else enumerate(value)):
            out[key] = item(v)
    except _Invalid as e:
        e.path.insert(0, key)
        raise
    return out if origin is dict else list(out.values())


@functools.cache
def _fields(klass):
    """(field name -> check, required field names)."""
    hints = typing.get_type_hints(klass)
    fields = dataclasses.fields(klass)
    required = {f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    return {f.name: _check(hints[f.name]) for f in fields}, required


def _object(klass, value):
    if not isinstance(value, dict):
        raise _Mismatch(f"expected a JSON object, got "
                        f"{reprlib.repr(value)}")
    checks, required = _fields(klass)
    if not checks.keys() >= value.keys():
        raise _Invalid("unknown key", next(k for k in value
                                            if k not in checks))
    if not value.keys() >= required:
        raise _Invalid("required key is missing", min(required - value.keys()))
    kwargs, key = {}, None
    try:
        for key, v in value.items():
            kwargs[key] = checks[key](v)
    except _Invalid as e:
        e.path.insert(0, key)
        raise
    try:
        return klass(**kwargs)
    except UnlearnLabError as e:
        raise _Invalid(str(e)) from None
