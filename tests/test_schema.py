from __future__ import annotations

import re
from dataclasses import dataclass, field

import pytest

from unlearnlab import schema
from unlearnlab.errors import ConfigError, DataError


@dataclass
class Inner:
    rate: float
    flag: bool = False

    def __post_init__(self):
        if self.rate > 1:
            raise ConfigError("rate must be <= 1")


@dataclass
class Outer:
    name: str
    inner: Inner
    count: int = 0
    tags: list[str] = field(default_factory=list)
    label: str | None = None
    table: dict[str, int] = field(default_factory=dict)


_GOOD = {"name": "a", "inner": {"rate": 0.5}}


def _read(doc):
    return schema.read(Outer, doc, "test doc", DataError)


def test_read_builds_nested_dataclasses_and_keeps_ints():
    got = _read(dict(_GOOD, inner={"rate": 1, "flag": True}, tags=["x"],
                     label=None, table={"k": 2}))
    assert got == Outer(name="a", inner=Inner(rate=1, flag=True),
                        tags=["x"], table={"k": 2})
    assert type(got.inner.rate) is int  # an int passes for a float as is
    assert _read(dict(_GOOD, label="l")).label == "l"


# case -> (document, the text its error holds)
_BAD_DOCS = {
    "not_object": ([_GOOD], "malformed: expected a JSON object"),
    "unknown_key": (dict(_GOOD, bogus=1), "'bogus': unknown key"),
    "missing_key": ({"name": "a"}, "'inner': required key is missing"),
    "bool_for_int": (dict(_GOOD, count=True), "'count': expected int"),
    "bool_for_float": (dict(_GOOD, inner={"rate": False}),
                       "'inner.rate': expected float"),
    "float_for_int": (dict(_GOOD, count=1.5), "'count': expected int"),
    "int_for_bool": (dict(_GOOD, inner={"rate": 0, "flag": 1}),
                     "'inner.flag': expected bool"),
    "list_not_list": (dict(_GOOD, tags="x"), "'tags': expected list[str]"),
    "list_item": (dict(_GOOD, tags=["x", 3]), "'tags'[1]: expected str"),
    "optional": (dict(_GOOD, label=5), "'label': expected str | None"),
    "dict_value": (dict(_GOOD, table={"k": "v"}), "'table.k': expected int"),
    "nested_unknown": (dict(_GOOD, inner={"rate": 0, "x": 1}),
                       "'inner.x': unknown key"),
    "out_of_range": (dict(_GOOD, inner={"rate": 2}),
                     "'inner': rate must be <= 1"),
}


@pytest.mark.parametrize("case", list(_BAD_DOCS))
def test_read_raises_the_callers_error_naming_the_key(case):
    # Building an Inner raises ConfigError; the caller asked for DataError.
    doc, match = _BAD_DOCS[case]
    with pytest.raises(DataError, match=re.escape(match)) as err:
        _read(doc)
    assert str(err.value).startswith("test doc")


def test_load_names_the_file_and_line(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text('{"rate": 0.5}\n\n{"rate": "x"}\n')
    with pytest.raises(DataError, match=f"{p} line 3: 'rate'"):
        schema.load_lines(Inner, p, "rates file", DataError)
    p.write_text("{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        schema.load(Inner, p, "rates file", ConfigError)
    with pytest.raises(ConfigError, match="No such file"):
        schema.load(Inner, tmp_path / "nope.json", "rates file", ConfigError)
