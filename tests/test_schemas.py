"""Wire formats: parsing, echo round trips, float fidelity, malformed input."""

from __future__ import annotations

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import (
    FunctionShiftFamily,
    Partition,
    SchemaError,
    SpaceSpec,
    StepFunction,
    SumElement,
    SlotShiftFamily,
    TaggedVector,
)
from cesaro_lab.schemas import (
    _index,
    _number,
    family_from_json,
    format_float,
    load_json,
    render_csv,
    render_json,
    slot_family_from_json,
    space_from_json,
    step_from_json,
    sum_from_json,
    tagged_from_json,
)

from test_model import pair_loop_entries

L2 = SpaceSpec.lp(2.0)


# ---------------------------------------------------------------------------
# float rendering
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_seventeen_digits_round_trip(x):
    assert float(format_float(x)) == x


def test_special_floats_render_as_strings():
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'
    assert format_float(math.nan) == '"nan"'


def test_render_json_is_valid_json():
    obj = {"a": 1, "b": [1.5, True, None, "x"], "c": {"d": 0.1}}
    parsed = json.loads(render_json(obj))
    assert parsed == obj


def test_render_json_deterministic_key_order():
    a = render_json({"x": 1, "y": 2})
    b = render_json({"x": 1, "y": 2})
    assert a == b
    assert a.index('"x"') < a.index('"y"')


def test_render_csv_floats():
    text = render_csv([("key", "value"), ("v", 0.1)])
    assert "0.10000000000000001" in text


def test_a_csv_cell_with_a_comma_a_quote_or_a_line_break_is_quoted():
    rows = [("key", "value"), ("a", 'say "x", then\ny'), ("b", "plain"), ("c", True), ("d", "cr\r")]
    text = render_csv(rows)
    assert text == 'key,value\na,"say ""x"", then\ny"\nb,plain\nc,true\nd,"cr\r"\n'
    assert list(csv.reader(io.StringIO(text, newline=""))) == [[k, v if isinstance(v, str) else render_json(v)]
                                                               for k, v in rows]


def test_render_rejects_unknown_types():
    with pytest.raises(SchemaError):
        render_json({"bad": object()})


# ---------------------------------------------------------------------------
# objects parsed from literal JSON, and the payload a report echoes
# ---------------------------------------------------------------------------

def parsed(parse, text: str, *args):
    """Parse literal JSON text, after checking that the payload as a
    report echoes it (render_json) parses to the same object."""
    payload = load_json(text)
    obj = parse(payload, *args)
    assert parse(load_json(render_json(payload)), *args) == obj
    return obj


def test_tagged_round_trip():
    v = parsed(tagged_from_json, '{"indices": [7, 3], "coeffs": [0.1, -1.25]}')
    assert v == TaggedVector.from_pairs([(3, -1.25), (7, 0.1)])
    assert v.entries == ((3, -1.25), (7, 0.1))


def test_space_round_trips():
    assert parsed(space_from_json, '{"space": "lp", "p": 1.5}') == SpaceSpec.lp(1.5)
    assert parsed(space_from_json, '{"space": "finite_l1", "n": 4}') == SpaceSpec.finite_l1(4)
    assert parsed(space_from_json, '{"space": "cesaro_sum", "p": 2}') == SpaceSpec.cesaro_sum(2.0)
    with pytest.raises(SchemaError, match="unknown space kind 'c'"):
        space_from_json({"space": "c"})


def test_step_round_trip_scalar():
    h = parsed(step_from_json, '{"breakpoints": [0, 0.25, 1], "cells": [1.5, -0.25]}')
    assert h == StepFunction(Partition((0.0, 0.25, 1.0)), (1.5, -0.25))


def test_step_round_trip_vector():
    text = ('{"breakpoints": [0, 0.5, 1], "cells": [{"indices": [1], "coeffs": [2.0]},'
            ' {"indices": [], "coeffs": []}]}')
    f = parsed(step_from_json, text, L2)
    assert f == StepFunction(Partition((0.0, 0.5, 1.0)), (TaggedVector.basis(1, 2.0), TaggedVector.zero()), L2)


def test_sum_round_trip():
    x = parsed(sum_from_json, '{"p": 2, "components": [{"slot": 1, "vector": {"indices": [1], "coeffs": [1]}},'
                              ' {"slot": 3, "vector": {"indices": [1, 2], "coeffs": [1.0, -2.0]}}],'
                              ' "stack": {"space": "lp", "p": 2}}')
    assert x == SumElement(2.0, ((1, TaggedVector.basis(1)), (3, TaggedVector.from_dense([1.0, -2.0]))), L2)
    stacked = parsed(sum_from_json, '{"p": 2, "components": [{"slot": 1, "vector": {"indices": [1], "coeffs": [1]}}],'
                                    ' "stack": [{"space": "lp", "p": 2}, {"space": "finite_l1", "n": 2}]}')
    assert stacked == SumElement(2.0, ((1, TaggedVector.basis(1)),), (L2, SpaceSpec.finite_l1(2)))


def test_family_round_trip():
    fam = parsed(family_from_json, '{"profile": {"breakpoints": [0, 0.5, 1], "cells": [1, 0]},'
                                   ' "space": {"space": "lp", "p": 2},'
                                   ' "block": {"indices": [2], "coeffs": [1]}, "offset": 1, "stride": 2}')
    assert fam == FunctionShiftFamily(
        profile=StepFunction.indicator(0.0, 0.5, 1.0),
        space=L2,
        block=TaggedVector.basis(2),
        offset=1,
        stride=2,
    )


def test_slot_family_round_trip():
    fam = parsed(slot_family_from_json, '{"block": {"indices": [1], "coeffs": [1]},'
                                        ' "space": {"space": "lp", "p": 2}, "p": 2, "offset": 1, "stride": 3}')
    assert fam == SlotShiftFamily(TaggedVector.basis(1), L2, 2.0, offset=1, stride=3)


# ---------------------------------------------------------------------------
# malformed input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "payload",
    [
        "not json at all {",
        '{"indices": [1], "coeffs": [1, 2]}',
        '{"indices": "x", "coeffs": []}',
        '{"coeffs": [1]}',
        '{"indices": [1, 2], "coeffs": ["2", true]}',
        '{"indices": [1], "coeffs": [null]}',
        '{"indices": [1], "coeffs": [1e999]}',
        pytest.param('{"indices": [1], "coeffs": [1%s]}' % ("0" * 400), id="int-beyond-float-range"),
        pytest.param('{"indices": [1, 9007199254740993], "coeffs": [1.0, 2.0]}', id="index-past-2**53"),
        pytest.param('{"indices": [1, 1e300], "coeffs": [1.0, 2.0]}', id="float-index-past-2**53"),
        pytest.param('{"indices": [1%s], "coeffs": [1.0]}' % ("0" * 400), id="int-index-beyond-float-range"),
        pytest.param('{"indices": [1%s], "coeffs": [1.0]}' % ("0" * 5000), id="int-past-the-digit-limit"),
    ],
)
def test_bad_vectors_raise_schema_error(payload):
    with pytest.raises(SchemaError):
        tagged_from_json(load_json(payload))


def pair_route(obj):
    """tagged_from_json as it was: every entry through _index and
    _number, the sum of every index's coefficients in a dict, and the
    pair-loop validator on the sorted nonzero sums; entries, or
    SchemaError."""
    try:
        indices = [_index(i, "vector index") for i in obj["indices"]]
        values = [c if type(c) is float else _number(c, "vector coefficient") for c in obj["coeffs"]]
        acc = {}
        for i, c in zip(indices, values):
            acc[i] = acc.get(i, 0.0) + float(c)
        return pair_loop_entries((i, c) for i, c in sorted(acc.items()) if c != 0.0)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad vector: {exc}") from exc


json_indices = st.one_of(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30).map(float),
                         st.sampled_from([0, -2, 2.5, True, "4", None, 2**53]))
json_coeffs = st.one_of(st.floats(min_value=-1e3, max_value=1e3), st.integers(min_value=-3, max_value=3),
                        st.sampled_from([0.0, -0.0, math.nan, math.inf, 1e308, 10**400, True, "1.5", None]))


@st.composite
def json_vectors(draw):
    """A vector payload: sorted distinct int indices with float
    coefficients (the parser's plain case), or with a few entries
    replaced by duplicate, unsorted, integral-float, zero or bad ones."""
    n = draw(st.integers(min_value=0, max_value=60))
    indices = sorted(draw(st.sets(st.integers(min_value=1, max_value=200), min_size=n, max_size=n)))
    coeffs = draw(st.lists(st.floats(min_value=-1e3, max_value=1e3).filter(bool), min_size=n, max_size=n))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if n else 0):
        k = draw(st.integers(min_value=0, max_value=n - 1))
        if draw(st.booleans()):
            indices[k] = draw(json_indices)
        else:
            coeffs[k] = draw(json_coeffs)
    return load_json(json.dumps({"indices": indices, "coeffs": coeffs}))


@settings(max_examples=300, deadline=None)
@given(json_vectors())
def test_the_columnar_parse_gives_what_the_pair_route_gave(payload):
    try:
        expected = pair_route(payload)
    except SchemaError:
        with pytest.raises(SchemaError):
            tagged_from_json(payload)
        return
    v = tagged_from_json(payload)
    assert v.entries == expected
    assert all(type(i) is int for i in v.indices) and all(type(c) is float for c in v.coeffs)


def test_the_parse_sums_repeated_indices_in_order_and_drops_zeros():
    v = tagged_from_json({"indices": [3, 1, 3, 2.0, 5, 5], "coeffs": [0.1, 1, 0.2, -0.0, 2.5, -2.5]})
    assert v == TaggedVector((1, 3), (1.0, 0.1 + 0.2))


def test_bad_spaces_raise_schema_error():
    with pytest.raises(SchemaError):
        space_from_json({"space": "banach"})
    with pytest.raises(SchemaError):
        space_from_json({"space": "lp"})
    with pytest.raises(SchemaError):
        space_from_json([1, 2])


def test_bad_steps_raise_schema_error():
    with pytest.raises(SchemaError):
        step_from_json({"breakpoints": [0.0, 0.5], "cells": [1.0, 2.0]})
    with pytest.raises(SchemaError):
        step_from_json({"breakpoints": [0.0, 0.5, 1.0], "cells": [1.0]})
    with pytest.raises(SchemaError):
        # vector cells without a space
        step_from_json({"breakpoints": [0.0, 1.0], "cells": [{"indices": [1], "coeffs": [1.0]}]})


def test_strings_and_bools_are_not_numbers():
    with pytest.raises(SchemaError, match="space p must be a number"):
        space_from_json({"space": "lp", "p": "2"})
    with pytest.raises(SchemaError, match="finite_l1 dimension must be an integer"):
        space_from_json({"space": "finite_l1", "n": 2.5})
    with pytest.raises(SchemaError, match="breakpoint must be a number"):
        step_from_json({"breakpoints": [0, "0.5", 1], "cells": [1.0, 2.0]})
    with pytest.raises(SchemaError, match="sum p must be a number"):
        sum_from_json({"p": True, "components": []})


def test_bad_family_raises_schema_error():
    with pytest.raises(SchemaError):
        family_from_json({"space": {"space": "lp", "p": 2}})
    with pytest.raises(SchemaError):
        sum_from_json({"components": []})
