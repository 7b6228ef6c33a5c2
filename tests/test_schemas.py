"""Wire formats: round trips, float fidelity, malformed input."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro_lab import (
    FunctionShiftFamily,
    SchemaError,
    SpaceSpec,
    StepFunction,
    SumElement,
    SlotShiftFamily,
    TaggedVector,
)
from cesaro_lab.schemas import (
    family_from_json,
    family_to_json,
    format_float,
    load_json,
    render_csv,
    render_json,
    slot_family_from_json,
    slot_family_to_json,
    space_from_json,
    space_to_json,
    step_from_json,
    step_to_json,
    sum_from_json,
    sum_to_json,
    tagged_from_json,
    tagged_to_json,
)

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


def test_render_rejects_unknown_types():
    with pytest.raises(SchemaError):
        render_json({"bad": object()})


# ---------------------------------------------------------------------------
# object round trips
# ---------------------------------------------------------------------------

def test_tagged_round_trip():
    v = TaggedVector.from_pairs([(3, -1.25), (7, 0.1)])
    assert tagged_from_json(json.loads(render_json(tagged_to_json(v)))) == v


def test_space_round_trips():
    for space in (
        SpaceSpec.lp(1.5),
        SpaceSpec.finite_l1(4),
        SpaceSpec.c_space(),
        SpaceSpec.cesaro_sum(2.0, (SpaceSpec.lp(2.0), SpaceSpec.finite_l1(2))),
    ):
        assert space_from_json(json.loads(render_json(space_to_json(space)))) == space


def test_step_round_trip_scalar():
    h = StepFunction.scalar((0.0, 0.25, 1.0), (1.5, -0.25))
    assert step_from_json(json.loads(render_json(step_to_json(h)))) == h


def test_step_round_trip_vector():
    f = StepFunction.vector(
        (0.0, 0.5, 1.0),
        (TaggedVector.basis(1, 2.0), TaggedVector.zero()),
        L2,
    )
    back = step_from_json(json.loads(render_json(step_to_json(f))), L2)
    assert back == f


def test_sum_round_trip():
    x = SumElement(2.0, ((1, TaggedVector.basis(1)), (3, TaggedVector.from_dense([1.0, -2.0]))), L2)
    assert sum_from_json(json.loads(render_json(sum_to_json(x)))) == x
    stacked = SumElement(2.0, ((1, TaggedVector.basis(1)),), (L2, SpaceSpec.finite_l1(2)))
    assert sum_from_json(json.loads(render_json(sum_to_json(stacked)))) == stacked


def test_family_round_trip():
    fam = FunctionShiftFamily(
        profile=StepFunction.indicator(0.0, 0.5, 1.0),
        space=L2,
        block=TaggedVector.basis(2),
        offset=1,
        stride=2,
    )
    assert family_from_json(json.loads(render_json(family_to_json(fam)))) == fam


def test_slot_family_round_trip():
    fam = SlotShiftFamily(TaggedVector.basis(1), L2, 2.0, offset=1, stride=3)
    assert slot_family_from_json(json.loads(render_json(slot_family_to_json(fam)))) == fam


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
    ],
)
def test_bad_vectors_raise_schema_error(payload):
    with pytest.raises(SchemaError):
        tagged_from_json(load_json(payload))


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
