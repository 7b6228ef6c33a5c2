"""JSON schemas for the workbench objects and deterministic rendering.

Wire formats
    TaggedVector   {"indices": [...], "coeffs": [...]}
    SpaceSpec      {"space": "lp", "p": 2} | {"space": "finite_l1", "n": 3}
                   | {"space": "cesaro_sum", "p": 2}
    StepFunction   {"breakpoints": [0, ..., 1], "cells": [...]} where a
                   cell is a number (scalar mode) or a TaggedVector
                   object (vector mode; pair with a SpaceSpec)
    SumElement     {"p": 2, "components": [{"slot": 1, "vector": {...}},
                    ...], "stack": SpaceSpec | [SpaceSpec, ...]}
    family         {"profile": StepFunction, "space": SpaceSpec,
                    "block": TaggedVector, "offset": 1, "stride": 1}
    slot family    {"block": TaggedVector, "space": SpaceSpec, "p": 2,
                    "offset": 1, "stride": 1}

A TaggedVector parses straight into its two columns: when the arrays
hold ints and floats only, they are handed to the constructor as they
are, which checks them in one pass and stores them when the indices
increase and every coefficient is finite and nonzero.  Any other
vector takes the general route: each index through _index (an
integral float is an index), each coefficient through _number (an int
is a coefficient), then TaggedVector.from_pairs, which sorts, sums a
repeated index's coefficients in order and drops zero sums.  Indices
and slots above 2**53 are rejected.

Rendering uses 17 significant decimal digits for every float, which
round-trips doubles losslessly, and fixed key order, so equal objects
always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .harness import FunctionShiftFamily
from .model import (
    Partition,
    SchemaError,
    SpaceSpec,
    StepFunction,
    TaggedVector,
)
from .vector import SlotShiftFamily, SumElement


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    Dict keys keep insertion order; callers build reports with a fixed
    key layout, so equal reports render to identical bytes.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [render_json(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {render_json(v, indent + 2)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "}"
    raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")


def render_csv(rows: list[tuple]) -> str:
    """Comma-separated rows.  A cell that is not a string is spelled as
    render_json spells it (true, false, null, 17-digit floats); a string
    that holds a comma, a quote, CR or LF is quoted with its quotes
    doubled (RFC 4180), so csv.reader reads every row back."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if not isinstance(cell, str):
                cell = render_json(cell)
            elif any(ch in cell for ch in ',"\r\n'):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# parsing of the domain objects
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _index(x: Any, what: str) -> int:
    """A JSON index or slot: an integer, or a float with an integral value."""
    if type(x) is int:  # the common case first; also rules out bool
        return x
    _require(isinstance(x, float) and x.is_integer(), f"{what} must be an integer, got {x!r}")
    return int(x)


def _number(x: Any, what: str) -> float:
    """A JSON number as a float; strings, bools and null are rejected."""
    if type(x) is float:  # the common case first
        return x
    _require(type(x) is int, f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise SchemaError(f"{what} exceeds the float range") from None


def tagged_from_json(obj: Any) -> TaggedVector:
    _require(isinstance(obj, dict), "vector must be an object")
    _require("indices" in obj and "coeffs" in obj, "vector needs 'indices' and 'coeffs'")
    idx, coeffs = obj["indices"], obj["coeffs"]
    _require(isinstance(idx, list) and isinstance(coeffs, list), "vector fields must be arrays")
    _require(len(idx) == len(coeffs), "'indices' and 'coeffs' must have equal length")
    try:  # the common case: the arrays are the columns as they are
        return TaggedVector(idx, coeffs)
    except ValueError:
        pass  # unsorted, repeated or zero entries, or a bad one: the general route
    try:
        indices = [_index(i, "vector index") for i in idx]
        values = [c if type(c) is float else _number(c, "vector coefficient") for c in coeffs]
        return TaggedVector.from_pairs(zip(indices, values))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad vector: {exc}") from exc


def space_from_json(obj: Any) -> SpaceSpec:
    _require(isinstance(obj, dict) and "space" in obj, "space must be an object with a 'space' key")
    kind = obj["space"]
    try:
        if kind == "lp":
            return SpaceSpec.lp(_number(obj["p"], "space p"))
        if kind == "finite_l1":
            return SpaceSpec.finite_l1(_index(obj["n"], "finite_l1 dimension"))
        if kind == "cesaro_sum":
            return SpaceSpec.cesaro_sum(_number(obj["p"], "space p"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad space: {exc}") from exc
    raise SchemaError(f"unknown space kind {kind!r}")


def step_from_json(obj: Any, space: SpaceSpec | None = None) -> StepFunction:
    _require(isinstance(obj, dict), "step function must be an object")
    _require("breakpoints" in obj and "cells" in obj, "step function needs 'breakpoints' and 'cells'")
    bps, cells = obj["breakpoints"], obj["cells"]
    _require(isinstance(bps, list) and isinstance(cells, list), "step function fields must be arrays")
    try:
        part = Partition(tuple(t if type(t) is float else _number(t, "breakpoint") for t in bps))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad breakpoints: {exc}") from exc
    _require(len(cells) == part.cell_count, "one cell value per partition cell required")
    scalar = all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in cells)
    try:
        if scalar:
            return StepFunction(part, tuple(float(c) for c in cells))
        vals = tuple(tagged_from_json(c) for c in cells)
        _require(space is not None, "vector-mode step function needs a space")
        return StepFunction(part, vals, space)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad step function: {exc}") from exc


def sum_from_json(obj: Any) -> SumElement:
    _require(isinstance(obj, dict) and "p" in obj, "sum element must be an object with 'p'")
    entries = obj.get("components", [])
    _require(isinstance(entries, list), "sum components must be an array")
    comps = []
    for entry in entries:
        _require(isinstance(entry, dict) and "slot" in entry and "vector" in entry,
                 "component needs 'slot' and 'vector'")
        comps.append((_index(entry["slot"], "component slot"), tagged_from_json(entry["vector"])))
    stack_obj = obj.get("stack", {"space": "lp", "p": 2})
    if isinstance(stack_obj, list):
        stack: SpaceSpec | tuple[SpaceSpec, ...] = tuple(space_from_json(s) for s in stack_obj)
    else:
        stack = space_from_json(stack_obj)
    try:
        return SumElement(_number(obj["p"], "sum p"), tuple(comps), stack)
    except Exception as exc:
        raise SchemaError(f"bad sum element: {exc}") from exc


def family_from_json(obj: Any) -> FunctionShiftFamily:
    _require(isinstance(obj, dict), "family must be an object")
    for key in ("profile", "space", "block"):
        _require(key in obj, f"family needs '{key}'")
    try:
        return FunctionShiftFamily(
            profile=step_from_json(obj["profile"]),
            space=space_from_json(obj["space"]),
            block=tagged_from_json(obj["block"]),
            offset=_index(obj.get("offset", 0), "family offset"),
            stride=_index(obj.get("stride", 1), "family stride"),
        )
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad family: {exc}") from exc


def slot_family_from_json(obj: Any) -> SlotShiftFamily:
    _require(isinstance(obj, dict), "slot family must be an object")
    for key in ("block", "space", "p"):
        _require(key in obj, f"slot family needs '{key}'")
    try:
        return SlotShiftFamily(
            block=tagged_from_json(obj["block"]),
            space=space_from_json(obj["space"]),
            p=_number(obj["p"], "slot family p"),
            offset=_index(obj.get("offset", 0), "family offset"),
            stride=_index(obj.get("stride", 1), "family stride"),
        )
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad slot family: {exc}") from exc


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the interpreter's digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
