"""Golden suite reports: a fresh report against the one checked in.

Everywhere, keys, strings, booleans and ints must agree exactly and
floats to 1e-12 relative, as libm's pow and numpy's SIMD loops may move
a float by an ulp from one platform to the next.  On the platform a
golden was made on (tests/golden/MANIFEST.json) the two must also agree
byte for byte.  tools/rewrite_goldens.py rewrites the goldens.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("rewrite_goldens", ROOT / "tools" / "rewrite_goldens.py")
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)

MANIFEST = json.loads((goldens.GOLDEN_DIR / "MANIFEST.json").read_text())
REL_TOL = 1e-12


def mismatches(golden, fresh, path="$"):
    """Where the parsed reports golden and fresh differ beyond the
    tolerance: dict keys in order, strings, booleans and ints exactly,
    and any number that is a float on either side to REL_TOL relative
    (the renderer writes an integral float such as 1.0 as 1)."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        if list(golden) != list(fresh):
            return [f"{path}: keys {list(golden)} != {list(fresh)}"]
        return [m for key in golden for m in mismatches(golden[key], fresh[key], f"{path}.{key}")]
    if isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            return [f"{path}: length {len(golden)} != {len(fresh)}"]
        return [m for k, (g, f) in enumerate(zip(golden, fresh)) for m in mismatches(g, f, f"{path}[{k}]")]
    numbers = all(type(v) in (int, float) for v in (golden, fresh))
    if numbers and float in (type(golden), type(fresh)):
        return [] if math.isclose(golden, fresh, rel_tol=REL_TOL) else [f"{path}: {golden!r} != {fresh!r}"]
    return [] if type(golden) is type(fresh) and golden == fresh else [f"{path}: {golden!r} != {fresh!r}"]


def test_the_manifest_lists_every_golden_file():
    on_disk = {path.name for path in goldens.GOLDEN_DIR.glob("*.json")} - {"MANIFEST.json"}
    assert set(MANIFEST) == on_disk == set(goldens.GOLDEN_ARGV)
    assert all(MANIFEST[name]["argv"] == argv for name, argv in goldens.GOLDEN_ARGV.items())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_a_fresh_report_matches_its_golden(name):
    golden = (goldens.GOLDEN_DIR / name).read_bytes()
    fresh = goldens.report_bytes(MANIFEST[name]["argv"])
    assert mismatches(json.loads(golden), json.loads(fresh)) == []
    if MANIFEST[name]["platform"] == goldens.platform_record():
        assert fresh == golden


def test_the_value_comparison_forgives_rounding_and_nothing_else():
    golden = {"passed": True, "count": 3, "value": 1.0, "ratio": 0.1, "id": "a"}
    assert mismatches(golden, golden | {"value": 1.0000000000000002, "ratio": math.nextafter(0.1, 1.0)}) == []
    for moved in ({"passed": False}, {"count": 4}, {"value": 1.00000000001},
                  {"id": "b"}, {"passed": 1}):
        assert len(mismatches(golden, golden | moved)) == 1, moved
    assert mismatches(golden, {**golden, "extra": 0}) != []
    assert mismatches([1, 2], [1, 2, 3]) != []
