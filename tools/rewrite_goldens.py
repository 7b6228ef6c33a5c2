"""Rewrite the golden reports under tests/golden/.

    PYTHONPATH=src python tools/rewrite_goldens.py

Each golden is the report that one ``cesaro-lab`` command line writes
(GOLDEN_ARGV): ``suite --seed S`` for S = 42, 1 and 2; the end-to-end
cases ``norm-seq`` at p = 1.1, 1.2, 1.5, 2 and 3 on a 20-entry vector,
``prop21`` at its default window and ``thm31``, ``thm33`` and ``thm34``
on the suite's worked family; one report of each other command; and
the ``plot-data`` CSV of the ``norm-fun`` golden.  An argument that
ends in ``.json`` names a file under tests/golden/: a checked-in input
under ``inputs/``, or an earlier golden.  MANIFEST.json records, for
each file, the command line that made it and the platform it was made
on: the machine, the libc, the numpy version and numpy's SIMD
dispatch, as libm's pow and numpy's SIMD loops may differ by an ulp
from one platform to the next.  tests/test_golden.py compares a fresh
report with each golden: its values everywhere, and its bytes on a
matching platform.

A change that moves a golden lists each moved value in CHANGES.md with
its distance from the mpmath oracle before it rewrites the files.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"
_WORKED = "inputs/worked-family.json"
# the CLI arguments of every golden report, by file name, in the order
# they are written (plot-data reads the norm-fun golden)
GOLDEN_ARGV = {
    **{f"suite-seed-{seed}.json": ["suite", "--seed", str(seed)] for seed in (42, 1, 2)},
    **{f"norm-seq-20-p{p}.json": ["norm-seq", "inputs/vector-20.json", "--p", p]
       for p in ("1.1", "1.2", "1.5", "2", "3")},
    "prop21.json": ["prop21", "inputs/prop21.json"],
    "thm31.json": ["thm31", _WORKED],
    "thm33.json": ["thm33", _WORKED, "--M", "1", "--R", "1", "--tau", "0.5"],
    "thm34.json": ["thm34", _WORKED, "--r", "4", "--eps", "1", "--K", "1", "--M", "1", "--R", "1",
                   "--tau", "0.25"],
    "norm-seq-3-p2.json": ["norm-seq", "inputs/vector-3.json", "--p", "2"],
    "norm-fun.json": ["norm-fun", "inputs/function.json", "--p", "1.5"],
    "norm-vfun.json": ["norm-vfun", "inputs/vfunction.json", "--p", "1.5"],
    "sum-norm.json": ["sum-norm", "inputs/sum-element.json"],
    "embed-check.json": ["embed-check", "inputs/vector-20.json", "--p", "1.5"],
    "modulus.json": ["modulus", "inputs/space.json", "--eps", "0.5", "--R", "1", "--tau", "0.5"],
    "cor32.json": ["cor32", "inputs/cor32.json", "--p", "1.5"],
    "sharpness.json": ["sharpness"],
    "plot-data.csv": ["plot-data", "norm-fun.json"],
}


def platform_record() -> dict[str, object]:
    """What the bits of a report depend on besides the source."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    return {
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "numpy": np.__version__,
        "simd": [*umath.__cpu_baseline__,
                 *(name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name))],
    }


def report_bytes(argv: list[str]) -> bytes:
    """The bytes that ``cesaro-lab *argv --out FILE`` writes to FILE,
    with each ``.json`` argument read from GOLDEN_DIR."""
    from cesaro_lab.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        args = [str(GOLDEN_DIR / arg) if arg.endswith(".json") else arg for arg in argv]
        code = main([*args, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"cesaro-lab {' '.join(argv)} exited {code}")
        return out.read_bytes()


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, argv in GOLDEN_ARGV.items():
        (GOLDEN_DIR / name).write_bytes(report_bytes(argv))
        manifest[name] = {"argv": argv, "platform": platform_record()}
    (GOLDEN_DIR / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(manifest)} golden reports to {GOLDEN_DIR}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
