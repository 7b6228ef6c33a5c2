"""Rewrite the golden suite reports under tests/golden/.

    PYTHONPATH=src python tools/rewrite_goldens.py

Each golden is the report that ``cesaro-lab suite --seed S`` writes, for
S = 42, 1 and 2.  MANIFEST.json records, for each file, the command that
made it and the platform it was made on: the machine, the libc, the
numpy version and numpy's SIMD dispatch, as libm's pow and numpy's SIMD
loops may differ by an ulp from one platform to the next.
tests/test_golden.py compares a fresh report with each golden: its
values everywhere, and its bytes on a matching platform.

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
# the CLI arguments of every golden report, by file name
GOLDEN_ARGV = {f"suite-seed-{seed}.json": ["suite", "--seed", str(seed)] for seed in (42, 1, 2)}


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
    """The bytes that ``cesaro-lab *argv --out FILE`` writes to FILE."""
    from cesaro_lab.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = main([*argv, "--out", str(out)])
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
