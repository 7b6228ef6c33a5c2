"""The names the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` installs its spans with ``getattr`` on the
names in its ``TARGETS`` table, so a traced benchmark run breaks when
one of them is deleted or renamed.  This test resolves every entry the
same way, so such a change fails here first.  The tracer module is
loaded from its file and only read: nothing is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for name, module, attr, _ in tracing.TARGETS:
        # the getattr chain of Tracer.install
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(name)
            continue
        if not callable(owner):
            missing.append(name)
    assert not missing, f"traced names that no longer resolve: {missing}"
    assert len(tracing.TARGETS) > 40
