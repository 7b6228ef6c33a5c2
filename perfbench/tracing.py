"""Spans and counts around the public functions of cesaro_lab.

The tracer wraps each function at every name the package binds it to
(module globals, module-level tuples such as the suite's criterion
table, class attributes for methods), so calls between modules are
seen exactly where the callers make them.  No file under ``src/``
changes.

A span is (name, start, end, parent).  Spans live in flat arrays in
memory and are written once, at the end.  A call of a function whose
span is already open (recursion, or one parser calling another) folds
into the open span.  ``busy_s`` of a name is the inclusive time of its
spans; ``self_s`` is busy time minus the time covered by child spans.
Counts come from arguments and return values.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

PACKAGE = "cesaro_lab"
PARSERS = ("load_json", "tagged_from_json", "space_from_json", "step_from_json",
           "sum_from_json", "family_from_json", "slot_family_from_json")


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _fsum_elements(counts, args, kwargs, result):
    _add(counts, "numerics.fsum_array.elements", len(args[0] if args else kwargs["values"]))


def _quadrature(counts, args, kwargs, result):
    _add(counts, "numerics.adaptive_integral.subdivisions", result.subdivisions)
    _add(counts, "numerics.adaptive_integral.unconverged", 0 if result.converged else 1)


def _gl_evals(counts, args, kwargs, result):
    _add(counts, "numerics.gauss_legendre.evals", args[3] if len(args) > 3 else kwargs["n"])


def _budget(counts, args, kwargs, result):
    _add(counts, "scalar.ces_seq_norm.budget_warnings", 0 if result.warning is None else 1)


def _cells(counts, args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    _add(counts, "scalar.ces_fun_norm.cells", h.partition.cell_count)


def _blocks(counts, args, kwargs, result):
    _add(counts, "embeddings.blocks_stored", result.n_stored)


def _rendered(counts, args, kwargs, result):
    # render_json escapes non-ASCII text, so characters are bytes
    _add(counts, "schemas.render_json.bytes", len(result))


# (span name, module, attribute, count hook)
TARGETS = [
    ("numerics.fsum_array", "numerics", "fsum_array", _fsum_elements),
    ("numerics.p_series_tail_bracket", "numerics", "p_series_tail_bracket", None),
    ("numerics.adaptive_integral", "numerics", "adaptive_integral", _quadrature),
    ("numerics.gauss_legendre", "numerics", "gauss_legendre", _gl_evals),
    ("model.abs_prefix_sums", "model", "abs_prefix_sums", None),
    ("model.TaggedVector.restrict", "model", "TaggedVector.restrict", None),
    ("model.pointwise_norm", "model", "pointwise_norm", None),
    ("model.common_refinement", "model", "common_refinement", None),
    ("scalar.ces_seq_norm", "scalar", "ces_seq_norm", _budget),
    ("scalar.ces_fun_norm", "scalar", "ces_fun_norm", _cells),
    ("scalar.lr_fun_norm", "scalar", "lr_fun_norm", None),
    ("vector.cesaro_sum_norm", "vector", "cesaro_sum_norm", None),
    ("vector.ces_vfun_norm", "vector", "ces_vfun_norm", None),
    ("embeddings.embed_T", "embeddings", "embed_T", _blocks),
    ("embeddings.embed_S", "embeddings", "embed_S", _blocks),
    ("embeddings.embedded_outer_norm", "embeddings", "embedded_outer_norm", None),
    ("embeddings.verify_isometry", "embeddings", "verify_isometry", None),
    ("opial.splitting_check", "opial", "splitting_check", None),
    ("opial.estimate_eta_empirical", "opial", "estimate_eta_empirical", None),
    ("harness.check_thm31", "harness", "check_thm31", None),
    ("harness.check_cor32", "harness", "check_cor32", None),
    ("harness.verify_thm33", "harness", "verify_thm33", None),
    ("harness.verify_thm34", "harness", "verify_thm34", None),
    ("harness.check_prop21", "harness", "check_prop21", None),
    ("harness.eval_phi", "harness", "eval_phi", None),
    ("schemas.render_json", "schemas", "render_json", _rendered),
    *(("schemas.parse", "schemas", name, None) for name in PARSERS),
    *((f"suite.criterion_{k:02d}", "suite", f"criterion_{k:02d}", None) for k in range(1, 15)),
    ("cli.main", "cli", "main", None),
]

# (metric, unit): what a traced run reports, in this order
LAYER_METRICS = [
    ("numerics.fsum_array.calls", "calls"),
    ("numerics.fsum_array.elements", "count"),
    ("numerics.fsum_array.self_s", "s"),
    ("numerics.p_series_tail_bracket.calls", "calls"),
    ("numerics.adaptive_integral.calls", "calls"),
    ("numerics.adaptive_integral.subdivisions", "count"),
    ("numerics.adaptive_integral.unconverged", "count"),
    ("numerics.adaptive_integral.self_s", "s"),
    ("numerics.gauss_legendre.evals", "count"),
    ("numerics.gauss_legendre.self_s", "s"),
    ("model.abs_prefix_sums.calls", "calls"),
    ("model.abs_prefix_sums.self_s", "s"),
    ("model.TaggedVector.restrict.calls", "calls"),
    ("model.TaggedVector.restrict.self_s", "s"),
    ("model.pointwise_norm.self_s", "s"),
    ("model.common_refinement.self_s", "s"),
    ("scalar.ces_seq_norm.calls", "calls"),
    ("scalar.ces_seq_norm.busy_s", "s"),
    ("scalar.ces_seq_norm.self_s", "s"),
    ("scalar.ces_seq_norm.budget_warnings", "count"),
    ("scalar.ces_fun_norm.calls", "calls"),
    ("scalar.ces_fun_norm.cells", "count"),
    ("scalar.ces_fun_norm.busy_s", "s"),
    ("scalar.ces_fun_norm.self_s", "s"),
    ("scalar.lr_fun_norm.self_s", "s"),
    ("vector.cesaro_sum_norm.calls", "calls"),
    ("vector.cesaro_sum_norm.busy_s", "s"),
    ("vector.ces_vfun_norm.calls", "calls"),
    ("vector.ces_vfun_norm.busy_s", "s"),
    ("embeddings.embed_T.busy_s", "s"),
    ("embeddings.embed_S.busy_s", "s"),
    ("embeddings.blocks_stored", "count"),
    ("embeddings.embedded_outer_norm.busy_s", "s"),
    ("embeddings.verify_isometry.calls", "calls"),
    ("embeddings.verify_isometry.busy_s", "s"),
    ("opial.splitting_check.busy_s", "s"),
    ("opial.estimate_eta_empirical.busy_s", "s"),
    ("harness.check_thm31.calls", "calls"),
    ("harness.check_thm31.busy_s", "s"),
    ("harness.check_cor32.busy_s", "s"),
    ("harness.verify_thm33.busy_s", "s"),
    ("harness.verify_thm34.busy_s", "s"),
    ("harness.check_prop21.busy_s", "s"),
    ("harness.eval_phi.self_s", "s"),
    ("schemas.render_json.calls", "calls"),
    ("schemas.render_json.bytes", "bytes"),
    ("schemas.render_json.self_s", "s"),
    ("schemas.parse.self_s", "s"),
    *((f"suite.criterion_{k:02d}.busy_s", "s") for k in range(1, 15)),
    ("cli.main.calls", "calls"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, count):
        nid = self._name_id(name)
        is_open = self._open
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_open[nid]:
                return fn(*args, **kwargs)
            is_open[nid] = 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                is_open[nid] = 0
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _modules(self) -> list:
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._modules()
        for name, module, attr, count in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            traced = self.wrap(name, fn, count)
            if path:  # a method: the class attribute is the only binding
                self._set(owner, leaf, traced)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, key, traced)
                    elif isinstance(val, tuple) and any(v is fn for v in val):
                        self._set(mod, key, tuple(traced if v is fn else v for v in val))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per-layer totals in the order of LAYER_METRICS (0 when a
        layer was not reached)."""
        import numpy as np

        n = len(self.span_start)
        nid = np.frombuffer(self.span_name, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.span_end) - np.frombuffer(self.span_start)) if n else np.zeros(0)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=dur, minlength=k)
        self_time = np.bincount(nid, weights=dur - child, minlength=k)
        values: dict[str, float] = {}
        for name, i in self._ids.items():
            values[f"{name}.calls"] = int(calls[i])
            values[f"{name}.busy_s"] = float(busy[i])
            values[f"{name}.self_s"] = float(self_time[i])
        values.update(self.counts)
        values["trace.spans"] = n
        return {metric: values.get(metric, 0) for metric, _ in LAYER_METRICS}

    def write(self, path) -> None:
        """Write every span once: a JSON header line naming the span ids,
        then the four arrays (name id, parent index, start, end) as raw
        machine words."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
