"""List every function under src/ that the benchmark, the suite and the
demos never call.

    python tools/unreached.py

A sys.setprofile hook records the code object of every Python call
while the script runs, in turn: the warm-up jobs and one round of the
jobs of each benchmark workload at seed 1, built and run through
perfbench/inputs.py and perfbench/jobs.py (their outputs are not
checked); run_suite at seeds 42, 1 and 2; and every script under
demos/, with its output discarded.  ast then lists each function and
method of src/ (nested functions included) with the line its code
object starts at, its first decorator's or its def's; the script prints
those that no recorded call started at, with their line counts.
Standard library only (sys.setprofile, ast).
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def src_functions() -> list[tuple[Path, int, str, int]]:
    """(path, first line of the code object, qualified name, lines) of
    every function under src/."""
    found = []

    def visit(path: Path, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((path, first, prefix + child.name, child.end_lineno - child.lineno + 1))
                visit(path, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, f"{prefix}{child.name}.")
            else:
                visit(path, child, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(path, ast.parse(path.read_text()), "")
    return found


def run_workloads() -> None:
    """The warm-up jobs and one round of every workload's jobs at seed 1."""
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    import inputs
    import jobs

    with tempfile.TemporaryDirectory() as tmp:
        for workload in inputs.WORKLOADS:
            files = inputs.CliFiles(Path(tmp) / workload)
            files.workdir.mkdir()
            job_list = inputs.warmup_jobs(workload) + inputs.jobs(workload, 1)
            files.write_inputs(job_list)
            for job in job_list:
                jobs.prepare(job, files)()


def main() -> int:
    reached: set[tuple[str, int]] = set()

    def hook(frame, event, arg) -> None:
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run_workloads()
            from cesaro_lab.suite import run_suite

            for seed in (42, 1, 2):
                run_suite(seed)
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)

    functions = src_functions()
    unreached = [(path, first, name, lines) for path, first, name, lines in functions
                 if (str(path), first) not in reached]
    for path, first, name, lines in unreached:
        print(f"{path.relative_to(SRC)}:{first}  {name}  ({lines} lines)")
    print(f"{len(unreached)} of {len(functions)} functions unreached, "
          f"{sum(lines for *_, lines in unreached)} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
