"""Batch front end: parse JSON inputs, dispatch, emit reports.

Every run writes one machine-readable report (JSON by default, CSV on
request) that echoes its inputs, carries all outputs with error bounds
and pass/fail flags, and a versioned schema id.  Numeric output uses 17
significant digits, so doubles round-trip losslessly and identical
(config, seed) pairs produce byte-identical reports.

Each command takes exactly the options it reads (COMMANDS).  Exit
codes: 2 on a schema violation or a usage error such as an option the
command does not take, 1 when the ``suite`` command sees any failed
criterion, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import __version__
from .embeddings import verify_isometry
from .harness import check_cor32, check_prop21, check_sharpness_footnote, check_thm31, verify_thm33, verify_thm34
from .model import CesaroLabError, NormResult, SchemaError, pointwise_norm
from .opial import SCHUR, ModulusQuery, estimate_eta_empirical, eta_closed_form, r_closed_form
from .scalar import DEFAULT_TOL, ces_fun_integrand_samples, ces_fun_norm, ces_seq_norm
from .schemas import (
    _number,
    family_from_json,
    load_json,
    render_csv,
    render_json,
    slot_family_from_json,
    space_from_json,
    step_from_json,
    sum_from_json,
    tagged_from_json,
)
from .suite import REPORT_SCHEMA, run_suite
from .vector import ces_vfun_norm, cesaro_sum_norm

def _norm_payload(result: NormResult) -> dict:
    return {
        "value": result.value,
        "error_bound": result.error_bound,
        "exact": result.exact,
        "warning": result.warning,
    }


def _read_input(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input file {path!r}: {exc}") from exc
    return load_json(text)


def _write_report(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = render_json(report) + "\n"
    else:
        rows = [("key", "value")]
        _flatten(report, "", rows)
        text = render_csv(rows)
    _emit(text, out)


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is None."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CesaroLabError(f"cannot write report {out!r}: {exc}") from exc


def _flatten(obj, prefix: str, rows: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", rows)
        return
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}{i}.", rows)
        return
    rows.append((prefix.rstrip("."), obj if obj is not None else ""))


def _report(command: str, inputs: dict, outputs: dict, passed: bool | None) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "outputs": outputs,
    }
    if passed is not None:
        report["passed"] = passed
    return report


# every option a command may take: flag -> add_argument keywords
OPTIONS = {
    "--p": dict(type=float, default=2.0, help="exponent p (default 2)"),
    "--tol": dict(type=float, default=DEFAULT_TOL, help="tolerance (default 1e-10)"),
    "--tau": dict(type=float, default=None, help="level tau (default from f); for modulus, c of r(c)"),
    "--M": dict(type=float, default=1.0, help="pointwise bound M (default 1)"),
    "--R": dict(type=float, default=1.0, help="norm bound R (default 1)"),
    "--K": dict(type=float, default=1.0, help="integrability bound K (default 1)"),
    "--r": dict(type=float, default=4.0, help="integrability exponent, a number or inf (default 4)"),
    "--eps": dict(type=float, default=1.0, help="epsilon (default 1)"),
    "--seed": dict(type=int, default=42, help="battery seed (default 42)"),
    "--out": dict(default=None, help="report path (stdout when omitted)"),
    "--format": dict(choices=("json", "csv"), default="json", help="report format (default json)"),
}

_REPORT = ("--out", "--format")
_FAMILY = ("--p", "--tol", *_REPORT)

# command -> (help, reads an input file, the options it takes); a
# command registers exactly the options _dispatch reads for it
COMMANDS = {
    "norm-seq": ("Cesaro sequence norm of a tagged vector", True, _FAMILY),
    "norm-fun": ("Cesaro function norm of a scalar step function", True, _FAMILY),
    "norm-vfun": ("norm of a vector-valued step function", True, _FAMILY),
    "sum-norm": ("norm of a Cesaro-sum element", True, ("--tol", *_REPORT)),
    "embed-check": ("isometry check of the averaging embedding", True, _FAMILY),
    "modulus": ("Opial modulus of a space", True, ("--eps", "--R", "--tau", *_REPORT)),
    "thm31": ("averaged inequality pair on a shift family", True, _FAMILY),
    "cor32": ("strict form for nonzero f", True, _FAMILY),
    "thm33": ("level-set recipe and conclusion", True, ("--M", "--R", "--tau", *_FAMILY)),
    "thm34": ("integrability recipe and conclusion", True,
              ("--r", "--eps", "--M", "--K", "--R", "--tau", *_FAMILY)),
    "prop21": ("windowed Opial check in a Cesaro sum", True, _REPORT),
    "sharpness": ("sup-norm sharpness of the constant 2", False, _REPORT),
    "suite": ("run the full acceptance battery", False, ("--seed", *_REPORT)),
    "plot-data": ("CSV samples (t, inner average, integrand) from a report", True, ("--out",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaro-lab",
        description="norms, embeddings, Opial moduli and inequality checks "
                    "for Cesaro sequence/function spaces",
    )
    parser.add_argument("--version", action="version", version=f"cesaro-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, takes_input, options) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        if takes_input:
            cmd.add_argument("input", help="path to the JSON input")
        for flag in options:
            cmd.add_argument(flag, **OPTIONS[flag])
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more
    than parsing one command line."""
    return build_parser()


def _dispatch(args) -> tuple[dict | None, bool | None]:
    cmd = args.command
    payload = _read_input(args.input) if COMMANDS[cmd][1] else None

    if cmd == "norm-seq":
        vec = tagged_from_json(payload)
        res = ces_seq_norm(vec, args.p, args.tol)
        return _report(cmd, {"vector": payload, "p": args.p, "tol": args.tol},
                       {"norm": _norm_payload(res)}, None), None

    if cmd == "norm-fun":
        h = step_from_json(payload)
        res = ces_fun_norm(h, args.p, args.tol)
        return _report(cmd, {"function": payload, "p": args.p, "rel_tol": args.tol},
                       {"norm": _norm_payload(res)}, None), None

    if cmd == "norm-vfun":
        if not (isinstance(payload, dict) and "function" in payload and "space" in payload):
            raise SchemaError("norm-vfun expects {'function': ..., 'space': ...}")
        space = space_from_json(payload["space"])
        f = step_from_json(payload["function"], space)
        res = ces_vfun_norm(f, args.p, args.tol)
        return _report(cmd, {"function": payload["function"], "space": payload["space"], "p": args.p},
                       {"norm": _norm_payload(res)}, None), None

    if cmd == "sum-norm":
        x = sum_from_json(payload)
        res = cesaro_sum_norm(x, args.tol)
        return _report(cmd, {"element": payload, "tol": args.tol},
                       {"norm": _norm_payload(res)}, None), None

    if cmd == "embed-check":
        if isinstance(payload, dict) and "components" in payload:
            report = verify_isometry(sum_from_json(payload), tol=args.tol)
        else:
            report = verify_isometry(tagged_from_json(payload), args.p, tol=args.tol)
        return _report(cmd, {"input": payload, "p": args.p, "tol": args.tol},
                       report.as_dict(), report.holds), None

    if cmd == "modulus":
        space = space_from_json(payload)
        query = ModulusQuery(space, eps=args.eps, R=args.R)
        eta = eta_closed_form(query)
        outputs: dict = {"eta": "schur" if eta is SCHUR else eta}
        if eta is not SCHUR:
            est = estimate_eta_empirical(query, 5)
            outputs["empirical_estimate"] = est.estimate
            outputs["gap"] = est.closed_form_gap
        if args.tau is not None:  # reuse --tau as the r-modulus argument c
            outputs["r_modulus"] = r_closed_form(space, args.tau)
        return _report(cmd, {"space": payload, "eps": args.eps, "R": args.R},
                       outputs, None), None

    if cmd in ("thm31", "cor32", "thm33", "thm34"):
        if not (isinstance(payload, dict) and "family" in payload):
            raise SchemaError(f"{cmd} expects {{'family': ..., 'f': ...}}")
        fam = family_from_json(payload["family"])
        f_obj = payload.get("f")
        if f_obj is None:
            raise SchemaError(f"{cmd} needs the perturbation 'f'")
        f = step_from_json(f_obj, fam.space)
        if cmd == "thm31":
            rpt = check_thm31(fam, f, args.p, args.tol)
            return _report(cmd, {"family": payload["family"], "f": f_obj, "p": args.p},
                           rpt.quantities() | {"holds1": rpt.holds1, "holds2": rpt.holds2},
                           rpt.holds1 and rpt.holds2), None
        if cmd == "cor32":
            rpt = check_cor32(fam, f, args.p, args.tol)
        elif cmd == "thm33":
            rpt = verify_thm33(fam, f, args.p, M=args.M, R=args.R, tau=args.tau, tol=args.tol)
        else:
            rpt = verify_thm34(fam, f, args.p, r=args.r, eps=args.eps,
                               M=args.M, K=args.K, R=args.R, tau=args.tau, tol=args.tol)
        return _report(cmd, {"family": payload["family"], "f": f_obj, "p": args.p},
                       rpt.as_dict(), rpt.holds), None

    if cmd == "prop21":
        if not (isinstance(payload, dict) and "family" in payload and "x" in payload):
            raise SchemaError("prop21 expects {'family': ..., 'x': ...}")
        fam = slot_family_from_json(payload["family"])
        x = sum_from_json(payload["x"])
        rpt = check_prop21(fam, x)
        return _report(cmd, {"family": payload["family"], "x": payload["x"]},
                       rpt.as_dict(), rpt.holds), None

    if cmd == "sharpness":
        rpt = check_sharpness_footnote()
        return _report(cmd, {}, rpt.as_dict(), rpt.holds), None

    if cmd == "suite":
        report = run_suite(args.seed)
        return report, report["passed"]

    if cmd == "plot-data":  # writes its own CSV
        _plot_data(payload, args.out)
        return None, None

    raise SchemaError(f"unknown command {cmd!r}")


def _plot_data(payload, out: str | None) -> None:
    """Emit (t, inner_average, integrand) samples for a norm-fun,
    norm-vfun or family report; the echoed inputs carry the function to
    resample and its p."""
    if not isinstance(payload, dict):
        raise SchemaError("plot-data expects a report object")
    rows = [("t", "inner_average", "integrand")]
    inputs = payload.get("inputs", {})
    if not isinstance(inputs, dict):
        raise SchemaError("plot-data: the report's inputs must be an object")
    h = None
    if "function" in inputs:
        space = inputs.get("space")
        h = step_from_json(inputs["function"], None if space is None else space_from_json(space))
        if not h.is_scalar:  # norm-vfun: the pointwise-norm profile is what gets normed
            h = pointwise_norm(h)
    elif "family" in inputs:
        fam = family_from_json(inputs["family"])
        h = fam.profile
    if h is not None:
        if "p" not in inputs:
            raise SchemaError("plot-data: the report carries a function but no p")
        rows.extend(ces_fun_integrand_samples(h, _number(inputs["p"], "the report's p")))
    _emit(render_csv(rows), out)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage and its message
        return exc.code
    try:
        report, suite_passed = _dispatch(args)
        if report is not None:
            _write_report(report, args.out, args.format)
        return 1 if suite_passed is False else 0
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except CesaroLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
