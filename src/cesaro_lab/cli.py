"""Batch front end: parse JSON inputs, dispatch, emit reports.

Every run writes one machine-readable report (JSON by default, CSV on
request) that echoes its inputs, carries all outputs with error bounds
and pass/fail flags, and a versioned schema id.  The inputs come from
the command table (COMMANDS): the input payload, then every option the
command takes except --out and --format, so a report re-runs from its
own inputs.  Numeric output uses 17 significant digits, so doubles
round-trip losslessly and identical (config, seed) pairs produce
byte-identical reports.

Each command takes exactly the options it reads (COMMANDS).  Exit
codes: 2 on a schema violation or a usage error such as an option the
command does not take, 1 when the ``suite`` command sees any failed
criterion (a criterion that raises has failed), 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import __version__
from .embeddings import verify_isometry
from .harness import check_cor32, check_prop21, check_sharpness_footnote, check_thm31, verify_thm33, verify_thm34
from .model import CesaroLabError, SchemaError, pointwise_norm
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
    rows.append((prefix.rstrip("."), obj))


def _report(args: argparse.Namespace, payload, outputs: dict, passed: bool | None) -> dict:
    """The report of a command: the payload under the command's echo key
    (a bundle's own keys), then every option it takes, then outputs."""
    _, echo, options = COMMANDS[args.command]
    inputs = dict(payload) if echo == BUNDLE else {} if echo is None else {echo: payload}
    for flag in options:
        if flag not in _REPORT:
            inputs[flag[2:]] = getattr(args, flag[2:])
    report = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
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
# echo key of a command whose input object is a bundle: its own keys
# are echoed as the report's inputs
BUNDLE = "*"

# command -> (help, echo key of the input file, the options it takes);
# the echo key is None for a command that reads no input, and a command
# registers exactly the options _dispatch reads for it
COMMANDS = {
    "norm-seq": ("Cesaro sequence norm of a tagged vector", "vector", _FAMILY),
    "norm-fun": ("Cesaro function norm of a scalar step function", "function", _FAMILY),
    "norm-vfun": ("norm of a vector-valued step function", BUNDLE, _FAMILY),
    "sum-norm": ("norm of a Cesaro-sum element", "element", ("--tol", *_REPORT)),
    "embed-check": ("isometry check of the averaging embedding", "input", _FAMILY),
    "modulus": ("Opial modulus of a space", "space", ("--eps", "--R", "--tau", *_REPORT)),
    "thm31": ("averaged inequality pair on a shift family", BUNDLE, _FAMILY),
    "cor32": ("strict form for nonzero f", BUNDLE, _FAMILY),
    "thm33": ("level-set recipe and conclusion", BUNDLE, ("--M", "--R", "--tau", *_FAMILY)),
    "thm34": ("integrability recipe and conclusion", BUNDLE,
              ("--r", "--eps", "--M", "--K", "--R", "--tau", *_FAMILY)),
    "prop21": ("windowed Opial check in a Cesaro sum", BUNDLE, _REPORT),
    "sharpness": ("sup-norm sharpness of the constant 2", None, _REPORT),
    "suite": ("run the full acceptance battery", None, ("--seed", *_REPORT)),
    "plot-data": ("CSV samples (t, inner average, integrand) from a report", "report", ("--out",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaro-lab",
        description="norms, embeddings, Opial moduli and inequality checks "
                    "for Cesaro sequence/function spaces",
    )
    parser.add_argument("--version", action="version", version=f"cesaro-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, echo, options) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        if echo is not None:
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
    payload = None if COMMANDS[cmd][1] is None else _read_input(args.input)

    if cmd in ("norm-seq", "norm-fun", "norm-vfun", "sum-norm"):
        if cmd == "norm-seq":
            res = ces_seq_norm(tagged_from_json(payload), args.p, args.tol)
        elif cmd == "norm-fun":
            res = ces_fun_norm(step_from_json(payload), args.p, args.tol)
        elif cmd == "sum-norm":
            res = cesaro_sum_norm(sum_from_json(payload), args.tol)
        else:
            if not (isinstance(payload, dict) and "function" in payload and "space" in payload):
                raise SchemaError("norm-vfun expects {'function': ..., 'space': ...}")
            f = step_from_json(payload["function"], space_from_json(payload["space"]))
            res = ces_vfun_norm(f, args.p, args.tol)
        return _report(args, payload, {"norm": dict(vars(res))}, None), None

    if cmd == "embed-check":
        if isinstance(payload, dict) and "components" in payload:
            report = verify_isometry(sum_from_json(payload), tol=args.tol)
        else:
            report = verify_isometry(tagged_from_json(payload), args.p, tol=args.tol)
        return _report(args, payload, report.as_dict(), report.holds), None

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
        return _report(args, payload, outputs, None), None

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
            return _report(args, payload, rpt.quantities() | {"holds1": rpt.holds1, "holds2": rpt.holds2},
                           rpt.holds1 and rpt.holds2), None
        if cmd == "cor32":
            rpt = check_cor32(fam, f, args.p, args.tol)
        elif cmd == "thm33":
            rpt = verify_thm33(fam, f, args.p, M=args.M, R=args.R, tau=args.tau, tol=args.tol)
        else:
            rpt = verify_thm34(fam, f, args.p, r=args.r, eps=args.eps,
                               M=args.M, K=args.K, R=args.R, tau=args.tau, tol=args.tol)
        return _report(args, payload, rpt.as_dict(), rpt.holds), None

    if cmd == "prop21":
        if not (isinstance(payload, dict) and "family" in payload and "x" in payload):
            raise SchemaError("prop21 expects {'family': ..., 'x': ...}")
        rpt = check_prop21(slot_family_from_json(payload["family"]), sum_from_json(payload["x"]))
        return _report(args, payload, rpt.as_dict(), rpt.holds), None

    if cmd == "sharpness":
        rpt = check_sharpness_footnote()
        return _report(args, payload, rpt.as_dict(), rpt.holds), None

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
