"""Command-line entry point.

Subcommands: run, check, certify, counterexample, pep-export, pep-bound,
report.  Exit code 0 on all-pass, 1 on a failed check or violated
certificate where a pass was requested, 2 on usage errors.  ``check``,
``certify`` and the ``pep-*`` commands each dispatch through one table that
names, per choice, the library function and the flags it takes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, certify, harness, numerics, pep
from .errors import VicertError
from .operators import (
    LogisticGrad,
    load_operator,
    rotation,
    scaled_identity,
)
from .solvers import METHODS, SolverConfig, run


def _parse_vector(text: str) -> np.ndarray:
    try:
        return numerics.as_vector([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise VicertError(f"malformed vector {text!r}: {exc}") from exc


def _parse_matrix(text: str) -> np.ndarray:
    try:
        return numerics.as_matrix(json.loads(text))
    except (ValueError, TypeError) as exc:
        raise VicertError(f"malformed matrix {text!r}: {exc}") from exc


_FLAGS = {"lipschitz": "--L", "jac_lipschitz": "--Lambda"}


def _require(args, what: str, dests) -> list:
    """The values of ``dests`` in order; a usage error names the first left unset."""
    for dest in dests:
        if getattr(args, dest) is None:
            raise VicertError(f"{_FLAGS.get(dest, '--' + dest)} is required for {what}")
    return [getattr(args, dest) for dest in dests]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


_BUILTIN_OPS = {
    "rotation": rotation,
    "identity2": lambda: scaled_identity(1.0, 2),
    "identity3": lambda: scaled_identity(1.0, 3),
    "logistic": lambda: LogisticGrad(1.0, 0.01),
}


def _load_op(ref: str):
    if ref in _BUILTIN_OPS:
        return _BUILTIN_OPS[ref]()
    return load_operator(ref)


def _write_out(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _write_json(obj, out: str | None) -> None:
    _write_out(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


# One table per command: choice -> (function name, flag dests in call
# order, ...).  Functions are looked up on their module at call time, so a
# wrapper put on the module attribute (a profiler's, say) sees the call.

# theorem -> (check in harness, flag dests); called as fn(op, *flags), with
# an omitted --xstar taken from the operator's stored root
_CHECKS = {
    "gd": ("check_gd_bounds", ("ell", "gamma", "iters", "x0", "xstar")),
    "pp": ("check_pp_bound", ("ell", "gamma", "iters", "x0", "xstar")),
    "eg-random": ("check_eg_random_bound",
                  ("lipschitz", "gamma1", "gamma2", "iters", "x0", "xstar")),
    "eg-last": ("check_eg_last_bounds", ("lipschitz", "gamma", "iters", "x0", "xstar")),
    "eftp": ("check_eftp_bound", ("lipschitz", "gamma", "iters", "x0", "xstar")),
    "hgm": ("check_hgm_bounds", ("lipschitz", "jac_lipschitz", "gamma", "iters", "x0")),
    "hgm-affine": ("check_hgm_affine_contraction", ("iters", "x0")),
}

# check -> (function in certify, flag dests, the flag holding its matrix or
# operator, fixed arguments); called as fn(matrix, *flags, *fixed), or as
# fn(operator, *flags, ell) with --ell the optional class parameter
_CERTIFICATES = {
    "cocoercive-exact": ("affine_cocoercivity_exact", ("ell",), "A"),
    "spectral-disk": ("spectral_disk_check", ("ell",), "A"),
    "min-ell": ("min_cocoercivity_ell", (), "A"),
    "eg-affine": ("eg_affine_cocoercivity_check", ("gamma", "lipschitz"), "A"),
    "og-witness": ("og_noncocoercivity_witness", ("ell", "gamma"), "A", "og"),
    "eftp-witness": ("og_noncocoercivity_witness", ("ell", "gamma"), "A", "eftp"),
    "star-equiv": ("linear_star_equiv_check", ("ell", "trials", "seed"), "A"),
    "sampled": ("sampled_property_check", ("op_class", "trials", "seed"), "op"),
}

# problem -> (function in pep, flag dests); called as fn(*flags)
_PROBLEMS = {
    "expansiveness": ("build_expansiveness_matrices", ("ell", "gamma1", "gamma2")),
    "norm": ("build_norm_pep",
             ("lipschitz", "gamma1", "gamma2", "K", "operator_class")),
    "delta": ("build_delta_pep", ("lipschitz", "gamma1", "gamma2", "operator_class")),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vicert",
                                description="variational-inequality solver and certificate toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a solver and write the trace CSV")
    runp.add_argument("--op", required=True, help="operator JSON file or builtin name")
    runp.add_argument("--method", required=True, choices=METHODS)
    runp.add_argument("--gamma", type=_finite_float)
    runp.add_argument("--gamma1", type=_finite_float)
    runp.add_argument("--gamma2", type=_finite_float)
    runp.add_argument("--iters", type=int, required=True)
    runp.add_argument("--x0", required=True, help="comma-separated start point")
    runp.add_argument("--xstar", help="comma-separated solution point")
    runp.add_argument("--out")

    chk = sub.add_parser("check", help="evaluate a convergence bound on a run")
    chk.add_argument("--theorem", required=True, choices=_CHECKS)
    chk.add_argument("--op", required=True)
    chk.add_argument("--gamma", type=_finite_float)
    chk.add_argument("--gamma1", type=_finite_float)
    chk.add_argument("--gamma2", type=_finite_float)
    chk.add_argument("--ell", type=_finite_float)
    chk.add_argument("--L", type=_finite_float, dest="lipschitz")
    chk.add_argument("--Lambda", type=_finite_float, dest="jac_lipschitz")
    chk.add_argument("--iters", type=int, required=True)
    chk.add_argument("--x0", help="start point; defaults to the all-ones vector")
    chk.add_argument("--xstar", help="solution point; defaults to the stored root")
    chk.add_argument("--out")

    cert = sub.add_parser("certify", help="run a cocoercivity certificate")
    cert.add_argument("--check", required=True, choices=_CERTIFICATES)
    cert.add_argument("--A", help="matrix as a JSON array of rows")
    cert.add_argument("--op", help="operator JSON file or builtin (sampled check)")
    cert.add_argument("--ell", type=_finite_float)
    cert.add_argument("--L", type=_finite_float, dest="lipschitz")
    cert.add_argument("--gamma", type=_finite_float)
    cert.add_argument("--class", dest="op_class", default="monotone")
    cert.add_argument("--trials", type=int, default=200)
    cert.add_argument("--seed", type=int, default=0)
    cert.add_argument("--expect", choices=["holds", "violated"],
                      help="exit 1 unless the verdict matches")
    cert.add_argument("--out")

    ce = sub.add_parser("counterexample",
                        help="build and verify the expansive four-point system")
    ce.add_argument("--ell", type=_finite_float, required=True)
    ce.add_argument("--gamma1", type=_finite_float, required=True)
    ce.add_argument("--gamma2", type=_finite_float, required=True)
    ce.add_argument("--scale", type=_finite_float, default=1.0)
    ce.add_argument("--out")

    pexp = sub.add_parser("pep-export", help="write an SDPA sparse file")
    _pep_problem_flags(pexp)
    pexp.add_argument("--out", required=True)

    about = ("certified lower bound: solve the problem, then re-verify the "
             "Gram point it returns against every constraint")
    pbnd = sub.add_parser("pep-bound", help=about, description=about)
    _pep_problem_flags(pbnd)
    # the former low-rank search's tuning flags: accepted so that existing
    # command lines still run, and ignored, since the solve has no tuning
    for flag in ("--rank", "--restarts", "--steps", "--rounds", "--seed"):
        pbnd.add_argument(flag, type=int, help=argparse.SUPPRESS)
    pbnd.add_argument("--out")

    rep = sub.add_parser("report", help="run the full bound-check battery")
    rep.add_argument("--seed", type=int, default=20240406)
    rep.add_argument("--iters", type=int, default=300)
    rep.add_argument("--out")
    return p


def _pep_problem_flags(sp) -> None:
    sp.add_argument("--problem", required=True, choices=_PROBLEMS)
    sp.add_argument("--ell", type=_finite_float)
    sp.add_argument("--L", type=_finite_float, dest="lipschitz")
    sp.add_argument("--gamma1", type=_finite_float, required=True)
    sp.add_argument("--gamma2", type=_finite_float, required=True)
    sp.add_argument("--K", type=int, default=1)
    sp.add_argument("--operator-class", default="monotone-lipschitz",
                    choices=["monotone-lipschitz", "cocoercive"])


def _build_problem(args) -> pep.GramProblem:
    name, dests = _PROBLEMS[args.problem]
    return getattr(pep, name)(*_require(args, f"--problem {args.problem}", dests))


def _cmd_run(args) -> int:
    op = _load_op(args.op)
    cfg = SolverConfig(args.method, gamma=args.gamma, iters=args.iters,
                       x0=_parse_vector(args.x0), gamma1=args.gamma1,
                       gamma2=args.gamma2)
    x_star = _parse_vector(args.xstar) if args.xstar else None
    trace = run(op, cfg, x_star=x_star)
    _write_out(trace.to_csv(), args.out)
    return 0


def _cmd_check(args) -> int:
    name, dests = _CHECKS[args.theorem]
    op = _load_op(args.op)
    args.x0 = _parse_vector(args.x0) if args.x0 else np.ones(op.dim)
    args.xstar = _parse_vector(args.xstar) if args.xstar else op.root()
    # declared operator constants stand in for omitted flags
    if args.lipschitz is None:
        args.lipschitz = op.constants.lipschitz
    if args.jac_lipschitz is None:
        args.jac_lipschitz = op.constants.jac_lipschitz
    result = getattr(harness, name)(op, *_require(args, f"--theorem {args.theorem}", dests))
    checks = result if isinstance(result, tuple) else (result,)
    _write_json({"checks": [c.to_json() for c in checks]}, args.out)
    return 0 if all(c.passed is not False for c in checks) else 1


def _cmd_certify(args) -> int:
    name, dests, subject, *tail = _CERTIFICATES[args.check]
    *values, target = _require(args, f"--check {args.check}", dests + (subject,))
    if subject == "op":
        target, tail = _load_op(target), [args.ell]
    else:
        target = _parse_matrix(target)
    report = getattr(certify, name)(target, *values, *tail)
    if not isinstance(report, certify.CertificateReport):
        # a constant, not a report: the least ell, or None when there is none
        _write_out(json.dumps({"min_ell": report}, sort_keys=True) + "\n", args.out)
        return 0
    _write_json(report.to_json(), args.out)
    if args.expect is not None:
        return 0 if report.verdict == args.expect else 1
    return 0


def _cmd_counterexample(args) -> int:
    inst = certify.build_counterexample(args.ell, args.gamma1, scale=args.scale)
    report = certify.verify_counterexample(inst, args.gamma2)
    _write_json({"instance": inst.to_json(), "report": report.to_json()}, args.out)
    return 0 if report.verdict == "violated" else 1


def _cmd_pep_export(args) -> int:
    prob = _build_problem(args)
    pep.export_sdpa(prob, args.out)
    _write_json({"name": prob.name, "basis": list(prob.basis),
                 "metadata": prob.metadata,
                 "inequalities": [name for name, _, _ in prob.inequalities],
                 "equalities": [name for name, _, _ in prob.equalities]},
                args.out + ".json")
    return 0


def _cmd_pep_bound(args) -> int:
    prob = _build_problem(args)
    point = pep.solve(prob)
    _write_json({"problem": prob.name, "metadata": prob.metadata,
                 "lower_bound": point.objective, "solver": point.solver,
                 "point": point.to_json()}, args.out)
    return 0


def _cmd_report(args) -> int:
    report = harness.run_report(seed=args.seed, iters=args.iters)
    _write_out(harness.report_to_json(report), args.out)
    return 0 if report["all_pass"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    handlers = {
        "run": _cmd_run,
        "check": _cmd_check,
        "certify": _cmd_certify,
        "counterexample": _cmd_counterexample,
        "pep-export": _cmd_pep_export,
        "pep-bound": _cmd_pep_bound,
        "report": _cmd_report,
    }
    try:
        # overflow is reported by NonFinite and by a trace's diverged flag,
        # so numpy's own overflow warnings would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return handlers[args.command](args)
    except VicertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
