"""The four benchmark workloads: seeded inputs, one cycle of requests, and
the independent check attached to each request.

A workload is a fixed cycle of requests; the closed loop in ``child.py``
repeats whole cycles, so every run measures the same request mix.  The
workload seed chooses the inputs only (matrices, start points, report and
search seeds); vicert receives nothing but the generated inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import verify

NAMES = ("report", "trace", "certify", "pep")

REPORT_ITERS = 300
REPORT_CHECKS = 78

# few long runs against report's 300 iterations
TRACE_ITERS = 10_000
METHODS = ("gd", "pp", "eg", "eg2", "og", "eftp", "hgm")
DIVERGENT_GAMMA = 1e160

CERTIFY_SIZES = (5, 20, 50)
STAR_TRIALS = 200

PEP_EXPORT_K = (5, 10, 15)
# parse_sdpa holds a dense slack block per constraint: 9.4 GB of address
# space at K=15, and about 1.7 GB resident at K=15 and 3.4 GB at K=20 where
# numpy gets transparent huge pages, so the round trip stops at K=15.  Without K=5
# the cycle has seven requests, which puts its median inside one request kind.
PEP_ROUNDTRIP_K = (10, 15)
PEP_GAMMA = 0.5
# four-point construction .. SDP optimum (prototype), ell = 1, gamma1 = gamma2 = 0.5
EXPANSIVENESS_INTERVAL = (1.015625, 1.025641 + 1e-6)
NORM_BOUND_K = 2


@dataclass
class Request:
    """One call into vicert.

    ``call`` performs the request and returns its raw result (the CLI exit
    code, or the parsed object for the library round trip).  ``check`` gets
    that result after the files in ``outputs`` were written and returns None
    or a failure reason.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    outputs: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    cycle: list[Request]
    # requests run once per process, outside the timed loop (see trace)
    probe: list[Request] = field(default_factory=list)
    # result of the pep-bound expansiveness request, for the lower_bound line
    lower_bounds: list[float] = field(default_factory=list)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _csv(vec) -> str:
    return ",".join(repr(float(v)) for v in vec)


def _monotone_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian matrix shifted so its symmetric part has minimum eigenvalue 0.25."""
    G = rng.standard_normal((n, n))
    shift = max(0.0, -float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])) + 0.25
    return G + shift * np.eye(n)


def _cli_request(cli, kind, argv, check, outputs) -> Request:
    # look ``main`` up at call time so a traced run sees the wrapped function
    return Request(kind, lambda: cli.main(argv), check, tuple(outputs))


# ---------------------------------------------------------------------------
# report: many short solver runs plus harness overhead
# ---------------------------------------------------------------------------

def _report(cli, rng, tmp) -> Workload:
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    first: dict[int, str] = {}
    cycle = []
    for i, s in enumerate(seeds + seeds[:1]):
        out = os.path.join(tmp, f"report{i}.json")

        def check(rc, s=s, out=out):
            text = _read(out)
            reason = verify.check_report(rc, text, s, REPORT_ITERS, REPORT_CHECKS,
                                         first.get(s))
            first.setdefault(s, text)
            return reason

        argv = ["report", "--seed", str(s), "--iters", str(REPORT_ITERS), "--out", out]
        cycle.append(_cli_request(cli, "report", argv, check, [out]))
    return Workload("report", cycle)


# ---------------------------------------------------------------------------
# trace: few long runs of every method, with CSV writes
# ---------------------------------------------------------------------------

def _stepsizes(method: str, L: float, affine: bool) -> dict:
    if not affine:
        # small steps keep the logistic runs away from the rounding floor
        # at the root, so the final residual is comparable to 1e-9
        return {"gamma1": 0.01, "gamma2": 0.005} if method == "eg2" else {"gamma": 0.01}
    if method == "eg2":
        return {"gamma1": 0.5 / L, "gamma2": 0.25 / L}
    frac = {"gd": 0.1, "pp": 0.5, "eg": 0.5, "og": 0.25, "eftp": 0.25}
    if method == "hgm":
        return {"gamma": 0.5 / L**2}
    return {"gamma": frac[method] / L}


def _gamma_flags(g: dict) -> list[str]:
    return [tok for k, v in sorted(g.items()) for tok in (f"--{k}", repr(v))]


def _trace_check(out, A, x0, method, g):
    """Check against the re-implementation, computed on first use (it is part
    of the check, not of the input set-up) and reused by later cycles."""
    want: list[float] = []

    def check(rc):
        if not want:
            if A is not None:
                want.append(verify.affine_final_fx_sq(A, x0, method, g, TRACE_ITERS))
            else:
                want.append(verify.logistic_final_fx_sq(1.0, 0.01, float(x0[0]), method,
                                                        g, TRACE_ITERS))
        return verify.check_trace(rc, _read(out), TRACE_ITERS, want[0])

    return check


def _trace(cli, rng, tmp, root) -> Workload:
    m50 = _monotone_matrix(rng, 50)
    m50_path = os.path.join(tmp, "monotone50.json")
    with open(m50_path, "w") as fh:
        json.dump({"kind": "affine", "A": m50.tolist(), "b": [0.0] * 50,
                   "constants": {"L": float(np.linalg.norm(m50, 2))}}, fh)
    with open(os.path.join(root, "fixtures", "bilinear4.json")) as fh:
        bil = json.load(fh)
    operators = [
        # (label, --op, matrix or None for logistic, L, x0)
        ("rotation", "rotation", np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0,
         rng.standard_normal(2)),
        ("monotone50", m50_path, m50, float(np.linalg.norm(m50, 2)),
         rng.standard_normal(50)),
        ("bilinear4", os.path.join(root, "fixtures", "bilinear4.json"),
         np.array(bil["A"]), bil["constants"]["L"], rng.standard_normal(4)),
        # fixed start: the implicit step's inner iteration count then does not
        # depend on the seed, so F-evaluation counts repeat exactly
        ("logistic", "logistic", None, 0.26, np.array([2.0])),
    ]
    out = os.path.join(tmp, "trace.csv")
    cycle = []
    for label, ref, A, L, x0 in operators:
        for method in METHODS:
            g = _stepsizes(method, L, A is not None)
            argv = ["run", "--op", ref, "--method", method, "--iters", str(TRACE_ITERS),
                    f"--x0={_csv(x0)}", "--out", out] + _gamma_flags(g)
            cycle.append(_cli_request(cli, f"run:{method}:{label}", argv,
                                      _trace_check(out, A, x0, method, g), [out]))
    probe = []
    for method in METHODS:
        g = ({"gamma1": DIVERGENT_GAMMA, "gamma2": DIVERGENT_GAMMA} if method == "eg2"
             else {"gamma": DIVERGENT_GAMMA})
        argv = ["run", "--op", "identity2", "--method", method, "--iters", str(TRACE_ITERS),
                "--x0", "1,1", "--out", out] + _gamma_flags(g)
        probe.append(_cli_request(
            cli, f"diverge:{method}", argv,
            lambda rc, m=method: verify.check_divergent(rc, _read(out), TRACE_ITERS,
                                                        expect_diverged=m != "pp"),
            [out]))
    return Workload("trace", cycle, probe)


# ---------------------------------------------------------------------------
# certify: numerics kernels at n = 5, 20, 50
# ---------------------------------------------------------------------------

def _certify(cli, rng, tmp) -> Workload:
    out = os.path.join(tmp, "certify.json")
    cycle = []
    for idx, n in enumerate(CERTIFY_SIZES):
        A = _monotone_matrix(rng, n)
        ell_min = verify.min_ell_closed_form(A)
        L = float(np.linalg.norm(A, 2)) * (1.0 + 1e-6)
        gamma = 0.5 / L
        star_seed = int(rng.integers(0, 2**31))
        # alternate holds / violated verdicts across sizes, away from the threshold
        coco_ell = ell_min * (2.0 if idx % 2 else 0.5)
        disk_ell = ell_min * (0.5 if idx % 2 else 2.0)
        cases = [
            ("cocoercive-exact", ["--ell", repr(coco_ell)],
             lambda d, A=A, e=coco_ell: verify.check_cocoercive_exact(d, A, e)),
            ("spectral-disk", ["--ell", repr(disk_ell)],
             lambda d, A=A, e=disk_ell: verify.check_spectral_disk(d, A, e)),
            ("eg-affine", ["--gamma", repr(gamma), "--L", repr(L)],
             lambda d, A=A, g=gamma: verify.check_eg_affine(d, A, g)),
            ("og-witness", ["--ell", repr(ell_min), "--gamma", repr(gamma)],
             lambda d, A=A, e=ell_min, g=gamma: verify.check_og_witness(d, A, e, g)),
            ("star-equiv", ["--ell", repr(0.5 * ell_min), "--trials", str(STAR_TRIALS),
                            "--seed", str(star_seed)],
             lambda d, A=A, e=0.5 * ell_min, s=star_seed:
                 verify.check_star_equiv(d, A, e, STAR_TRIALS, s)),
            ("min-ell", [], lambda d, A=A: verify.check_min_ell(d, A)),
        ]
        matrix = json.dumps(A.tolist())
        for check_name, flags, check_doc in cases:
            argv = ["certify", "--check", check_name, "--A", matrix, "--out", out] + flags

            def check(rc, check_doc=check_doc):
                if rc != 0:
                    return f"exit code {rc}"
                return check_doc(json.loads(_read(out)))

            cycle.append(_cli_request(cli, f"certify:{check_name}:n{n}", argv, check, [out]))
    return Workload("certify", cycle)


# ---------------------------------------------------------------------------
# pep: assembly and export beside low-rank search
# ---------------------------------------------------------------------------

def _pep(cli, pep, rng, tmp) -> Workload:
    wl = Workload("pep", [])
    gam = repr(PEP_GAMMA)
    for K in PEP_EXPORT_K:
        path = os.path.join(tmp, f"norm{K}.dat-s")
        argv = ["pep-export", "--problem", "norm", "--L", "1", "--gamma1", gam,
                "--gamma2", gam, "--K", str(K), "--out", path]
        wl.cycle.append(_cli_request(
            cli, f"pep-export:K{K}", argv,
            lambda rc, p=path, K=K: verify.check_export(rc, _read(p), _read(p + ".json"), K),
            [path, path + ".json"]))
        if K not in PEP_ROUNDTRIP_K:
            continue
        # the round trip goes through the library: the CLI has no parse command
        wl.cycle.append(Request(
            f"parse_sdpa:K{K}", lambda p=path: pep.parse_sdpa(p),
            lambda parsed, p=path: verify.check_parse_roundtrip(parsed, _read(p))))

    search_seed = int(rng.integers(0, 2**31))
    exp_out = os.path.join(tmp, "expansiveness.json")
    first: list[str] = []

    def check_exp(rc):
        if rc != 0:
            return f"exit code {rc}"
        text = _read(exp_out)
        doc = json.loads(text)
        wl.lower_bounds.append(doc["lower_bound"])
        if first and text != first[0]:
            return "output differs from the earlier search with the same seed"
        first.append(text)
        return verify.check_expansiveness_bound(doc, 1.0, PEP_GAMMA, PEP_GAMMA,
                                                EXPANSIVENESS_INTERVAL)

    wl.cycle.append(_cli_request(
        cli, "pep-bound:expansiveness",
        ["pep-bound", "--problem", "expansiveness", "--ell", "1", "--gamma1", gam,
         "--gamma2", gam, "--seed", str(search_seed), "--out", exp_out],
        check_exp, [exp_out]))

    norm_out = os.path.join(tmp, "norm-bound.json")

    def check_norm(rc):
        if rc != 0:
            return f"exit code {rc}"
        return verify.check_norm_bound(json.loads(_read(norm_out)), 1.0, PEP_GAMMA,
                                       PEP_GAMMA, NORM_BOUND_K)

    wl.cycle.append(_cli_request(
        cli, f"pep-bound:norm:K{NORM_BOUND_K}",
        ["pep-bound", "--problem", "norm", "--L", "1", "--gamma1", gam, "--gamma2", gam,
         "--K", str(NORM_BOUND_K), "--restarts", "16", "--steps", "1000",
         "--seed", str(search_seed), "--out", norm_out],
        check_norm, [norm_out]))
    return wl


def build(name: str, seed: int, tmp: str, root: str) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` under ``tmp``."""
    from vicert import cli, pep

    rng = np.random.default_rng(seed)
    if name == "report":
        return _report(cli, rng, tmp)
    if name == "trace":
        return _trace(cli, rng, tmp, root)
    if name == "certify":
        return _certify(cli, rng, tmp)
    if name == "pep":
        return _pep(cli, pep, rng, tmp)
    raise ValueError(f"unknown workload {name!r}")
