"""Independent checks of vicert outputs.

Nothing here imports vicert: every verdict, trace value and Gram matrix the
program returns is re-derived with numpy (or plain Python floats) from the
inputs the benchmark generated.  Each check returns ``None`` when the output
verifies and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

TRACE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def check_report(rc, text: str, seed: int, iters: int, expected_checks: int,
                 first_output: str | None) -> str | None:
    """Exit 0, all checks pass, the expected number of distinct checks, and
    byte-identical output when the same seed was already answered."""
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(text)
    if doc.get("seed") != seed or doc.get("iters") != iters:
        return "report echoes the wrong seed or iteration count"
    if doc.get("all_pass") is not True:
        return "all_pass is not true"
    checks = doc.get("checks", [])
    keys = {(c["id"], json.dumps(c["params"], sort_keys=True)) for c in checks}
    if len(checks) != expected_checks or len(keys) != expected_checks:
        return f"{len(checks)} checks ({len(keys)} distinct), expected {expected_checks}"
    if first_output is not None and text != first_output:
        return "output differs from the earlier run with the same seed"
    return None


# ---------------------------------------------------------------------------
# trace: numpy re-implementation of every step rule
# ---------------------------------------------------------------------------

def affine_step_matrix(A: np.ndarray, method: str, g: dict) -> tuple[np.ndarray, int]:
    """Matrix of one step of ``method`` on F(x) = A x, acting on the method's
    state.  Returns (M, state_blocks): one block (x) or two blocks
    ((x, x_prev) for og, (x, x_tilde) for eftp)."""
    n = A.shape[0]
    eye = np.eye(n)
    if method == "gd":
        return eye - g["gamma"] * A, 1
    if method == "pp":
        return np.linalg.solve(eye + g["gamma"] * A, eye), 1
    if method == "eg":
        return eye - g["gamma"] * A @ (eye - g["gamma"] * A), 1
    if method == "eg2":
        return eye - g["gamma2"] * A @ (eye - g["gamma1"] * A), 1
    if method == "hgm":
        return eye - g["gamma"] * A.T @ A, 1
    gam = g["gamma"]
    if method == "og":
        # x' = x - 2 gam A x + gam A x_prev ; x_prev' = x
        return np.block([[eye - 2.0 * gam * A, gam * A], [eye, np.zeros((n, n))]]), 2
    if method == "eftp":
        # xt' = x - gam A xt ; x' = x - gam A xt' = (I - gam A) x + gam^2 A^2 xt
        return np.block([[eye - gam * A, gam * gam * A @ A], [eye, -gam * A]]), 2
    raise ValueError(f"unknown method {method!r}")


def affine_final_fx_sq(A: np.ndarray, x0: np.ndarray, method: str, g: dict,
                       iters: int) -> float:
    M, blocks = affine_step_matrix(A, method, g)
    z = np.concatenate([x0] * blocks)
    for _ in range(iters):
        z = M @ z
    fx = A @ z[: A.shape[0]]
    return float(fx @ fx)


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    z = math.exp(t)
    return z / (1.0 + z)


def logistic_final_fx_sq(a: float, delta: float, x0: float, method: str,
                         g: dict, iters: int) -> float:
    """Scalar re-implementation for F(x) = a*sigmoid(a x) + delta*x."""
    def F(x):
        return a * _sigmoid(a * x) + delta * x

    def dF(x):
        s = _sigmoid(a * x)
        return a * a * s * (1.0 - s) + delta

    def resolvent(x, gam):
        # y = x - gam F(y), by Newton on y + gam F(y) - x (strictly increasing)
        y = x
        for _ in range(100):
            step = (y + gam * F(y) - x) / (1.0 + gam * dF(y))
            y -= step
            if abs(step) <= 1e-17 * (1.0 + abs(y)):
                break
        return y

    x = float(x0)
    x_prev = x_tilde = x
    gam = g.get("gamma")
    for _ in range(iters):
        if method == "gd":
            x = x - gam * F(x)
        elif method == "pp":
            x = resolvent(x, gam)
        elif method == "eg":
            x = x - gam * F(x - gam * F(x))
        elif method == "eg2":
            x = x - g["gamma2"] * F(x - g["gamma1"] * F(x))
        elif method == "og":
            x, x_prev = x - 2.0 * gam * F(x) + gam * F(x_prev), x
        elif method == "eftp":
            x_tilde = x - gam * F(x_tilde)
            x = x - gam * F(x_tilde)
        elif method == "hgm":
            x = x - gam * dF(x) * F(x)
        else:
            raise ValueError(f"unknown method {method!r}")
    return F(x) ** 2


def parse_trace_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_trace(rc, text: str, iters: int, expected_fx_sq: float) -> str | None:
    """K+1 rows numbered 0..K and a final ||F(x^K)||^2 within TRACE_RTOL of
    the re-implementation."""
    if rc != 0:
        return f"exit code {rc}"
    header, rows = parse_trace_csv(text)
    if header[:2] != ["k", "fx_sq"]:
        return f"unexpected header {header[:3]}"
    if len(rows) != iters + 1 or rows[-1][0] != str(iters):
        return f"{len(rows)} rows, expected {iters + 1}"
    got = float(rows[-1][1])
    if not math.isfinite(got):
        return "final fx_sq is not finite"
    if abs(got - expected_fx_sq) > TRACE_RTOL * max(abs(got), abs(expected_fx_sq)):
        return f"final fx_sq {got!r}, re-implementation gives {expected_fx_sq!r}"
    return None


def check_divergent(rc, text: str, iters: int, expect_diverged: bool) -> str | None:
    """A run at a huge stepsize: explicit methods must stop early with a
    non-finite row (the CSV form of ``diverged=True``); the implicit step is
    stable for every stepsize and must run to the end with finite rows."""
    if rc != 0:
        return f"exit code {rc}"
    _, rows = parse_trace_csv(text)
    last = float(rows[-1][1])
    if expect_diverged:
        if len(rows) >= iters + 1 or math.isfinite(last):
            return f"did not stop as diverged ({len(rows)} rows, last fx_sq {last!r})"
        return None
    if len(rows) != iters + 1 or not math.isfinite(last):
        return f"implicit step did not stay finite ({len(rows)} rows)"
    return None


# ---------------------------------------------------------------------------
# certify: spectra and pencils from numpy.linalg
# ---------------------------------------------------------------------------

def pencil(A: np.ndarray, ell: float) -> np.ndarray:
    return (ell / 2.0) * (A + A.T) - A.T @ A


def pencil_min_eig(A: np.ndarray, ell: float) -> float:
    return float(np.linalg.eigvalsh(pencil(A, ell))[0])


def min_ell_closed_form(A: np.ndarray) -> float:
    """lambda_max(H^{-1/2} A^T A H^{-1/2}) with H = (A + A^T)/2 positive definite."""
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    if w[0] <= 0.0:
        raise ValueError("symmetric part is not positive definite")
    Hm = (V / np.sqrt(w)) @ V.T
    return float(np.linalg.eigvalsh(Hm @ A.T @ A @ Hm)[-1])


def _verdict_matches(verdict: str, holds: bool, margin: float, scale: float) -> bool:
    """Compare verdicts, accepting either one when the margin is within
    rounding of zero."""
    if abs(margin) <= 1e-8 * scale:
        return verdict in ("holds", "violated")
    return verdict == ("holds" if holds else "violated")


def _disk_margin(vals: np.ndarray, ell: float) -> float:
    return float(np.min(ell / 2.0 - np.abs(vals - ell / 2.0)))


def check_cocoercive_exact(doc: dict, A: np.ndarray, ell: float) -> str | None:
    worst = pencil_min_eig(A, ell)
    scale = 1.0 + float(np.abs(pencil(A, ell)).max())
    if not _verdict_matches(doc["verdict"], worst >= -1e-10, worst, scale):
        return f"verdict {doc['verdict']} but numpy pencil minimum is {worst!r}"
    if abs(doc["worst_slack"] - worst) > 1e-8 * scale:
        return f"worst_slack {doc['worst_slack']!r}, numpy gives {worst!r}"
    return None


def check_spectral_disk(doc: dict, A: np.ndarray, ell: float) -> str | None:
    margin = _disk_margin(np.linalg.eigvals(A), ell)
    scale = 1.0 + ell
    if not _verdict_matches(doc["verdict"], margin >= -1e-9, margin, scale):
        return f"verdict {doc['verdict']} but numpy disk margin is {margin!r}"
    return None


def check_eg_affine(doc: dict, A: np.ndarray, gamma: float) -> str | None:
    B = A @ (np.eye(A.shape[0]) - gamma * A)
    ell = 2.0 / gamma
    coco = pencil_min_eig(B, ell)
    disk = _disk_margin(np.linalg.eigvals(B), ell)
    scale = 1.0 + float(np.abs(pencil(B, ell)).max())
    holds = coco >= -1e-10 and disk >= -1e-9
    if not _verdict_matches(doc["verdict"], holds, min(coco, disk), scale):
        return f"verdict {doc['verdict']} but numpy gives pencil {coco!r}, disk {disk!r}"
    return None


def check_og_witness(doc: dict, A: np.ndarray, ell: float, gamma: float) -> str | None:
    """The witness direction violates (ell/2)-cocoercivity and the lifted
    pair expands by the reported ratio, at least 1 + 4/(ell^2 gamma^2)."""
    if doc["verdict"] != "violated":
        return f"verdict {doc['verdict']}, expected violated"
    u = np.array(doc["witness"]["direction"])
    n = A.shape[0]
    if float(u @ pencil(A, ell / 2.0) @ u) >= 0.0:
        return "witness direction does not violate the pencil"
    eye = np.eye(n)
    big = np.block([[2.0 * A, -A], [-eye / gamma, eye / gamma]])
    z = np.concatenate([u, np.zeros(n)])
    z_hat = z - (2.0 / ell) * (big @ z)
    ratio = float(z_hat @ z_hat) / float(z @ z)
    if abs(ratio - doc["details"]["ratio"]) > 1e-9 * ratio:
        return f"ratio {doc['details']['ratio']!r}, numpy gives {ratio!r}"
    if ratio < 1.0 + 4.0 / (ell * ell * gamma * gamma) - 1e-9:
        return f"ratio {ratio!r} below the floor"
    return None


def check_star_equiv(doc: dict, A: np.ndarray, ell: float, trials: int,
                     seed: int) -> str | None:
    """Exact verdict from numpy's pencil; the sampled worst slack redrawn from
    the same generator stream; the verdict flags sampled-accepts-exact-rejects."""
    det = doc["details"]
    worst = pencil_min_eig(A, ell)
    scale = 1.0 + float(np.abs(pencil(A, ell)).max())
    if abs(worst) > 1e-8 * scale and det["exact_holds"] != (worst >= -1e-10):
        return f"exact_holds={det['exact_holds']} but numpy pencil minimum is {worst!r}"
    rng = np.random.default_rng(seed)
    sampled = math.inf
    for _ in range(trials):
        x = rng.standard_normal(A.shape[0])
        fx = A @ x
        sampled = min(sampled, ell * float(fx @ x) - float(fx @ fx))
    if abs(det["sampled_worst_slack"] - sampled) > 1e-9 * (1.0 + abs(sampled)):
        return f"sampled slack {det['sampled_worst_slack']!r}, numpy gives {sampled!r}"
    expect = "violated" if (sampled >= -1e-12 and not det["exact_holds"]) else "holds"
    if doc["verdict"] != expect:
        return f"verdict {doc['verdict']}, expected {expect}"
    return None


def check_min_ell(doc: dict, A: np.ndarray) -> str | None:
    """The returned ell passes the pencil test, ell*(1 - 1e-6) fails it, and
    ell agrees with the closed form."""
    ell = doc["min_ell"]
    if ell is None:
        return "min_ell is null for a cocoercive matrix"
    scale = 1.0 + float(np.abs(pencil(A, ell)).max())
    if pencil_min_eig(A, ell) < -1e-10 * scale:
        return f"pencil not PSD at returned ell {ell!r}"
    if pencil_min_eig(A, ell * (1.0 - 1e-6)) >= 0.0:
        return f"pencil still PSD below returned ell {ell!r}"
    ref = min_ell_closed_form(A)
    if abs(ell - ref) > 1e-6 * ref:
        return f"min_ell {ell!r}, closed form gives {ref!r}"
    return None


# ---------------------------------------------------------------------------
# pep: SDPA files and Gram points
# ---------------------------------------------------------------------------

def read_sdpa(text: str) -> dict:
    """Sparse parse of an SDPA file: header fields and the entry tokens."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return {
        "name": lines[0].strip('"'),
        "m": int(lines[1]),
        "sizes": [int(t) for t in lines[3].split()],
        "rhs_tokens": lines[4].split(),
        "entries": [ln.split() for ln in lines[5:]],
    }


def norm_pep_counts(K: int) -> tuple[int, int]:
    """Basis size and constraint count of the monotone-Lipschitz norm PEP:
    points x*, x^0..x^K, xt^0..xt^K; two inequalities per pair, one equality."""
    n = 2 * K + 3
    pairs = n * (n - 1) // 2
    return n, 2 * pairs + 1


def check_export(rc, text: str, sidecar: str, K: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = read_sdpa(text)
    n, m = norm_pep_counts(K)
    if doc["m"] != m or doc["sizes"] != [n, -(m - 1)]:
        return f"header m={doc['m']} sizes={doc['sizes']}, expected m={m} sizes={[n, -(m - 1)]}"
    meta = json.loads(sidecar)
    if len(meta["inequalities"]) != m - 1 or len(meta["equalities"]) != 1:
        return "sidecar constraint names do not match the header"
    objective = [e for e in doc["entries"] if e[0] == "0"]
    want = ["0", "1", str(K + 2), str(K + 2), "1"]
    if objective != [want]:
        return f"objective entries {objective}, expected [{want}]"
    return None


def check_parse_roundtrip(parsed: dict, text: str) -> str | None:
    """Every value parse_sdpa returns equals the file's token bit for bit,
    and formatting it back with %.17g gives the token again."""
    doc = read_sdpa(text)
    if parsed["m"] != doc["m"] or list(parsed["block_sizes"]) != doc["sizes"]:
        return "header fields differ"
    rhs = [float(t) for t in doc["rhs_tokens"]]
    if list(parsed["rhs"]) != rhs:
        return "right-hand sides differ"
    blocks = parsed["blocks"]
    gram_seen = {}
    for mk, blk, i, j, tok in doc["entries"]:
        mk, blk, i, j = int(mk), int(blk) - 1, int(i) - 1, int(j) - 1
        val = float(tok)
        block = blocks[mk][blk]
        if block[i, j] != val or block[j, i] != val or f"{block[i, j]:.17g}" != tok:
            return f"entry ({mk}, {blk + 1}, {i + 1}, {j + 1}) is not bit-exact"
        if blk == 0:
            gram_seen[mk] = gram_seen.get(mk, 0) + (1 if i == j else 2)
    # the Gram block holds nothing beyond the listed entries
    for mk in range(doc["m"] + 1):
        if np.count_nonzero(blocks[mk][0]) > gram_seen.get(mk, 0):
            return f"matrix {mk} has Gram entries the file does not list"
    return None


def _gram_inner(G: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    return float(u @ G @ v)


def _psd_margin(G: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])


def check_expansiveness_bound(doc: dict, ell: float, g1: float, g2: float,
                              interval: tuple[float, float]) -> str | None:
    """Gram basis (x, y, xF1, yF1, xF2, yF2); the points x, y and their
    extrapolations; ell-cocoercivity on all six pairs; ||x - y|| = 1."""
    G = np.array(doc["point"]["G"])
    if _psd_margin(G) < -1e-9:
        return "returned G is not PSD"
    e = np.eye(6)
    x, y, xf1, yf1, xf2, yf2 = e
    pts = [(x, xf1), (y, yf1), (x - g1 * xf1, xf2), (y - g1 * yf1, yf2)]
    for i in range(4):
        for j in range(i + 1, 4):
            dp = pts[i][0] - pts[j][0]
            dv = pts[i][1] - pts[j][1]
            slack = ell * _gram_inner(G, dv, dp) - _gram_inner(G, dv, dv)
            if slack < -1e-8:
                return f"cocoercivity slack {slack!r} on pair ({i}, {j})"
    if abs(_gram_inner(G, x - y, x - y) - 1.0) > 1e-8:
        return "unit separation does not hold"
    d = x - g2 * xf2 - (y - g2 * yf2)
    obj = _gram_inner(G, d, d)
    lb = doc["lower_bound"]
    if abs(obj - lb) > 1e-9 * abs(obj):
        return f"objective {obj!r} differs from reported lower bound {lb!r}"
    lo, hi = interval
    if not lo <= lb <= hi:
        return f"lower bound {lb!r} outside [{lo}, {hi}]"
    return None


def check_norm_bound(doc: dict, L: float, g1: float, g2: float, K: int) -> str | None:
    """Gram basis (dx0, Fx0..FxK, Fxt0..FxtK); monotone and L-Lipschitz on
    every pair of x*, x^k, xt^k; ||x0 - x*|| = 1; objective ||F(x^K)||^2."""
    G = np.array(doc["point"]["G"])
    n = 2 * K + 3
    if G.shape != (n, n) or _psd_margin(G) < -1e-9:
        return "returned G has the wrong shape or is not PSD"
    e = np.eye(n)
    dx0, fx, fxt = e[0], e[1:K + 2], e[K + 2:]
    xs = [dx0]
    for k in range(K):
        xs.append(xs[-1] - g2 * fxt[k])
    pts = [(np.zeros(n), np.zeros(n))]
    pts += [(xs[k], fx[k]) for k in range(K + 1)]
    pts += [(xs[k] - g1 * fx[k], fxt[k]) for k in range(K + 1)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dp = pts[i][0] - pts[j][0]
            dv = pts[i][1] - pts[j][1]
            mono = _gram_inner(G, dv, dp)
            lip = L * L * _gram_inner(G, dp, dp) - _gram_inner(G, dv, dv)
            if min(mono, lip) < -1e-8:
                return f"constraint slack {min(mono, lip)!r} on pair ({i}, {j})"
    if abs(_gram_inner(G, dx0, dx0) - 1.0) > 1e-8:
        return "unit start does not hold"
    obj = _gram_inner(G, fx[K], fx[K])
    lb = doc["lower_bound"]
    if abs(obj - lb) > 1e-9 * abs(obj) or not lb > 0.0:
        return f"objective {obj!r} differs from reported lower bound {lb!r}"
    return None
