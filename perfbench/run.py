"""vicert benchmark: four CLI workloads measured end to end and by layer.

Usage, from the root of a vicert checkout:

    python3 perfbench/run.py --workload {report,trace,certify,pep} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in its own child process as a closed loop with one
client: the next request starts only after the previous one returned and
its output was checked by ``verify.py`` (numpy only, no vicert code).
Requests go through ``vicert.cli.main(argv)`` in-process and write into a
temporary directory inside the checkout.  Whole request cycles run for
``--seconds`` (to the nearest cycle), so every run measures the same mix.

``--trace 0`` prints the end-to-end metrics; those BENCHMARK.json bounds go
into the JSON result.  Times are scaled to a fixed reference kernel timed
beside every request (see ``reference.py``), and set-up time is the median
over eleven processes.  ``--trace 1`` prints the per-layer metrics from one
traced cycle (see ``tracer.py``).  Every metric is printed
as a ``name = value unit`` line, then the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark exits non-zero without a result when the checkout has no
vicert sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROCESSES = 10         # set-up-only processes, plus the measuring one
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10             # samples required above the tail percentile
# printed on every --trace 0 run; BENCHMARK.json picks the bounded ones
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child(args, mode: str, spans: str | None = None) -> dict:
    env = dict(os.environ)
    for var in THREAD_ENV:
        env[var] = "1"
    # parse_sdpa allocates a dense block per constraint and touches a few of
    # its pages, so peak RSS depends on how those pages are backed.  numpy asks
    # for transparent huge pages on large arrays, and whether the host has them
    # free made the peak at K=15 read 1.79 or 2.72 GB; glibc raises its mmap
    # threshold after the first large free, after which blocks come from the
    # heap and are zeroed in full, or not, by heap reuse.  Without huge pages
    # and with a fixed threshold every block is a fresh mapping of 4 kB pages.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> str:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return (f"nproc={os.cpu_count()} cpu=\"{cpu}\" python={platform.python_version()} "
            f"numpy={np.__version__} blas=\"{blas}\" blas_threads=1")


def _tail(latencies: list[float]) -> tuple[float, float] | None:
    """The latency at the highest percentile with TAIL_BEYOND samples above
    it, with that percentile; None when the run has too few samples."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _speed(records) -> float:
    """Nominal over measured reference time, the run's scale factor for
    request times; the reference timings are weighted by the latency of the
    request they surround (see ``reference.py``)."""
    weighted = sum(r["latency"] * r["ref"] for r in records) / sum(r["latency"] for r in records)
    return reference.NOMINAL_S / weighted


def _ops_per_s(records) -> float:
    """Verified requests per second of request time, scaled by ``_speed``."""
    return sum(r["ok"] for r in records) / (_speed(records) * sum(r["latency"] for r in records))


def _line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name} = {text} {unit}" + (f"  ({note})" if note else ""))


def _end_to_end(args) -> tuple[dict, int, int]:
    starts = [_child(args, "setup") for _ in range(SETUP_PROCESSES)]
    res = _child(args, "measure")
    starts.append(res)
    records = res["records"]
    speed = _speed(records)
    latencies = [speed * r["latency"] for r in records]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    values = {
        "ops_per_s": _ops_per_s(records),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "setup_s": statistics.median(s["setup_s"] * reference.NOMINAL_S / s["setup_ref"]
                                     for s in starts),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw_busy = sum(r["latency"] for r in records)
    notes = {
        "ops_per_s": f"{attempted - failed} of {attempted} requests verified in {res['cycles']} "
                     f"cycles; unscaled {(attempted - failed) / raw_busy:.4g}/s",
        "op_p50_ms": f"median of {attempted} samples; unscaled "
                     f"{1e3 * statistics.median(r['latency'] for r in records):.4g} ms",
        "setup_s": f"median of {len(starts)} processes; unscaled "
                   f"{statistics.median(s['setup_s'] for s in starts):.4g} s",
        "peak_rss_mb": "max resident set of the measuring process",
    }
    for name, unit in E2E_UNITS.items():
        _line(name, values[name], unit, notes[name])
    print(f"times are scaled by {speed:.4g} to a {1e3 * reference.NOMINAL_S:g} ms reference "
          f"kernel; it took {1e3 * statistics.median(r['ref'] for r in records):.4g} ms "
          f"(median) in this run")
    # printed, not bounded: with whole cycles of mixed request kinds, the
    # sample with ten above it moves between kinds as the cycle count changes
    tail = _tail(latencies)
    if tail is None:
        _line("op_tail_ms", "omitted", "", f"fewer than {TAIL_BEYOND + 1} samples")
    else:
        _line("op_tail_ms", 1e3 * tail[0], "ms", f"p{tail[1]:.1f} of {attempted} samples")
    if res["lower_bounds"]:
        _line("lower_bound", statistics.median(res["lower_bounds"]), "objective",
              "pep-bound expansiveness, ell=1, gamma1=gamma2=0.5")
    _report_probe(res["probe"], attempted, failed)
    return values, attempted, failed


def _report_probe(probe, attempted, failed) -> None:
    """The divergence probe runs once per process, outside the timed loop."""
    if not probe:
        return
    bad = [r for r in probe if not r["ok"]]
    _line("probe_error_rate", len(bad) / len(probe), "ratio",
          f"{len(bad)} of {len(probe)} requests at gamma=1e160 on the identity")
    for r in bad:
        print(f"probe failure {r['kind']}: {r['reason']}")
    total = attempted + len(probe)
    _line("error_rate_with_probe", (failed + len(bad)) / total, "ratio",
          f"{failed + len(bad)} of {total} requests")


def _per_layer(args, spec) -> tuple[dict, int, int]:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    res = _child(args, "trace", spans)
    values = res["layers"]
    untraced, traced = res["records"][:res["untraced"]], res["records"][res["untraced"]:]
    values["tracing.overhead_pct"] = 100.0 * (1.0 - _ops_per_s(traced) / _ops_per_s(untraced))
    for m in spec["per_layer"]:
        _line(m["name"], values[m["name"]], m["unit"])
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    records = res["records"]
    failed = sum(not r["ok"] for r in records)
    _report_probe(res["probe"], len(records), failed)
    return values, len(records), failed


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vicert", "cli.py")):
        print("error: no vicert sources under src/vicert in this checkout", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: {_machine()}")
    try:
        if args.trace:
            values, attempted, failed = _per_layer(args, spec)
            listed = spec["per_layer"]
        else:
            values, attempted, failed = _end_to_end(args)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_tmp"), ignore_errors=True)
    _line("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} requests")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
