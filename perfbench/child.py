"""One workload process: set up, run the closed loop, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
parent's ``time.monotonic()`` just before it started this process, so the
reported set-up time covers interpreter start, the numpy and vicert imports
and input generation.  Modes:

* ``setup``: stop once the first request is ready.
* ``measure``: closed loop, untraced, whole cycles for ``--seconds``.
* ``trace``: an untraced loop for half of ``--seconds``, then exactly one
  traced cycle, for the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a long-running loop stops starting cycles after this, whatever --seconds says
MAX_LOOP_S = 150.0


def _import_vicert():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import vicert

    src = os.path.join(ROOT, "src", "vicert")
    if os.path.dirname(os.path.abspath(vicert.__file__)) != src:
        raise ImportError(f"vicert imported from {vicert.__file__}, not from {src}")
    return vicert


def _execute(req) -> dict:
    """Run one request and its check; never raises."""
    for path in req.outputs:
        if os.path.exists(path):
            os.remove(path)
    t = time.perf_counter()
    try:
        result = req.call()
    except Exception as exc:  # a raising request is a failed request
        latency = time.perf_counter() - t
        return {"kind": req.kind, "latency": latency, "ok": False, "bytes": 0,
                "reason": f"raised {type(exc).__name__}: {exc}"}
    latency = time.perf_counter() - t
    written = sum(os.path.getsize(p) for p in req.outputs if os.path.exists(p))
    try:
        reason = req.check(result)
    except Exception as exc:  # unreadable output fails its check
        reason = f"check raised {type(exc).__name__}: {exc}"
    del result
    return {"kind": req.kind, "latency": latency, "ok": reason is None,
            "bytes": written, "reason": reason}


def _loop(wl, seconds: float, tracer=None) -> tuple[list[dict], int]:
    """Closed loop over whole cycles, as many as fit ``seconds`` to the
    nearest cycle (at least one); with a tracer, exactly one cycle.

    The reference kernel is timed before the first request and after every
    request; each record's ``ref`` is the mean of the timings on either side.
    """
    records: list[dict] = []
    cycles = 0
    start = time.perf_counter()
    ref_before = reference.timed()
    while True:
        for req in wl.cycle:
            if tracer is not None:
                tracer.request = len(records)
                span = tracer.begin(req.kind, "request")
                rec = _execute(req)
                tracer.end(span)
            else:
                rec = _execute(req)
            ref_after = reference.timed()
            rec["ref"] = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            records.append(rec)
            if not rec["ok"]:
                print(f"FAILED {rec['kind']}: {rec['reason']}", file=sys.stderr)
        cycles += 1
        elapsed = time.perf_counter() - start
        if (tracer is not None or elapsed + 0.5 * elapsed / cycles >= seconds
                or elapsed >= MAX_LOOP_S):
            return records, cycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", help="where the trace mode writes its spans")
    args = ap.parse_args(argv)

    _import_vicert()
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        wl = workloads.build(args.workload, args.seed, tmp, ROOT)
        result = {"setup_s": time.monotonic() - args.t0}
        # the machine's speed just after set-up, to scale setup_s by
        result["setup_ref"] = sorted(reference.timed() for _ in range(3))[1]
        if args.mode != "setup":
            with warnings.catch_warnings():
                # the probe overflows on purpose
                warnings.simplefilter("ignore", RuntimeWarning)
                probe = [_execute(req) for req in wl.probe]
            if args.mode == "measure":
                records, cycles = _loop(wl, args.seconds)
            else:
                from tracer import Tracer

                warm, _ = _loop(wl, args.seconds / 2.0)
                tracer = Tracer()
                tracer.install()
                try:
                    records, cycles = _loop(wl, 0.0, tracer)
                finally:
                    tracer.uninstall()
                if args.spans:
                    tracer.dump(args.spans)
                layers = tracer.layer_metrics()
                layers["cli.output_bytes"] = sum(r["bytes"] for r in records)
                layers["solvers.overflow_raises"] = sum(
                    r["reason"].startswith("raised") for r in probe if not r["ok"])
                layers["pep.lower_bound"] = wl.lower_bounds[-1] if wl.lower_bounds else 0.0
                result["layers"] = layers
                result["untraced"] = len(warm)
                records = warm + records
            result.update({
                "records": records,
                "cycles": cycles,
                "probe": probe,
                "lower_bounds": wl.lower_bounds,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
