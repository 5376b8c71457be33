#!/usr/bin/env python3
"""Layered, verified routing benchmark for dexroute.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-gmean-10k --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a run
that wraps dexroute's public entry points (see README.md).  The lines before
it record the environment and the tail percentile used.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time

_T_START = time.perf_counter()

# One single-threaded process: cap every BLAS/OpenMP pool before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 3
FAIL_RATIO_FLOOR = 1e-3   # reported when no op fails, so the ratio is never 0
E2E_UNITS = {"route_ms.p50": "ms", "route_ms.tail": "ms", "goodput_per_s": "1/s",
             "fail_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def _environment() -> dict:
    import numpy
    import scipy
    from dexroute import kernels

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": have_numba,
        "kernels_backend": kernels.BACKEND,
        "git_sha": _git_sha(),
        "threads_cap": {v: os.environ[v] for v in THREAD_VARS},
    }


def _percentile(values, pct):
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def _measure(wl, seconds: float, recorder=None):
    """Run whole rounds until the measuring time is up.

    With a recorder, rounds alternate untraced / traced (at least one of
    each), so the traced run also yields its own untraced latencies.
    Returns (ops, traced flags per op).
    """
    ops, traced = [], []
    t_end = time.perf_counter() + seconds
    r = 0
    while True:
        on = recorder is not None and r % 2 == 1
        started = 0

        def before_op():
            # start every op from the same collector state, so an op pays
            # only for the garbage it makes itself
            nonlocal started
            gc.collect()
            if on:
                recorder.op = len(ops) + started
            started += 1

        if on:
            recorder.install()
        try:
            batch = wl.round(before_op)
        finally:
            if on:
                recorder.uninstall()
                recorder.op = None
        ops.extend(batch)
        traced.extend([on] * len(batch))
        r += 1
        if time.perf_counter() >= t_end and (recorder is None or r >= 2):
            return ops, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for v in THREAD_VARS:
        os.environ[v] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dexroute", "__init__.py")):
        print(f"error: no dexroute sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import dexroute
    if os.path.dirname(os.path.abspath(dexroute.__file__)) != os.path.join(src, "dexroute"):
        print("error: dexroute was not imported from this checkout", file=sys.stderr)
        return 2
    import resource

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # every reported time is scaled to the probe's reference host speed
    # (workloads.calibrated); imports by the probe that follows them
    import_s = (time.perf_counter() - _T_START) * workloads.PROBE_REF_MS / workloads.probe_ms()
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    setup_times, digests = [], set()
    for _ in range(SETUP_REPS):
        texts, _, ms = workloads.calibrated(wl.setup)
        setup_times.append(ms / 1e3)
        digests.add(tuple(hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts))
    deterministic = len(digests) == 1
    setup_s = import_s + statistics.median(setup_times)
    # inputs and verifier tables live for the whole run: keep them out of
    # the collector's traversals, which the ops would otherwise pay for
    gc.collect()
    gc.freeze()

    recorder = tracer.Recorder() if args.trace else None
    ops, traced = _measure(wl, args.seconds, recorder)

    ms = [o.ms for o in ops]
    failed = sum(1 for o in ops if not o.ok)
    print(json.dumps({"env": _environment()}))
    print(json.dumps({"workload": wl.name, "seed": args.seed, "ops": len(ops), "failed": failed,
                      "input_sha256": list(next(iter(digests))) if deterministic else "differs between set-ups",
                      "tail_percentile": wl.tail_pct,
                      "samples_beyond_tail": sum(1 for x in ms if x > _percentile(ms, wl.tail_pct)),
                      "op_ms": [round(x, 1) for x in ms], "op_raw_ms": [round(o.raw_ms, 1) for o in ops],
                      "op_ok": [o.ok for o in ops],
                      "fail_reasons": sorted({o.reason for o in ops if not o.ok})[:8]}))
    if args.trace:
        # span times are raw, so the layer metrics combine them with raw op times
        on = {i: {"ms": o.raw_ms, "ok": o.ok, "converged": o.converged, "gap_rel": o.gap_rel}
              for i, (o, t) in enumerate(zip(ops, traced)) if t}
        metrics = tracer.layer_metrics(recorder.spans, on)
        metrics["tracing.overhead_ratio"] = (
            statistics.median([o.ms for o, t in zip(ops, traced) if t])
            / statistics.median([o.ms for o, t in zip(ops, traced) if not t]) - 1.0)
        recorder.dump(os.path.join(work, f"spans-{wl.name}-{args.seed}.jsonl"))
        units = tracer.LAYER_UNITS
    else:
        timed_s = sum(ms) / 1e3
        metrics = {
            "route_ms.p50": statistics.median(ms),
            "route_ms.tail": _percentile(ms, wl.tail_pct),
            "goodput_per_s": (len(ops) - failed) / timed_s,
            "fail_ratio": max(failed / len(ops), FAIL_RATIO_FLOOR),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    result = {
        "correct": deterministic,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
