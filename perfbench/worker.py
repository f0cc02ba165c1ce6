"""One benchmark process: set up a workload, then time repeats of its call.

run.py starts this script with the repository's `src` on PYTHONPATH and
reads the JSON object it prints as its last line. `--t0-ns` is the parent's
`time.monotonic_ns()` just before it started this process, so set-up time
runs from process start until the first timed call begins. With
`--setup-only` the process stops there, which lets run.py sample set-up
time in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from poemrl.autodiff import Tensor

import tracing
import workloads

WORK = Path(__file__).resolve().parents[1] / ".perfbench_work"
MIN_CALLS = 3  # repeats in an untraced run, however long each takes
MIN_TRACED_CALLS = 2  # repeats in each part of a traced run
UNTRACED_SHARE = 0.35  # share of a traced run spent on untraced calls, for the overhead


@dataclass
class Call:
    seconds: float
    outcome: object | None  # workloads.Outcome, or None when the call raised
    tracer: object | None = None


def run_calls(wl, inputs, seconds: float, min_calls: int, traced: bool) -> list[Call]:
    """Repeat the workload's call until the next one would end past `seconds`."""
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        wl.clear(inputs)
        tracer = tracing.Tracer(tracing.default_targets(), Tensor) if traced else None
        t0 = time.perf_counter()
        try:
            with tracer.installed() if traced else nullcontext():
                t0 = time.perf_counter()
                raw = wl.call(inputs)
                elapsed = time.perf_counter() - t0
            outcome = wl.check(inputs, raw)
        except Exception:  # noqa: BLE001 - a failed call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            elapsed, outcome = time.perf_counter() - t0, None
        calls.append(Call(elapsed, outcome, tracer))
        typical = statistics.median(c.seconds for c in calls)
        if len(calls) >= min_calls and time.perf_counter() - start + typical > seconds:
            return calls


def _judge(wl, calls: list[Call], problems: list[str]) -> tuple[int, dict | None, dict | None]:
    """Failed operations over `calls`, with the reference fingerprint and counters.

    Each call that returned and passed its own checks must give the same
    fingerprint, and each traced one the same exact counters, as the first
    such call. A call fails its operations once, whatever went wrong.
    """
    failed, reference, ref_counts = 0, None, None
    for i, call in enumerate(calls):
        if call.outcome is None:
            failed += wl.operations
            problems.append(f"call {i} raised")
            continue
        own = list(call.outcome.problems)
        if not own:
            reference = reference or call.outcome.fingerprint
            if call.outcome.fingerprint != reference:
                own.append(f"call {i} fingerprint {call.outcome.fingerprint} differs from {reference}")
        if not own and call.tracer is not None:
            counts = tracing.call_counts(call.tracer)
            ref_counts = ref_counts or counts
            if counts != ref_counts:
                own.append(f"call {i} counts {counts} differ from {ref_counts}")
        if own:
            failed += wl.operations
            problems += own
    return failed, reference, ref_counts


def _steps_per_s(calls: list[Call]) -> float:
    """Steps completed per second of timed calls, over every call that returned.

    On a shared host the CPU's speed moves by up to 1.6x, up and down, for
    seconds to minutes at a time. Totals average over those spells; the
    fastest call or a low quantile follows whichever spells the run met.
    """
    done = [c for c in calls if c.outcome is not None]
    seconds = sum(c.seconds for c in done)
    return sum(c.outcome.steps for c in done) / seconds if seconds else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0-ns", type=int, required=True)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = wl.setup(args.seed, work)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems: list[str] = []
    result = {"setup_s": setup_s, "numpy": np.__version__}
    if args.trace:
        plain = run_calls(wl, inputs, UNTRACED_SHARE * args.seconds, MIN_TRACED_CALLS, traced=False)
        traced = run_calls(wl, inputs, (1.0 - UNTRACED_SHARE) * args.seconds, MIN_TRACED_CALLS, traced=True)
        failed, fingerprint, counts = _judge(wl, plain + traced, problems)
        tracers = [c.tracer for c in traced]
        counts = counts or tracing.call_counts(tracers[0])  # no traced call passed; the run is failed
        layers = tracing.layer_metrics(tracers, {**counts, "harness.csv_bytes": (fingerprint or {}).get("csv_bytes", 0)})
        untraced_sps, traced_sps = _steps_per_s(plain), _steps_per_s(traced)
        layers["trace.steps_per_s"] = traced_sps
        layers["trace.untraced_steps_per_s"] = untraced_sps
        layers["trace.overhead_pct"] = 100.0 * (1.0 - traced_sps / untraced_sps) if untraced_sps else 0.0
        tracing.write_spans(work / "spans.csv", tracers)
        result.update(layers=layers, counts=counts)
        calls = plain + traced
    else:
        calls = run_calls(wl, inputs, args.seconds, MIN_CALLS, traced=False)
        failed, fingerprint, _ = _judge(wl, calls, problems)
        result["steps_per_s"] = _steps_per_s(calls)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = next((c.outcome for c in calls if c.outcome is not None), None)
    result.update(
        calls=len(calls),
        call_seconds=[round(c.seconds, 6) for c in calls],
        attempted=wl.operations * len(calls),
        failed=failed,
        problems=problems[:20],
        fingerprint=fingerprint,
        eval_return=first.eval_return if first else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
