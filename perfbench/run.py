"""poemrl benchmark: env-steps per second on fixed-seed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is a workload listed in
BENCHMARK.json (worker.py checks it), or `all` to run each in turn. Each
workload is a closed loop: one process calls poemrl's public API back to
back for S seconds (`harness.train` or `harness.evaluate`), and every
call's outputs are checked. The inputs are built from N.

With --trace 0 the last stdout line carries the end-to-end metrics:
steps_per_s (total over calls), setup_s (minimum over fresh processes
started before and after the timed one, from process start to the first
timed call; host noise only ever adds to it) and peak_rss_mb.
With --trace 1 a separate run wraps the library's layers from outside and
reports per-layer self times and exact counters instead; spans are written
to .perfbench_work/NAME/spans.csv. Failed operations (an update in
training, an episode in evaluation) are reported as `failed` out of
`attempted`, and any failure makes `correct` false.

Uses only the standard library; the measured work runs in perfbench/worker.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # fresh processes that only set up, before and again after the timed run
DEADLINE_S = 170.0  # a run must end well inside 180 s


def _git_sha(root: Path) -> str:
    """HEAD's commit, or "unknown" outside a git clone."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON of its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """One workload's result line: correct, attempted, failed and metrics."""
    common = ["--workload", name, "--seed", str(seed)]
    probes = 0 if trace else SETUP_PROBES
    setups = [_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    res = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    setups += [_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    values = res["layers"] if trace else {**res, "setup_s": min(setups)}

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    info = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "call_seconds": res["call_seconds"],
        "error_rate": res["failed"] / res["attempted"],
        "problems": res["problems"],
        "fingerprint": res["fingerprint"],
        "eval_return": res["eval_return"],
        "setup_samples_s": setups,
        "counts": res.get("counts"),
        "provenance": {
            "git_sha": _git_sha(ROOT),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "nproc": os.cpu_count(),
        },
    }
    out_dir = ROOT / ".perfbench_work" / name
    (out_dir / f"result_trace{trace}.json").write_text(json.dumps(info, indent=1) + "\n")
    print("info " + json.dumps(info))
    for key, m in metrics.items():
        print(f"{name:<18} {key:<32} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:<18} {'error_rate':<32} {info['error_rate']:>16.6g} "
          f"({res['failed']}/{res['attempted']} operations failed)")
    return {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "poemrl" / "__init__.py").is_file():
        print(f"error: no poemrl sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    deadline = started + DEADLINE_S * len(names)
    try:
        results = {n: run_workload(spec, n, args.seed, args.seconds, args.trace, deadline) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
