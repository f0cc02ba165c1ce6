"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from poemrl import rollout
from poemrl.autodiff import Tensor

import tracing
import worker
import workloads
from tracing import Span, Tracer, self_times_ns

HERE = Path(__file__).resolve().parent


def small_train(tmp_path, seed, algo="poem"):
    """A one-update, one-minibatch training workload and its config."""
    wl = workloads.TrainWorkload("small", "mountain_car_continuous", algo, updates=1)
    cfg = wl.setup(seed, tmp_path)
    cfg = replace(cfg, n_steps=64, total_timesteps=64, ppo=replace(cfg.ppo, epochs=1))
    return wl, cfg


def test_self_time_subtracts_only_direct_children():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    spans = [
        Span("root", 0, 100, -1, 0, 1),
        Span("a", 10, 40, 0, 0, 1),
        Span("c", 15, 25, 1, 0, 1),
        Span("b", 50, 90, 0, 0, 1),
    ]
    assert self_times_ns(spans) == [30, 20, 10, 40]


def test_layer_metrics_take_medians_of_self_time():
    tracer = Tracer([])
    tracer.spans = [
        Span("ppo.apply_minibatch_step", 0, 1000, -1, 7, 1),
        Span("ppo.loss_graph", 100, 400, 0, 5, 1),
        Span("ppo.apply_minibatch_step", 1000, 4000, -1, 9, 1),
        Span("ppo.loss_graph", 1000, 1500, 2, 5, 1),
        Span("ppo.apply_minibatch_step", 4000, 5000, -1, 8, 1),
    ]
    counts = tracing.call_counts(tracer)
    values = tracing.layer_metrics([tracer], counts)
    assert values["ppo.minibatch_step_us"] == pytest.approx(1.0)  # self times 0.7, 2.5, 1.0 us
    assert values["ppo.loss_graph_us"] == pytest.approx(0.4)
    assert values["ppo.minibatch_steps"] == 3
    assert values["autodiff.tensors_per_minibatch"] == 8
    assert values["poem.kl_probe_us"] == 0.0 and values["poem.triggers"] == 0


def test_evaluation_metrics_sum_a_call_over_its_checkpoints():
    # each timed call evaluates two checkpoints of very different episode lengths
    calls = []
    for offset in (0, 10_000):
        tracer = Tracer([])
        tracer.spans = [
            Span("harness.evaluate", offset, offset + 1000, -1, 0, 1),
            Span("stats.evaluate_policy", offset + 100, offset + 900, 0, 0, 2),
            Span("harness.evaluate", offset + 1000, offset + 1300, -1, 0, 1),
            Span("stats.evaluate_policy", offset + 1100, offset + 1200, 2, 0, 2),
        ]
        calls.append(tracer)
    values = tracing.layer_metrics(calls, tracing.call_counts(calls[0]))
    assert values["harness.evaluate_self_s"] == pytest.approx(400e-9)
    assert values["stats.evaluate_policy_s"] == pytest.approx(900e-9)
    assert values["stats.episode_ms"] == pytest.approx(225e-6)
    assert values["stats.evaluate_policy_calls"] == 2


def test_traced_call_restores_every_original(tmp_path):
    targets = tracing.default_targets()
    tensor = Tensor
    before = [tracing._raw_attr(t.owner, t.attr) for t in targets]
    init = vars(tensor)["__init__"]
    wl, cfg = small_train(tmp_path, seed=0)

    tracer = Tracer(targets, tensor)
    with tracer.installed():
        assert all(tracing._raw_attr(t.owner, t.attr) is not b for t, b in zip(targets, before))
        result = wl.call(cfg)
    assert all(tracing._raw_attr(t.owner, t.attr) is b for t, b in zip(targets, before))
    assert vars(tensor)["__init__"] is init

    assert wl.check(cfg, result).problems == []
    counts = tracing.call_counts(tracer)
    assert counts["envs.steps"] == 64
    assert counts["ppo.minibatch_steps"] == counts["poem.kl_probe_calls"] == 1
    assert counts["autodiff.minibatch_tensors"] > 0
    assert counts["harness.checkpoint_writes"] == 1


def test_tracer_restores_originals_when_the_call_raises():
    targets = tracing.default_targets()
    before = [tracing._raw_attr(t.owner, t.attr) for t in targets]
    tracer = Tracer(targets)
    with pytest.raises(ValueError):
        with tracer.installed():
            rollout.compute_gae(None, gamma=2.0, lam=0.9)
    assert all(tracing._raw_attr(t.owner, t.attr) is b for t, b in zip(targets, before))
    assert [s.name for s in tracer.spans] == ["rollout.compute_gae"]


def test_changed_seed_changes_training_inputs_and_passes_checks(tmp_path):
    outcomes = []
    for seed in (0, 1):
        wl, cfg = small_train(tmp_path / str(seed), seed)
        assert cfg.seed == seed
        outcomes.append(wl.check(cfg, wl.call(cfg)))
    assert all(o.problems == [] for o in outcomes)
    assert outcomes[0].fingerprint["digest"] != outcomes[1].fingerprint["digest"]


def test_changed_seed_changes_evaluation_inputs_and_passes_checks(tmp_path):
    wl = workloads.EvalWorkload("small", episodes=1)
    inputs = {}
    for seed in (0, 1):
        (tmp_path / str(seed)).mkdir()
        inputs[seed] = wl.setup(seed, tmp_path / str(seed))
    for a, b in zip(inputs[0], inputs[1]):
        assert a.checkpoint.read_bytes() != b.checkpoint.read_bytes()
        assert a.seed_base != b.seed_base
    outcomes = [wl.check(inp, wl.call(inp)) for inp in inputs.values()]
    assert all(o.problems == [] for o in outcomes)
    assert outcomes[0].fingerprint["digest"] != outcomes[1].fingerprint["digest"]


def test_a_repeat_that_differs_fails_its_operations(tmp_path):
    wl, cfg = small_train(tmp_path, seed=0, algo="ppo")
    outcome = wl.check(cfg, wl.call(cfg))
    changed = replace(outcome, fingerprint={**outcome.fingerprint, "digest": "0" * 64})
    calls = [worker.Call(1.0, outcome), worker.Call(1.0, outcome), worker.Call(1.0, changed), worker.Call(1.0, None)]
    problems = []
    failed, reference, counts = worker._judge(wl, calls, problems)
    assert failed == 2 * wl.operations
    assert reference == outcome.fingerprint and counts is None
    assert len(problems) == 2


def test_a_failed_first_call_fails_only_its_own_operations(tmp_path):
    wl, cfg = small_train(tmp_path, seed=0, algo="ppo")
    outcome = wl.check(cfg, wl.call(cfg))
    broken = replace(outcome, problems=["metrics.csv has 0 rows"], fingerprint={"digest": "0" * 64})
    partial, whole = Tracer([]), Tracer([])
    partial.spans = [Span("rollout.collect", 0, 10, -1, 0, 1)]
    whole.spans = partial.spans * 2
    calls = [worker.Call(1.0, broken, partial), worker.Call(1.0, outcome, whole), worker.Call(1.0, outcome, whole)]
    problems = []
    failed, reference, counts = worker._judge(wl, calls, problems)
    assert failed == wl.operations
    assert reference == outcome.fingerprint
    assert counts["rollout.collect_calls"] == 2
    assert problems == ["metrics.csv has 0 rows"]


def test_steps_per_s_totals_the_calls_that_returned():
    done = workloads.Outcome(steps=100)
    calls = [worker.Call(2.0, done), worker.Call(0.5, None), worker.Call(1.0, done), worker.Call(4.0, done)]
    assert worker._steps_per_s(calls) == pytest.approx(300 / 7.0)


def test_training_check_flags_a_truncated_metrics_file(tmp_path):
    wl, cfg = small_train(tmp_path, seed=0, algo="ppo")
    result = wl.call(cfg)
    lines = result.metrics_path.read_text().splitlines()
    result.metrics_path.write_text(lines[0] + "\n")
    assert any("metrics.csv has 0 rows" in p for p in wl.check(cfg, result).problems)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcc_poem_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_spec_lists_the_workloads_the_worker_runs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_spec_names_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer([])
    values = tracing.layer_metrics([tracer], {**tracing.call_counts(tracer), "harness.csv_bytes": 0})
    values.update({"trace.steps_per_s": 0, "trace.untraced_steps_per_s": 0, "trace.overhead_pct": 0})
    assert {m["name"] for m in spec["per_layer"]} <= set(values)
