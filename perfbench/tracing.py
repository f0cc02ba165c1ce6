"""Span tracing of poemrl's layers, applied from outside the library.

A Tracer swaps each traced function (a module attribute or a class method)
for a wrapper that records one span per call, and puts the original object
back when its `installed()` block ends, so an untraced run carries no
wrapper at all. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple

from poemrl import autodiff, envs, harness, nn, poem, policy, ppo, rollout, stats


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in the same list, -1 at top level
    tensors: int  # autodiff Tensor nodes created while the span was open
    items: int  # work items the call reported (steps collected, episodes run)


class Target(NamedTuple):
    owner: object  # module or class holding the attribute
    attr: str
    name: str  # span name
    # observe(counts, args, result) updates exact counters and returns the
    # call's item count
    observe: Callable | None = None


def _episode_ended(counts, args, result) -> int:
    counts["envs.episodes"] += int(result.terminated or result.truncated)
    return 1


def _mutation_outcome(counts, args, result) -> int:
    counts["poem.accepts"] += int(result[1].mutation_accepted)
    return 1


def _checkpoint_size(counts, args, result) -> int:
    counts["harness.checkpoint_bytes"] += os.path.getsize(args[0])
    return 1


def default_targets() -> list[Target]:
    """Every public function the per-layer metrics are measured around."""
    return [
        Target(rollout, "collect", "rollout.collect", lambda c, a, r: len(r[0])),
        Target(rollout, "compute_gae", "rollout.compute_gae"),
        Target(policy, "distribution", "policy.distribution"),
        Target(policy, "value", "policy.value"),
        Target(envs.MountainCarContinuous, "step", "envs.MountainCarContinuous.step", _episode_ended),
        Target(envs.SparseLander, "step", "envs.SparseLander.step", _episode_ended),
        Target(ppo, "apply_minibatch_step", "ppo.apply_minibatch_step"),
        Target(ppo, "loss_graph", "ppo.loss_graph"),
        Target(autodiff.Tensor, "backward", "autodiff.Tensor.backward"),
        Target(nn, "adam_step", "nn.adam_step"),
        Target(poem, "kl_divergence_mc", "poem.kl_divergence_mc"),
        Target(poem, "mutate_and_select", "poem.mutate_and_select", _mutation_outcome),
        Target(poem, "total_loss", "poem.total_loss"),
        Target(stats, "evaluate_policy", "stats.evaluate_policy", lambda c, a, r: len(r.seeds)),
        Target(harness, "train", "harness.train"),
        Target(harness, "evaluate", "harness.evaluate"),
        Target(harness, "save_checkpoint", "harness.save_checkpoint", _checkpoint_size),
    ]


def _raw_attr(owner, attr):
    # a class's own dict holds the plain function, which is what must be restored
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Records spans and exact counters for the calls made while installed."""

    def __init__(self, targets: list[Target], count_class: type | None = None):
        self.targets = targets
        self.count_class = count_class  # class whose constructions are counted
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.tensors = 0
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tensors = self.tensors
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, start, time.perf_counter_ns(), parent, self.tensors - tensors, 0)
                stack.pop()
                raise
            end = time.perf_counter_ns()
            stack.pop()
            items = 1 if observe is None else observe(counts, args, result)
            spans[idx] = Span(name, start, end, parent, self.tensors - tensors, items)
            return result

        return traced

    def _counting_init(self, init):
        def counted(*args, **kwargs):
            self.tensors += 1
            init(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for t in self.targets:
                fn = _raw_attr(t.owner, t.attr)
                originals.append((t.owner, t.attr, fn))
                setattr(t.owner, t.attr, self._wrap(fn, t.name, t.observe))
            if self.count_class is not None:
                init = vars(self.count_class)["__init__"]
                originals.append((self.count_class, "__init__", init))
                self.count_class.__init__ = self._counting_init(init)
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


# ---- arithmetic over recorded spans ------------------------------------------


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and nested, so children never overlap and the
    time they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end_ns - s.start_ns
    return [s.end_ns - s.start_ns - c for s, c in zip(spans, covered)]


# unit -> nanoseconds per unit, for the time metrics
_NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}


def _median(values: list[float], unit: str) -> float:
    return float(statistics.median(values)) / _NS_PER[unit] if values else 0.0


def call_counts(tracer: Tracer) -> dict[str, int]:
    """Exact per-call counters; a repeat of the same call must reproduce them."""
    n = Counter(s.name for s in tracer.spans)
    minibatch_tensors = sum(s.tensors for s in tracer.spans if s.name == "ppo.apply_minibatch_step")
    steps = n["envs.MountainCarContinuous.step"] + n["envs.SparseLander.step"]
    return {
        "envs.steps": steps,
        "envs.episodes": tracer.counts["envs.episodes"],
        "policy.value_calls": n["policy.value"],
        "rollout.collect_calls": n["rollout.collect"],
        "ppo.minibatch_steps": n["ppo.apply_minibatch_step"],
        "ppo.loss_graph_calls": n["ppo.loss_graph"],
        "autodiff.backward_calls": n["autodiff.Tensor.backward"],
        "autodiff.minibatch_tensors": minibatch_tensors,
        "nn.adam_step_calls": n["nn.adam_step"],
        "poem.kl_probe_calls": n["poem.kl_divergence_mc"],
        "poem.triggers": n["poem.mutate_and_select"],
        "poem.accepts": tracer.counts["poem.accepts"],
        # every mutate_and_select scores its incumbent once, then each candidate
        "poem.candidates_scored": n["poem.total_loss"] - n["poem.mutate_and_select"],
        "stats.evaluate_policy_calls": n["stats.evaluate_policy"],
        "harness.checkpoint_writes": n["harness.save_checkpoint"],
        "harness.checkpoint_bytes": tracer.counts["harness.checkpoint_bytes"],
    }


def layer_metrics(tracers: list[Tracer], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer values from the spans of every traced call.

    Times are medians over all calls of a name: self time, except
    `poem.candidate_score_us`, which is whole-call time because scoring a
    candidate is the entire call. `envs.step_us` and
    `policy.distribution_us` pool both environments and both action heads
    when a workload runs both. `harness.evaluate_self_s` and
    `stats.evaluate_policy_s` sum one timed call's spans over its
    checkpoints, and `stats.episode_ms` divides that call's
    `evaluate_policy` time by its episodes; each is then a median over timed
    calls. Counts are those of one call (`counts`, equal on every repeat).
    """
    self_ns: dict[str, list[int]] = {}
    candidate_ns, collect_step_ns = [], []
    evaluate_ns, evaluate_policy_ns, episode_ns = [], [], []
    for tracer in tracers:
        call_evaluate = call_policy = call_policy_whole = call_episodes = 0
        for s, own in zip(tracer.spans, self_times_ns(tracer.spans)):
            self_ns.setdefault(s.name, []).append(own)
            if s.name == "poem.total_loss":
                candidate_ns.append(s.end_ns - s.start_ns)
            elif s.name == "rollout.collect" and s.items:
                collect_step_ns.append(own / s.items)
            elif s.name == "harness.evaluate":
                call_evaluate += own
            elif s.name == "stats.evaluate_policy":
                call_policy += own
                call_policy_whole += s.end_ns - s.start_ns
                call_episodes += s.items
        if call_episodes:
            evaluate_ns.append(call_evaluate)
            evaluate_policy_ns.append(call_policy)
            episode_ns.append(call_policy_whole / call_episodes)

    def own(name, unit):
        return _median(self_ns.get(name, []), unit)

    env_step_ns = self_ns.get("envs.MountainCarContinuous.step", []) + self_ns.get("envs.SparseLander.step", [])
    triggers = counts["poem.triggers"]
    minibatches = counts["ppo.minibatch_steps"]
    values = {
        "envs.step_us": _median(env_step_ns, "us"),
        "policy.distribution_us": own("policy.distribution", "us"),
        "policy.value_us": own("policy.value", "us"),
        "rollout.collect_us_per_step": _median(collect_step_ns, "us"),
        "rollout.gae_ms": own("rollout.compute_gae", "ms"),
        "ppo.minibatch_step_us": own("ppo.apply_minibatch_step", "us"),
        "ppo.loss_graph_us": own("ppo.loss_graph", "us"),
        "autodiff.backward_us": own("autodiff.Tensor.backward", "us"),
        "autodiff.tensors_per_minibatch": counts["autodiff.minibatch_tensors"] / minibatches if minibatches else 0.0,
        "nn.adam_step_us": own("nn.adam_step", "us"),
        "poem.kl_probe_us": own("poem.kl_divergence_mc", "us"),
        "poem.mutate_select_us": own("poem.mutate_and_select", "us"),
        "poem.candidate_score_us": _median(candidate_ns, "us"),
        "poem.accept_ratio": counts["poem.accepts"] / triggers if triggers else 0.0,
        "stats.evaluate_policy_s": _median(evaluate_policy_ns, "s"),
        "stats.episode_ms": _median(episode_ns, "ms"),
        "harness.train_self_s": own("harness.train", "s"),
        "harness.evaluate_self_s": _median(evaluate_ns, "s"),
        "harness.checkpoint_write_us": own("harness.save_checkpoint", "us"),
    }
    return {**counts, **values}


def write_spans(path, tracers: list[Tracer]) -> None:
    """One CSV row per span; `call` numbers the traced calls from 0."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("call,name,start_ns,end_ns,parent,tensors,items\n")
        for call, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(f"{call},{s.name},{s.start_ns},{s.end_ns},{s.parent},{s.tensors},{s.items}\n")
