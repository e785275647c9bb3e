"""Spans around calls into supportq's public functions, recorded from outside the program.

`install(tracer)` replaces each function or method named in TARGETS, wherever a
loaded supportq module refers to it, with a wrapper that records one span per
call; `uninstall` puts the originals back.  Nothing inside the program changes.

A span is the list [id, parent, name, start_ns, end_ns, n, mb, run]:
  id, parent  "<pid>:<index>" strings once written; a subprocess's root span
              names the benchmark span that launched it as its parent;
  n           a size counted at the call (tokens encoded, items in a batch);
  mb          peak traced memory of the call in MiB, taken with tracemalloc on
              the first call of each name in MEMORY_PROBES in a process;
  run         the unit of work the span belongs to ("setup2", "round1").
Spans stay in memory and are written as JSON lines when the process ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute); "Class.method" wraps the method on the class.
TARGETS = (
    ("training.fit", "supportq.training", "fit"),
    ("training.train_step", "supportq.training", "train_step"),
    ("training.compute_targets", "supportq.training", "compute_targets"),
    ("training.clip_global_norm", "supportq.training", "clip_global_norm"),
    ("training.adam_step", "supportq.training", "Adam.step"),
    ("qnet.seq.q_all", "supportq.qnet.seq", "SeqScorer.q_all"),
    ("qnet.seq.q_value", "supportq.qnet.seq", "SeqScorer.q_value"),
    ("qnet.seq.loss_and_grads", "supportq.qnet.seq", "SeqScorer.loss_and_grads"),
    ("qnet.mlp.extract_features", "supportq.qnet.mlp", "extract_features"),
    ("qnet.mlp.q_all", "supportq.qnet.mlp", "MlpScorer.q_all"),
    ("qnet.mlp.loss_and_grads", "supportq.qnet.mlp", "MlpScorer.loss_and_grads"),
    ("autodiff.backward", "supportq.autodiff", "backward"),
    ("encoding.encode_pair", "supportq.encoding", "encode_pair"),
    ("encoding.build_vocab", "supportq.encoding", "build_vocab"),
    ("env.collect_transitions", "supportq.env", "collect_transitions"),
    ("env.step", "supportq.env", "StagedEnv.step"),
    ("env.demo_episodes", "supportq.env", "StagedEnv.demo_episodes"),
    ("env.to_tabular", "supportq.env", "StagedEnv.to_tabular"),
    ("env.value_iteration", "supportq.env", "value_iteration"),
    ("rewards.judge_score", "supportq.rewards", "SyntheticJudge.score"),
    ("rewards.imitation_rewards", "supportq.rewards", "imitation_rewards"),
    ("metrics.accuracy", "supportq.metrics", "accuracy"),
    ("metrics.confusion_matrix", "supportq.metrics", "confusion_matrix"),
    ("metrics.macro_f1", "supportq.metrics", "macro_f1"),
    ("metrics.bt_strengths", "supportq.metrics", "bt_strengths"),
    ("metrics.bt_bias", "supportq.metrics", "bt_bias"),
    ("metrics.bleu2", "supportq.metrics", "bleu2"),
    ("metrics.rouge_l", "supportq.metrics", "rouge_l"),
    ("metrics.distinct2", "supportq.metrics", "distinct2"),
    ("metrics.cider", "supportq.metrics", "cider"),
    ("metrics.transition_matrix", "supportq.metrics", "transition_matrix"),
    ("metrics.stage_upper_mass", "supportq.metrics", "stage_upper_mass"),
    ("metrics.avg_reward_value", "supportq.metrics", "avg_reward_value"),
    ("metrics.write_matrix_csv", "supportq.metrics", "write_matrix_csv"),
    ("core.derive_transitions", "supportq.core", "derive_transitions"),
    ("ingest.load_esconv", "supportq.ingest", "load_esconv"),
    ("qnet.checkpoint.save", "supportq.qnet.checkpoint", "save_scorer"),
    ("qnet.checkpoint.load", "supportq.qnet.checkpoint", "load_scorer"),
)

MEMORY_PROBES = frozenset({"qnet.seq.q_all", "qnet.seq.loss_and_grads"})


def _tokens(args, kwargs, result):
    return len(result.tokens)


def _items(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["items"])


SIZES = {
    "encoding.encode_pair": _tokens,
    "qnet.seq.loss_and_grads": _items,
    "qnet.mlp.loss_and_grads": _items,
}


class Tracer:
    """In-memory span store of one process."""

    def __init__(self, parent: str | None = None, run: str = ""):
        self.pid = os.getpid()
        self.run = run
        self.spans: list[list] = []
        self.stack: list = [parent]
        self.probed: set[str] = set()

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self.stack[-1], name, time.perf_counter_ns(), 0, None, None, self.run]
        self.spans.append(rec)
        self.stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter_ns()
            self.stack.pop()

    def span_id(self, rec: list) -> str:
        return f"{self.pid}:{rec[0]}"

    def records(self):
        """Spans with ids and parents spelled out as "<pid>:<index>"."""
        pid = self.pid
        for index, parent, name, start, end, n, mb, run in self.spans:
            if isinstance(parent, int):
                parent = f"{pid}:{parent}"
            yield [f"{pid}:{index}", parent, name, start, end, n, mb, run]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    size = SIZES.get(name)
    probe = name in MEMORY_PROBES
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter_ns

    def traced(*args, **kwargs):
        rec = [len(spans), stack[-1], name, clock(), 0, None, None, tracer.run]
        spans.append(rec)
        stack.append(rec[0])
        measure = probe and name not in tracer.probed and not tracemalloc.is_tracing()
        if measure:
            tracer.probed.add(name)
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = clock()
            stack.pop()
            if measure:
                rec[6] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        if size is not None:
            rec[5] = size(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the undo list for `uninstall`."""
    importlib.import_module("supportq.cli")  # loads every module that holds an alias
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "supportq" and m]
    undo = []
    for name, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, name, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- per-layer metrics ---------------------------------------------------------

# metric -> (span name, field); field is "s" (summed duration), "calls", "n" (summed size),
# "mb" (max probe) or "self_s" (duration minus the time child spans cover)
SIMPLE = {
    "training.compute_targets_s": ("training.compute_targets", "s"),
    "training.adam_step_s": ("training.adam_step", "s"),
    "training.clip_global_norm_s": ("training.clip_global_norm", "s"),
    "training.steps": ("training.train_step", "calls"),
    "qnet.seq.q_all_s": ("qnet.seq.q_all", "s"),
    "qnet.seq.q_all_calls": ("qnet.seq.q_all", "calls"),
    "qnet.seq.q_value_calls": ("qnet.seq.q_value", "calls"),
    "qnet.seq.q_all_peak_mb": ("qnet.seq.q_all", "mb"),
    "qnet.seq.loss_and_grads_s": ("qnet.seq.loss_and_grads", "s"),
    "qnet.seq.loss_and_grads_items": ("qnet.seq.loss_and_grads", "n"),
    "qnet.seq.loss_and_grads_peak_mb": ("qnet.seq.loss_and_grads", "mb"),
    "qnet.mlp.extract_features_s": ("qnet.mlp.extract_features", "s"),
    "qnet.mlp.extract_features_calls": ("qnet.mlp.extract_features", "calls"),
    "qnet.mlp.q_all_s": ("qnet.mlp.q_all", "s"),
    "qnet.mlp.loss_and_grads_s": ("qnet.mlp.loss_and_grads", "s"),
    "autodiff.backward_s": ("autodiff.backward", "s"),
    "autodiff.backward_calls": ("autodiff.backward", "calls"),
    "encoding.encode_pair_s": ("encoding.encode_pair", "s"),
    "encoding.encode_pair_calls": ("encoding.encode_pair", "calls"),
    "encoding.tokens_encoded": ("encoding.encode_pair", "n"),
    "encoding.build_vocab_s": ("encoding.build_vocab", "s"),
    "env.collect_transitions_s": ("env.collect_transitions", "s"),
    "env.step_s": ("env.step", "s"),
    "env.step_calls": ("env.step", "calls"),
    "env.demo_episodes_s": ("env.demo_episodes", "s"),
    "env.to_tabular_s": ("env.to_tabular", "s"),
    "env.value_iteration_s": ("env.value_iteration", "s"),
    "rewards.judge_score_s": ("rewards.judge_score", "s"),
    "rewards.judge_calls": ("rewards.judge_score", "calls"),
    "rewards.imitation_rewards_s": ("rewards.imitation_rewards", "s"),
    "metrics.cider_s": ("metrics.cider", "s"),
    "metrics.rouge_l_s": ("metrics.rouge_l", "s"),
    "metrics.bleu2_s": ("metrics.bleu2", "s"),
    "metrics.bt_bias_s": ("metrics.bt_bias", "s"),
    "metrics.distinct2_s": ("metrics.distinct2", "s"),
    "core.derive_transitions_s": ("core.derive_transitions", "s"),
    "ingest.load_esconv_s": ("ingest.load_esconv", "s"),
    "qnet.checkpoint.save_s": ("qnet.checkpoint.save", "s"),
    "qnet.checkpoint.load_s": ("qnet.checkpoint.load", "s"),
}


def summarize(records: list[list]) -> dict:
    """Per unit scope ("setup" or "round") and span name: calls, s, self_s, n, mb.

    Also adds the derived names "training.loss_and_grads" (scorer loss_and_grads
    called from a train step), "metrics.suite" (metrics calls not made by
    another metrics call) and "cli" (every cli.<command> span).
    """
    names = {rec[0]: rec[2] for rec in records}
    covered: dict[str, int] = defaultdict(int)
    for rec in records:
        if rec[1] is not None:
            covered[rec[1]] += rec[4] - rec[3]
    out: dict = {}
    for sid, parent, name, start, end, n, mb, run in records:
        scope = "setup" if run.startswith("setup") else "round"
        parent_name = names.get(parent, "")
        keys = [name]
        if name.endswith(".loss_and_grads") and parent_name == "training.train_step":
            keys.append("training.loss_and_grads")
        if name.startswith("metrics.") and not parent_name.startswith("metrics."):
            keys.append("metrics.suite")
        if name.startswith("cli."):
            keys.append("cli")
        for key in keys:
            agg = out.setdefault(scope, {}).setdefault(
                key, {"calls": 0, "s": 0.0, "self_s": 0.0, "n": 0, "mb": 0.0}
            )
            agg["calls"] += 1
            agg["s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - covered.get(sid, 0)) / 1e9
            agg["n"] += n or 0
            agg["mb"] = max(agg["mb"], mb or 0.0)
    return out


def layer_metrics(summary: dict, units: dict) -> dict:
    """Per-layer metrics: each scope's totals divided by its number of units, summed.

    `units` maps scope -> how many traced setups / rounds the spans came from.
    """
    derived = dict(SIMPLE)
    derived["training.loss_and_grads_s"] = ("training.loss_and_grads", "s")
    derived["metrics.suite_s"] = ("metrics.suite", "s")
    derived["cli.self_s"] = ("cli", "self_s")
    metrics = {}
    for metric, (name, field) in derived.items():
        value = 0.0
        for scope, count in units.items():
            agg = summary.get(scope, {}).get(name)
            if agg is None or count == 0:
                continue
            if field == "mb":
                value = max(value, agg["mb"])
            else:
                value += agg[field] / count
        metrics[metric] = value
    return metrics
